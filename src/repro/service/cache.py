"""Content-addressed result cache: in-memory LRU + optional disk store.

Results are keyed by ``sha256(canonical spec JSON | code version)`` so a
repeated request is served without re-simulation, while any change to
the spec *or* to the package version invalidates cleanly. The disk
layer stores one JSON file per key (spec alongside result, for
auditability) and backfills the memory layer on hit.

The cache is safe to share across threads (the HTTP gateway serves
``get``/``put`` from many request threads at once): the memory layer is
guarded by a lock, and disk writes go through a temp file renamed into
place with :func:`os.replace`, so a reader racing a writer sees either
the complete previous file or the complete new one — never a partial
write. Corrupt or truncated files (e.g. from a crashed process) degrade
to a miss.

Integrity: every entry written carries a content ``checksum`` over the
canonical serialized result. Reads verify it, so a flipped bit on disk
— which parses as perfectly valid JSON — is caught and treated as a
miss (counted in ``stats()['checksum_failures']`` and the
``repro_cache_checksum_failures_total`` metric) instead of being
served as a wrong answer; the caller re-simulates and the fresh write
replaces the damaged file. Entries from before the checksum era carry
no checksum and are accepted as-is.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Optional

from repro import faults
from repro.obs import instant
from repro.obs.metrics import default_registry
from repro.service.spec import SimJobSpec
from repro.system.training import NetworkResult

#: Default bound on the in-memory layer. At ~10-100 KB per serialized
#: :class:`NetworkResult` this caps resident results at a few tens of
#: MB; long-lived processes (the HTTP server) can lower or raise it via
#: ``max_entries``.
DEFAULT_MAX_ENTRIES = 512


def _code_version() -> str:
    from repro import __version__

    return __version__


def cache_key(spec: SimJobSpec, version: Optional[str] = None) -> str:
    """The content address of one (spec, code version) pair."""
    version = version if version is not None else _code_version()
    return hashlib.sha256(
        f"{spec.canonical_json()}|{version}".encode("utf-8")
    ).hexdigest()


def result_checksum(result_dict: dict) -> str:
    """Content checksum of one serialized result.

    Computed over the canonical (sorted-keys, no-whitespace) JSON of
    the ``result`` dict, which is stable through a JSON round-trip —
    so the checksum written at ``put`` time verifies against the dict
    re-parsed from disk.
    """
    return hashlib.sha256(
        json.dumps(
            result_dict, sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
    ).hexdigest()


class ResultCache:
    """LRU of :class:`NetworkResult` objects, optionally disk-backed.

    ``max_entries`` bounds the in-memory layer (default
    :data:`DEFAULT_MAX_ENTRIES`; ``0`` disables it); the disk layer
    (when a ``directory`` is given) keeps everything ever stored — it
    is the content-addressed archive, bounded only by disk.
    """

    def __init__(
        self,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        directory: str | Path | None = None,
    ) -> None:
        if max_entries < 0:
            raise ValueError(
                f"max_entries must be >= 0, got {max_entries}"
            )
        self.max_entries = max_entries
        self.directory = Path(directory) if directory is not None else None
        self._memory: OrderedDict[str, NetworkResult] = OrderedDict()
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self.checksum_failures = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._memory)

    def clear(self) -> None:
        """Drop the in-memory layer (disk files are left alone)."""
        with self._lock:
            self._memory.clear()

    def _path(self, key: str) -> Path:
        assert self.directory is not None
        return self.directory / f"{key}.json"

    # ------------------------------------------------------------------
    def get(self, spec: SimJobSpec) -> Optional[NetworkResult]:
        """The cached result for ``spec``, or None."""
        return self.lookup(cache_key(spec))

    def lookup(self, key: str) -> Optional[NetworkResult]:
        """The cached result stored under content address ``key``.

        This is what serves ``GET /v1/results/{spec_hash}``: callers
        that already hold a content hash don't need to reconstruct the
        spec to ask for its result.
        """
        with self._lock:
            cached = self._memory.get(key)
            if cached is not None:
                self._memory.move_to_end(key)
                self.hits += 1
                return cached
        if self.directory is not None:
            result = self._load_disk(key)
            if result is not None:
                with self._lock:
                    self._store_memory(key, result)
                    self.hits += 1
                    self.disk_hits += 1
                return result
        with self._lock:
            self.misses += 1
        return None

    def put(self, spec: SimJobSpec, result: NetworkResult) -> str:
        """Store a result under its content address; returns the key."""
        key = cache_key(spec)
        with self._lock:
            self._store_memory(key, result)
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
            result_dict = result.to_dict()
            payload = {
                "version": _code_version(),
                "spec": spec.to_dict(),
                "checksum": result_checksum(result_dict),
                "result": result_dict,
            }
            text = json.dumps(payload, sort_keys=True)
            text = faults.corrupt_text(faults.CACHE_WRITE_CORRUPT, text)
            text = faults.truncate_text(faults.CACHE_WRITE_TRUNCATE, text)
            # Write-then-rename so concurrent readers (and writers of
            # the same key, which converge on identical bytes) never
            # observe a partial file.
            path = self._path(key)
            tmp = path.with_name(
                f".{key}.{os.getpid()}.{threading.get_ident()}.tmp"
            )
            tmp.write_text(text)
            os.replace(tmp, path)
        return key

    # ------------------------------------------------------------------
    def _store_memory(self, key: str, result: NetworkResult) -> None:
        # Caller holds self._lock.
        if self.max_entries == 0:
            return
        self._memory[key] = result
        self._memory.move_to_end(key)
        while len(self._memory) > self.max_entries:
            self._memory.popitem(last=False)

    def _load_disk(self, key: str) -> Optional[NetworkResult]:
        path = self._path(key)
        try:
            text = path.read_text()
            text = faults.corrupt_text(faults.CACHE_READ_CORRUPT, text)
            text = faults.truncate_text(faults.CACHE_READ_TRUNCATE, text)
            payload = json.loads(text)
            if payload.get("version") != _code_version():
                return None  # stale: written by a different code version
            stored = payload.get("checksum")
            if stored is not None and (
                stored != result_checksum(payload["result"])
            ):
                # Bit rot that still parses: refuse to serve it. The
                # caller sees a miss, re-simulates, and the fresh put
                # overwrites the damaged file.
                with self._lock:
                    self.checksum_failures += 1
                default_registry().inc("cache_checksum_failures_total")
                instant("cache.checksum_failure", key=key)
                return None
            return NetworkResult.from_dict(payload["result"])
        except (OSError, ValueError, KeyError, TypeError):
            return None  # missing or corrupt: treat as a miss

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Hit/miss counters plus occupancy, for logs and telemetry.

        Cheap (no disk scan — see :meth:`disk_stats` for that), so the
        server's ``/metrics`` endpoint can call it per scrape.
        """
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "disk_hits": self.disk_hits,
                "checksum_failures": self.checksum_failures,
                "entries": len(self._memory),
                "max_entries": self.max_entries,
                "directory": (
                    str(self.directory)
                    if self.directory is not None
                    else None
                ),
            }

    def disk_stats(self) -> dict:
        """Scan the disk layer: entry count, bytes, staleness.

        ``stale_entries`` counts files written by a different code
        version — still on disk, but unservable by this process.
        """
        out = {"disk_entries": 0, "disk_bytes": 0, "stale_entries": 0}
        if self.directory is None or not self.directory.is_dir():
            return out
        version = _code_version()
        for path in self.directory.glob("*.json"):
            try:
                out["disk_bytes"] += path.stat().st_size
                out["disk_entries"] += 1
                if json.loads(path.read_text()).get("version") != version:
                    out["stale_entries"] += 1
            except (OSError, ValueError):
                out["stale_entries"] += 1
        return out
