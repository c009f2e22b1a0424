"""Concurrent ResultCache access: racing writers/readers, corruption.

The HTTP gateway serves one shared :class:`ResultCache` from many
request threads plus the dispatcher thread, so the cache must tolerate
two writers on one key, a reader racing a writer, and crash debris
(partial/corrupt files) — all degrading to a miss, never an exception.
"""

import json
import multiprocessing
import threading

import pytest

from repro.service.__main__ import main
from repro.service.api import DEFAULT_CACHE, DEFAULT_CACHE_MAX_ENTRIES
from repro.service.cache import (
    DEFAULT_MAX_ENTRIES,
    ResultCache,
    cache_key,
)
from repro.service.spec import SimJobSpec
from repro.system.design import DesignPoint
from repro.system.training import NetworkResult, PhaseTimes

CHEAP = dict(columns_per_stripe=8, designs=("Baseline", "GradPIM-BD"))


@pytest.fixture()
def spec():
    return SimJobSpec(network="MLP1", **CHEAP)


def _result(tag: float) -> NetworkResult:
    return NetworkResult(
        network="MLP1",
        batch=128,
        precision="8/32",
        optimizer="momentum_sgd",
        blocks=(),
        totals={DesignPoint.BASELINE: PhaseTimes(fwd=tag)},
        profiles={},
    )


def _run_threads(targets):
    errors = []

    def wrap(fn):
        def body():
            try:
                fn()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        return body

    threads = [threading.Thread(target=wrap(t)) for t in targets]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not errors, errors


class TestConcurrentDisk:
    def test_two_writers_same_key(self, tmp_path, spec):
        """Concurrent writers of one key leave a complete file."""
        cache = ResultCache(directory=tmp_path)
        barrier = threading.Barrier(2)

        def writer(tag):
            def body():
                barrier.wait()
                for _ in range(50):
                    cache.put(spec, _result(tag))

            return body

        _run_threads([writer(1.0), writer(2.0)])
        fresh = ResultCache(directory=tmp_path)
        result = fresh.get(spec)
        assert result is not None  # a full, parseable file survives
        assert result.totals[DesignPoint.BASELINE].fwd in (1.0, 2.0)
        # No temp-file debris is left behind (or mistaken for entries).
        assert list(tmp_path.glob("*.tmp")) == []
        assert len(list(tmp_path.glob("*.json"))) == 1

    def test_reader_racing_writer(self, tmp_path, spec):
        """A racing reader sees a hit or a miss — never an exception."""
        writer_cache = ResultCache(directory=tmp_path)
        outcomes = []
        stop = threading.Event()

        def write():
            for _ in range(100):
                writer_cache.put(spec, _result(3.0))
            stop.set()

        def read():
            while not stop.is_set():
                # Fresh memory layer each probe: force the disk path.
                got = ResultCache(directory=tmp_path).get(spec)
                outcomes.append(got)

        _run_threads([write, read])
        assert all(
            o is None or o.totals[DesignPoint.BASELINE].fwd == 3.0
            for o in outcomes
        )
        assert ResultCache(directory=tmp_path).get(spec) is not None

    def test_partial_file_is_a_miss(self, tmp_path, spec):
        """A truncated write (crash debris) degrades to a miss."""
        cache = ResultCache(directory=tmp_path)
        cache.put(spec, _result(1.0))
        path = tmp_path / f"{cache_key(spec)}.json"
        path.write_text(path.read_text()[: path.stat().st_size // 2])
        assert ResultCache(directory=tmp_path).get(spec) is None

    def test_concurrent_memory_layer(self, spec):
        """Many threads hammering one in-memory LRU stay consistent."""
        cache = ResultCache(max_entries=4)
        specs = [
            SimJobSpec(network="MLP1", batch=b, **CHEAP)
            for b in (16, 32, 64, 128)
        ]

        def worker(index):
            def body():
                for _ in range(200):
                    cache.put(specs[index], _result(float(index)))
                    got = cache.get(specs[index])
                    assert got is None or (
                        got.totals[DesignPoint.BASELINE].fwd
                        == float(index)
                    )

            return body

        _run_threads([worker(i) for i in range(4)])
        assert len(cache) <= 4


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="cross-process cache sharing requires the fork start method",
)
class TestCrossProcessSharing:
    """Cluster shards are separate *processes* pointing independent
    ResultCache instances at one shared root — the arrangement that
    makes failover re-execution byte-identical and usually free. The
    atomic tmp+replace write discipline must hold across processes,
    not just threads."""

    def test_processes_racing_put_and_lookup(self, tmp_path, spec):
        ctx = multiprocessing.get_context("fork")
        key = cache_key(spec)

        def writer(tag):
            cache = ResultCache(directory=tmp_path)
            for _ in range(50):
                cache.put(spec, _result(tag))

        writers = [
            ctx.Process(target=writer, args=(tag,)) for tag in (1.0, 2.0)
        ]
        for proc in writers:
            proc.start()
        # A third instance (this process) races lookups against both
        # writers: every probe is a hit or a miss, never an exception
        # or a torn read.
        seen = []
        while any(proc.is_alive() for proc in writers):
            got = ResultCache(directory=tmp_path).lookup(key)
            if got is not None:
                seen.append(got.totals[DesignPoint.BASELINE].fwd)
        for proc in writers:
            proc.join(timeout=30)
            assert proc.exitcode == 0
        assert all(tag in (1.0, 2.0) for tag in seen)

        # After the dust settles: one complete entry, no temp debris.
        final = ResultCache(directory=tmp_path).get(spec)
        assert final is not None
        assert final.totals[DesignPoint.BASELINE].fwd in (1.0, 2.0)
        assert list(tmp_path.glob("*.tmp")) == []
        assert len(list(tmp_path.glob("*.json"))) == 1

    def test_second_process_reads_what_the_first_wrote(
        self, tmp_path, spec
    ):
        ctx = multiprocessing.get_context("fork")
        ResultCache(directory=tmp_path).put(spec, _result(7.0))

        def reader():
            got = ResultCache(directory=tmp_path).get(spec)
            assert got is not None
            assert got.totals[DesignPoint.BASELINE].fwd == 7.0

        proc = ctx.Process(target=reader)
        proc.start()
        proc.join(timeout=30)
        assert proc.exitcode == 0


class TestBoundedDefaultCache:
    def test_default_cache_is_bounded(self):
        assert DEFAULT_CACHE.max_entries == DEFAULT_CACHE_MAX_ENTRIES
        assert DEFAULT_CACHE_MAX_ENTRIES == DEFAULT_MAX_ENTRIES
        assert ResultCache().max_entries == DEFAULT_MAX_ENTRIES

    def test_env_override_parsing(self, monkeypatch):
        from repro.service.api import _env_cache_max_entries

        monkeypatch.delenv("REPRO_CACHE_MAX_ENTRIES", raising=False)
        assert _env_cache_max_entries() == DEFAULT_MAX_ENTRIES
        monkeypatch.setenv("REPRO_CACHE_MAX_ENTRIES", "17")
        assert _env_cache_max_entries() == 17
        # Malformed values warn and fall back — they must never take
        # down `import repro.service` (this runs at module scope).
        for bad in ("1k", "", "-3"):
            monkeypatch.setenv("REPRO_CACHE_MAX_ENTRIES", bad)
            with pytest.warns(UserWarning, match="REPRO_CACHE_MAX"):
                assert _env_cache_max_entries() == DEFAULT_MAX_ENTRIES

    def test_capacity_alias_removed(self):
        """``max_entries`` is the one spelling of the memory bound."""
        assert ResultCache(max_entries=3).max_entries == 3
        assert "capacity" not in ResultCache().stats()
        with pytest.raises(TypeError):
            ResultCache(capacity=3)
        with pytest.raises(ValueError):
            ResultCache(max_entries=-1)


class TestStatsSurface:
    def test_lookup_by_key(self, tmp_path, spec):
        cache = ResultCache(directory=tmp_path)
        key = cache.put(spec, _result(1.0))
        assert cache.lookup(key) is not None
        assert cache.lookup("0" * 64) is None

    def test_disk_stats_counts_stale(self, tmp_path, spec):
        cache = ResultCache(directory=tmp_path)
        cache.put(spec, _result(1.0))
        other = SimJobSpec(network="MLP1", batch=16, **CHEAP)
        cache.put(other, _result(2.0))
        path = tmp_path / f"{cache_key(other)}.json"
        payload = json.loads(path.read_text())
        payload["version"] = "0.0.0-old"
        path.write_text(json.dumps(payload))
        stats = cache.disk_stats()
        assert stats["disk_entries"] == 2
        assert stats["stale_entries"] == 1
        assert stats["disk_bytes"] > 0

    def test_disk_stats_without_directory(self):
        assert ResultCache().disk_stats() == {
            "disk_entries": 0,
            "disk_bytes": 0,
            "stale_entries": 0,
        }

    def test_cache_stats_cli(self, tmp_path, spec, capsys):
        ResultCache(directory=tmp_path).put(spec, _result(1.0))
        assert main(["cache-stats", "--cache-dir", str(tmp_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["disk_entries"] == 1
        assert payload["stale_entries"] == 0
        assert payload["max_entries"] == DEFAULT_MAX_ENTRIES
        assert payload["directory"] == str(tmp_path)
        # Process-local counters would always read zero in a one-shot
        # CLI, so the subcommand must not print them at all.
        assert "hits" not in payload and "misses" not in payload

    def test_cache_stats_cli_without_dir(self, capsys):
        assert main(["cache-stats"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["disk_entries"] == 0
