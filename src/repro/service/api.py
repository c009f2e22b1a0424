"""The simulation service's Python API.

Every simulation request in the repo funnels through
:func:`submit_many` (:func:`submit` is its one-spec form): specs are
checked against the content-addressed cache first, only the misses are
executed by :func:`repro.service.pool.run_specs` (in this process,
across a worker pool, or in per-job processes), and fresh results are
written back. Callers get :class:`SimJobResult` envelopes carrying the
result or an isolated per-job error — a bad spec in a 100-job campaign
costs one row, not the campaign. A job run in this process records its
telemetry in place; only forked workers ship theirs back.
"""

from __future__ import annotations

import dataclasses
import os
import time
from typing import Optional, Sequence

from repro.obs.trace import span
from repro.service import pool
from repro.service.cache import DEFAULT_MAX_ENTRIES, ResultCache, cache_key
from repro.service.config import ServiceConfig
from repro.service.spec import SimJobSpec
from repro.system.training import NetworkResult

def _env_cache_max_entries() -> int:
    """``REPRO_CACHE_MAX_ENTRIES``, or the default if unset/invalid.

    Invalid values warn and fall back rather than raise: this runs at
    import time, and a typo'd environment variable must not take down
    every console script with a bare traceback.
    """
    raw = os.environ.get("REPRO_CACHE_MAX_ENTRIES")
    if raw is None:
        return DEFAULT_MAX_ENTRIES
    try:
        value = int(raw)
        if value < 0:
            raise ValueError(raw)
    except ValueError:
        import warnings

        warnings.warn(
            f"REPRO_CACHE_MAX_ENTRIES={raw!r} is not a non-negative "
            f"integer; using the default ({DEFAULT_MAX_ENTRIES})",
            stacklevel=2,
        )
        return DEFAULT_MAX_ENTRIES
    return value


#: Bound on the process-wide default cache. :data:`DEFAULT_CACHE` lives
#: for the whole process, so it must not grow without limit in a
#: long-lived server: it keeps at most this many results (LRU) unless
#: overridden by the ``REPRO_CACHE_MAX_ENTRIES`` environment variable.
#: The HTTP gateway does not use this cache at all — it builds its own
#: from ``ServerConfig.cache_max_entries``.
DEFAULT_CACHE_MAX_ENTRIES = _env_cache_max_entries()

#: Process-wide default cache (in-memory only, bounded to
#: :data:`DEFAULT_CACHE_MAX_ENTRIES` results; pass your own
#: :class:`ResultCache` with a directory for persistence).
DEFAULT_CACHE = ResultCache(max_entries=DEFAULT_CACHE_MAX_ENTRIES)


@dataclasses.dataclass
class SimJobResult:
    """Outcome envelope of one submitted job.

    ``status`` is ``"ok"``, ``"error"`` (the job raised — a
    deterministic failure carrying ``error``/``traceback``), or
    ``"failed"`` (the hardened executor classified an environmental
    failure: ``failure`` holds the reason — ``timeout``,
    ``worker-death``, or ``quarantined`` — plus attempt accounting).
    """

    spec: SimJobSpec
    status: str  # "ok" | "error" | "failed"
    result: Optional[NetworkResult] = None
    error: Optional[str] = None
    traceback: Optional[str] = None
    from_cache: bool = False
    elapsed_seconds: float = 0.0
    #: Per-job delta of the engine flight recorder
    #: (:class:`repro.obs.report.EngineReport` dict form); ``None``
    #: for cache hits, failed jobs, and jobs whose profiles were all
    #: memoized already.
    engine_report: Optional[dict] = None
    #: Classified failure record for ``status == "failed"`` (see
    #: ``repro.service.pool._failure_payload``).
    failure: Optional[dict] = None
    #: True when the result was produced by a fallback engine after
    #: the requested one failed; ``degraded_reason`` records why.
    degraded: bool = False
    degraded_reason: Optional[str] = None
    #: How ``run_specs`` ran the job: ``"parallel"`` (shared fork
    #: pool), ``"serial"`` (in this process: a batch of one with no
    #: timeout or deadline, and the no-fork fallback), ``"isolated"``
    #: (a per-job process: under a timeout or deadline, or re-run after
    #: a shared-pool worker died), or ``None`` for cache hits.
    execution_mode: Optional[str] = None
    #: True when at least one earlier attempt of this job was lost to
    #: a worker death or timeout and the returned outcome came from a
    #: retry.
    retried: bool = False

    @classmethod
    def from_payload(
        cls, spec: SimJobSpec, payload: Optional[dict], elapsed: float
    ) -> "SimJobResult":
        """The envelope of one :func:`~repro.service.pool.run_specs`
        payload (``None``: the worker returned none). ``elapsed`` stands
        in when the payload carries no ``elapsed_seconds``."""
        if payload is None:
            return cls(
                spec=spec,
                status="error",
                error="worker returned no payload",
                elapsed_seconds=elapsed,
            )
        run = dict(
            spec=spec,
            elapsed_seconds=payload.get("elapsed_seconds", elapsed),
            execution_mode=payload.get("execution_mode"),
        )
        status = payload.get("status")
        if status == "ok":
            return cls(
                status="ok",
                result=NetworkResult.from_dict(payload["result"]),
                engine_report=payload.get("engine_report"),
                degraded=bool(payload.get("degraded")),
                degraded_reason=payload.get("degraded_reason"),
                retried=bool(payload.get("retried")),
                **run,
            )
        if status == "failed":
            failure = payload.get("failure") or {}
            return cls(
                status="failed",
                error=failure.get("detail")
                or failure.get("reason", "job failed"),
                failure=failure,
                retried=bool(failure.get("retried")),
                **run,
            )
        return cls(
            status="error",
            error=payload.get("error", "unknown worker failure"),
            traceback=payload.get("traceback"),
            retried=bool(payload.get("retried")),
            **run,
        )

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def failure_reason(self) -> Optional[str]:
        """The classified reason for a ``"failed"`` outcome, if any."""
        if self.failure is None:
            return None
        return self.failure.get("reason")

    def to_dict(self, include_result: bool = True) -> dict:
        """JSON-able form (what the CLI emits)."""
        out = {
            "key": cache_key(self.spec),
            "spec": self.spec.to_dict(),
            "status": self.status,
            "from_cache": self.from_cache,
            "elapsed_seconds": self.elapsed_seconds,
        }
        if self.error is not None:
            out["error"] = self.error
        if self.traceback is not None:
            out["traceback"] = self.traceback
        if self.engine_report is not None:
            out["engine_report"] = self.engine_report
        if self.failure is not None:
            out["failure"] = dict(self.failure)
        if self.degraded:
            out["degraded"] = True
            if self.degraded_reason is not None:
                out["degraded_reason"] = self.degraded_reason
        if self.execution_mode is not None:
            out["execution_mode"] = self.execution_mode
        if self.retried:
            out["retried"] = True
        if self.result is not None:
            out["speedups"] = _speedup_summary(self.result)
            if include_result:
                out["result"] = self.result.to_dict()
        return out


def _speedup_summary(result: NetworkResult) -> dict:
    """Per-design overall/update speedups — the headline numbers."""
    from repro.system.design import DesignPoint

    out = {}
    for design in result.totals:
        if design is DesignPoint.BASELINE:
            continue
        out[design.value] = {
            "overall": result.overall_speedup(design),
            "update": result.update_speedup(design),
        }
    return out


def submit(
    spec: SimJobSpec, cache: Optional[ResultCache] = DEFAULT_CACHE
) -> SimJobResult:
    """Run (or fetch) one job. ``cache=None`` disables caching."""
    return submit_many([spec], cache=cache)[0]


def submit_many(
    specs: Sequence[SimJobSpec],
    jobs: int = 1,
    cache: Optional[ResultCache] = DEFAULT_CACHE,
    config: Optional[ServiceConfig] = None,
    deadlines: Optional[Sequence[Optional[float]]] = None,
) -> list[SimJobResult]:
    """Run a batch of jobs, fanning cache misses across ``jobs`` workers.

    Results come back in spec order. Duplicate specs in one batch are
    executed once. ``config``
    (:class:`~repro.service.config.ServiceConfig`) is the execution
    policy — per-job timeouts, retries, quarantine, default deadline;
    ``deadlines`` optionally pins per-spec absolute ``time.monotonic``
    deadlines (position-matched to ``specs``; the server dispatcher
    starts those clocks at enqueue time).
    """
    if deadlines is not None and len(deadlines) != len(specs):
        raise ValueError(
            f"deadlines has {len(deadlines)} entries for "
            f"{len(specs)} specs"
        )
    start = time.perf_counter()
    outcomes: dict[int, SimJobResult] = {}
    pending: list[tuple[int, SimJobSpec]] = []
    seen_keys: dict[str, int] = {}
    duplicates: list[tuple[int, int]] = []  # (position, first position)
    with span("service.submit", batch=len(specs)) as batch_submit:
        if cache is not None:
            with span("service.cache_lookup", batch=len(specs)):
                hits = [cache.get(spec) for spec in specs]
        else:
            hits = [None] * len(specs)
        for i, (spec, cached) in enumerate(zip(specs, hits)):
            if cached is not None:
                outcomes[i] = SimJobResult(
                    spec=spec, status="ok", result=cached, from_cache=True
                )
                continue
            key = cache_key(spec)
            if key in seen_keys:
                duplicates.append((i, seen_keys[key]))
                continue
            seen_keys[key] = i
            pending.append((i, spec))

        if pending:
            payloads = pool.run_specs(
                [s for _, s in pending],
                jobs=jobs,
                config=config,
                deadlines=(
                    [deadlines[i] for i, _ in pending]
                    if deadlines is not None
                    else None
                ),
            )
            batch_elapsed = time.perf_counter() - start
            for (i, spec), payload in zip(pending, payloads):
                outcome = outcomes[i] = SimJobResult.from_payload(
                    spec, payload, batch_elapsed
                )
                if cache is not None and outcome.ok:
                    with span("service.cache_write"):
                        cache.put(spec, outcome.result)
        for i, first in duplicates:
            outcomes[i] = dataclasses.replace(outcomes[first], spec=specs[i])
        batch_submit.set(
            executed=len(pending), cached=len(outcomes) - len(pending)
        )
    return [outcomes[i] for i in range(len(specs))]
