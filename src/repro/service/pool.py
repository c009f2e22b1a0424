"""Spec execution and the worker-pool executor.

``execute_spec`` is the single choke point where a declarative
:class:`~repro.service.spec.SimJobSpec` becomes a cycle-level
simulation. Update-phase models are shared process-locally (keyed by
their configuration) so a batch of jobs on the same substrate reuses
the expensive command-stream profiles exactly like
``ExperimentContext`` always did.

``run_specs`` fans a batch across a ``multiprocessing`` pool (fork
start method, with a serial fallback when the platform refuses) with
per-job error isolation: one failing spec yields an error payload, the
rest of the batch completes. Results cross the process boundary as
plain dicts — the same lossless form the disk cache uses — so parallel
runs are bit-identical to serial ones.

Hardened execution (opt-in via
:class:`~repro.service.config.ServiceConfig` — a per-job timeout, a
deadline, or ``hardened=True``) switches the topology from one shared
pool to one disposable ``fork`` process per job attempt: the parent
polls each worker against its wall-clock budget, SIGKILLs the ones
that blow it, detects workers that died underneath their job, retries
interrupted jobs a bounded number of times (worker death and timeout
are environmental; an *exception* is deterministic and never retried),
and quarantines jobs that keep failing so a poison spec cannot eat the
pool. A job that exhausts its budget terminates with a classified
``{"status": "failed", "failure": {...}}`` payload instead of an
exception killing the sweep — or a hang that never ends it.

Every payload records its ``execution_mode`` (``"parallel"``,
``"serial"``, or ``"isolated"``) so degraded parallelism — e.g. the
silent serial fallback on fork-less platforms — is observable in
results and metrics, not just slower.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import time
import traceback
from collections import deque
from multiprocessing import connection
from typing import Optional, Sequence

from repro import faults
from repro.dram.scheduler import resolve_engine
from repro.models.zoo import build_network
from repro.obs import log as obs_log
from repro.obs import trace as obs_trace
from repro.obs.metrics import MetricsRegistry, default_registry
from repro.obs.metrics import set_default_registry
from repro.obs.report import EngineReport
from repro.obs.trace import instant, span
from repro.service.config import DEFAULT_SERVICE_CONFIG, ServiceConfig
from repro.service.spec import ResolvedJob, SimJobSpec
from repro.system.training import NetworkResult, TrainingSimulator
from repro.system.update_model import UpdatePhaseModel

_logger = obs_log.get_logger("repro.service.pool")

#: Process-local update-model cache (cycle-sim profiles are expensive).
#: Keyed by hardware substrate only — timing grade, geometry, stripe
#: width, validation mode — plus the scheduler engine the spec's engine
#: spelling selects. The model itself memoizes profiles per
#: (design, optimizer identity, precision) — the identity covers
#: hyperparameters (see ``Optimizer.cache_key``), so one model safely
#: serves every job on the substrate: a worker computes each profile
#: once across all its jobs instead of once per job.
_MODELS: dict[tuple, UpdatePhaseModel] = {}


def _substrate_key(spec: SimJobSpec) -> tuple:
    """Groups jobs whose update-phase profiles are shareable.

    Every exact spelling (``"incremental"``, ``"reference"``,
    ``"columnar"``) selects the same engine, so they share one model;
    ``"periodic"`` keeps its own (its flight recorder differs).
    """
    return (
        spec.timing,
        spec.columns_per_stripe,
        tuple(sorted(spec.geometry.items())),
        spec.channels,
        spec.validate,
        resolve_engine(spec.engine),
    )


def _shared_update_model(
    spec: SimJobSpec, job: ResolvedJob
) -> UpdatePhaseModel:
    key = _substrate_key(spec)
    model = _MODELS.get(key)
    if model is None:
        model = UpdatePhaseModel(
            timing=job.timing,
            geometry=job.geometry,
            columns_per_stripe=job.columns_per_stripe,
            validate=job.validate,
            engine=job.engine,
        )
        _MODELS[key] = model
    return model


def clear_model_cache() -> None:
    """Drop this process's update-model cache (benchmarks, tests)."""
    _MODELS.clear()


def execute_spec(spec: SimJobSpec) -> NetworkResult:
    """Run one job to completion in this process."""
    job = spec.resolve()
    simulator = TrainingSimulator(
        optimizer=job.optimizer,
        precision=job.precision,
        timing=job.timing,
        geometry=job.geometry,
        npu=job.npu,
        update_model=_shared_update_model(spec, job),
        designs=job.designs,
    )
    with span(
        "pool.execute",
        network=spec.network,
        engine=job.engine,
        spec=spec.content_hash()[:12],
    ):
        return simulator.simulate(
            build_network(spec.network, batch=job.batch)
        )


def execute_spec_with_report(
    spec: SimJobSpec,
) -> tuple[NetworkResult, Optional[dict]]:
    """Run one job; returns ``(result, engine_report)``.

    The engine report is the per-job delta of the shared update
    model's flight recorder (:class:`repro.obs.report.EngineReport`)
    across the :func:`execute_spec` call, or ``None`` when the job
    never touched the engines — every profile it needed was already
    memoized on the shared model. Calls through the module attribute
    so tests monkeypatching ``execute_spec`` keep their seam.
    """
    key = _substrate_key(spec)
    model = _MODELS.get(key)
    before = model.report.to_dict() if model is not None else None
    result = execute_spec(spec)
    model = _MODELS.get(key)
    if model is None:
        return result, None
    after = model.report.to_dict()
    if before is None:
        before = EngineReport(engine=model.engine).to_dict()
    return result, EngineReport.diff_dicts(before, after)


def execute_spec_resilient(
    spec: SimJobSpec,
) -> tuple[NetworkResult, Optional[dict], Optional[str]]:
    """Run one job with graceful engine degradation.

    Returns ``(result, engine_report, degraded_reason)``. A failure of
    the *periodic* engine — an optimization layered over the columnar
    engine, byte-identical by the equivalence contract — is not a
    reason to fail the job: the spec is re-run with
    ``engine="columnar"`` and ``degraded_reason`` records why. Columnar
    failures (and a failed fallback) propagate; there is nothing sound
    to degrade to.
    """
    try:
        result, report = execute_spec_with_report(spec)
        return result, report, None
    except Exception as exc:
        if spec.engine != "periodic":
            raise
        reason = f"{type(exc).__name__}: {exc}"
        _logger.warning(
            "periodic engine failed; degrading to columnar",
            extra={"network": spec.network, "error": reason},
        )
        default_registry().inc(
            "jobs_degraded_total", {"from_engine": "periodic"}
        )
        instant(
            "engine.degraded",
            from_engine="periodic",
            to_engine="columnar",
            error=type(exc).__name__,
        )
        fallback = dataclasses.replace(spec, engine="columnar")
        result, report = execute_spec_with_report(fallback)
        return result, report, reason


# ----------------------------------------------------------------------
# Worker-pool execution
# ----------------------------------------------------------------------
#: Content hash -> ``time.monotonic()`` when its quarantine tripped.
#: Process-lifetime state by default: later submissions of a
#: quarantined job short-circuit to a classified failure instead of
#: burning another worker on a poison spec. A config with
#: ``quarantine_ttl_seconds`` set lets an entry expire (checked lazily
#: at submission) so the hash can re-earn trust.
_QUARANTINED: dict[str, float] = {}

#: Hardened-executor poll cadence (seconds).
_POLL_SECONDS = 0.05


def clear_quarantine() -> None:
    """Forget quarantined jobs (tests, operator reset)."""
    _QUARANTINED.clear()


def quarantined_hashes() -> frozenset[str]:
    """The content hashes currently quarantined in this process."""
    return frozenset(_QUARANTINED)


def _failure_payload(
    reason: str,
    *,
    attempts: int,
    retried: bool = False,
    timed_out: bool = False,
    quarantined: bool = False,
    detail: Optional[str] = None,
    elapsed: float = 0.0,
) -> dict:
    """A classified terminal failure (the ``JobFailure`` envelope)."""
    failure = {
        "reason": reason,
        "attempts": attempts,
        "retried": retried,
        "timed_out": timed_out,
        "quarantined": quarantined,
    }
    if detail:
        failure["detail"] = detail
    return {
        "status": "failed",
        "failure": failure,
        "elapsed_seconds": elapsed,
        "execution_mode": "isolated",
    }
def _warm_shared_substrates(specs: Sequence[SimJobSpec]) -> None:
    """Profile substrates used by >1 spec in the parent, pre-fork.

    Forked workers inherit the parent's warm ``_MODELS``, so a profile
    shared by many jobs is computed once instead of once per worker;
    substrates unique to one spec stay cold and profile in parallel
    inside their worker.
    """
    counts: dict[tuple, SimJobSpec] = {}
    shared: dict[tuple, SimJobSpec] = {}
    for spec in specs:
        key = _substrate_key(spec)
        if key in counts and key not in shared:
            shared[key] = counts[key]
        counts.setdefault(key, spec)
    for spec in shared.values():
        try:
            job = spec.resolve()
            model = _shared_update_model(spec, job)
            for design in job.designs:
                model.profile(design, job.optimizer, job.precision)
        except Exception:
            pass  # the owning worker will surface the real error


def _run_payload(spec_dict: dict) -> dict:
    """Worker body: never raises — errors become payloads.

    Observability crosses the process boundary with the result: the
    payload's job runs against a *fresh* tracer and metrics registry
    (the previous ones — possibly fork-inherited from the parent, with
    the parent's history — are restored afterwards), and whatever the
    job recorded ships under ``payload["obs"]`` for the parent to
    ingest. Tracing is only swapped when the parent had it enabled.
    """
    start = time.perf_counter()
    parent_tracer = obs_trace.active_tracer()
    tracer = (
        obs_trace.enable_tracing(obs_trace.Tracer())
        if parent_tracer is not None
        else None
    )
    previous_registry = set_default_registry(MetricsRegistry("repro"))
    try:
        spec = SimJobSpec.from_dict(spec_dict)
        # Worker-side injection sites. The destructive pair (kill,
        # hang) only fires inside a disposable hardened worker — the
        # injector's context guard suppresses them here otherwise.
        faults.maybe_kill(faults.WORKER_KILL)
        faults.sleep_site(faults.WORKER_HANG)
        faults.maybe_raise(faults.WORKER_EXCEPTION)
        with obs_log.correlation_scope(spec.content_hash()):
            result, report, degraded_reason = execute_spec_resilient(
                spec
            )
        elapsed = time.perf_counter() - start
        default_registry().inc("jobs_executed_total", {"status": "ok"})
        default_registry().observe(
            "job_execute_seconds", elapsed, {"status": "ok"}
        )
        _logger.info(
            "job executed",
            extra={
                "network": spec.network,
                "engine": spec.engine,
                "elapsed_seconds": elapsed,
            },
        )
        payload = {
            "status": "ok",
            "result": result.to_dict(),
            "elapsed_seconds": elapsed,
        }
        if degraded_reason is not None:
            payload["degraded"] = True
            payload["degraded_reason"] = degraded_reason
        if report is not None:
            payload["engine_report"] = report
    except Exception as exc:  # per-job isolation
        elapsed = time.perf_counter() - start
        default_registry().inc(
            "jobs_executed_total", {"status": "error"}
        )
        default_registry().observe(
            "job_execute_seconds", elapsed, {"status": "error"}
        )
        _logger.warning(
            "job failed",
            extra={
                "network": spec_dict.get("network"),
                "error": f"{type(exc).__name__}: {exc}",
            },
        )
        payload = {
            "status": "error",
            "error": f"{type(exc).__name__}: {exc}",
            "traceback": traceback.format_exc(),
            "elapsed_seconds": elapsed,
        }
    obs = {}
    job_registry = set_default_registry(previous_registry)
    if job_registry is not None and not job_registry.is_empty():
        obs["metrics"] = job_registry.snapshot()
    if tracer is not None:
        obs["spans"] = tracer.drain()
        obs_trace.enable_tracing(parent_tracer)
    if obs:
        payload["obs"] = obs
    return payload


def _effective_deadlines(
    specs: Sequence[SimJobSpec],
    config: ServiceConfig,
    deadlines: Optional[Sequence[Optional[float]]],
) -> list[Optional[float]]:
    """Absolute (``time.monotonic``) deadline per spec, or None.

    An explicit ``deadlines`` entry (the dispatcher passes the clock
    started at enqueue time) wins; otherwise the spec's own
    ``deadline_ms`` or the config default starts counting now.
    """
    now = time.monotonic()
    out: list[Optional[float]] = []
    for i, spec in enumerate(specs):
        deadline = deadlines[i] if deadlines is not None else None
        if deadline is None:
            ms = (
                spec.deadline_ms
                if spec.deadline_ms is not None
                else config.default_deadline_ms
            )
            if ms is not None:
                deadline = now + ms / 1000.0
        out.append(deadline)
    return out


def _serial_fallback(requested: str) -> None:
    """Make degraded parallelism loud: one warning + one counter."""
    _logger.warning(
        "parallel execution unavailable (no fork); running serially",
        extra={"requested": requested},
    )
    default_registry().inc(
        "pool_serial_fallback_total", {"requested": requested}
    )


def run_specs(
    specs: Sequence[SimJobSpec],
    jobs: int = 1,
    config: Optional[ServiceConfig] = None,
    deadlines: Optional[Sequence[Optional[float]]] = None,
) -> list[Optional[dict]]:
    """Execute ``specs`` with up to ``jobs`` worker processes.

    Returns one payload per spec, in order: ``{"status": "ok",
    "result": <NetworkResult dict>}``, ``{"status": "error", ...}``
    (the job raised), or ``{"status": "failed", "failure": {...}}``
    (the hardened executor classified a timeout, worker death, or
    quarantine). ``jobs <= 1`` (or a pool that fails to start) runs
    serially in this process, which also warms this process's model
    cache.

    ``config`` selects the execution policy
    (:class:`~repro.service.config.ServiceConfig`): a job timeout,
    deadline, or ``hardened=True`` switches from the shared fork pool
    to one disposable process per job attempt, with kill-on-timeout,
    dead-worker retry, and poison-job quarantine. ``deadlines``
    optionally pins each spec's absolute ``time.monotonic`` deadline
    (the server dispatcher starts the clock at enqueue).

    Parallel dispatch sorts jobs by substrate (timing grade, geometry,
    stripe width, validation mode) and hands each worker a contiguous
    chunk, so jobs sharing a substrate profile it once per worker
    instead of once per job; caller order is restored before returning.
    """
    faults.auto_install()
    if config is None:
        config = DEFAULT_SERVICE_CONFIG
    payloads = [s.to_dict() for s in specs]
    deadlines = _effective_deadlines(specs, config, deadlines)
    any_deadline = any(d is not None for d in deadlines)
    if config.wants_hardened(any_deadline):
        try:
            out = _run_hardened(specs, payloads, jobs, config, deadlines)
            _ingest_obs(out)
            return out
        except (OSError, ValueError):
            _serial_fallback("isolated")
    elif jobs > 1 and len(specs) > 1:
        _warm_shared_substrates(specs)
        order = sorted(
            range(len(specs)), key=lambda i: _substrate_key(specs[i])
        )
        n_workers = min(jobs, len(specs))
        chunksize = -(-len(specs) // n_workers)  # ceil division
        try:
            ctx = multiprocessing.get_context("fork")
            with span(
                "pool.dispatch", jobs=n_workers, pending=len(specs)
            ):
                with ctx.Pool(processes=n_workers) as pool:
                    sorted_out = pool.map(
                        _run_payload,
                        [payloads[i] for i in order],
                        chunksize=chunksize,
                    )
            out: list[Optional[dict]] = [None] * len(specs)
            for i, payload in zip(order, sorted_out):
                out[i] = payload
                if payload is not None:
                    payload.setdefault("execution_mode", "parallel")
            _ingest_obs(out)
            return out
        except (OSError, ValueError):
            _serial_fallback("parallel")
    with span("pool.dispatch", jobs=1, pending=len(specs)):
        out = []
        for i, payload_in in enumerate(payloads):
            deadline = deadlines[i]
            if deadline is not None and time.monotonic() >= deadline:
                out.append(
                    _failure_payload(
                        "timeout",
                        attempts=0,
                        timed_out=True,
                        detail="deadline expired before execution",
                    )
                )
                out[-1]["execution_mode"] = "serial"
                continue
            payload = _run_payload(payload_in)
            payload.setdefault("execution_mode", "serial")
            out.append(payload)
    _ingest_obs(out)
    return out


# ----------------------------------------------------------------------
# Hardened execution: one disposable process per job attempt.
# ----------------------------------------------------------------------
def _child_main(spec_dict: dict, attempt: int, conn) -> None:
    """Entry point of one disposable per-job worker process."""
    faults.enter_worker_context(attempt)
    payload = _run_payload(spec_dict)  # never raises
    try:
        conn.send(payload)
    finally:
        conn.close()


def _run_hardened(
    specs: Sequence[SimJobSpec],
    payloads: Sequence[dict],
    jobs: int,
    config: ServiceConfig,
    deadlines: Sequence[Optional[float]],
) -> list[Optional[dict]]:
    """Per-job isolated execution with timeouts, retry, quarantine.

    Each job attempt runs in its own ``fork`` child; the parent polls
    result pipes, SIGKILLs attempts that outlive ``min(job timeout,
    deadline)``, classifies worker deaths (a closed pipe with no
    payload), re-queues interrupted jobs while retry budget remains,
    and quarantines a job once its consecutive failures reach the
    config threshold. SIGKILL is survivable by construction here: the
    dead process owned nothing but its one job attempt.
    """
    ctx = multiprocessing.get_context("fork")
    if len(specs) > 1:
        _warm_shared_substrates(specs)
    n_workers = max(1, min(jobs, len(specs)))
    timeout = config.job_timeout_seconds
    registry = default_registry()
    results: list[Optional[dict]] = [None] * len(specs)
    failures = [0] * len(specs)
    hashes = [spec.content_hash() for spec in specs]

    pending: deque[tuple[int, int]] = deque()  # (index, attempt)
    ttl = config.quarantine_ttl_seconds
    for i in range(len(specs)):
        quarantined_at = _QUARANTINED.get(hashes[i])
        if (
            quarantined_at is not None
            and ttl is not None
            and time.monotonic() - quarantined_at >= ttl
        ):
            # The TTL elapsed: the hash re-earns trust and runs again
            # (re-quarantining on the same threshold if still poison).
            del _QUARANTINED[hashes[i]]
            registry.inc(
                "jobs_quarantined_total", {"event": "expired"}
            )
            instant("pool.quarantine_expired", spec=hashes[i][:12])
            quarantined_at = None
        if quarantined_at is not None:
            registry.inc(
                "jobs_quarantined_total", {"event": "blocked"}
            )
            results[i] = _failure_payload(
                "quarantined",
                attempts=0,
                quarantined=True,
                detail="content hash quarantined by an earlier run",
            )
        else:
            pending.append((i, 0))

    # index -> (process, pipe, attempt, kill_at)
    running: dict[int, tuple] = {}

    def fail(i: int, attempt: int, kind: str, detail: str) -> None:
        """Classify one failed attempt: quarantine, retry, or fail."""
        failures[i] += 1
        attempts_used = attempt + 1
        timed_out = kind == "job-timeout"
        registry.inc("faults_detected_total", {"kind": kind})
        instant(
            "pool.fault_detected",
            kind=kind,
            spec=hashes[i][:12],
            attempt=attempt,
        )
        _logger.warning(
            "job attempt failed",
            extra={
                "kind": kind,
                "spec": hashes[i][:12],
                "attempt": attempt,
                "detail": detail,
            },
        )
        if failures[i] >= config.quarantine_threshold:
            _QUARANTINED[hashes[i]] = time.monotonic()
            registry.inc(
                "jobs_quarantined_total", {"event": "tripped"}
            )
            instant("pool.job_quarantined", spec=hashes[i][:12])
            _logger.warning(
                "job quarantined after repeated failures",
                extra={"spec": hashes[i][:12], "failures": failures[i]},
            )
            results[i] = _failure_payload(
                "quarantined",
                attempts=attempts_used,
                retried=attempts_used > 1,
                timed_out=timed_out,
                quarantined=True,
                detail=detail,
            )
        elif attempt < config.max_retries:
            registry.inc("jobs_retried_total", {"reason": kind})
            instant(
                "pool.job_retry", spec=hashes[i][:12], attempt=attempt
            )
            pending.append((i, attempt + 1))
        else:
            results[i] = _failure_payload(
                "timeout" if timed_out else "worker-death",
                attempts=attempts_used,
                retried=attempts_used > 1,
                timed_out=timed_out,
                detail=detail,
            )

    with span(
        "pool.dispatch",
        jobs=n_workers,
        pending=len(specs),
        mode="isolated",
    ):
        while pending or running:
            # Launch up to the worker budget.
            while pending and len(running) < n_workers:
                i, attempt = pending.popleft()
                deadline = deadlines[i]
                now = time.monotonic()
                if deadline is not None and now >= deadline:
                    results[i] = _failure_payload(
                        "timeout",
                        attempts=attempt,
                        retried=attempt > 0,
                        timed_out=True,
                        detail="deadline expired before execution",
                    )
                    continue
                kill_at = (
                    now + timeout if timeout is not None else None
                )
                if deadline is not None:
                    kill_at = (
                        deadline
                        if kill_at is None
                        else min(kill_at, deadline)
                    )
                parent_conn, child_conn = ctx.Pipe(duplex=False)
                proc = ctx.Process(
                    target=_child_main,
                    args=(payloads[i], attempt, child_conn),
                    daemon=True,
                )
                proc.start()
                child_conn.close()
                running[i] = (proc, parent_conn, attempt, kill_at)

            # Reap blown budgets first, so a wedged worker can never
            # block completion — this is the zero-hangs guarantee.
            now = time.monotonic()
            for i in list(running):
                proc, conn, attempt, kill_at = running[i]
                if kill_at is None or now < kill_at:
                    continue
                proc.kill()
                proc.join()
                conn.close()
                del running[i]
                deadline = deadlines[i]
                if deadline is not None and now >= deadline:
                    detail = "deadline exceeded"
                else:
                    detail = f"exceeded job timeout of {timeout:g}s"
                fail(i, attempt, "job-timeout", detail)

            if not running:
                continue
            ready = connection.wait(
                [rec[1] for rec in running.values()],
                timeout=_POLL_SECONDS,
            )
            if not ready:
                continue
            by_conn = {rec[1]: i for i, rec in running.items()}
            for conn in ready:
                i = by_conn[conn]
                proc, _, attempt, _ = running[i]
                try:
                    payload = conn.recv()
                except (EOFError, OSError):
                    payload = None  # worker died mid-job
                conn.close()
                proc.join(timeout=5.0)
                if proc.is_alive():
                    proc.kill()
                    proc.join()
                del running[i]
                if payload is None:
                    fail(
                        i,
                        attempt,
                        "worker-death",
                        "worker exited with code "
                        f"{proc.exitcode} before returning a result",
                    )
                    continue
                payload["execution_mode"] = "isolated"
                if attempt > 0:
                    payload["retried"] = True
                    payload["attempts"] = attempt + 1
                results[i] = payload
    return results


def _ingest_obs(payloads: Sequence[Optional[dict]]) -> None:
    """Fold workers' shipped spans and metrics into this process.

    Each payload's ``obs`` block (attached by :func:`_run_payload`) is
    consumed here: spans join the active tracer (worker pids keep them
    on their own Perfetto tracks) and metrics snapshots merge into the
    process-global registry. The block is popped so cached/serialized
    results never carry telemetry.
    """
    tracer = obs_trace.active_tracer()
    for payload in payloads:
        if not payload:
            continue
        obs = payload.pop("obs", None)
        if not obs:
            continue
        if tracer is not None and obs.get("spans"):
            tracer.ingest(obs["spans"])
        if obs.get("metrics"):
            default_registry().merge_snapshot(obs["metrics"])
