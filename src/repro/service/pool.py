"""Spec execution and the worker-pool executor.

``execute_spec`` is the single choke point where a declarative
:class:`~repro.service.spec.SimJobSpec` becomes a cycle-level
simulation. Update-phase models are shared process-locally (keyed by
their configuration) so a batch of jobs on the same substrate reuses
the expensive command-stream profiles exactly like
``ExperimentContext`` always did.

``run_specs`` is the one way a spec runs: in this process, across a
shared ``fork`` process pool (with a serial fallback when the platform
refuses), or isolated (below), always with per-job error isolation: one
failing spec yields an error payload, the rest of the batch completes.
Results come back as plain dicts — the same lossless form the disk
cache uses — whichever way the job ran, so parallel runs are
bit-identical to serial ones.

Telemetry: a job run in this process records straight into the live
metrics registry and tracer. Only the forked entry points swap in fresh
ones and ship what the job recorded back under ``payload["obs"]``,
which the parent folds in (:func:`_ingest_obs`) and drops.

Isolated execution — selected whenever the
:class:`~repro.service.config.ServiceConfig` policy or a spec sets a
timeout or deadline — runs one disposable ``fork`` process per job
attempt: the parent polls each worker against its wall-clock budget,
SIGKILLs the ones that blow it, detects workers that died underneath
their job, retries interrupted jobs a bounded number of times (worker
death and timeout are environmental; an *exception* is deterministic
and never retried), and quarantines jobs that keep failing so a poison
spec cannot eat the pool. A job that exhausts its budget terminates
with a classified ``{"status": "failed", "failure": {...}}`` payload
instead of an exception killing the sweep — or a hang that never ends
it. The shared pool hands the jobs a dead worker left unfinished to
the same executor, so a worker death never hangs a batch either.

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
from repro.dram.geometry import DeviceGeometry
from repro.dram.scheduler import resolve_engine
from repro.dram.timing import TimingParams
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

#: Process-local update-model registry (cycle-sim profiles are
#: expensive), shared by service jobs and
#: :class:`~repro.experiments.common.ExperimentContext`. Keyed by the
#: resolved hardware substrate — timing and geometry objects (so two
#: grades sharing a name never share a model), stripe width, validation
#: mode — plus the engine the spelling selects. The model itself
#: memoizes profiles per (design, optimizer identity, precision) — the
#: identity covers hyperparameters (see ``Optimizer.cache_key``), so one
#: model safely serves every job on the substrate: a process computes
#: each profile once across all its jobs and figures.
_MODELS: dict[tuple, UpdatePhaseModel] = {}


def shared_update_model(
    timing: TimingParams,
    geometry: DeviceGeometry,
    columns_per_stripe: int,
    validate: bool,
    engine: str,
) -> UpdatePhaseModel:
    """This process's update model for one substrate (created on first
    use). Every exact engine spelling shares one model; ``"periodic"``
    keeps its own (its flight recorder differs)."""
    key = (
        timing, geometry, columns_per_stripe, validate,
        resolve_engine(engine),
    )
    model = _MODELS.get(key)
    if model is None:
        model = _MODELS[key] = UpdatePhaseModel(
            timing=timing,
            geometry=geometry,
            columns_per_stripe=columns_per_stripe,
            validate=validate,
            engine=engine,
        )
    return model


def _substrate_key(spec: SimJobSpec) -> tuple:
    """Groups specs by substrate for dispatch order and pre-fork
    warming: the registry key of :func:`shared_update_model`, spelled
    on the spec so grouping never resolves one."""
    return (
        spec.timing,
        spec.columns_per_stripe,
        tuple(sorted(spec.geometry.items())),
        spec.channels,
        spec.validate,
        resolve_engine(spec.engine),
    )


def _job_model(job: ResolvedJob) -> UpdatePhaseModel:
    return shared_update_model(
        job.timing, job.geometry, job.columns_per_stripe, job.validate,
        job.engine,
    )


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
        update_model=_job_model(job),
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


def execute_spec_resilient(
    spec: SimJobSpec,
) -> tuple[NetworkResult, Optional[dict], Optional[str]]:
    """Run one job with graceful engine degradation.

    Returns ``(result, engine_report, degraded_reason)``. The engine
    report is the per-job delta of the shared update model's flight
    recorder (:class:`repro.obs.report.EngineReport`), or ``None`` when
    the job never touched the engines — every profile it needed was
    already memoized. A failure of the *periodic* engine — an
    optimization layered over the columnar engine, byte-identical by
    the equivalence contract — is not a reason to fail the job: the
    spec is re-run with ``engine="columnar"`` and ``degraded_reason``
    records why. Columnar failures (and a failed fallback) propagate;
    there is nothing sound to degrade to. Jobs run through the module
    attribute :func:`execute_spec`, the seam tests monkeypatch.
    """
    def run(job: SimJobSpec) -> tuple[NetworkResult, Optional[dict]]:
        model = _job_model(job.resolve())
        before = model.report.to_dict()
        result = execute_spec(job)
        return result, EngineReport.diff_dicts(before, model.report.to_dict())

    try:
        result, report = run(spec)
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
        result, report = run(dataclasses.replace(spec, engine="columnar"))
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
            model = _job_model(job)
            for design in job.designs:
                model.profile(design, job.optimizer, job.precision)
        except Exception:
            pass  # the owning worker will surface the real error


def _run_payload(spec: SimJobSpec) -> dict:
    """Job body: never raises — errors become payloads.

    Telemetry goes to this process's live metrics registry and tracer;
    the forked entry points (:func:`_forked_payload`,
    :func:`_child_main`) swap in fresh ones first and ship what the job
    recorded back to the parent.
    """
    start = time.perf_counter()
    try:
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
                "network": spec.network,
                "error": f"{type(exc).__name__}: {exc}",
            },
        )
        payload = {
            "status": "error",
            "error": f"{type(exc).__name__}: {exc}",
            "traceback": traceback.format_exc(),
            "elapsed_seconds": elapsed,
        }
    return payload


def _forked_payload(spec: SimJobSpec) -> dict:
    """:func:`_run_payload` in a forked worker, telemetry attached.

    The job runs against a *fresh* metrics registry and — when the
    parent was tracing — a fresh tracer, so the fork-inherited copies
    of the parent's history are never shipped back. Whatever the job
    recorded travels under ``payload["obs"]`` for :func:`_ingest_obs`.
    A pool worker runs several jobs, and each starts fresh.
    """
    tracer = (
        obs_trace.enable_tracing(obs_trace.Tracer())
        if obs_trace.active_tracer() is not None
        else None
    )
    registry = MetricsRegistry("repro")
    set_default_registry(registry)
    payload = _run_payload(spec)
    obs = {}
    if not registry.is_empty():
        obs["metrics"] = registry.snapshot()
    if tracer is not None:
        obs["spans"] = tracer.drain()
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
    (the isolated executor classified a timeout, worker death, or
    quarantine).

    The topology follows from the inputs. A timeout or deadline —
    ``config``'s (:class:`~repro.service.config.ServiceConfig`) or any
    spec's — runs one disposable process per job attempt, with
    kill-on-timeout, dead-worker retry, and poison-job quarantine.
    Otherwise ``jobs > 1`` fans out over a shared fork pool, and
    anything else (or a pool that fails to start) runs serially in this
    process, which also warms this process's model cache. ``deadlines``
    optionally pins each spec's absolute ``time.monotonic`` deadline
    (the server dispatcher starts the clock at enqueue).

    The shared pool sorts jobs by substrate (timing grade, geometry,
    stripe width, validation mode) and hands each worker a contiguous
    chunk, so jobs sharing a substrate profile it once per worker
    instead of once per job; caller order is restored before returning.
    A worker that dies breaks the pool: the jobs left without a payload
    re-run in the isolated executor, which classifies the death under
    ``config``'s retry and quarantine budget instead of hanging.
    """
    faults.auto_install()
    if config is None:
        config = DEFAULT_SERVICE_CONFIG
    deadlines = _effective_deadlines(specs, config, deadlines)
    if config.job_timeout_seconds is not None or any(
        d is not None for d in deadlines
    ):
        try:
            out = _run_hardened(specs, jobs, config, deadlines)
            _ingest_obs(out)
            return out
        except (OSError, ValueError):
            _serial_fallback("isolated")
    elif jobs > 1 and len(specs) > 1:
        # Imported here so that only a pooled batch pays for it.
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        _warm_shared_substrates(specs)
        order = sorted(
            range(len(specs)), key=lambda i: _substrate_key(specs[i])
        )
        n_workers = min(jobs, len(specs))
        chunksize = -(-len(specs) // n_workers)  # ceil division
        out: list[Optional[dict]] = [None] * len(specs)
        try:
            ctx = multiprocessing.get_context("fork")
            with span(
                "pool.dispatch", jobs=n_workers, pending=len(specs)
            ), ProcessPoolExecutor(n_workers, mp_context=ctx) as pool:
                sorted_out = pool.map(
                    _forked_payload,
                    [specs[i] for i in order],
                    chunksize=chunksize,
                )
                try:
                    for i, payload in zip(order, sorted_out):
                        payload["execution_mode"] = "parallel"
                        out[i] = payload
                except BrokenProcessPool:
                    pass  # re-run below
            lost = [i for i, payload in enumerate(out) if payload is None]
            if lost:
                _logger.warning(
                    "a pool worker died; re-running its jobs isolated",
                    extra={"jobs": len(lost)},
                )
                rerun = _run_hardened(
                    [specs[i] for i in lost], jobs, config, [None] * len(lost)
                )
                for i, payload in zip(lost, rerun):
                    out[i] = payload
            _ingest_obs(out)
            return out
        except (OSError, ValueError):
            _serial_fallback("parallel")
    with span("pool.dispatch", jobs=1, pending=len(specs)):
        out = []
        for spec, deadline in zip(specs, deadlines):
            if deadline is not None and time.monotonic() >= deadline:
                payload = _failure_payload(
                    "timeout",
                    attempts=0,
                    timed_out=True,
                    detail="deadline expired before execution",
                )
            else:
                payload = _run_payload(spec)
            payload["execution_mode"] = "serial"
            out.append(payload)
    return out


# ----------------------------------------------------------------------
# Hardened execution: one disposable process per job attempt.
# ----------------------------------------------------------------------
def _child_main(spec: SimJobSpec, attempt: int, conn) -> None:
    """Entry point of one disposable per-job worker process."""
    faults.enter_worker_context(attempt)
    payload = _forked_payload(spec)  # never raises
    try:
        conn.send(payload)
    finally:
        conn.close()


def _run_hardened(
    specs: Sequence[SimJobSpec],
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
                    args=(specs[i], attempt, child_conn),
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

    Each payload's ``obs`` block (attached by :func:`_forked_payload`) is
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
