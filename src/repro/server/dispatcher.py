"""The background dispatcher: bounded queue, coalescing, execution.

This is the scaling mechanic of the gateway. Every accepted spec
resolves to one of three dispositions at submit time, all decided under
one lock:

``cached``
    The result cache already holds the spec's content address — the
    job completes immediately, no queue traffic.
``coalesced``
    An execution for the same content address is already queued or
    running — the job *attaches* to it. N concurrent requests for one
    spec cost one simulation and one cache write; every attached job
    receives the identical result.
``queued``
    A new :class:`Execution` enters the bounded dispatcher queue. A
    full queue raises :class:`Backpressure` (the HTTP layer answers
    503 + ``Retry-After``) instead of hiding unbounded latency.

A single daemon thread drains the queue and feeds every execution to
:func:`repro.service.api.submit_many`, the one service execution path:
one at a time in this thread when ``workers == 1``, or in drained
batches across the ``repro.service.pool`` worker processes when
``workers > 1``; a deadline or job timeout runs even a batch of one in
a hardened per-job process, where it can be killed. Either way results
land in the server's :class:`ResultCache` and every job attached to
the execution is finished with the same outcome.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Optional

from repro import faults
from repro.obs.log import correlation_scope, get_logger
from repro.obs.trace import instant, span
from repro.server.config import ServerConfig
from repro.server.jobs import Job, JobStore
from repro.obs.metrics import MetricsRegistry
from repro.service import api
from repro.service.cache import ResultCache, cache_key
from repro.service.spec import SimJobSpec

_logger = get_logger("repro.server.dispatcher")


class Backpressure(Exception):
    """The dispatcher queue is full; retry after ``retry_after`` s."""

    def __init__(self, retry_after: float) -> None:
        super().__init__(
            f"dispatcher queue full; retry after {retry_after:g}s"
        )
        self.retry_after = retry_after


@dataclass
class Execution:
    """One unique simulation in flight, shared by N attached jobs."""

    key: str
    spec: SimJobSpec
    job_ids: list[str]
    created: float = field(default_factory=time.monotonic)
    started: bool = False
    #: Absolute ``time.monotonic`` deadline (from the spec's
    #: ``deadline_ms`` or the server default, clocked from enqueue), or
    #: ``None`` for no budget. An execution still queued past its
    #: deadline finishes ``timed_out`` without ever running.
    deadline_at: Optional[float] = None


_SENTINEL = object()


class Dispatcher:
    """Bounded-queue executor with in-flight request coalescing."""

    def __init__(
        self,
        config: ServerConfig,
        cache: ResultCache,
        jobs: JobStore,
        metrics: MetricsRegistry,
    ) -> None:
        self.config = config
        self.cache = cache
        self.jobs = jobs
        self.metrics = metrics
        self._queue: queue.Queue = queue.Queue(maxsize=config.queue_depth)
        self._inflight: dict[str, Execution] = {}
        self._lock = threading.Lock()
        self._thread: Optional[threading.Thread] = None
        #: Readiness gate for ``GET /readyz``: flipped on before the
        #: dispatcher thread starts accepting work and off the moment a
        #: drain begins, so a supervisor or load balancer stops routing
        #: to a gateway that is shutting down while ``/healthz`` (pure
        #: liveness) still answers 200.
        self.draining = False
        #: Result of the last :meth:`stop`: ``True`` (thread joined),
        #: ``False`` (thread leaked past the join timeout), or ``None``
        #: (never stopped).
        self.stopped_clean: Optional[bool] = None
        metrics.gauge("queue_depth", self.queue_depth)
        metrics.gauge("inflight_executions", lambda: len(self._inflight))

    def queue_depth(self) -> int:
        """Executions waiting in the queue (approximate, lock-free)."""
        return self._queue.qsize()

    # ------------------------------------------------------------------
    # Submission (called from HTTP request threads)
    # ------------------------------------------------------------------
    def submit(self, spec: SimJobSpec) -> tuple[Job, str]:
        """Admit one spec; returns ``(job, disposition)``.

        Raises :class:`Backpressure` when the queue is full (the job is
        not retained).
        """
        key = cache_key(spec)
        # Probe the cache before taking the dispatcher lock: with a
        # disk-backed cache a cold lookup is file I/O, and serializing
        # every request thread behind it would cap admission at
        # single-file-read speed. The cost is a benign race — a spec
        # completing in the window between this miss and the registry
        # check below re-executes instead of coalescing, converging on
        # the identical content-addressed result.
        with span("server.submit", spec=key[:12]) as submit_span, \
                correlation_scope(key):
            return self._submit_locked(spec, key, submit_span)

    def _submit_locked(
        self, spec: SimJobSpec, key: str, submit_span
    ) -> tuple[Job, str]:
        with span("server.cache_lookup", spec=key[:12]):
            cached = self.cache.lookup(key)
        if cached is not None:
            job = self.jobs.create(spec, key)
            self.metrics.inc("cache_hits_total")
            self.jobs.finish(
                job.id,
                api.SimJobResult(
                    spec=spec,
                    status="ok",
                    result=cached,
                    from_cache=True,
                ),
            )
            submit_span.set(disposition="cached")
            _logger.info(
                "job cached", extra={"job_id": job.id}
            )
            return job, "cached"
        with self._lock:
            execution = self._inflight.get(key)
            if execution is not None:
                if len(execution.job_ids) >= self.config.max_coalesced:
                    # Attachments are admission too: a hot-spec flood
                    # must hit backpressure, not grow the job store.
                    self.metrics.inc("rejected_total")
                    raise Backpressure(self.config.retry_after_seconds)
                job = self.jobs.create(spec, key)
                job.coalesced = True
                execution.job_ids.append(job.id)
                if execution.started:
                    self.jobs.mark_running(job.id)
                self.metrics.inc("coalesced_total")
                submit_span.set(disposition="coalesced")
                _logger.info(
                    "job coalesced", extra={"job_id": job.id}
                )
                return job, "coalesced"
            job = self.jobs.create(spec, key)
            execution = Execution(
                key=key,
                spec=spec,
                job_ids=[job.id],
                deadline_at=self._deadline_for(spec),
            )
            try:
                self._queue.put_nowait(execution)
            except queue.Full:
                self.jobs.discard(job.id)
                self.metrics.inc("rejected_total")
                raise Backpressure(self.config.retry_after_seconds)
            self._inflight[key] = execution
            self.metrics.inc("queued_total")
            submit_span.set(disposition="queued")
            _logger.info(
                "job queued", extra={"job_id": job.id}
            )
            return job, "queued"

    def _deadline_for(self, spec: SimJobSpec) -> Optional[float]:
        """The absolute deadline of a spec enqueued now, if any."""
        ms = (
            spec.deadline_ms
            if spec.deadline_ms is not None
            else self.config.execution.default_deadline_ms
        )
        if ms is None:
            return None
        return time.monotonic() + ms / 1000.0

    # ------------------------------------------------------------------
    # Execution (the dispatcher thread)
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._run, name="repro-server-dispatcher", daemon=True
        )
        self._thread.start()

    def is_ready(self) -> bool:
        """True while the dispatcher can accept and execute new work.

        Not-ready covers the whole lifecycle outside steady state: the
        window before :meth:`start`, a drain in progress, and after the
        dispatcher thread exited (or leaked).
        """
        thread = self._thread
        return (
            thread is not None and thread.is_alive() and not self.draining
        )

    def stop(self, timeout: float = 10.0) -> bool:
        """Stop the dispatcher thread; returns ``stopped_clean``.

        ``Thread.join(timeout=...)`` returns regardless of whether the
        thread actually exited — a dispatcher wedged in a hung
        execution used to leak here while stop reported success. The
        leak is now detected, logged, counted
        (``dispatcher_stop_leaked_total``), and surfaced both in the
        return value and on :attr:`stopped_clean`. A leaked thread is
        abandoned (it is a daemon; it cannot outlive the process) —
        the queue reference is dropped so it can never execute work
        admitted after the failed stop.
        """
        self.draining = True
        if self._thread is None:
            return self.stopped_clean if self.stopped_clean is not None else True
        self._queue.put(_SENTINEL)  # blocks until a slot frees; always drained
        thread = self._thread
        thread.join(timeout=timeout)
        self._thread = None
        if thread.is_alive():
            self.stopped_clean = False
            self.metrics.inc("dispatcher_stop_leaked_total")
            instant("dispatcher.stop_leaked", timeout=timeout)
            _logger.warning(
                "dispatcher thread still alive after join timeout; "
                "abandoning it",
                extra={"timeout_seconds": timeout},
            )
            return False
        self.stopped_clean = True
        return True

    def _run(self) -> None:
        while True:
            item = self._queue.get()
            if item is _SENTINEL:
                self._fail_drained()
                return
            batch = [item]
            if self.config.workers > 1:
                # Drain what is already queued (bounded, so at most
                # queue_depth) and fan it across the worker pool.
                while len(batch) < self.config.queue_depth:
                    try:
                        nxt = self._queue.get_nowait()
                    except queue.Empty:
                        break
                    if nxt is _SENTINEL:
                        self._execute(batch)
                        self._fail_drained()
                        return
                    batch.append(nxt)
            self._execute(batch)

    def _fail_drained(self) -> None:
        """Fail executions enqueued behind the stop sentinel.

        Request threads can still be admitting work while the HTTP
        accept loop winds down; silently dropping their executions
        would strand jobs in ``queued`` forever (and hang any
        ``?wait=`` blocker for its full timeout). Finish them with an
        explicit error instead.
        """
        while True:
            try:
                execution = self._queue.get_nowait()
            except queue.Empty:
                return
            if execution is _SENTINEL:
                continue
            self._finish_execution(
                execution,
                api.SimJobResult(
                    spec=execution.spec,
                    status="error",
                    error="RuntimeError: server shutting down",
                ),
            )

    def _finish_execution(
        self, execution: Execution, outcome: api.SimJobResult
    ) -> None:
        """Finish every job attached to one completed execution.

        Called *after* any cache write of its result: a submitter who
        misses the in-flight registry is then guaranteed to hit the
        cache, so no duplicate execution can slip through the gap. The
        attached jobs are snapshotted under the same lock that pops the
        entry — once it is gone, nothing can attach.
        """
        with self._lock:
            self._inflight.pop(execution.key, None)
            attached = list(execution.job_ids)
        for job_id in attached:
            self.jobs.finish(job_id, outcome)

    def _execute(self, batch: list[Execution]) -> None:
        faults.sleep_site(faults.DISPATCHER_STALL)
        now = time.monotonic()
        # Executions whose deadline passed while queued terminate as
        # timed_out without burning a worker — the 504-style terminal
        # answer instead of an eternal "running".
        expired = [
            e
            for e in batch
            if e.deadline_at is not None and now >= e.deadline_at
        ]
        if expired:
            batch = [e for e in batch if e not in expired]
            for execution in expired:
                self.metrics.inc("job_timeouts_total")
                instant(
                    "dispatcher.deadline_expired",
                    spec=execution.key[:12],
                )
                _logger.warning(
                    "execution deadline expired while queued",
                    extra={"spec": execution.key[:12]},
                )
                self._finish_execution(
                    execution,
                    api.SimJobResult(
                        spec=execution.spec,
                        status="failed",
                        error="deadline expired while queued",
                        failure={
                            "reason": "timeout",
                            "timed_out": True,
                            "quarantined": False,
                            "attempts": 0,
                            "retried": False,
                            "detail": "deadline expired while queued",
                        },
                    ),
                )
            if not batch:
                return
        with self._lock:
            for execution in batch:
                execution.started = True
                for job_id in execution.job_ids:
                    self.jobs.mark_running(job_id)
        for execution in batch:
            self.metrics.observe(
                "queue_wait_seconds", now - execution.created
            )
        started = time.perf_counter()
        try:
            # cache=None: admission already resolved these as misses
            # (counting them once); the write-back below is explicit so
            # its ordering against the registry pop stays under our
            # control.
            with span("server.dispatch", batch=len(batch)):
                outcomes = api.submit_many(
                    [e.spec for e in batch],
                    jobs=self.config.workers,
                    cache=None,
                    config=self.config.execution,
                    deadlines=[e.deadline_at for e in batch],
                )
        except Exception as exc:  # the service API isolates per-job
            # errors; this guards the dispatcher thread itself.
            outcomes = [
                api.SimJobResult(
                    spec=e.spec,
                    status="error",
                    error=f"{type(exc).__name__}: {exc}",
                )
                for e in batch
            ]
        elapsed = time.perf_counter() - started
        for execution, outcome in zip(batch, outcomes):
            self.metrics.observe("execute_seconds", elapsed / len(batch))
            self.metrics.inc("executions_total")
            if not outcome.ok:
                self.metrics.inc("execution_errors_total")
            self._record_resilience(outcome)
            self._aggregate_engine_report(outcome.engine_report)
            _logger.info(
                "execution finished",
                extra={
                    "status": outcome.status,
                    "spec": execution.key[:12],
                    "elapsed_seconds": elapsed / len(batch),
                },
            )
            if outcome.ok and outcome.result is not None:
                with span(
                    "server.cache_write", spec=execution.key[:12]
                ):
                    self.cache.put(execution.spec, outcome.result)
            self._finish_execution(execution, outcome)

    def _record_resilience(self, outcome: api.SimJobResult) -> None:
        """Count one outcome's resilience events into ``/metrics``.

        Renders as the ``repro_server_*`` families: timeouts,
        quarantines, retries that recovered a job, and engine
        degradations that fell back to the columnar scheduler.
        """
        reason = outcome.failure_reason
        if reason == "timeout":
            self.metrics.inc("job_timeouts_total")
        elif reason == "quarantined":
            self.metrics.inc("jobs_quarantined_total")
        if outcome.retried:
            self.metrics.inc("job_retries_total")
        if outcome.degraded:
            self.metrics.inc(
                "degraded_total", {"kind": "engine-fallback"}
            )
            instant(
                "server.degraded",
                reason=outcome.degraded_reason or "engine-fallback",
            )

    def _aggregate_engine_report(
        self, report: Optional[dict]
    ) -> None:
        """Fold one job's engine flight-recorder delta into /metrics.

        Counter families: ``engine_fast_path_total`` /
        ``engine_fallback_total{reason=...}`` /
        ``engine_warm_runs_total`` / ``engine_locks_total{confirmed=}``
        and ``engine_scheduling_path_total{path=...}``, all labelled by
        nothing beyond their natural dimension so the series stay
        bounded.
        """
        if not report:
            return
        if report.get("fast_path"):
            self.metrics.inc(
                "engine_fast_path_total", value=report["fast_path"]
            )
        for reason, n in report.get("fallback_reasons", {}).items():
            self.metrics.inc(
                "engine_fallback_total", {"reason": reason}, value=n
            )
        if report.get("warm_runs"):
            self.metrics.inc(
                "engine_warm_runs_total", value=report["warm_runs"]
            )
        attempts = report.get("lock_attempts", 0)
        confirmed = report.get("locks_confirmed", 0)
        if confirmed:
            self.metrics.inc(
                "engine_locks_total",
                {"confirmed": "yes"},
                value=confirmed,
            )
        if attempts > confirmed:
            self.metrics.inc(
                "engine_locks_total",
                {"confirmed": "no"},
                value=attempts - confirmed,
            )
        for path, n in report.get("scheduling_paths", {}).items():
            self.metrics.inc(
                "engine_scheduling_path_total", {"path": path}, value=n
            )
        for name in (
            "commands_simulated", "commands_replayed", "commands_prepared",
            "commands_validated", "commands_materialized", "sweeps_extended",
        ):
            if report.get(name):
                self.metrics.inc(
                    f"engine_{name}_total", value=report[name]
                )
