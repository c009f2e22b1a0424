"""The HTTP gateway: routes, request telemetry, server lifecycle.

Stdlib-only (``http.server.ThreadingHTTPServer``): one thread per
connection for request handling, one shared dispatcher thread for
execution, everything JSON.

The protocol is coded once, in :class:`V1Server` and its request
handler; :class:`ReproServer` (the gateway) and the cluster router
(:class:`repro.cluster.router.ClusterRouter`) are subclasses that
supply only their back end: what health, readiness and metrics report,
how a spec is admitted, and how jobs and cached results are looked up.

Endpoints::

    POST /v1/jobs[?wait=SECONDS]    submit one spec or {"jobs": [...]}
    GET  /v1/jobs/{id}[?summary=1]  job status / result envelope
    GET  /v1/results/{spec_hash}    direct content-addressed lookup
    GET  /healthz                   liveness + queue snapshot
    GET  /readyz                    readiness (503 while starting/draining)
    GET  /metrics                   Prometheus text exposition

Every request is timed into a per-endpoint streaming histogram
(p50/p95/p99 on ``/metrics``) and counted by (endpoint, status).
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional
from urllib.parse import parse_qs, urlsplit

from repro import faults
from repro.errors import ConfigError
from repro.obs.build import build_info
from repro.obs.log import configure_json_logging
from repro.obs.metrics import MetricsRegistry, default_registry
from repro.server.config import ServerConfig
from repro.server.dispatcher import Backpressure, Dispatcher
from repro.server.jobs import JobStore
from repro.service.cache import ResultCache
from repro.service.spec import SimJobSpec

#: Largest accepted request body (a 256-spec batch is ~100 KB).
MAX_BODY_BYTES = 8 * 1024 * 1024


class _HTTPError(Exception):
    """Internal routing error carrying an HTTP status."""

    def __init__(
        self, status: int, message: str, headers: Optional[dict] = None
    ) -> None:
        super().__init__(message)
        self.status = status
        self.headers = headers or {}


class V1Server(ThreadingHTTPServer):
    """The ``/v1`` HTTP front end both servers share: one handler (route
    table, telemetry, body and batch parsing, the batch-prefix
    admission contract) and one lifecycle, configured by the
    ``host``, ``port``, ``log_json``, ``faults``, ``max_batch`` and
    ``max_wait_seconds`` of its ``config``. A subclass supplies its
    back end through these hooks:

    - :meth:`_open_backend`, :meth:`_start_backend` and
      :meth:`_stop_backend` build, start and stop it (building sets
      ``jobs``, the job store whose ``counts()`` ``/healthz`` shows);
    - :meth:`health`, :meth:`readiness` and :meth:`metrics_text` are
      what ``/healthz``, ``/readyz`` and ``/metrics`` report;
    - :meth:`submit_spec` admits one spec of a batch, raising
      :class:`Backpressure` when it cannot; :meth:`envelopes` turns
      the admitted prefix into the response's job envelopes;
    - :meth:`poll_job` and :meth:`cached_result` answer
      ``/v1/jobs/{id}`` and ``/v1/results/{spec_hash}`` (``None``: 404);
    - :meth:`before_request` runs once a request has matched a route.
    """

    daemon_threads = True
    #: Prefix of the server's own metric families.
    namespace: str
    #: Name of the background serving thread.
    thread_name: str
    #: Error text of the 503 answered when no spec of a batch is admitted.
    rejected_message: str

    def __init__(self, config) -> None:
        self.config = config
        if config.log_json:
            configure_json_logging()
        if config.faults is not None:
            faults.install(faults.FaultPlan.parse(config.faults))
        else:
            faults.auto_install()
        self.metrics = MetricsRegistry(namespace=self.namespace)
        self.started_at = time.monotonic()
        self._serve_thread: Optional[threading.Thread] = None
        self.metrics.gauge(
            "uptime_seconds", lambda: time.monotonic() - self.started_at
        )
        # Info-style gauge: constant 1.0, provenance in the labels —
        # the standard way to ship build metadata through Prometheus.
        self.metrics.gauge("build_info", lambda: 1.0, labels=build_info())
        self._open_backend()
        super().__init__((config.host, config.port), _Handler)

    @property
    def url(self) -> str:
        """The bound base URL (resolves ``port=0`` to the real port)."""
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def serve_forever(self, poll_interval: float = 0.5) -> None:
        self._start_backend()
        super().serve_forever(poll_interval=poll_interval)

    def start_background(self) -> str:
        """Serve from a daemon thread; returns the base URL."""
        self._start_backend()
        self._serve_thread = threading.Thread(
            target=super().serve_forever,
            kwargs={"poll_interval": 0.05},
            name=self.thread_name,
            daemon=True,
        )
        self._serve_thread.start()
        return self.url

    def stop(self):
        """Shut down the HTTP loop, then the back end; returns what
        :meth:`_stop_backend` does.

        The loop is shut down and joined only when
        :meth:`start_background` serves it. After a foreground
        :meth:`serve_forever` has returned or raised (Ctrl-C, or a back
        end that failed to start), the loop is already over and this
        returns at once.
        """
        thread, self._serve_thread = self._serve_thread, None
        if thread is not None:
            self.shutdown()
            thread.join(timeout=10.0)
        stopped = self._stop_backend()
        self.server_close()
        return stopped

    # ------------------------------------------------------------------
    # Shared parts of the back-end hooks
    # ------------------------------------------------------------------
    def health(self) -> dict:
        return {
            "status": "ok",
            "uptime_seconds": time.monotonic() - self.started_at,
            "jobs": self.jobs.counts(),
            "faults": faults.describe_active(),
        }

    def metrics_text(self) -> str:
        text = self.metrics.render()
        # The process-global registry carries engine/pool telemetry
        # (namespace "repro" vs the server's own, so the families
        # never collide).
        shared = default_registry()
        if not shared.is_empty():
            text += shared.render()
        return text

    def envelopes(self, admitted: list, wait_seconds: float) -> list:
        return admitted

    def before_request(self) -> None:
        pass


class ReproServer(V1Server):
    """The gateway server: HTTP front end + dispatcher + cache."""

    namespace = "repro_server"
    thread_name = "repro-server-http"
    rejected_message = "dispatcher queue full"

    def _open_backend(self) -> None:
        config = self.config
        self.cache = ResultCache(
            max_entries=config.cache_max_entries,
            directory=config.cache_dir,
        )
        self.jobs = JobStore(max_finished=config.max_finished_jobs)
        self.dispatcher = Dispatcher(
            config, self.cache, self.jobs, self.metrics
        )
        for name in (
            "hits", "misses", "disk_hits", "entries", "checksum_failures"
        ):
            self.metrics.gauge(
                f"cache_{name}",
                lambda n=name: self.cache.stats()[n],
            )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _start_backend(self) -> None:
        self.dispatcher.start()

    def _stop_backend(self) -> bool:
        return self.dispatcher.stop()

    def stop(self) -> bool:
        """Shut down the HTTP loop and drain the dispatcher.

        Returns the dispatcher's ``stopped_clean`` flag: ``False``
        means the dispatcher thread leaked past its join timeout (it
        was abandoned as a daemon; see :meth:`Dispatcher.stop`).
        """
        # Flip readiness first: probes racing the shutdown see
        # not-ready (and stop routing) before connections start failing.
        self.dispatcher.draining = True
        return super().stop()

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def health(self) -> dict:
        return dict(
            super().health(), queue_depth=self.dispatcher.queue_depth()
        )

    def readiness(self) -> dict:
        """Readiness, distinct from liveness: can this gateway take
        traffic *now*? Not ready before the dispatcher starts and from
        the first moment of a drain — the supervisor's probe target."""
        dispatcher = self.dispatcher
        ready = dispatcher.is_ready()
        body = {
            "ready": ready,
            "draining": dispatcher.draining,
            "queue_depth": dispatcher.queue_depth(),
        }
        if not ready:
            body["reason"] = (
                "draining" if dispatcher.draining
                else "dispatcher not started"
            )
        return body

    def submit_spec(self, spec: SimJobSpec, wait_seconds: float):
        return self.dispatcher.submit(spec)

    def envelopes(self, admitted: list, wait_seconds: float) -> list:
        if wait_seconds > 0:
            deadline = time.monotonic() + wait_seconds
            for job, _ in admitted:
                job.done_event.wait(
                    timeout=max(0.0, deadline - time.monotonic())
                )
        return [
            dict(
                job.to_dict(include_result=wait_seconds > 0),
                disposition=disposition,
            )
            for job, disposition in admitted
        ]

    def poll_job(self, job_id: str, summary: bool) -> Optional[dict]:
        job = self.jobs.get(job_id)
        return (
            None if job is None
            else job.to_dict(include_result=not summary)
        )

    def cached_result(self, spec_hash: str) -> Optional[dict]:
        result = self.cache.lookup(spec_hash)
        return (
            None if result is None
            else {"spec_hash": spec_hash, "result": result.to_dict()}
        )


def create_server(config: Optional[ServerConfig] = None) -> ReproServer:
    """Bind a :class:`ReproServer` (not yet serving)."""
    return ReproServer(config if config is not None else ServerConfig())


class running_server:
    """Context manager: a live background server for tests/examples.

    ::

        with running_server(ServerConfig(port=0)) as server:
            client = ServerClient(server.url)
    """

    def __init__(self, config: Optional[ServerConfig] = None) -> None:
        self.server = create_server(config)

    def __enter__(self) -> ReproServer:
        self.server.start_background()
        return self.server

    def __exit__(self, *exc_info) -> None:
        self.server.stop()


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server: V1Server  # narrowed type

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        self._route("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._route("POST")

    def log_message(self, format: str, *args) -> None:
        pass  # telemetry lives in /metrics, not stderr

    # ------------------------------------------------------------------
    # Routing + telemetry
    # ------------------------------------------------------------------
    def _route(self, method: str) -> None:
        started = time.perf_counter()
        split = urlsplit(self.path)
        query = parse_qs(split.query)
        endpoint, status = "(unmatched)", 500
        try:
            endpoint, handler, arg = self._match(method, split.path)
            self.server.before_request()
            status = handler(arg, query)
        except _HTTPError as exc:
            status = exc.status
            self._send_json(
                exc.status, {"error": str(exc)}, headers=exc.headers
            )
        except Exception as exc:  # never kill the connection thread
            status = 500
            self._send_json(
                500, {"error": f"{type(exc).__name__}: {exc}"}
            )
        finally:
            metrics = self.server.metrics
            metrics.observe(
                "request_seconds",
                time.perf_counter() - started,
                {"endpoint": endpoint},
            )
            metrics.inc(
                "requests_total",
                {"endpoint": endpoint, "status": str(status)},
            )

    def _match(self, method: str, path: str):
        parts = [p for p in path.split("/") if p]
        if method == "GET" and parts == ["healthz"]:
            return "GET /healthz", self._healthz, None
        if method == "GET" and parts == ["readyz"]:
            return "GET /readyz", self._readyz, None
        if method == "GET" and parts == ["metrics"]:
            return "GET /metrics", self._metrics, None
        if method == "POST" and parts == ["v1", "jobs"]:
            return "POST /v1/jobs", self._post_jobs, None
        if (
            method == "GET"
            and len(parts) == 3
            and parts[:2] == ["v1", "jobs"]
        ):
            return "GET /v1/jobs/{id}", self._get_job, parts[2]
        if (
            method == "GET"
            and len(parts) == 3
            and parts[:2] == ["v1", "results"]
        ):
            return (
                "GET /v1/results/{spec_hash}",
                self._get_result,
                parts[2],
            )
        raise _HTTPError(
            405
            if parts
            in (["v1", "jobs"], ["healthz"], ["readyz"], ["metrics"])
            else 404,
            f"no route for {method} {path}",
        )

    # ------------------------------------------------------------------
    # Handlers (return the status they sent)
    # ------------------------------------------------------------------
    def _healthz(self, _arg, _query) -> int:
        self._send_json(200, self.server.health())
        return 200

    def _readyz(self, _arg, _query) -> int:
        body = self.server.readiness()
        status = 200 if body["ready"] else 503
        self._send_json(status, body)
        return status

    def _metrics(self, _arg, _query) -> int:
        body = self.server.metrics_text().encode("utf-8")
        self.send_response(200)
        self.send_header(
            "Content-Type", "text/plain; version=0.0.4; charset=utf-8"
        )
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)
        return 200

    def _post_jobs(self, _arg, query) -> int:
        server = self.server
        payload = self._read_json()
        if isinstance(payload, dict) and "jobs" in payload:
            raw_specs = payload["jobs"]
            if not isinstance(raw_specs, list):
                raise _HTTPError(400, "'jobs' must be a list of specs")
        elif isinstance(payload, dict):
            raw_specs = [payload]
        else:
            raise _HTTPError(
                400, "body must be a spec object or {'jobs': [...]}"
            )
        if not raw_specs:
            raise _HTTPError(400, "empty job batch")
        if len(raw_specs) > server.config.max_batch:
            raise _HTTPError(
                400,
                f"batch of {len(raw_specs)} exceeds max_batch="
                f"{server.config.max_batch}",
            )
        try:
            specs = [SimJobSpec.from_dict(d) for d in raw_specs]
        except (ConfigError, TypeError, ValueError) as exc:
            raise _HTTPError(400, f"bad spec: {exc}")

        # Parsed before anything is admitted: a bad value admits nothing.
        wait_seconds = self._wait_seconds(query)

        admitted, rejected_after = [], None
        for i, spec in enumerate(specs):
            try:
                admitted.append(server.submit_spec(spec, wait_seconds))
            except Backpressure as exc:
                # The first rejected spec ends the batch: accepted jobs
                # stay accepted and form a strict prefix (the client
                # retries the remainder after Retry-After).
                rejected_after = (i, exc.retry_after)
                break

        if rejected_after is not None and not admitted:
            raise _HTTPError(
                503,
                server.rejected_message,
                headers={"Retry-After": f"{rejected_after[1]:g}"},
            )
        jobs = server.envelopes(admitted, wait_seconds)
        body = {"jobs": jobs, "accepted": len(jobs)}
        if rejected_after is not None:
            body["rejected"] = len(specs) - rejected_after[0]
            body["retry_after_seconds"] = rejected_after[1]
            status = 503
            headers = {"Retry-After": f"{rejected_after[1]:g}"}
        else:
            status = 200 if wait_seconds > 0 else 202
            headers = {}
        self._send_json(status, body, headers=headers)
        return status

    def _get_job(self, job_id: str, query) -> int:
        # ?summary=1 truthy; ?summary=0 (or false/no) keeps the result.
        raw = query.get("summary", ["0"])[-1].lower()
        summary = raw not in ("0", "false", "no", "")
        envelope = self.server.poll_job(job_id, summary)
        if envelope is None:
            raise _HTTPError(404, f"unknown (or evicted) job {job_id!r}")
        self._send_json(200, envelope)
        return 200

    def _get_result(self, spec_hash: str, _query) -> int:
        payload = self.server.cached_result(spec_hash)
        if payload is None:
            raise _HTTPError(
                404, f"no cached result for spec hash {spec_hash!r}"
            )
        self._send_json(200, payload)
        return 200

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _wait_seconds(self, query) -> float:
        raw = query.get("wait", ["0"])[-1] or "0"
        try:
            seconds = float(raw)
        except ValueError:
            raise _HTTPError(400, f"bad wait value {raw!r}")
        return max(0.0, min(seconds, self.server.config.max_wait_seconds))

    def _read_json(self):
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            raise _HTTPError(400, "missing request body")
        if length > MAX_BODY_BYTES:
            raise _HTTPError(413, f"body exceeds {MAX_BODY_BYTES} bytes")
        try:
            return json.loads(self.rfile.read(length))
        except (ValueError, UnicodeDecodeError) as exc:
            raise _HTTPError(400, f"bad JSON body: {exc}")

    def _send_json(
        self, status: int, obj, headers: Optional[dict] = None
    ) -> None:
        body = json.dumps(obj, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if status >= 400:
            # Error paths may not have drained the request body (e.g.
            # a POST to an unmatched route, or a 413 oversize reject).
            # On a keep-alive connection those unread bytes would be
            # parsed as the *next* request, so close instead. (The
            # Connection header also sets self.close_connection.)
            self.send_header("Connection", "close")
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)
