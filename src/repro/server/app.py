"""The HTTP gateway: routes, request telemetry, server lifecycle.

Stdlib-only (``http.server.ThreadingHTTPServer``): one thread per
connection for request handling, one shared dispatcher thread for
execution, everything JSON.

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
from repro.obs.metrics import default_registry
from repro.server.config import ServerConfig
from repro.server.dispatcher import Backpressure, Dispatcher
from repro.server.jobs import JobStore
from repro.obs.metrics import MetricsRegistry
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


class ReproServer(ThreadingHTTPServer):
    """The gateway server: HTTP front end + dispatcher + cache."""

    daemon_threads = True

    def __init__(self, config: ServerConfig) -> None:
        self.config = config
        if config.log_json:
            configure_json_logging()
        if config.faults is not None:
            faults.install(faults.FaultPlan.parse(config.faults))
        else:
            faults.auto_install()
        self.metrics = MetricsRegistry()
        self.cache = ResultCache(
            max_entries=config.cache_max_entries,
            directory=config.cache_dir,
        )
        self.jobs = JobStore(max_finished=config.max_finished_jobs)
        self.dispatcher = Dispatcher(
            config, self.cache, self.jobs, self.metrics
        )
        self.started_at = time.monotonic()
        self._serve_thread: Optional[threading.Thread] = None
        self.metrics.gauge(
            "uptime_seconds", lambda: time.monotonic() - self.started_at
        )
        # Info-style gauge: constant 1.0, provenance in the labels —
        # the standard way to ship build metadata through Prometheus.
        self.metrics.gauge("build_info", lambda: 1.0, labels=build_info())
        for name in (
            "hits", "misses", "disk_hits", "entries", "checksum_failures"
        ):
            self.metrics.gauge(
                f"cache_{name}",
                lambda n=name: self.cache.stats()[n],
            )
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
        self.dispatcher.start()
        super().serve_forever(poll_interval=poll_interval)

    def start_background(self) -> str:
        """Serve from a daemon thread; returns the base URL."""
        self.dispatcher.start()
        self._serve_thread = threading.Thread(
            target=super().serve_forever,
            kwargs={"poll_interval": 0.05},
            name="repro-server-http",
            daemon=True,
        )
        self._serve_thread.start()
        return self.url

    def stop(self) -> bool:
        """Shut down the HTTP loop and drain the dispatcher.

        Returns the dispatcher's ``stopped_clean`` flag: ``False``
        means the dispatcher thread leaked past its join timeout (it
        was abandoned as a daemon; see :meth:`Dispatcher.stop`).
        """
        # Flip readiness first: probes racing the shutdown see
        # not-ready (and stop routing) before connections start failing.
        self.dispatcher.draining = True
        self.shutdown()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=10.0)
            self._serve_thread = None
        stopped_clean = self.dispatcher.stop()
        self.server_close()
        return stopped_clean


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
    server: ReproServer  # narrowed type

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
        server = self.server
        self._send_json(
            200,
            {
                "status": "ok",
                "uptime_seconds": time.monotonic() - server.started_at,
                "queue_depth": server.dispatcher.queue_depth(),
                "jobs": server.jobs.counts(),
                "faults": faults.describe_active(),
            },
        )
        return 200

    def _readyz(self, _arg, _query) -> int:
        """Readiness, distinct from liveness: can this gateway take
        traffic *now*? 503 before the dispatcher starts and from the
        first moment of a drain — the supervisor's probe target."""
        dispatcher = self.server.dispatcher
        ready = dispatcher.is_ready()
        status = 200 if ready else 503
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
        self._send_json(status, body)
        return status

    def _metrics(self, _arg, _query) -> int:
        text = self.server.metrics.render()
        # The process-global registry carries engine/pool telemetry
        # (namespace "repro" vs the server's "repro_server", so the
        # families never collide).
        shared = default_registry()
        if not shared.is_empty():
            text += shared.render()
        body = text.encode("utf-8")
        self.send_response(200)
        self.send_header(
            "Content-Type", "text/plain; version=0.0.4; charset=utf-8"
        )
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)
        return 200

    def _post_jobs(self, _arg, query) -> int:
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
        if len(raw_specs) > self.server.config.max_batch:
            raise _HTTPError(
                400,
                f"batch of {len(raw_specs)} exceeds max_batch="
                f"{self.server.config.max_batch}",
            )
        try:
            specs = [SimJobSpec.from_dict(d) for d in raw_specs]
        except (ConfigError, TypeError, ValueError) as exc:
            raise _HTTPError(400, f"bad spec: {exc}")

        jobs, rejected_after = [], None
        for i, spec in enumerate(specs):
            try:
                job, disposition = self.server.dispatcher.submit(spec)
            except Backpressure as exc:
                # Jobs admitted before the queue filled stay admitted;
                # the client retries the remainder after Retry-After.
                rejected_after = (i, exc.retry_after)
                break
            jobs.append((job, disposition))

        if rejected_after is not None and not jobs:
            raise _HTTPError(
                503,
                "dispatcher queue full",
                headers={"Retry-After": f"{rejected_after[1]:g}"},
            )

        wait_seconds = self._wait_seconds(query)
        if wait_seconds > 0:
            deadline = time.monotonic() + wait_seconds
            for job, _ in jobs:
                job.done_event.wait(
                    timeout=max(0.0, deadline - time.monotonic())
                )

        body = {
            "jobs": [
                dict(
                    job.to_dict(include_result=wait_seconds > 0),
                    disposition=disposition,
                )
                for job, disposition in jobs
            ],
            "accepted": len(jobs),
        }
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
        job = self.server.jobs.get(job_id)
        if job is None:
            raise _HTTPError(404, f"unknown (or evicted) job {job_id!r}")
        # ?summary=1 truthy; ?summary=0 (or false/no) keeps the result.
        raw = query.get("summary", ["0"])[-1].lower()
        summary = raw not in ("0", "false", "no", "")
        self._send_json(200, job.to_dict(include_result=not summary))
        return 200

    def _get_result(self, spec_hash: str, _query) -> int:
        result = self.server.cache.lookup(spec_hash)
        if result is None:
            raise _HTTPError(
                404, f"no cached result for spec hash {spec_hash!r}"
            )
        self._send_json(
            200, {"spec_hash": spec_hash, "result": result.to_dict()}
        )
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
