"""HTTP simulation gateway over :mod:`repro.service`.

The long-running front door the ROADMAP asks for: concurrent remote
callers POST :class:`~repro.service.spec.SimJobSpec` JSON and get
content-addressed, cached, coalesced simulation results back.

* :mod:`repro.server.config` — :class:`ServerConfig`, every tunable;
* :mod:`repro.server.jobs` — job lifecycle records and the bounded
  job store behind ``/v1/jobs``;
* :mod:`repro.server.dispatcher` — the bounded queue, in-flight
  request coalescing, and the background execution thread;
* :mod:`repro.server.app` — routes, request telemetry, lifecycle
  (:func:`create_server`, :class:`running_server`);
* :mod:`repro.server.client` — a urllib client speaking the protocol
  (backpressure-aware submit, polling, latency summaries);
* ``python -m repro.server`` / ``repro-server`` — the CLI.

Quick start::

    from repro.server import ServerConfig, ServerClient, running_server

    with running_server(ServerConfig(port=0)) as server:
        client = ServerClient(server.url)
        [job] = client.submit({"network": "MLP1"}, wait=30)
        print(job["status"], job["speedups"])
"""

from repro.server.app import ReproServer, create_server, running_server
from repro.server.client import ServerClient, ServerError
from repro.server.config import ServerConfig
from repro.server.dispatcher import Backpressure, Dispatcher
from repro.server.jobs import Job, JobStore
from repro.obs.metrics import MetricsRegistry, StreamingHistogram

__all__ = [
    "Backpressure",
    "Dispatcher",
    "Job",
    "JobStore",
    "MetricsRegistry",
    "ReproServer",
    "ServerClient",
    "ServerConfig",
    "ServerError",
    "StreamingHistogram",
    "create_server",
    "running_server",
]
