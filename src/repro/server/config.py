"""Configuration for the HTTP simulation gateway.

One frozen dataclass carries every tunable the server exposes — bind
address, dispatcher sizing, cache placement and bounds, backpressure
behaviour — so the CLI, tests, benchmarks, and examples all construct a
server the same way. The execution policy is not re-declared here: it
is one nested :class:`~repro.service.config.ServiceConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.service.cache import DEFAULT_MAX_ENTRIES
from repro.service.config import ServiceConfig


@dataclass(frozen=True)
class ServerConfig:
    """Everything a :func:`repro.server.create_server` call depends on."""

    #: Bind address. ``port=0`` asks the OS for an ephemeral port (the
    #: bound port is on ``server.server_address`` / in ``--url-file``).
    host: str = "127.0.0.1"
    port: int = 8037

    #: Bound on the dispatcher queue (distinct in-flight executions,
    #: not attached requests — coalesced requests ride for free). A
    #: full queue rejects new work with 503 + ``Retry-After`` instead
    #: of letting latency grow without bound.
    queue_depth: int = 64

    #: Worker processes for batch execution. ``1`` executes in the
    #: dispatcher thread itself; ``>1`` fans queued batches across the
    #: service worker pool (``repro.service.pool``).
    workers: int = 1

    #: Seconds clients are told to back off when the queue is full.
    retry_after_seconds: float = 1.0

    #: Bound on requests attached to ONE in-flight execution. Without
    #: it a hot-spec flood during a slow simulation would grow the
    #: attached-job list (and the job store, which never evicts
    #: unfinished jobs) without limit while the queue still looks
    #: empty; past the bound the server answers 503 like a full queue.
    max_coalesced: int = 1024

    #: Result cache placement and bound (the server owns its own
    #: :class:`~repro.service.cache.ResultCache`; it never touches the
    #: process-wide ``DEFAULT_CACHE``).
    cache_dir: str | None = None
    cache_max_entries: int = DEFAULT_MAX_ENTRIES

    #: Maximum specs accepted in one ``POST /v1/jobs`` body.
    max_batch: int = 256

    #: Finished jobs retained for ``GET /v1/jobs/{id}`` polling; the
    #: oldest finished records are evicted past this bound so the job
    #: store cannot grow forever in a long-lived process.
    max_finished_jobs: int = 4096

    #: Ceiling on the ``?wait=`` parameter of ``POST /v1/jobs``
    #: (seconds a request thread may block awaiting completion).
    max_wait_seconds: float = 60.0

    #: Emit structured JSON logs (``repro.obs.log``) on stderr. Off by
    #: default — the server is silent apart from ``/metrics`` unless
    #: asked (``repro-server --log-json``).
    log_json: bool = False

    #: Execution policy for every job this gateway runs: timeout,
    #: retries, quarantine TTL and default deadline. A spec's deadline
    #: clock starts at enqueue, so time spent queued counts; an expired
    #: job finishes in the terminal ``timed_out`` state instead of
    #: running (or waiting) forever.
    execution: ServiceConfig = ServiceConfig()

    #: Fault-injection plan spec (``FaultPlan.parse`` grammar), armed
    #: at server construction. ``None`` falls back to the
    #: ``REPRO_FAULTS`` environment variable; both off = no injection.
    faults: str | None = None

    def __post_init__(self) -> None:
        if self.port < 0:
            raise ConfigError(f"port must be >= 0, got {self.port}")
        if self.queue_depth < 1:
            raise ConfigError(
                f"queue_depth must be >= 1, got {self.queue_depth}"
            )
        if self.workers < 1:
            raise ConfigError(
                f"workers must be >= 1, got {self.workers}"
            )
        if self.retry_after_seconds <= 0:
            raise ConfigError(
                "retry_after_seconds must be positive, got "
                f"{self.retry_after_seconds}"
            )
        if self.max_coalesced < 1:
            raise ConfigError(
                f"max_coalesced must be >= 1, got {self.max_coalesced}"
            )
        if self.cache_max_entries < 0:
            raise ConfigError(
                "cache_max_entries must be >= 0, got "
                f"{self.cache_max_entries}"
            )
        if self.max_batch < 1:
            raise ConfigError(
                f"max_batch must be >= 1, got {self.max_batch}"
            )
        if self.max_finished_jobs < 1:
            raise ConfigError(
                "max_finished_jobs must be >= 1, got "
                f"{self.max_finished_jobs}"
            )
        if self.max_wait_seconds <= 0:
            raise ConfigError(
                "max_wait_seconds must be positive, got "
                f"{self.max_wait_seconds}"
            )
