"""Configuration for the sharded serving tier.

One frozen dataclass carries the router bind address, the shard fleet
shape, the supervisor's probe/restart policy, and the knobs forwarded
verbatim into each shard's :class:`~repro.server.config.ServerConfig` —
among them the one :class:`~repro.service.config.ServiceConfig`
execution policy — so the CLI, tests, and benchmarks construct a
cluster the same way.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.server.config import ServerConfig
from repro.service.cache import DEFAULT_MAX_ENTRIES
from repro.service.config import ServiceConfig


@dataclass(frozen=True)
class ClusterConfig:
    """Everything a :func:`repro.cluster.create_cluster` call needs."""

    #: Router bind address. ``port=0`` asks the OS for an ephemeral
    #: port (the bound URL is on ``router.url`` / in ``--url-file``).
    host: str = "127.0.0.1"
    port: int = 8047

    #: Shard gateway processes. Each is a full ``repro.server`` on an
    #: ephemeral port of ``host``, spawned and supervised as a child.
    shards: int = 3

    #: Virtual nodes per shard on the consistent-hash ring. More vnodes
    #: = smoother key-space balance, slightly slower ring mutation.
    vnodes: int = 64

    #: Supervisor probe cadence and failure policy: every
    #: ``probe_interval_seconds`` each shard's ``GET /readyz`` is
    #: probed with a ``probe_timeout_seconds`` budget;
    #: ``probe_misses`` *consecutive* failures declare the shard dead
    #: (SIGKILL, hash range re-routed to live peers, restart scheduled).
    probe_interval_seconds: float = 0.5
    probe_timeout_seconds: float = 2.0
    probe_misses: int = 2

    #: Restart policy: a dead shard restarts after an exponential
    #: backoff (``restart_backoff_seconds * 2**restarts``, capped at
    #: ``restart_backoff_max_seconds``); once a shard has burned
    #: ``restart_budget`` restarts it is a crash loop and parks in the
    #: terminal FAILED state instead of flapping forever.
    restart_budget: int = 3
    restart_backoff_seconds: float = 0.25
    restart_backoff_max_seconds: float = 5.0

    #: Seconds a freshly spawned shard gets to report its URL and pass
    #: its first readiness probe before the spawn counts as failed.
    startup_timeout_seconds: float = 30.0

    #: Socket budget for proxied requests that carry no ``?wait=``
    #: (long-poll submits get the wait budget added on top).
    forward_timeout_seconds: float = 10.0

    #: Seconds clients are told to back off when *no* shard can admit.
    retry_after_seconds: float = 1.0

    #: Maximum specs accepted in one ``POST /v1/jobs`` body.
    max_batch: int = 256

    #: Ceiling on the ``?wait=`` parameter (per-spec, server-side).
    max_wait_seconds: float = 60.0

    #: Router-minted job ids retained for polling; the oldest
    #: *terminal* records are evicted past this bound.
    max_tracked_jobs: int = 16384

    #: Shared content-addressed cache root. All shards point their
    #: disk cache here (atomic tmp+replace writes make the sharing
    #: safe), which is what keeps failover re-execution byte-identical
    #: and usually free. ``None`` = memory-only per-shard caches
    #: (failover then re-simulates — still byte-identical, just paid).
    cache_dir: str | None = None

    #: Per-shard gateway knobs, forwarded into each shard's
    #: :class:`ServerConfig` unchanged.
    shard_workers: int = 1
    shard_queue_depth: int = 64
    shard_cache_max_entries: int = DEFAULT_MAX_ENTRIES

    #: Execution policy every shard applies (timeout, retries,
    #: quarantine TTL, default deadline), validated here at
    #: construction and forwarded to each shard unchanged.
    execution: ServiceConfig = ServiceConfig()

    #: Fault-injection plan spec armed in the router/supervisor process
    #: (``None`` falls back to ``REPRO_FAULTS``). The plan text is also
    #: forwarded to every shard so worker/cache/engine sites fire there
    #: under the same seed.
    faults: str | None = None

    #: Emit structured JSON logs on stderr.
    log_json: bool = False

    def __post_init__(self) -> None:
        if self.port < 0:
            raise ConfigError(f"port must be >= 0, got {self.port}")
        if self.shards < 1:
            raise ConfigError(f"shards must be >= 1, got {self.shards}")
        if self.vnodes < 1:
            raise ConfigError(f"vnodes must be >= 1, got {self.vnodes}")
        for name in (
            "probe_interval_seconds",
            "probe_timeout_seconds",
            "restart_backoff_seconds",
            "restart_backoff_max_seconds",
            "startup_timeout_seconds",
            "forward_timeout_seconds",
            "retry_after_seconds",
            "max_wait_seconds",
        ):
            if getattr(self, name) <= 0:
                raise ConfigError(
                    f"{name} must be positive, got {getattr(self, name)}"
                )
        if self.probe_misses < 1:
            raise ConfigError(
                f"probe_misses must be >= 1, got {self.probe_misses}"
            )
        if self.restart_budget < 0:
            raise ConfigError(
                f"restart_budget must be >= 0, got {self.restart_budget}"
            )
        if self.max_batch < 1:
            raise ConfigError(
                f"max_batch must be >= 1, got {self.max_batch}"
            )
        if self.max_tracked_jobs < 1:
            raise ConfigError(
                "max_tracked_jobs must be >= 1, got "
                f"{self.max_tracked_jobs}"
            )

    def shard_config(self) -> ServerConfig:
        """The :class:`ServerConfig` every shard child runs with.

        Always ``port=0``: shards bind ephemeral ports and report the
        bound URL back to the supervisor over a pipe. The frozen config
        itself is what the supervisor hands each shard child.
        """
        return ServerConfig(
            host=self.host,
            port=0,
            queue_depth=self.shard_queue_depth,
            workers=self.shard_workers,
            retry_after_seconds=self.retry_after_seconds,
            cache_dir=self.cache_dir,
            cache_max_entries=self.shard_cache_max_entries,
            max_batch=self.max_batch,
            max_wait_seconds=self.max_wait_seconds,
            log_json=self.log_json,
            execution=self.execution,
            faults=self.faults,
        )

