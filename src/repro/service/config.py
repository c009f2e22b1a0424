"""The execution policy of the simulation service, declared once.

:class:`ServiceConfig` (per-job timeout, retry budget, quarantine TTL,
default deadline) is carried as-is by every front end: ``repro-service``
passes it to :func:`~repro.service.api.submit_many`, and
``ServerConfig.execution`` / ``ClusterConfig.execution`` hold it for the
gateway and every cluster shard. All three CLIs parse it with
:func:`add_execution_flags` and :func:`execution_from_args`. The pool
derives its topology from it (:func:`~repro.service.pool.run_specs`);
no setting selects one directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.errors import ConfigError

if TYPE_CHECKING:
    import argparse


@dataclass(frozen=True)
class ServiceConfig:
    """Pool execution policy (defaults: no timeout, no deadline).

    ``job_timeout_seconds``
        Wall-clock budget per job attempt. A job still running when the
        budget expires has its worker killed and is classified
        ``timeout`` (retried if attempts remain). Setting this runs
        every job in its own killable process.
    ``max_retries``
        Extra attempts granted to a job whose worker died or timed out
        (2 → up to 3 attempts total). Jobs that *raise* are never
        retried — an exception is deterministic; death and timeout are
        environmental.
    ``quarantine_ttl_seconds``
        How long a tripped quarantine (:attr:`quarantine_threshold`)
        holds. ``None`` (default) keeps it for the process lifetime.
        With a TTL, a submission arriving after the hash has been
        quarantined that long runs again — the hash re-earns trust (and
        re-quarantines on the same threshold if it is still poison), so
        a transient environmental failure stops condemning a spec
        forever.
    ``default_deadline_ms``
        Deadline applied to specs that don't carry their own
        ``deadline_ms``. The clock starts when the job is accepted (at
        enqueue in the gateway), so time spent queued counts.
    """

    job_timeout_seconds: Optional[float] = None
    max_retries: int = 2
    quarantine_ttl_seconds: Optional[float] = None
    default_deadline_ms: Optional[int] = None

    def __post_init__(self) -> None:
        if (
            self.job_timeout_seconds is not None
            and self.job_timeout_seconds <= 0
        ):
            raise ConfigError(
                "job_timeout_seconds must be positive, got "
                f"{self.job_timeout_seconds}"
            )
        if self.max_retries < 0:
            raise ConfigError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if (
            self.quarantine_ttl_seconds is not None
            and self.quarantine_ttl_seconds <= 0
        ):
            raise ConfigError(
                "quarantine_ttl_seconds must be positive, got "
                f"{self.quarantine_ttl_seconds}"
            )
        if (
            self.default_deadline_ms is not None
            and self.default_deadline_ms <= 0
        ):
            raise ConfigError(
                "default_deadline_ms must be positive, got "
                f"{self.default_deadline_ms}"
            )

    @property
    def quarantine_threshold(self) -> int:
        """Failed attempts after which a job's content hash is
        quarantined, so later submissions of it short-circuit to a
        ``quarantined`` failure without burning another worker: the
        retry budget, floored at 2 (one timeout is not evidence of a
        poison job)."""
        return max(2, self.max_retries + 1)


#: No timeout, no deadline: the serial path or the shared fork pool.
DEFAULT_SERVICE_CONFIG = ServiceConfig()


def add_execution_flags(parser: argparse.ArgumentParser) -> None:
    """Add the execution-policy flags to a front end's parser.

    ``--job-timeout``, ``--job-max-retries`` (also spelled
    ``--max-retries``), ``--quarantine-ttl`` and ``--deadline-ms``,
    defaulting to :class:`ServiceConfig`'s defaults. Read them back
    with :func:`execution_from_args`.
    """
    defaults = DEFAULT_SERVICE_CONFIG
    group = parser.add_argument_group("execution policy")
    group.add_argument(
        "--job-timeout",
        type=float,
        default=defaults.job_timeout_seconds,
        metavar="SECONDS",
        help=(
            "per-job wall-clock budget; runs every job in its own "
            "worker process with kill-on-timeout, bounded retry of "
            "interrupted jobs, and poison-job quarantine"
        ),
    )
    group.add_argument(
        "--job-max-retries",
        "--max-retries",
        type=int,
        default=defaults.max_retries,
        metavar="N",
        help=(
            "retries granted to jobs lost to worker death or timeout "
            f"(default: {defaults.max_retries})"
        ),
    )
    group.add_argument(
        "--quarantine-ttl",
        type=float,
        default=defaults.quarantine_ttl_seconds,
        metavar="SECONDS",
        help=(
            "let a poison-job quarantine expire after SECONDS so the "
            "hash can re-earn trust (default: quarantine holds for "
            "the process lifetime)"
        ),
    )
    group.add_argument(
        "--deadline-ms",
        type=int,
        default=defaults.default_deadline_ms,
        metavar="MS",
        help=(
            "deadline for every job without its own deadline_ms (the "
            "clock starts when the job is accepted); expired jobs end "
            "in a classified timeout"
        ),
    )


def execution_from_args(args: argparse.Namespace) -> ServiceConfig:
    """The :class:`ServiceConfig` that :func:`add_execution_flags`'
    flags ask for. Raises :class:`~repro.errors.ConfigError` on a bad
    value."""
    return ServiceConfig(
        job_timeout_seconds=args.job_timeout,
        max_retries=args.job_max_retries,
        quarantine_ttl_seconds=args.quarantine_ttl,
        default_deadline_ms=args.deadline_ms,
    )
