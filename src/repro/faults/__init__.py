"""Deterministic fault injection for the simulation service stack.

Failure is a first-class input to a serving system: a SIGKILL'd pool
worker, a wedged engine, a flipped bit in a cache file. This package
makes those events *reproducible* — a seeded :class:`FaultPlan` armed
process-wide (:func:`install`, or via the ``REPRO_FAULTS`` environment
variable at any service/server entry point) fires at instrumented
injection sites across the stack, and the hardened execution path in
:mod:`repro.service.pool` / :mod:`repro.server` is tested against it:
per-job timeouts, dead-worker respawn and retry, poison-job quarantine,
checksum-verified cache reads, and graceful engine degradation.

Quick start::

    from repro import faults

    faults.install(faults.FaultPlan.parse(
        "seed=42;worker.kill:rate=0.2,attempts=1;cache.read.corrupt:max=1"
    ))

Every injected fault is visible on ``/metrics`` under the
``repro_faults_*`` families and as ``fault.injected`` trace events.
"""

from repro.faults.inject import (
    ENV_VAR,
    FaultInjector,
    InjectedFault,
    active_injector,
    auto_install,
    collect_relayed,
    corrupt_text,
    current_attempt,
    describe_active,
    enter_shared_pool_worker,
    enter_worker_context,
    exit_worker_context,
    fire,
    in_worker_context,
    install,
    maybe_kill,
    maybe_raise,
    sleep_site,
    truncate_text,
    uninstall,
)
from repro.faults.plan import (
    CACHE_READ_CORRUPT,
    CACHE_READ_TRUNCATE,
    CACHE_WRITE_CORRUPT,
    CACHE_WRITE_TRUNCATE,
    DESTRUCTIVE_SITES,
    DISPATCHER_STALL,
    ENGINE_FAIL,
    ENGINE_SLOW,
    FaultPlan,
    FaultRule,
    PROBE_DROP,
    ROUTER_SLOW,
    SHARD_HANG,
    SHARD_KILL,
    SITES,
    WORKER_EXCEPTION,
    WORKER_HANG,
    WORKER_KILL,
)

__all__ = [
    "CACHE_READ_CORRUPT",
    "CACHE_READ_TRUNCATE",
    "CACHE_WRITE_CORRUPT",
    "CACHE_WRITE_TRUNCATE",
    "DESTRUCTIVE_SITES",
    "DISPATCHER_STALL",
    "ENGINE_FAIL",
    "ENGINE_SLOW",
    "ENV_VAR",
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
    "PROBE_DROP",
    "ROUTER_SLOW",
    "SHARD_HANG",
    "SHARD_KILL",
    "SITES",
    "WORKER_EXCEPTION",
    "WORKER_HANG",
    "WORKER_KILL",
    "active_injector",
    "auto_install",
    "collect_relayed",
    "corrupt_text",
    "current_attempt",
    "describe_active",
    "enter_shared_pool_worker",
    "enter_worker_context",
    "exit_worker_context",
    "fire",
    "in_worker_context",
    "install",
    "maybe_kill",
    "maybe_raise",
    "sleep_site",
    "truncate_text",
    "uninstall",
]
