"""The process-global fault injector and its instrumentation helpers.

One :class:`FaultInjector` per process (installed with :func:`install`
or, from the ``REPRO_FAULTS`` environment variable, by
:func:`auto_install`); every instrumented choke point in the stack asks
it whether to misbehave via the cheap module-level helpers::

    faults.maybe_kill(faults.WORKER_KILL)      # SIGKILL (guarded)
    faults.sleep_site(faults.ENGINE_SLOW)      # injected delay
    faults.maybe_raise(faults.WORKER_EXCEPTION)
    text = faults.corrupt_text(faults.CACHE_READ_CORRUPT, text)

With no injector installed each helper is a single module-attribute
check — the production hot path pays nothing.

Determinism: a decision is a pure function of ``(seed, site, check
index, attempt)``. Check indices are per-process (forked workers start
from the fork-time snapshot), and the current *attempt* number — set by
the pool's isolated per-job workers — is mixed into the hash so a
retried job re-rolls its faults instead of deterministically re-dying.

Safety guard: the destructive sites (``worker.kill``, ``worker.hang``)
fire **only where the pool can recover from them**: inside a disposable
per-job worker process (the pool's hardened execution mode marks those
with :func:`enter_worker_context`), and — ``worker.kill`` only — inside a
shared fork-pool worker (marked by :func:`enter_shared_pool_worker`),
whose death breaks the pool and sends the jobs it left unfinished to
the hardened executor. ``worker.hang`` stays suppressed in a shared
worker: the shared pool has no per-job timeout, so nothing would end
the hang. In any other process — the pytest runner, the HTTP server —
both are suppressed and counted, never fired: fault injection must not
create failures the system is not instrumented to recover from.

Every decision is observable: fires count into the process
``default_registry`` as ``faults_injected_total{site=...}`` (rendered
``repro_faults_injected_total``), suppressed destructive checks as
``faults_suppressed_total``, and the pool's parent-side recovery
machinery adds ``faults_detected_total{kind=...}`` for worker deaths
and job timeouts it observed and survived. A ``worker.kill`` ends its
process before the process's own metrics can ship, so the dying worker
first writes one byte to a pipe the injector opened before any worker
forked, and the installing process counts the bytes into its
``faults_injected_total`` (:func:`collect_relayed`, which the pool calls
as it folds in worker telemetry).
"""

from __future__ import annotations

import hashlib
import os
import signal
import threading
import time
from typing import Optional

from repro.errors import ConfigError
from repro.faults.plan import (
    DESTRUCTIVE_SITES,
    WORKER_KILL,
    FaultPlan,
    FaultRule,
)
from repro.obs import log as obs_log
from repro.obs.metrics import default_registry
from repro.obs.trace import instant

_logger = obs_log.get_logger("repro.faults")

#: Environment variable carrying a fault spec (``FaultPlan.parse``).
ENV_VAR = "REPRO_FAULTS"


class InjectedFault(RuntimeError):
    """The exception raised by exception-type injection sites."""

    def __init__(self, site: str) -> None:
        super().__init__(f"injected fault at site {site!r}")
        self.site = site


def _unit(seed: int, site: str, index: int, attempt: int) -> float:
    """Deterministic uniform [0, 1) draw for one decision."""
    digest = hashlib.sha256(
        f"{seed}|{site}|{index}|{attempt}".encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


class FaultInjector:
    """Seeded decision engine over one :class:`FaultPlan`.

    Thread-safe; counters are per-process (forked children inherit the
    fork-time snapshot and diverge independently, which keeps every
    process's decision stream self-deterministic).
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.install_pid = os.getpid()
        self._rules = {rule.site: rule for rule in plan.rules}
        self._checks = {site: 0 for site in self._rules}
        self._fired = {site: 0 for site in self._rules}
        self._suppressed = {site: 0 for site in self._rules}
        self._lock = threading.Lock()
        # Kill relay: (read end, write end), both non-blocking.
        self._relay: Optional[tuple[int, int]] = None
        if WORKER_KILL in self._rules:
            self._relay = os.pipe()
            for fd in self._relay:
                os.set_blocking(fd, False)

    # ------------------------------------------------------------------
    def check(self, site: str) -> Optional[FaultRule]:
        """Decide whether ``site`` fires now; records the decision."""
        rule = self._rules.get(site)
        if rule is None:
            return None
        attempt = current_attempt()
        if rule.max_attempt is not None and attempt >= rule.max_attempt:
            return None
        with self._lock:
            index = self._checks[site]
            self._checks[site] = index + 1
            if rule.max_fires is not None and (
                self._fired[site] >= rule.max_fires
            ):
                return None
            if index < rule.after:
                return None
            if _unit(self.plan.seed, site, index, attempt) >= rule.rate:
                return None
            self._fired[site] += 1
        default_registry().inc("faults_injected_total", {"site": site})
        instant("fault.injected", site=site, attempt=attempt)
        _logger.warning(
            "fault injected",
            extra={"site": site, "attempt": attempt, "pid": os.getpid()},
        )
        return rule

    def suppress(self, site: str) -> None:
        """Count a destructive check skipped for safety."""
        with self._lock:
            if site in self._suppressed:
                self._suppressed[site] += 1
        default_registry().inc(
            "faults_suppressed_total", {"site": site}
        )

    def relay_kill(self) -> None:
        """Record a ``worker.kill`` about to end this process where the
        installing process can count it."""
        if self._relay is not None:
            try:
                os.write(self._relay[1], b"k")
            except OSError:
                pass  # a full pipe loses the count, never the kill

    def collect_relayed(self) -> int:
        """Count the kills workers relayed into this injector's fires
        and ``faults_injected_total`` (in the installing process only);
        returns how many."""
        if self._relay is None or os.getpid() != self.install_pid:
            return 0
        killed = 0
        while True:
            try:
                chunk = os.read(self._relay[0], 4096)
            except BlockingIOError:
                break
            if not chunk:
                break
            killed += len(chunk)
        if killed:
            with self._lock:
                self._fired[WORKER_KILL] += killed
            default_registry().inc(
                "faults_injected_total", {"site": WORKER_KILL},
                value=killed,
            )
        return killed

    def close(self) -> None:
        """Release the kill relay (the injector keeps deciding)."""
        relay, self._relay = self._relay, None
        if relay is not None and os.getpid() == self.install_pid:
            for fd in relay:
                os.close(fd)

    # ------------------------------------------------------------------
    def fired(self, site: Optional[str] = None) -> int:
        with self._lock:
            if site is not None:
                return self._fired.get(site, 0)
            return sum(self._fired.values())

    def describe(self) -> dict:
        """JSON-able summary for ``/healthz`` and logs."""
        with self._lock:
            return {
                "seed": self.plan.seed,
                "sites": list(self.plan.sites),
                "fired": {
                    s: n for s, n in self._fired.items() if n
                },
                "suppressed": {
                    s: n for s, n in self._suppressed.items() if n
                },
            }


# ----------------------------------------------------------------------
# Process-global installation.
# ----------------------------------------------------------------------
_ACTIVE: Optional[FaultInjector] = None
_ENV_INSTALLED_SPEC: Optional[str] = None

#: Worker-context state: > -1 means "this process is a disposable
#: per-job worker running attempt N" — the only context where every
#: destructive site may fire.
_ATTEMPT = -1
#: Whether this process is a shared fork-pool worker, where
#: ``worker.kill`` may fire too.
_SHARED_POOL = False


def install(plan: FaultPlan | FaultInjector) -> FaultInjector:
    """Install (and return) the process-wide injector."""
    global _ACTIVE, _ENV_INSTALLED_SPEC
    injector = (
        plan if isinstance(plan, FaultInjector) else FaultInjector(plan)
    )
    if _ACTIVE is not None and _ACTIVE is not injector:
        _ACTIVE.close()
    _ACTIVE = injector
    _ENV_INSTALLED_SPEC = None
    return injector


def uninstall() -> Optional[FaultInjector]:
    """Remove the active injector; returns it (for inspection)."""
    global _ACTIVE, _ENV_INSTALLED_SPEC
    injector, _ACTIVE = _ACTIVE, None
    _ENV_INSTALLED_SPEC = None
    if injector is not None:
        injector.close()
    return injector


def active_injector() -> Optional[FaultInjector]:
    return _ACTIVE


def auto_install(environ=None) -> Optional[FaultInjector]:
    """Arm the plan named by ``REPRO_FAULTS``, if any (idempotent).

    Called at every service/server entry point so a live system picks
    the plan up without code changes. A plan installed explicitly with
    :func:`install` wins over the environment; a changed environment
    spec re-arms on the next call.
    """
    global _ENV_INSTALLED_SPEC
    spec = (environ if environ is not None else os.environ).get(ENV_VAR)
    if not spec:
        return _ACTIVE
    if _ACTIVE is not None and (
        _ENV_INSTALLED_SPEC is None or _ENV_INSTALLED_SPEC == spec
    ):
        return _ACTIVE
    try:
        injector = install(FaultPlan.parse(spec))
    except ConfigError as exc:
        import warnings

        warnings.warn(
            f"ignoring unparsable {ENV_VAR}: {exc}", stacklevel=2
        )
        return _ACTIVE
    _ENV_INSTALLED_SPEC = spec
    _logger.warning(
        "fault plan armed from environment",
        extra={"spec": spec, "sites": list(injector.plan.sites)},
    )
    return injector


def collect_relayed() -> int:
    """The active injector's :meth:`FaultInjector.collect_relayed` (0
    when faults are off)."""
    return _ACTIVE.collect_relayed() if _ACTIVE is not None else 0


def describe_active() -> Optional[dict]:
    """The active injector's summary, or None when faults are off."""
    return _ACTIVE.describe() if _ACTIVE is not None else None


# ----------------------------------------------------------------------
# Worker context (set by the pool's isolated per-job children).
# ----------------------------------------------------------------------
def enter_worker_context(attempt: int) -> None:
    """Mark this process as a disposable per-job worker."""
    global _ATTEMPT
    _ATTEMPT = max(0, attempt)


def exit_worker_context() -> None:
    global _ATTEMPT
    _ATTEMPT = -1


def in_worker_context() -> bool:
    return _ATTEMPT >= 0


def enter_shared_pool_worker() -> None:
    """Mark this process as a shared fork-pool worker (the pool's
    worker initializer): ``worker.kill`` may fire here."""
    global _SHARED_POOL
    _SHARED_POOL = True


def current_attempt() -> int:
    """The attempt number decisions mix in (0 outside workers)."""
    return _ATTEMPT if _ATTEMPT >= 0 else 0


# ----------------------------------------------------------------------
# Instrumentation helpers (the no-injector path is one attribute check).
# ----------------------------------------------------------------------
def fire(site: str) -> Optional[FaultRule]:
    """Ask the active injector about ``site``; None when quiet."""
    injector = _ACTIVE
    if injector is None:
        return None
    if site in DESTRUCTIVE_SITES and not in_worker_context() and not (
        site == WORKER_KILL and _SHARED_POOL
    ):
        injector.suppress(site)
        return None
    return injector.check(site)


def sleep_site(site: str) -> float:
    """Inject the site's delay; returns the seconds slept."""
    rule = fire(site)
    if rule is None:
        return 0.0
    seconds = rule.delay_seconds
    if seconds > 0:
        time.sleep(seconds)
    return seconds


def maybe_raise(site: str) -> None:
    """Raise :class:`InjectedFault` when the site fires."""
    if fire(site) is not None:
        raise InjectedFault(site)


def maybe_kill(site: str) -> None:
    """SIGKILL this process when the (guarded) site fires."""
    if fire(site) is not None:
        _ACTIVE.relay_kill()
        os.kill(os.getpid(), signal.SIGKILL)


def corrupt_text(site: str, text: str) -> str:
    """Deterministically flip one digit of ``text`` when ``site`` fires.

    The mutation keeps the text valid JSON (a digit substitution inside
    a number or string) so it exercises *checksum verification*, not
    just the parse-failure path. The digit is taken after the
    ``"result"`` key when present — the region the cache's checksum
    actually covers.
    """
    rule = fire(site)
    if rule is None:
        return text
    anchor = text.find('"result"')
    start = anchor + len('"result"') if anchor >= 0 else 0
    for i in range(start, len(text)):
        c = text[i]
        if c.isdigit():
            replacement = "9" if c != "9" else "3"
            return text[:i] + replacement + text[i + 1:]
    return text


def truncate_text(site: str, text: str) -> str:
    """Cut ``text`` to a fraction (rule ``arg``, default 0.5)."""
    rule = fire(site)
    if rule is None:
        return text
    keep = rule.arg if rule.arg is not None else 0.5
    keep = min(max(keep, 0.0), 1.0)
    return text[: int(len(text) * keep)]
