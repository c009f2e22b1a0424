"""Shard lifecycle supervision: spawn, probe, fail over, restart.

The supervisor owns the shard fleet and the consistent-hash ring. A
probe thread walks the fleet every ``probe_interval_seconds``:

- READY/SUSPECT shards get a ``GET /readyz`` probe with a hard socket
  budget. ``probe_misses`` *consecutive* failures — or a failure the
  router reported from its own forwarding path — declare the shard
  dead: SIGKILL, ring removal (the failover event: its hash range
  re-routes to live peers with minimal movement), drain callback so
  the router re-homes in-flight jobs, and a restart scheduled under
  exponential backoff.
- DEAD shards past their backoff respawn with the *same shard id*
  (zero rehash on recovery) — until ``restart_budget`` restarts are
  burned, at which point the shard is a crash loop and parks in the
  terminal FAILED state.

Cluster chaos fires here, under the same seeded plan as every other
site: ``shard.kill`` SIGKILLs a ready shard from the probe loop,
``shard.hang`` SIGSTOPs one (probes then time out), ``probe.drop``
discards a successful probe. The supervisor is the *instrumented
recovery path* for these faults, so they need no worker-context guard.

Everything is observable on the router's ``/metrics`` under the
``repro_cluster`` namespace: ``shard_up{shard=}`` gauges,
``failovers_total``, ``restarts_total``, ``rehash_moves_total``,
``probe_failures_total``, ``crash_loops_total``.
"""

from __future__ import annotations

import threading
import time
import urllib.error
import urllib.request
from typing import Callable, Optional

from repro import faults
from repro.cluster.config import ClusterConfig
from repro.cluster.hashring import HashRing
from repro.cluster.shard import (
    DEAD,
    FAILED,
    READY,
    STARTING,
    SUSPECT,
    ShardProcess,
)
from repro.obs.log import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import instant

_logger = get_logger("repro.cluster.supervisor")


class Supervisor:
    """Owns the shard fleet, the ring, and the probe loop."""

    def __init__(
        self,
        config: ClusterConfig,
        metrics: MetricsRegistry,
        on_failover: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.config = config
        self.metrics = metrics
        #: Called with a shard id after it leaves the ring, so the
        #: router can drain (re-home) that shard's in-flight jobs.
        self.on_failover = on_failover
        self.ring = HashRing(vnodes=config.vnodes)
        self._lock = threading.RLock()
        self._shards: dict[str, ShardProcess] = {}
        self._reported_down: set[str] = set()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        shard_config = config.shard_config()
        for i in range(config.shards):
            shard_id = f"s{i}"
            self._shards[shard_id] = ShardProcess(shard_id, shard_config)
            self.metrics.gauge(
                "shard_up",
                lambda s=shard_id: 1.0 if self._is_ready(s) else 0.0,
                labels={"shard": shard_id},
            )

    def _is_ready(self, shard_id: str) -> bool:
        shard = self._shards.get(shard_id)
        return shard is not None and shard.state == READY

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn every shard, wait for first readiness, start probing."""
        deadline = time.monotonic() + self.config.startup_timeout_seconds
        for shard in self._shards.values():
            if not shard.spawn(
                timeout=max(0.1, deadline - time.monotonic())
            ):
                raise RuntimeError(
                    f"shard {shard.id} failed to report a URL at startup"
                )
        pending = list(self._shards.values())
        while pending and time.monotonic() < deadline:
            pending = [s for s in pending if not self._try_make_ready(s)]
            if pending:
                time.sleep(0.05)
        if pending:
            for shard in self._shards.values():
                shard.terminate()
            raise RuntimeError(
                "shard(s) never became ready at startup: "
                + ", ".join(s.id for s in pending)
            )
        self._thread = threading.Thread(
            target=self._probe_loop,
            name="repro-cluster-supervisor",
            daemon=True,
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        with self._lock:
            shards = list(self._shards.values())
        for shard in shards:
            shard.terminate()

    def _try_make_ready(self, shard: ShardProcess) -> bool:
        """One startup readiness probe; promotes onto the ring."""
        if shard.url is None or not self._probe_once(shard.url):
            return False
        with self._lock:
            shard.state = READY
            shard.misses = 0
            self.ring.add(shard.id)
            self._reported_down.discard(shard.id)
        _logger.info(
            "shard ready", extra={"shard": shard.id, "url": shard.url}
        )
        return True

    # ------------------------------------------------------------------
    # Queries (the router's view)
    # ------------------------------------------------------------------
    def candidates(self, key: str) -> list[ShardProcess]:
        """READY shards in the key's preference order: the owner first,
        then the deterministic spill/failover order."""
        with self._lock:
            order = self.ring.preference(key)
            return [
                self._shards[sid]
                for sid in order
                if self._shards[sid].state == READY
            ]

    def get(self, shard_id: str) -> Optional[ShardProcess]:
        return self._shards.get(shard_id)

    def all_shards(self) -> list[ShardProcess]:
        return list(self._shards.values())

    def ready_count(self) -> int:
        with self._lock:
            return sum(
                1 for s in self._shards.values() if s.state == READY
            )

    def describe(self) -> dict:
        """JSON-able fleet summary for the router's ``/healthz``."""
        with self._lock:
            return {
                shard.id: {
                    "state": shard.state,
                    "url": shard.url,
                    "pid": shard.pid,
                    "restarts": shard.restarts,
                    "consecutive_probe_misses": shard.misses,
                }
                for shard in self._shards.values()
            }

    def report_failure(self, shard_id: str) -> None:
        """The router saw a connection-level failure forwarding to this
        shard; treat it like a failed probe burst so the next tick
        declares death without waiting out ``probe_misses`` probes."""
        with self._lock:
            shard = self._shards.get(shard_id)
            if shard is not None and shard.state in (READY, SUSPECT):
                self._reported_down.add(shard_id)

    # ------------------------------------------------------------------
    # Probe loop
    # ------------------------------------------------------------------
    def _probe_loop(self) -> None:
        while not self._stop.wait(self.config.probe_interval_seconds):
            try:
                self.tick()
            except Exception:  # pragma: no cover - never kill the loop
                _logger.exception("supervisor tick failed")

    def tick(self) -> None:
        """One supervision pass over the fleet (public for tests)."""
        now = time.monotonic()
        for shard in self.all_shards():
            state = shard.state
            if state in (READY, SUSPECT):
                self._probe_serving(shard)
            elif state == DEAD and now >= shard.next_restart_at:
                self._restart(shard)

    def _probe_serving(self, shard: ShardProcess) -> None:
        # Seeded chaos, fired from the one place instrumented to
        # recover: kill or wedge the child, then let the ordinary
        # probe/failover machinery below discover it.
        if faults.fire(faults.SHARD_KILL) is not None:
            instant("cluster.chaos_kill", shard=shard.id)
            shard.kill_process()
        elif faults.fire(faults.SHARD_HANG) is not None:
            instant("cluster.chaos_hang", shard=shard.id)
            shard.suspend()
        ok = shard.url is not None and self._probe_once(shard.url)
        if ok and faults.fire(faults.PROBE_DROP) is not None:
            self.metrics.inc(
                "probe_failures_total",
                {"shard": shard.id, "reason": "dropped"},
            )
            ok = False
        elif not ok:
            self.metrics.inc(
                "probe_failures_total",
                {"shard": shard.id, "reason": "probe"},
            )
        with self._lock:
            reported = shard.id in self._reported_down
            if ok and not reported:
                shard.state = READY
                shard.misses = 0
                return
            shard.misses += 1
            dead = reported or shard.misses >= self.config.probe_misses
            shard.state = SUSPECT
        if dead:
            self._declare_dead(
                shard, reason="reported" if reported else "probe-timeout"
            )

    def _probe_once(self, url: str) -> bool:
        try:
            with urllib.request.urlopen(
                f"{url}/readyz",
                timeout=self.config.probe_timeout_seconds,
            ) as response:
                return response.status == 200
        except (urllib.error.URLError, OSError, TimeoutError):
            return False

    def _declare_dead(self, shard: ShardProcess, reason: str) -> None:
        """Failover: kill, leave the ring, schedule a backoff restart."""
        shard.kill_process()
        with self._lock:
            shard.state = DEAD
            self._reported_down.discard(shard.id)
            moved = self.ring.remove(shard.id)
            backoff = min(
                self.config.restart_backoff_seconds * (2 ** shard.restarts),
                self.config.restart_backoff_max_seconds,
            )
            shard.next_restart_at = time.monotonic() + backoff
        self.metrics.inc(
            "failovers_total", {"shard": shard.id, "reason": reason}
        )
        if moved:
            self.metrics.inc("rehash_moves_total", value=moved)
        instant(
            "cluster.failover",
            shard=shard.id,
            reason=reason,
            rehash_moves=moved,
        )
        _logger.warning(
            "shard declared dead",
            extra={
                "shard": shard.id,
                "reason": reason,
                "rehash_moves": moved,
                "restart_backoff_seconds": backoff,
            },
        )
        if self.on_failover is not None:
            self.on_failover(shard.id)

    def _restart(self, shard: ShardProcess) -> None:
        if shard.restarts >= self.config.restart_budget:
            with self._lock:
                shard.state = FAILED
            self.metrics.inc("crash_loops_total", {"shard": shard.id})
            instant("cluster.crash_loop", shard=shard.id)
            _logger.error(
                "shard crash-looped past its restart budget; giving up",
                extra={
                    "shard": shard.id,
                    "restarts": shard.restarts,
                    "budget": self.config.restart_budget,
                },
            )
            return
        shard.restarts += 1
        self.metrics.inc("restarts_total", {"shard": shard.id})
        instant(
            "cluster.restart", shard=shard.id, attempt=shard.restarts
        )
        spawned = shard.spawn(
            timeout=self.config.startup_timeout_seconds
        ) and self._await_ready(shard)
        if not spawned:
            # The respawn itself failed: burn the attempt and back off
            # harder — this is exactly what a crash loop looks like.
            shard.kill_process()
            with self._lock:
                shard.state = DEAD
                backoff = min(
                    self.config.restart_backoff_seconds
                    * (2 ** shard.restarts),
                    self.config.restart_backoff_max_seconds,
                )
                shard.next_restart_at = time.monotonic() + backoff

    def _await_ready(self, shard: ShardProcess) -> bool:
        deadline = (
            time.monotonic() + self.config.startup_timeout_seconds
        )
        while time.monotonic() < deadline:
            if self._stop.is_set():
                return False
            if self._try_make_ready(shard):
                return True
            time.sleep(0.05)
        return False
