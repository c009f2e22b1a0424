"""One supervised shard: a ``repro.server`` gateway child process.

The child runs the *unmodified* single-process gateway
(:class:`~repro.server.app.ReproServer`) on an ephemeral port of the
cluster host and reports its bound URL back over a pipe. Everything
cluster-specific — probing, killing, restarting — lives in the parent;
the shard itself doesn't know it is sharded, which is what keeps its
behaviour (coalescing, caching, hardened execution) byte-identical to
standalone serving.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from typing import Optional

from repro.obs.metrics import set_default_registry
from repro.server.config import ServerConfig

# Lifecycle states (spelled out in /healthz and metric labels).
STARTING = "starting"    #: spawned, not yet passed a readiness probe
READY = "ready"          #: serving; on the ring
SUSPECT = "suspect"      #: missed probe(s); still on the ring
DEAD = "dead"            #: declared dead; off the ring; restart pending
FAILED = "failed"        #: crash-loop budget exhausted; terminal

_CTX = multiprocessing.get_context("fork")


def _watch_parent(parent_pid: int) -> None:
    """Exit if orphaned: a SIGKILL'd router must not leak shards."""
    while True:
        time.sleep(1.0)
        if os.getppid() != parent_pid:
            os._exit(0)


def _shard_main(shard_id: str, config: ServerConfig, conn) -> None:
    """Child entry point: boot a gateway, report the URL, serve."""
    # Fresh telemetry: the child inherited the parent's process-global
    # registry state over fork; a shard's /metrics must only report
    # its own work.
    set_default_registry(None)
    threading.Thread(
        target=_watch_parent,
        args=(os.getppid(),),
        name=f"{shard_id}-orphan-watch",
        daemon=True,
    ).start()
    # Import here: the parent imports this module before forking, so
    # the child pays nothing extra; keeping the import local avoids a
    # cycle (server -> ... -> cluster is never created).
    from repro.server.app import create_server

    try:
        server = create_server(config)
    except Exception as exc:
        conn.send(f"error: {type(exc).__name__}: {exc}")
        conn.close()
        raise SystemExit(1)
    conn.send(server.url)
    conn.close()
    try:
        server.serve_forever(poll_interval=0.05)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()


class ShardProcess:
    """Handle + lifecycle state for one shard child.

    Mutable fields (``state``, ``misses``, ``restarts``,
    ``next_restart_at``) are owned by the supervisor and mutated only
    under its lock.
    """

    def __init__(self, shard_id: str, config: ServerConfig) -> None:
        self.id = shard_id
        self._config = config
        self._proc: Optional[multiprocessing.process.BaseProcess] = None
        self.url: Optional[str] = None
        self.state = DEAD  # becomes STARTING on the first spawn()
        self.misses = 0
        self.restarts = 0
        self.next_restart_at = 0.0

    @property
    def pid(self) -> Optional[int]:
        return self._proc.pid if self._proc is not None else None

    def is_alive(self) -> bool:
        return self._proc is not None and self._proc.is_alive()

    def spawn(self, timeout: float) -> bool:
        """Fork a fresh gateway child; True once it reports its URL.

        Reuses the same shard id on every (re)spawn — the ring hashes
        the *id*, so a restart onto a new port moves zero keys.
        """
        parent_conn, child_conn = _CTX.Pipe(duplex=False)
        proc = _CTX.Process(
            target=_shard_main,
            args=(self.id, self._config, child_conn),
            name=f"repro-shard-{self.id}",
        )
        proc.start()
        child_conn.close()
        self._proc = proc
        self.url = None
        self.state = STARTING
        self.misses = 0
        try:
            if not parent_conn.poll(timeout):
                self.kill_process()
                return False
            report = parent_conn.recv()
        except (EOFError, OSError):
            self.kill_process()
            return False
        finally:
            parent_conn.close()
        if not isinstance(report, str) or not report.startswith("http"):
            self.kill_process()
            return False
        self.url = report
        return True

    def kill_process(self) -> None:
        """SIGKILL the child (works on SIGSTOP'd children too)."""
        proc = self._proc
        if proc is None:
            return
        if proc.is_alive():
            proc.kill()
        proc.join(timeout=5.0)
        if proc.is_alive():  # pragma: no cover - kernel refusal
            return
        proc.close()
        self._proc = None

    def terminate(self) -> None:
        """Polite stop (SIGTERM), escalating to SIGKILL."""
        proc = self._proc
        if proc is None:
            return
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=2.0)
        self.kill_process()

    def suspend(self) -> None:
        """SIGSTOP the child — alive but wedged (the ``shard.hang``
        fault). Probes will time out; the supervisor's SIGKILL ends it."""
        pid = self.pid
        if pid is not None and self.is_alive():
            os.kill(pid, signal.SIGSTOP)
