"""Server-level fault tolerance, up to the 64-job chaos acceptance run."""

import multiprocessing
import time

import pytest

from repro import faults
from repro.server import ServerClient, ServerConfig, create_server
from repro.service import api
from repro.service.config import ServiceConfig

from tests.faults.conftest import CHEAP, cheap_spec

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="hardened execution requires the fork start method",
)


@pytest.fixture()
def live_server():
    """Factory: start background servers, stop them all at teardown."""
    servers = []

    def start(**overrides):
        config = ServerConfig(**{"port": 0, **overrides})
        server = create_server(config)
        server.start_background()
        servers.append(server)
        return server, ServerClient(server.url, max_retries=0)

    yield start
    for server in servers:
        server.stop()


class TestDispatcherStop:
    def test_stop_detects_leaked_thread(self, live_server):
        # An injected stall wedges the dispatcher mid-execution; a
        # short-fused stop must report the leak instead of pretending
        # the thread joined.
        server, client = live_server(
            faults="seed=1;dispatcher.stall:rate=1,delay_ms=1500,max=1"
        )
        client.submit(dict(CHEAP, batch=16))
        stopped = server.dispatcher.stop(timeout=0.2)
        assert stopped is False
        assert server.dispatcher.stopped_clean is False
        assert "dispatcher_stop_leaked_total 1" in (
            server.metrics.render()
        )

    def test_clean_stop_reports_true(self, live_server):
        server, _ = live_server()
        assert server.dispatcher.stop() is True
        assert server.dispatcher.stopped_clean is True


class TestDeadlines:
    def test_queued_past_deadline_finishes_timed_out(self, live_server):
        server, client = live_server(
            execution=ServiceConfig(default_deadline_ms=50),
            faults="seed=1;dispatcher.stall:rate=1,delay_ms=300,max=1",
        )
        [envelope] = client.submit(dict(CHEAP, batch=16))
        [final] = client.wait_for([envelope["id"]], timeout=30.0)
        assert final["status"] == "timed_out"
        assert final["failure"]["reason"] == "timeout"
        assert final["failure"]["timed_out"] is True
        assert "job_timeouts_total" in server.metrics.render()

    @needs_fork
    def test_deadline_enforced_mid_execution(self, live_server):
        # A worker wedged by an injected hang blows the job deadline;
        # the hardened pool kills it and the job terminates classified
        # instead of running forever.
        server, client = live_server(
            execution=ServiceConfig(
                default_deadline_ms=400,
                job_timeout_seconds=30.0,
                max_retries=0,
            ),
            faults="seed=1;worker.hang:rate=1,delay_ms=60000",
        )
        [envelope] = client.submit(dict(CHEAP, batch=16))
        start = time.monotonic()
        [final] = client.wait_for([envelope["id"]], timeout=30.0)
        assert time.monotonic() - start < 20.0
        assert final["status"] == "timed_out"


@needs_fork
class TestChaosAcceptance:
    """The acceptance bar: a 64-job sweep through the live server with
    worker kills, cache corruption, and injected slowness completes
    every job byte-identical to a fault-free run — zero hangs, zero
    unhandled exceptions, every fault family visible on /metrics."""

    # worker.kill is checked once per child at index 0 (forked workers
    # inherit the parent's untouched counter), so its rate is
    # effectively all-or-nothing: rate=1,attempts=1 kills every first
    # attempt and every retry succeeds — the strongest determinstic
    # exercise of the respawn path.
    CHAOS = (
        "seed=1301;"
        "worker.kill:rate=1,attempts=1;"
        "cache.read.corrupt:rate=0.3,max=10;"
        "engine.slow:rate=0.2,delay_ms=2;"
        "dispatcher.stall:rate=1,delay_ms=10,max=2"
    )

    def test_64_job_sweep_survives_chaos(self, live_server, tmp_path):
        batches = [16 + 4 * i for i in range(64)]
        # Fault-free ground truth, computed before the plan is armed.
        expected = {}
        for batch in batches:
            outcome = api.submit(cheap_spec(batch=batch), cache=None)
            assert outcome.ok
            expected[batch] = outcome.result.to_dict()

        server, client = live_server(
            workers=4,
            queue_depth=128,
            execution=ServiceConfig(job_timeout_seconds=60.0),
            cache_dir=str(tmp_path),
            cache_max_entries=0,  # force every lookup through disk
            faults=self.CHAOS,
        )
        specs = [dict(CHEAP, batch=b) for b in batches]

        for sweep in range(2):  # second pass exercises disk reads
            envelopes = client.submit(specs)
            finals = client.wait_for(
                [e["id"] for e in envelopes], timeout=180.0
            )
            for batch, final in zip(batches, finals):
                assert final["status"] == "done", (sweep, batch, final)
                assert final["result"] == expected[batch], (sweep, batch)

        # Zero hangs: nothing is left queued or running.
        health = client.healthz()
        assert health["jobs"]["queued"] == 0
        assert health["jobs"]["running"] == 0
        assert health["faults"]["fired"]  # the plan really fired

        metrics = client.metrics_text()
        assert "repro_faults_injected_total" in metrics
        # Kills were detected and recovered by the hardened pool.
        assert 'repro_faults_detected_total{kind="worker-death"}' in (
            metrics
        )
        assert "repro_jobs_retried_total" in metrics
        # Corrupted disk entries were refused and re-simulated.
        assert "repro_cache_checksum_failures_total" in metrics
