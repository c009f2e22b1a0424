"""Hardened pool execution: kills, hangs, timeouts, quarantine."""

import multiprocessing
import os
import threading
import time

import pytest

from repro import faults
from repro.faults import FaultPlan, FaultRule
from repro.obs.metrics import default_registry
from repro.service import api, pool
from repro.service.config import ServiceConfig

from tests.faults.conftest import cheap_spec

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="hardened execution requires the fork start method",
)

HARDENED = ServiceConfig(job_timeout_seconds=30.0)


@needs_fork
class TestIsolatedExecution:
    def test_fault_free_run_is_byte_identical_to_serial(self):
        spec = cheap_spec(batch=32)
        expected = api.submit(spec, cache=None)
        assert expected.ok
        [outcome] = api.submit_many(
            [spec], cache=None, config=HARDENED
        )
        assert outcome.ok
        assert outcome.execution_mode == "isolated"
        assert not outcome.retried
        assert outcome.result.to_dict() == expected.result.to_dict()

    def test_killed_worker_is_retried_and_result_identical(self):
        spec = cheap_spec(batch=48)
        expected = api.submit(spec, cache=None)
        # The worker-death satellite: attempt 0 is SIGKILLed mid-job
        # (rate=1), the parent detects the closed pipe, respawns, and
        # attempt 1 (past the attempts=1 bound) completes the job.
        faults.install(FaultPlan.parse(
            "seed=11;worker.kill:rate=1,attempts=1"
        ))
        [outcome] = api.submit_many(
            [spec], cache=None, config=HARDENED
        )
        assert outcome.ok
        assert outcome.retried
        assert outcome.failure is None
        assert outcome.result.to_dict() == expected.result.to_dict()
        rendered = default_registry().render()
        assert 'faults_detected_total{kind="worker-death"}' in rendered
        assert 'jobs_retried_total{reason="worker-death"}' in rendered

    def test_poison_job_is_quarantined_then_blocked(self):
        spec = cheap_spec(batch=64)
        faults.install(FaultPlan.parse("seed=3;worker.kill:rate=1"))
        config = ServiceConfig(job_timeout_seconds=30.0, max_retries=2)
        [outcome] = api.submit_many([spec], cache=None, config=config)
        assert outcome.status == "failed"
        assert outcome.failure_reason == "quarantined"
        assert outcome.failure["attempts"] == 3
        assert outcome.failure["quarantined"] is True
        assert spec.content_hash() in pool.quarantined_hashes()

        # Resubmission short-circuits without burning another worker.
        [blocked] = api.submit_many([spec], cache=None, config=config)
        assert blocked.failure_reason == "quarantined"
        assert blocked.failure["attempts"] == 0
        rendered = default_registry().render()
        assert 'jobs_quarantined_total{event="tripped"}' in rendered
        assert 'jobs_quarantined_total{event="blocked"}' in rendered

    def test_hung_worker_is_killed_at_timeout(self):
        spec = cheap_spec(batch=96)
        faults.install(FaultPlan.parse(
            "seed=2;worker.hang:rate=1,delay_ms=60000"
        ))
        config = ServiceConfig(job_timeout_seconds=0.5, max_retries=0)
        start = time.monotonic()
        [outcome] = api.submit_many([spec], cache=None, config=config)
        elapsed = time.monotonic() - start
        assert outcome.status == "failed"
        assert outcome.failure_reason == "timeout"
        assert outcome.failure["timed_out"] is True
        assert elapsed < 10.0  # killed, not waited out
        rendered = default_registry().render()
        assert 'faults_detected_total{kind="job-timeout"}' in rendered

    def test_expired_deadline_classified_without_executing(self):
        spec = cheap_spec(batch=112)
        [outcome] = api.submit_many(
            [spec],
            cache=None,
            config=HARDENED,
            deadlines=[time.monotonic() - 1.0],
        )
        assert outcome.status == "failed"
        assert outcome.failure_reason == "timeout"
        assert outcome.failure["attempts"] == 0
        assert "before execution" in outcome.failure["detail"]

    def test_shared_pool_worker_death_does_not_hang(self, monkeypatch):
        # A shared-pool worker that dies mid-task must not hang the
        # batch: the pool breaks, the specs left without a payload
        # re-run in the per-job executor, and the one that keeps dying
        # ends classified (default policy: three deaths, quarantined).
        specs = [cheap_spec(batch=b) for b in (16, 24, 40, 56)]
        poison = specs[2]
        execute = pool.execute_spec

        def die_on_poison(spec):
            if spec == poison:
                os._exit(3)
            return execute(spec)

        monkeypatch.setattr(pool, "execute_spec", die_on_poison)
        results = []
        runner = threading.Thread(
            target=lambda: results.append(pool.run_specs(specs, jobs=2)),
            daemon=True,
        )
        runner.start()
        runner.join(timeout=120.0)
        assert not runner.is_alive(), "run_specs hung on a dead worker"
        [payloads] = results
        for spec, payload in zip(specs, payloads):
            if spec == poison:
                assert payload["status"] == "failed"
                assert payload["execution_mode"] == "isolated"
                assert payload["failure"]["reason"] == "quarantined"
                assert payload["failure"]["attempts"] == 3
            else:
                assert payload["status"] == "ok", payload
        assert poison.content_hash() in pool.quarantined_hashes()

    def test_injected_kill_in_shared_pool_is_recovered(self, monkeypatch):
        # worker.kill fires in shared fork-pool workers too: a worker
        # dies, the pool breaks, and the hardened re-run classifies the
        # specs (at rate 1 every attempt dies too: quarantined). Killed
        # workers ship no metrics; the injector relays their kills.
        monkeypatch.setenv(faults.ENV_VAR, "seed=1;worker.kill:rate=1")
        specs = [cheap_spec(batch=b) for b in (16, 24)]
        results = []
        runner = threading.Thread(
            target=lambda: results.append(pool.run_specs(specs, jobs=2)),
            daemon=True,
        )
        runner.start()
        runner.join(timeout=120.0)
        assert not runner.is_alive(), "run_specs hung on a dead worker"
        [payloads] = results
        for payload in payloads:
            assert payload["status"] == "failed", payload
            assert payload["execution_mode"] == "isolated"
            assert payload["failure"]["reason"] == "quarantined"
        assert faults.active_injector().fired(faults.WORKER_KILL) > 0
        rendered = default_registry().render()
        assert 'faults_injected_total{site="worker.kill"}' in rendered
        assert 'faults_suppressed_total{site="worker.kill"}' not in rendered

    def test_parallel_pool_records_execution_mode(self):
        specs = [cheap_spec(batch=b) for b in (16, 24)]
        results = api.submit_many(specs, jobs=2, cache=None)
        assert all(r.ok for r in results)
        assert {r.execution_mode for r in results} == {"parallel"}


class TestSerialPaths:
    def test_serial_submit_records_execution_mode(self):
        outcome = api.submit(cheap_spec(batch=16), cache=None)
        assert outcome.ok
        assert outcome.execution_mode == "serial"

    def test_serial_fallback_is_recorded(self, monkeypatch):
        def refuse(method):
            raise ValueError(f"start method {method!r} unavailable")

        monkeypatch.setattr(
            pool.multiprocessing, "get_context", refuse
        )
        [outcome] = api.submit_many(
            [cheap_spec(batch=16)], cache=None, config=HARDENED
        )
        assert outcome.ok
        assert outcome.execution_mode == "serial"
        rendered = default_registry().render()
        assert 'pool_serial_fallback_total{requested="isolated"}' in (
            rendered
        )

    def test_worker_exception_is_an_error_not_retried(self):
        faults.install(FaultPlan(rules=(
            FaultRule(faults.WORKER_EXCEPTION, max_fires=1),
        )))
        [outcome] = api.submit_many([cheap_spec(batch=16)], cache=None)
        assert outcome.status == "error"
        assert "InjectedFault" in outcome.error
