"""Graceful degradation: periodic-engine faults fall back, identically."""

import dataclasses

import pytest

from repro import faults
from repro.faults import FaultPlan, FaultRule
from repro.obs.metrics import default_registry
from repro.service import api, pool

from tests.faults.conftest import cheap_spec


@pytest.fixture(autouse=True)
def _cold_models():
    # The engine fault sites live behind the profile memo; a warm
    # model would serve the memo and never reach them.
    pool.clear_model_cache()
    yield
    pool.clear_model_cache()


class TestEngineDegradation:
    def test_periodic_failure_degrades_to_columnar(self):
        spec = cheap_spec(batch=32, engine="periodic")
        expected = api.submit(
            dataclasses.replace(spec, engine="columnar"), cache=None
        )
        assert expected.ok

        pool.clear_model_cache()
        faults.install(FaultPlan(rules=(
            FaultRule(faults.ENGINE_FAIL, max_fires=1),
        )))
        outcome = api.submit(spec, cache=None)
        assert outcome.ok
        assert outcome.degraded is True
        assert "InjectedFault" in outcome.degraded_reason
        # The equivalence contract holds through the fallback: the
        # degraded run is byte-identical to a clean columnar run.
        assert outcome.result.to_dict() == expected.result.to_dict()
        rendered = default_registry().render()
        assert 'jobs_degraded_total{from_engine="periodic"}' in rendered

    def test_incremental_failure_propagates(self):
        # engine.fail only fires on the periodic engine: there is
        # nothing sound to degrade the base engine to.
        spec = cheap_spec(batch=32, engine="incremental")
        faults.install(FaultPlan(rules=(
            FaultRule(faults.ENGINE_FAIL),
        )))
        outcome = api.submit(spec, cache=None)
        assert outcome.ok
        assert not outcome.degraded

    def test_engine_slow_injects_delay(self):
        faults.install(FaultPlan(rules=(
            FaultRule(faults.ENGINE_SLOW, delay_ms=1.0, max_fires=2),
        )))
        injector = faults.active_injector()
        outcome = api.submit(cheap_spec(batch=32), cache=None)
        assert outcome.ok
        assert injector.fired(faults.ENGINE_SLOW) == 2
