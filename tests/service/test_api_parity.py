"""``submit(spec)`` is ``submit_many([spec])[0]``, envelope for envelope."""

from __future__ import annotations

import pytest

from repro import faults
from repro.faults import FaultPlan, FaultRule
from repro.service import api, pool
from repro.service.spec import SimJobSpec

CHEAP = dict(
    network="MLP1",
    batch=24,
    columns_per_stripe=8,
    designs=("Baseline", "GradPIM-BD"),
)


@pytest.fixture(autouse=True)
def _clean_state(monkeypatch):
    monkeypatch.delenv(faults.ENV_VAR, raising=False)
    faults.uninstall()
    yield
    faults.uninstall()
    pool.clear_model_cache()


def _envelope(run, spec, plan=None) -> dict:
    # A cold model per run: the engine report is the job's delta of the
    # model's flight recorder, and the engine fault sites sit behind
    # the profile memo.
    pool.clear_model_cache()
    if plan is not None:
        faults.install(plan)
    try:
        out = run(spec).to_dict()
    finally:
        faults.uninstall()
    out.pop("elapsed_seconds")
    return out


def _both(spec, plan=None) -> tuple[dict, dict]:
    single = _envelope(lambda s: api.submit(s, cache=None), spec, plan)
    batch = _envelope(
        lambda s: api.submit_many([s], cache=None)[0], spec, plan
    )
    return single, batch


def test_ok_envelopes_match():
    single, batch = _both(SimJobSpec(**CHEAP))
    assert single["status"] == "ok"
    assert single == batch


def test_error_envelopes_match(monkeypatch):
    def boom(spec):
        raise RuntimeError("boom")

    monkeypatch.setattr(pool, "execute_spec", boom)
    single, batch = _both(SimJobSpec(**CHEAP))
    assert single["status"] == "error"
    assert single["error"] == "RuntimeError: boom"
    assert single == batch


def test_degraded_envelopes_match():
    plan = FaultPlan(rules=(FaultRule(faults.ENGINE_FAIL, max_fires=1),))
    single, batch = _both(SimJobSpec(**CHEAP, engine="periodic"), plan)
    assert single["status"] == "ok"
    assert single["degraded"] is True
    assert "InjectedFault" in single["degraded_reason"]
    assert single == batch
