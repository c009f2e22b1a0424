"""A job run in this process records into the live telemetry.

Only forked workers run against a fresh registry and tracer (and ship
what they recorded back); an in-process job must never swap out the
process-wide registry, or anything reading it while the job runs — a
``/metrics`` scrape on a ``workers=1`` gateway — sees it empty.
"""

from __future__ import annotations

from repro.obs.metrics import default_registry
from repro.service import pool
from repro.service.pool import run_specs
from repro.service.spec import SimJobSpec

SPEC = SimJobSpec(
    network="MLP1",
    batch=16,
    columns_per_stripe=8,
    designs=("Baseline", "GradPIM-BD"),
)


def test_serial_job_sees_the_live_registry(monkeypatch):
    registry = default_registry()
    registry.inc("probe_total", value=5)
    seen = []
    real = pool.execute_spec

    def spy(spec):
        seen.append(default_registry().counter_value("probe_total"))
        default_registry().inc("probe_total")
        return real(spec)

    monkeypatch.setattr(pool, "execute_spec", spy)
    [payload] = run_specs([SPEC], jobs=1)
    assert payload["status"] == "ok"
    assert payload["execution_mode"] == "serial"
    assert seen == [5]
    assert default_registry() is registry
    assert registry.counter_value("probe_total") == 6
    assert (
        registry.counter_value("jobs_executed_total", {"status": "ok"})
        == 1
    )

