"""End-to-end server observability: engine reports, /metrics, traces."""

from __future__ import annotations

import pytest

from repro.obs.metrics import parse_prometheus, set_default_registry
from repro.obs.trace import (
    disable_tracing,
    enable_tracing,
    validate_chrome_trace,
)
from tests.server.conftest import cheap_spec

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


@pytest.fixture(autouse=True)
def _clean_obs_state():
    set_default_registry(None)
    disable_tracing()
    yield
    set_default_registry(None)
    disable_tracing()


def periodic_spec(batch: int = 128, stripe: int = 9) -> dict:
    # Odd stripe widths no other server test touches: the pool's
    # process-local model cache is keyed by substrate (not batch), so
    # each test picks its own width to keep the flight recorder from
    # being memoized away by an earlier test's profiles.
    return dict(
        cheap_spec(batch), engine="periodic", columns_per_stripe=stripe
    )


def test_engine_report_reaches_the_job_envelope(live_server):
    _, client = live_server()
    [envelope] = client.submit(periodic_spec(), wait=30)
    assert envelope["status"] == "done"
    report = envelope.get("engine_report")
    assert report is not None and report["engine"] == "periodic"
    assert report.get("fast_path", 0) + report.get("fallback", 0) > 0
    # Polling the job again re-serves the same report.
    again = client.job(envelope["id"])
    assert again["engine_report"] == report


def test_metrics_expose_engine_counter_families(live_server):
    _, client = live_server()
    [envelope] = client.submit(periodic_spec(batch=64, stripe=11), wait=30)
    assert envelope["status"] == "done"
    families = parse_prometheus(client.metrics_text())
    engine_families = {
        name
        for name in families
        if name.startswith("repro_server_engine_")
    }
    # The job either extrapolated (fast path) or fell back with a
    # classified reason — both surface as engine counters.
    assert engine_families, f"no engine families in {sorted(families)}"
    if "repro_server_engine_fallback_total" in families:
        labels = families["repro_server_engine_fallback_total"]
        assert all("reason=" in label for label in labels)
    total = sum(
        sum(series.values())
        for name, series in families.items()
        if name
        in (
            "repro_server_engine_fast_path_total",
            "repro_server_engine_fallback_total",
        )
    )
    assert total >= 1
    # The scheduling-path family tags every schedule the engines ran.
    assert "repro_server_engine_scheduling_path_total" in families


def test_metrics_append_the_process_global_registry(live_server):
    """Families recorded on the default registry (``repro_*``) ride
    the same /metrics response as the server's own families."""
    from repro.obs.metrics import default_registry

    _, client = live_server()
    client.healthz()  # at least one completed request on the books
    default_registry().inc("sideband_total", {"origin": "test"})
    families = parse_prometheus(client.metrics_text())
    assert families["repro_sideband_total"]['{origin="test"}'] == 1
    assert "repro_server_requests_total" in families


def test_traced_server_run_covers_the_dispatch_path(live_server):
    tracer = enable_tracing()
    _, client = live_server()
    [envelope] = client.submit(periodic_spec(batch=32, stripe=13), wait=30)
    assert envelope["status"] == "done"
    names = tracer.span_names()
    for expected in (
        "server.submit",
        "server.cache_lookup",
        "server.dispatch",
        "server.cache_write",
        "pool.execute",
    ):
        assert expected in names, f"missing span {expected}"
    assert validate_chrome_trace(tracer.to_chrome_trace()) == []


def test_metrics_stay_listed_while_an_in_thread_job_runs(
    live_server, monkeypatch
):
    """A ``workers=1`` gateway runs its jobs in the dispatcher thread.
    A scrape taken mid-job still lists what was recorded before it,
    and the job's own counters land on the same registry."""
    import threading

    from repro.obs.metrics import default_registry
    from repro.service import pool

    entered, release = threading.Event(), threading.Event()
    real = pool.execute_spec

    def held(spec):
        entered.set()
        assert release.wait(timeout=30), "job never released"
        return real(spec)

    monkeypatch.setattr(pool, "execute_spec", held)
    default_registry().inc("probe_total", value=5)
    _, client = live_server(workers=1)
    [envelope] = client.submit(cheap_spec(batch=40))
    try:
        assert entered.wait(timeout=30), "job never started"
        during = parse_prometheus(client.metrics_text())
    finally:
        release.set()
    assert during["repro_probe_total"][""] == 5
    [final] = client.wait_for([envelope["id"]], timeout=30.0)
    assert final["status"] == "done"
    after = parse_prometheus(client.metrics_text())
    assert after["repro_jobs_executed_total"]['{status="ok"}'] == 1
    assert "repro_job_execute_seconds" in after
