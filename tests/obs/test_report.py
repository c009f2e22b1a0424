"""EngineReport serde, merge and diff."""

from __future__ import annotations

import json

from repro.obs.report import (
    FALLBACK_DEADLOCK,
    FALLBACK_NO_LOCK,
    FALLBACK_REASONS,
    EngineReport,
)


def _sample() -> EngineReport:
    report = EngineReport(engine="periodic")
    report.record_fast_path()
    report.record_fallback(FALLBACK_NO_LOCK)
    report.record_warm_run(24)
    report.record_warm_run(48)
    report.record_extension(1000)
    report.record_scheduling_path("steady-warm")
    report.record_scheduling_path("single-channel")
    return report


def test_reason_constants_are_distinct():
    assert len(set(FALLBACK_REASONS)) == len(FALLBACK_REASONS)


def test_round_trip_is_lossless_and_json_safe():
    report = _sample()
    data = report.to_dict()
    assert json.loads(json.dumps(data)) == data
    assert EngineReport.from_dict(data).to_dict() == data


def test_scheduling_paths_histogram():
    assert _sample().scheduling_paths == {
        "steady-warm": 1, "single-channel": 1,
    }


def test_merge_adds_counters_and_tables():
    a, b = _sample(), _sample()
    a.merge(b)
    assert a.fast_path == 2
    assert a.warm_runs == 4
    assert a.warm_widths == {"24": 2, "48": 2}
    assert a.fallback_reasons == {FALLBACK_NO_LOCK: 2}
    assert a.sweeps_extended == 2000


def test_diff_dicts_returns_the_delta():
    before = _sample()
    after = EngineReport.from_dict(before.to_dict())
    after.record_fallback(FALLBACK_DEADLOCK)
    after.record_warm_run(24)
    delta = EngineReport.diff_dicts(before.to_dict(), after.to_dict())
    assert delta == {
        "engine": "periodic",
        "fallback": 1,
        "warm_runs": 1,
        "fallback_reasons": {FALLBACK_DEADLOCK: 1},
        "warm_widths": {"24": 1},
    }


def test_diff_dicts_none_when_nothing_happened():
    snap = _sample().to_dict()
    assert EngineReport.diff_dicts(snap, snap) is None
