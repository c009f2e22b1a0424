"""Streaming histograms and the Prometheus registry."""

import random
import threading

import pytest

from repro.obs.metrics import (
    MetricsRegistry,
    StreamingHistogram,
    parse_prometheus,
)


class TestStreamingHistogram:
    def test_empty_quantiles_are_zero(self):
        h = StreamingHistogram()
        assert h.quantile(0.5) == 0.0
        assert h.count == 0 and h.sum == 0.0

    def test_empty_histogram_never_invents_values(self):
        # Every quantile of an empty histogram is the 0.0 sentinel —
        # never an edge of the configured [lo, hi) range.
        h = StreamingHistogram(lo=0.5, hi=2.0)
        for q in (0.0, 0.5, 0.99, 1.0):
            assert h.quantile(q) == 0.0
        snap = h.snapshot()
        assert snap == {
            "count": 0, "sum": 0.0, "min": None, "max": None,
            "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0,
        }

    def test_overflow_quantile_reports_observed_max(self):
        """p99 landing in the open-ended overflow bucket must not
        interpolate across [hi, max): the seed fabricated latencies
        nothing ever exhibited (e.g. ~333 s from data that was only
        ever 0.01 s or 500 s)."""
        h = StreamingHistogram(lo=1e-3, hi=1.0)
        for _ in range(97):
            h.record(0.01)
        for _ in range(3):
            h.record(500.0)
        assert h.quantile(0.99) == pytest.approx(500.0)
        assert h.quantile(1.0) == pytest.approx(500.0)
        # Quantiles below the overflow share stay inside [lo, hi).
        assert 1e-3 <= h.quantile(0.5) < 1.0

    def test_overflow_only_data(self):
        h = StreamingHistogram(lo=1e-3, hi=1.0)
        h.record(500.0)
        for q in (0.5, 0.99, 1.0):
            assert h.quantile(q) == pytest.approx(500.0)

    def test_single_bucket_per_decade_degenerate(self):
        h = StreamingHistogram(lo=1e-3, hi=1.0, buckets_per_decade=1)
        for v in (0.002, 0.02, 0.2):
            h.record(v)
        # Quantiles stay within the observed range and monotone even
        # with decade-wide buckets.
        qs = [h.quantile(q / 10) for q in range(11)]
        assert qs == sorted(qs)
        assert all(0.002 <= q <= 0.2 for q in qs)
        assert h.quantile(1.0) == pytest.approx(0.2)

    def test_single_value(self):
        h = StreamingHistogram()
        h.record(0.0123)
        for q in (0.0, 0.5, 0.99, 1.0):
            assert h.quantile(q) == pytest.approx(0.0123, rel=1e-9)
        assert h.count == 1
        assert h.sum == pytest.approx(0.0123)

    def test_uniform_accuracy(self):
        h = StreamingHistogram()
        rng = random.Random(20210215)
        values = sorted(rng.uniform(1e-4, 1.0) for _ in range(20000))
        for v in values:
            h.record(v)
        for q in (0.5, 0.9, 0.95, 0.99):
            exact = values[int(q * len(values)) - 1]
            assert h.quantile(q) == pytest.approx(exact, rel=0.15)

    def test_quantiles_monotonic(self):
        h = StreamingHistogram()
        rng = random.Random(7)
        for _ in range(5000):
            h.record(rng.lognormvariate(-5, 2))
        qs = [h.quantile(q / 100) for q in range(0, 101, 5)]
        assert qs == sorted(qs)

    def test_out_of_range_values(self):
        h = StreamingHistogram(lo=1e-3, hi=1.0)
        h.record(1e-9)  # underflow bucket
        h.record(50.0)  # overflow bucket
        h.record(-1.0)  # clamped to zero
        assert h.count == 3
        assert 0.0 <= h.quantile(0.01) <= 1e-3
        assert h.quantile(1.0) == pytest.approx(50.0)

    def test_thread_safety(self):
        h = StreamingHistogram()

        def hammer():
            for i in range(10000):
                h.record(1e-4 * (1 + i % 100))

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert h.count == 80000

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            StreamingHistogram(lo=1.0, hi=0.1)
        with pytest.raises(ValueError):
            StreamingHistogram(buckets_per_decade=0)
        with pytest.raises(ValueError):
            StreamingHistogram().quantile(1.5)

    def test_snapshot_shape(self):
        h = StreamingHistogram()
        h.record(0.01)
        snap = h.snapshot()
        assert set(snap) == {
            "count", "sum", "min", "max", "mean", "p50", "p95", "p99",
        }

    def test_exact_accumulators(self):
        # min/max/mean are exact (accumulator-tracked), not bucket
        # approximations — a value recorded once comes back verbatim.
        h = StreamingHistogram()
        for v in (0.004, 0.9, 0.017):
            h.record(v)
        assert h.min == 0.004
        assert h.max == 0.9
        assert abs(h.mean - (0.004 + 0.9 + 0.017) / 3) < 1e-12
        assert h.stddev > 0.0
        snap = h.snapshot()
        assert snap["min"] == 0.004
        assert snap["max"] == 0.9


class TestMetricsRegistry:
    def test_counters_with_labels(self):
        r = MetricsRegistry()
        r.inc("requests_total", {"endpoint": "GET /healthz"})
        r.inc("requests_total", {"endpoint": "GET /healthz"})
        r.inc("requests_total", {"endpoint": "POST /v1/jobs"})
        assert (
            r.counter_value(
                "requests_total", {"endpoint": "GET /healthz"}
            )
            == 2
        )
        assert r.counter_value("requests_total", {"endpoint": "nope"}) == 0

    def test_render_round_trips_through_parser(self):
        r = MetricsRegistry()
        r.inc("requests_total", {"endpoint": "GET /healthz"}, value=3)
        r.gauge("queue_depth", lambda: 7)
        for v in (0.001, 0.002, 0.004):
            r.observe(
                "request_seconds", v, {"endpoint": "GET /healthz"}
            )
        text = r.render()
        assert "# TYPE repro_server_requests_total counter" in text
        assert "# TYPE repro_server_queue_depth gauge" in text
        assert "# TYPE repro_server_request_seconds summary" in text
        parsed = parse_prometheus(text)
        assert (
            parsed["repro_server_requests_total"][
                '{endpoint="GET /healthz"}'
            ]
            == 3.0
        )
        assert parsed["repro_server_queue_depth"][""] == 7.0
        assert (
            parsed["repro_server_request_seconds_count"][
                '{endpoint="GET /healthz"}'
            ]
            == 3.0
        )
        quantile_series = {
            labels: value
            for labels, value in parsed[
                "repro_server_request_seconds"
            ].items()
        }
        assert len(quantile_series) == 3  # p50/p95/p99
        assert all(v > 0 for v in quantile_series.values())

    def test_gauge_errors_render_nan(self):
        r = MetricsRegistry()

        def boom():
            raise RuntimeError("sensor gone")

        r.gauge("broken", boom)
        assert "repro_server_broken NaN" in r.render()

    def test_histograms_family_listing(self):
        r = MetricsRegistry()
        r.observe("request_seconds", 0.1, {"endpoint": "a"})
        r.observe("request_seconds", 0.1, {"endpoint": "b"})
        r.observe("other_seconds", 0.1)
        families = dict(
            (labels.get("endpoint"), hist)
            for labels, hist in r.histograms("request_seconds")
        )
        assert set(families) == {"a", "b"}
