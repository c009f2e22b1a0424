"""Streaming histograms and the Prometheus registry.

Shared by every layer of the stack — not just the HTTP gateway — so
each can record telemetry.

The gateway needs request-latency percentiles that survive millions of
observations without storing them, so :class:`StreamingHistogram` bins
observations into fixed log-spaced buckets — O(1) memory, O(1) record,
O(buckets) quantile — the classic HDR-histogram compromise: quantiles
are exact to within one bucket's relative width (~12% at ten buckets
per decade), which is plenty for p50/p95/p99 dashboards.

:class:`MetricsRegistry` aggregates labelled counters, gauge callbacks,
and histograms, and renders the whole set in the Prometheus text
exposition format for ``GET /metrics``.

Cross-process aggregation: pool workers record into their own
process-local :func:`default_registry`, ship
:meth:`MetricsRegistry.snapshot` back with each result payload, and
the parent folds it in with :meth:`MetricsRegistry.merge_snapshot`.
Histograms merge exactly (identical bucket layouts add bucket-wise);
counters add. Gauges are live callables and deliberately do not cross
the process boundary.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_right
from typing import Callable, Iterable, Mapping, Optional

#: Quantiles every histogram reports on ``/metrics``.
SUMMARY_QUANTILES = (0.5, 0.95, 0.99)

#: Version stamp on registry snapshots, bumped on layout changes.
#: Version 2 added the exact sum-of-squares to histogram state.
SNAPSHOT_VERSION = 2

#: Snapshot versions :meth:`MetricsRegistry.merge_snapshot` accepts.
#: Version-1 snapshots (pre sum-of-squares) merge losslessly for every
#: pre-existing field; their missing ``sum_sq`` folds in as 0.0, so a
#: merged variance can undercount but counts/buckets/quantiles stay
#: exact.
ACCEPTED_SNAPSHOT_VERSIONS = frozenset({1, 2})


class StreamingHistogram:
    """Fixed log-spaced latency histogram with streaming quantiles.

    Buckets span ``[lo, hi)`` seconds at ``buckets_per_decade``
    log-spaced bins per decade, with open-ended underflow/overflow bins
    at the extremes (clamped to the observed min/max during
    interpolation, so quantiles never invent values outside the data).
    Thread-safe: many request threads record into one histogram.
    """

    def __init__(
        self,
        lo: float = 1e-5,
        hi: float = 100.0,
        buckets_per_decade: int = 10,
    ) -> None:
        if not (0 < lo < hi):
            raise ValueError(f"need 0 < lo < hi, got ({lo}, {hi})")
        if buckets_per_decade < 1:
            raise ValueError(
                f"buckets_per_decade must be >= 1, got {buckets_per_decade}"
            )
        n = int(math.ceil(math.log10(hi / lo) * buckets_per_decade))
        self._lo = lo
        self._buckets_per_decade = buckets_per_decade
        #: Upper edge of interior bucket ``i``; its lower edge is
        #: ``lo`` for ``i == 0``, else ``_edges[i - 1]``.
        self._edges = [
            lo * 10 ** ((i + 1) / buckets_per_decade) for i in range(n)
        ]
        # counts[0] = underflow (< lo), counts[1 + i] = interior bucket
        # i, counts[-1] = overflow (>= the last edge).
        self._counts = [0] * (len(self._edges) + 2)
        self._lock = threading.Lock()
        self.count = 0
        self.sum = 0.0
        self.sum_sq = 0.0
        self._min = math.inf
        self._max = -math.inf

    def record(self, seconds: float) -> None:
        """Fold one observation in."""
        if seconds < 0:
            seconds = 0.0
        if seconds < self._lo:
            index = 0
        else:
            index = 1 + bisect_right(self._edges, seconds)
        with self._lock:
            self._counts[index] += 1
            self.count += 1
            self.sum += seconds
            self.sum_sq += seconds * seconds
            self._min = min(self._min, seconds)
            self._max = max(self._max, seconds)

    # -- exact observed statistics -------------------------------------
    # Bucket counts quantize, but these never do: min/max/mean/stddev
    # come from exact accumulators, so a knee detector comparing a p99
    # against an SLO can trust the true observed extreme rather than a
    # bucket's upper bound.
    @property
    def min(self) -> Optional[float]:
        """Exact observed minimum (``None`` while empty)."""
        return self._min if self.count else None

    @property
    def max(self) -> Optional[float]:
        """Exact observed maximum (``None`` while empty)."""
        return self._max if self.count else None

    @property
    def mean(self) -> float:
        """Exact observed mean (0.0 while empty)."""
        return self.sum / self.count if self.count else 0.0

    @property
    def stddev(self) -> float:
        """Population standard deviation from the exact accumulators."""
        if not self.count:
            return 0.0
        variance = self.sum_sq / self.count - self.mean**2
        return math.sqrt(max(0.0, variance))

    def quantile(self, q: float) -> float:
        """The ``q``-quantile (0..1) of everything recorded.

        An empty histogram reports 0.0 (the documented no-data
        sentinel — never an interpolated fiction). A quantile landing
        in the open-ended overflow bucket reports the observed maximum:
        the log-spaced resolution ends at ``hi``, so interpolating
        across ``[hi, max)`` would fabricate latencies nothing ever
        exhibited, while the maximum is a real observation. Interior
        buckets interpolate linearly, clamped to the observed min/max.
        """
        if not 0 <= q <= 1:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            if self.count == 0:
                return 0.0
            target = q * self.count
            cumulative = 0
            for i, n in enumerate(self._counts):
                if n == 0:
                    continue
                if cumulative + n >= target:
                    if i == len(self._counts) - 1:
                        return self._max  # overflow: no resolution
                    lo_edge, hi_edge = self._bucket_bounds(i)
                    lo_edge = max(lo_edge, self._min)
                    hi_edge = min(hi_edge, self._max)
                    if hi_edge <= lo_edge:
                        return lo_edge
                    frac = (target - cumulative) / n
                    return lo_edge + frac * (hi_edge - lo_edge)
                cumulative += n
            return self._max

    def _bucket_bounds(self, index: int) -> tuple[float, float]:
        # Caller holds the lock. index 0 = underflow, last = overflow.
        if index == 0:
            return (0.0, self._lo)
        if index == len(self._counts) - 1:
            return (self._edges[-1], self._max)
        lower = self._lo if index == 1 else self._edges[index - 2]
        return (lower, self._edges[index - 1])

    def snapshot(self) -> dict:
        """Count, sum, exact min/max/mean, and the summary quantiles."""
        out = {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
        }
        for q in SUMMARY_QUANTILES:
            out[f"p{int(q * 100)}"] = self.quantile(q)
        return out

    # -- serialization / merge -----------------------------------------
    def to_dict(self) -> dict:
        """Full lossless state, JSON-safe (for cross-process shipping)."""
        with self._lock:
            return {
                "lo": self._lo,
                "buckets_per_decade": self._buckets_per_decade,
                "counts": list(self._counts),
                "count": self.count,
                "sum": self.sum,
                "sum_sq": self.sum_sq,
                "min": self._min if self.count else None,
                "max": self._max if self.count else None,
            }

    @classmethod
    def from_dict(cls, data: Mapping) -> "StreamingHistogram":
        """Rebuild a histogram serialized with :meth:`to_dict`."""
        lo = float(data["lo"])
        bpd = int(data["buckets_per_decade"])
        counts = list(data["counts"])
        # len(counts) = interior buckets + underflow + overflow; invert
        # the edge construction to recover hi (any value inside the
        # last interior bucket reproduces the same layout).
        n_interior = len(counts) - 2
        hi = lo * 10 ** ((n_interior - 0.5) / bpd)
        hist = cls(lo=lo, hi=hi, buckets_per_decade=bpd)
        if len(hist._counts) != len(counts):
            raise ValueError(
                "corrupt histogram snapshot: bucket count mismatch"
            )
        hist._counts = [int(c) for c in counts]
        hist.count = int(data["count"])
        hist.sum = float(data["sum"])
        # Absent in version-1 snapshots: 0.0 keeps the merge arithmetic
        # total (variance undercounts; everything else stays exact).
        hist.sum_sq = float(data.get("sum_sq", 0.0))
        if data.get("min") is not None:
            hist._min = float(data["min"])
        if data.get("max") is not None:
            hist._max = float(data["max"])
        return hist

    def merge(self, other: "StreamingHistogram") -> None:
        """Fold ``other`` into this histogram, exactly.

        Both histograms must share a bucket layout (same ``lo`` and
        ``buckets_per_decade``, same bucket count) — the merge is then
        a bucket-wise sum with no resolution loss.
        """
        if (
            self._lo != other._lo
            or self._buckets_per_decade != other._buckets_per_decade
            or len(self._counts) != len(other._counts)
        ):
            raise ValueError(
                "cannot merge histograms with different bucket layouts"
            )
        with other._lock:
            counts = list(other._counts)
            count, total = other.count, other.sum
            total_sq = other.sum_sq
            omin, omax = other._min, other._max
        with self._lock:
            for i, c in enumerate(counts):
                self._counts[i] += c
            self.count += count
            self.sum += total
            self.sum_sq += total_sq
            self._min = min(self._min, omin)
            self._max = max(self._max, omax)


def _label_text(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{k}="{v}"' for k, v in sorted(labels.items())
    )
    return "{" + inner + "}"


class MetricsRegistry:
    """Labelled counters, gauge callbacks, and histograms.

    * ``inc(name, labels)`` — monotonically increasing counters;
    * ``gauge(name, fn)`` — instantaneous values sampled at render
      time (queue depth, in-flight executions, cache occupancy);
    * ``observe(name, seconds, labels)`` — latency histograms rendered
      as Prometheus summaries (quantile series + ``_count``/``_sum``).

    ``render()`` produces the text exposition format.
    """

    def __init__(self, namespace: str = "repro_server") -> None:
        self.namespace = namespace
        self._lock = threading.Lock()
        self._counters: dict[tuple[str, str], float] = {}
        self._gauges: dict[tuple[str, str], Callable[[], float]] = {}
        self._histograms: dict[tuple[str, str], StreamingHistogram] = {}
        self._histogram_labels: dict[
            tuple[str, str], Mapping[str, str]
        ] = {}

    # ------------------------------------------------------------------
    def inc(
        self,
        name: str,
        labels: Mapping[str, str] | None = None,
        value: float = 1,
    ) -> None:
        key = (name, _label_text(labels or {}))
        with self._lock:
            self._counters[key] = self._counters.get(key, 0) + value

    def counter_value(
        self, name: str, labels: Mapping[str, str] | None = None
    ) -> float:
        with self._lock:
            return self._counters.get(
                (name, _label_text(labels or {})), 0
            )

    def gauge(
        self,
        name: str,
        fn: Callable[[], float],
        labels: Mapping[str, str] | None = None,
    ) -> None:
        """Register a gauge callback, optionally labelled.

        Labels support info-style families (``build_info{version=...,
        python=...} 1``) alongside the plain instantaneous gauges.
        """
        with self._lock:
            self._gauges[(name, _label_text(labels or {}))] = fn

    def observe(
        self,
        name: str,
        seconds: float,
        labels: Mapping[str, str] | None = None,
    ) -> None:
        labels = dict(labels or {})
        key = (name, _label_text(labels))
        with self._lock:
            histogram = self._histograms.get(key)
            if histogram is None:
                histogram = StreamingHistogram()
                self._histograms[key] = histogram
                self._histogram_labels[key] = labels
        histogram.record(seconds)

    def histogram(
        self, name: str, labels: Mapping[str, str] | None = None
    ) -> StreamingHistogram | None:
        with self._lock:
            return self._histograms.get(
                (name, _label_text(labels or {}))
            )

    def histograms(
        self, name: str
    ) -> Iterable[tuple[Mapping[str, str], StreamingHistogram]]:
        """All labelled series of one histogram family."""
        with self._lock:
            return [
                (self._histogram_labels[key], hist)
                for key, hist in self._histograms.items()
                if key[0] == name
            ]

    def is_empty(self) -> bool:
        """True when nothing has ever been registered or recorded."""
        with self._lock:
            return not (
                self._counters or self._gauges or self._histograms
            )

    # -- cross-process aggregation -------------------------------------
    def snapshot(self) -> dict:
        """JSON-safe state of every counter and histogram.

        Gauges are live callables bound to this process and are
        intentionally excluded.
        """
        with self._lock:
            counters = [
                [name, labels, value]
                for (name, labels), value in sorted(
                    self._counters.items()
                )
            ]
            histograms = [
                [
                    key[0],
                    key[1],
                    dict(self._histogram_labels[key]),
                    hist,
                ]
                for key, hist in sorted(self._histograms.items())
            ]
        return {
            "version": SNAPSHOT_VERSION,
            "namespace": self.namespace,
            "counters": counters,
            "histograms": [
                [name, text, labels, hist.to_dict()]
                for name, text, labels, hist in histograms
            ],
        }

    def merge_snapshot(self, snap: Mapping) -> None:
        """Fold a :meth:`snapshot` from another process into this one.

        Counters add; histograms merge bucket-wise (a histogram family
        not yet present here is adopted wholesale).
        """
        if snap.get("version") not in ACCEPTED_SNAPSHOT_VERSIONS:
            raise ValueError(
                f"unsupported metrics snapshot version: "
                f"{snap.get('version')!r}"
            )
        for name, labels, value in snap.get("counters", []):
            key = (name, labels)
            with self._lock:
                self._counters[key] = (
                    self._counters.get(key, 0) + value
                )
        for name, text, labels, hist_dict in snap.get(
            "histograms", []
        ):
            incoming = StreamingHistogram.from_dict(hist_dict)
            key = (name, text)
            with self._lock:
                existing = self._histograms.get(key)
                if existing is None:
                    self._histograms[key] = incoming
                    self._histogram_labels[key] = dict(labels)
                    continue
            existing.merge(incoming)

    # ------------------------------------------------------------------
    def render(self) -> str:
        """The Prometheus text exposition of everything registered."""
        ns = self.namespace
        lines: list[str] = []
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        for name in sorted({n for n, _ in counters}):
            lines.append(f"# TYPE {ns}_{name} counter")
            for (n, labels), value in sorted(counters.items()):
                if n == name:
                    lines.append(f"{ns}_{name}{labels} {_num(value)}")
        for name in sorted({n for n, _ in gauges}):
            lines.append(f"# TYPE {ns}_{name} gauge")
            for (n, labels), fn in sorted(gauges.items()):
                if n != name:
                    continue
                try:
                    value = fn()
                except Exception:
                    value = float("nan")
                lines.append(f"{ns}_{name}{labels} {_num(value)}")
        for name in sorted({n for n, _ in histograms}):
            lines.append(f"# TYPE {ns}_{name} summary")
            for (n, labels), hist in sorted(histograms.items()):
                if n != name:
                    continue
                for q in SUMMARY_QUANTILES:
                    q_labels = (
                        labels[:-1] + f',quantile="{q}"}}'
                        if labels
                        else f'{{quantile="{q}"}}'
                    )
                    lines.append(
                        f"{ns}_{name}{q_labels} {_num(hist.quantile(q))}"
                    )
                lines.append(
                    f"{ns}_{name}_count{labels} {hist.count}"
                )
                lines.append(
                    f"{ns}_{name}_sum{labels} {_num(hist.sum)}"
                )
                # Exact observed extremes and mean: bucket resolution
                # bounds the quantiles, but these never lie.
                lines.append(
                    f"{ns}_{name}_min{labels} "
                    f"{_num(hist.min if hist.min is not None else 0.0)}"
                )
                lines.append(
                    f"{ns}_{name}_max{labels} "
                    f"{_num(hist.max if hist.max is not None else 0.0)}"
                )
                lines.append(
                    f"{ns}_{name}_mean{labels} {_num(hist.mean)}"
                )
        return "\n".join(lines) + "\n"


def _num(value: float) -> str:
    """Prometheus-friendly number formatting (no exponent surprises)."""
    if value != value:  # NaN
        return "NaN"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def parse_prometheus(text: str) -> dict[str, dict[str, float]]:
    """Invert :meth:`MetricsRegistry.render` (client-side convenience).

    Returns ``{metric_name: {label_text: value}}`` where ``label_text``
    is the literal ``{...}`` section (empty string when unlabelled).
    """
    out: dict[str, dict[str, float]] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name_part, _, value_part = line.rpartition(" ")
        if "{" in name_part:
            name = name_part[: name_part.index("{")]
            labels = name_part[name_part.index("{"):]
        else:
            name, labels = name_part, ""
        try:
            out.setdefault(name, {})[labels] = float(value_part)
        except ValueError:
            continue
    return out


def relabel_prometheus(text: str, extra: Mapping[str, str]) -> str:
    """Stamp extra labels onto every sample of an exposition page.

    The cluster router scrapes each shard gateway's ``/metrics`` and
    republishes the union; without a distinguishing label the shards'
    identically-named series would collide. Sample lines gain the
    ``extra`` labels (merged before any existing ones, so readers that
    sum a family across all label sets — the loadgen attribution path —
    keep working unchanged); comment lines pass through untouched.
    """
    stamp = ",".join(
        f'{key}="{value}"' for key, value in sorted(extra.items())
    )
    if not stamp:
        return text
    out = []
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            out.append(line)
            continue
        name_part, sep, value_part = stripped.rpartition(" ")
        if not sep:
            out.append(line)
            continue
        if "{" in name_part:
            brace = name_part.index("{")
            rest = name_part[brace + 1:]
            name_part = name_part[:brace] + "{" + stamp + (
                "," + rest if rest != "}" else "}"
            )
        else:
            name_part = name_part + "{" + stamp + "}"
        out.append(f"{name_part} {value_part}")
    return "\n".join(out) + ("\n" if text.endswith("\n") else "")


# ---------------------------------------------------------------------
# Process-global default registry.
#
# Library code (the service pool, the update-phase model) records here
# without needing a registry threaded through every call. Each process
# gets its own instance; pool workers ship snapshot() back with their
# results and the parent merges. The server keeps its own registry for
# request-level telemetry and appends this one to /metrics — the
# namespaces differ ("repro" vs "repro_server"), so families never
# collide.

_default_lock = threading.Lock()
_default_registry: MetricsRegistry | None = None


def default_registry() -> MetricsRegistry:
    """This process's shared registry (namespace ``repro``)."""
    global _default_registry
    with _default_lock:
        if _default_registry is None:
            _default_registry = MetricsRegistry(namespace="repro")
        return _default_registry


def set_default_registry(
    registry: MetricsRegistry | None,
) -> MetricsRegistry | None:
    """Swap the process-global registry; returns the previous one.

    Pass ``None`` to reset (the next :func:`default_registry` call
    creates a fresh instance) — handy for test isolation.
    """
    global _default_registry
    with _default_lock:
        previous = _default_registry
        _default_registry = registry
        return previous
