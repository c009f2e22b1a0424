"""Unified observability for the simulation stack.

Every layer of the repo — the DRAM engines, the update-phase model, the
service pool, the HTTP gateway — reports through this package:

* :mod:`repro.obs.metrics` — streaming histograms and the Prometheus
  registry, plus a process-global default registry and
  cross-process snapshot/merge so pool workers' counters and latency
  histograms survive the process boundary.
* :mod:`repro.obs.trace` — span-based tracing: a context-manager API,
  thread- and process-aware span records, Chrome trace-event /
  Perfetto JSON export, and ingest of spans shipped back from worker
  processes. Disabled by default; the off path is a single module
  attribute check.
* :mod:`repro.obs.report` — :class:`EngineReport`, the scheduler-engine
  flight recorder: lock attempts, escalation rungs, super-periods,
  replayed-vs-simulated work, fallback *reasons*, and channel
  scheduling paths, serialized through the service envelope and
  aggregated into ``/metrics``.
* :mod:`repro.obs.log` — JSON structured logging with spec-hash
  correlation ids (``repro-server --log-json``).
* :mod:`repro.obs.loadgen` — open-loop load generation with
  coordinated-omission-safe latency recording, rate sweeps with
  saturation-knee detection, and per-stage cost attribution from
  ``/metrics`` diffs (``repro-loadgen``). Imported on demand, not
  re-exported here: it pulls in the HTTP client stack.
* :mod:`repro.obs.build` — :func:`~repro.obs.build.build_info`, the
  provenance stamp (code version, schema versions, python) published
  as the ``repro_server_build_info`` gauge and embedded in every
  ``LoadReport`` and benchmark record.

Everything here is stdlib-only and safe to import from worker
processes.
"""

from repro.obs.build import build_info
from repro.obs.log import (
    configure_json_logging,
    correlation_scope,
    get_correlation_id,
    get_logger,
    set_correlation_id,
)
from repro.obs.metrics import (
    MetricsRegistry,
    StreamingHistogram,
    default_registry,
    parse_prometheus,
    relabel_prometheus,
    set_default_registry,
)
from repro.obs.report import EngineReport
from repro.obs.trace import (
    Span,
    Tracer,
    active_tracer,
    disable_tracing,
    enable_tracing,
    instant,
    span,
    validate_chrome_trace,
)

__all__ = [
    "EngineReport",
    "MetricsRegistry",
    "Span",
    "StreamingHistogram",
    "Tracer",
    "active_tracer",
    "build_info",
    "configure_json_logging",
    "correlation_scope",
    "default_registry",
    "disable_tracing",
    "enable_tracing",
    "get_correlation_id",
    "get_logger",
    "instant",
    "parse_prometheus",
    "relabel_prometheus",
    "set_correlation_id",
    "set_default_registry",
    "span",
    "validate_chrome_trace",
]
