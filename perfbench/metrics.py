"""The benchmark's metric names, units and how each is computed.

Every workload emits every metric, so each name means the same kind
of quantity on ``figures``, ``fullrow`` and ``serve``; README.md
gives the per-workload reading.  ``BENCHMARK.json`` lists the same
names and units; ``selfcheck.py`` asserts that the three agree.

Times and rates are emitted in reference-host units (see
``calibrate.py``).  The per-layer ones are scaled by the run's mean
calibration factor, itself reported as ``host.time_scale``.
"""

from __future__ import annotations

#: ``(name, unit)`` of every end-to-end metric (untraced run).
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_fraction", "ratio"),
    ("cold_p50_s", "s"),
    ("cold_per_s", "1/s"),
    ("hot_p50_s", "s"),
)

#: ``(name, unit)`` of every per-layer metric (traced run).  Seconds
#: and counts are per cold operation of the traced phase.
PER_LAYER = (
    ("kernels.build_s", "s"),
    ("kernels.build_calls", "count"),
    ("kernels.commands_built", "count"),
    ("kernels.columnar_s", "s"),
    ("dram.schedule_s", "s"),
    ("dram.schedule_calls", "count"),
    ("dram.commands_scheduled", "count"),
    ("dram.schedule_us_per_cmd", "us"),
    ("dram.validate_s", "s"),
    ("dram.validate_calls", "count"),
    ("dram.steady_fast_path_ratio", "ratio"),
    ("dram.steady_commands_replayed", "count"),
    ("dram.steady_commands_simulated", "count"),
    ("dram.steady_sweeps_extended", "count"),
    ("system.profile_s", "s"),
    ("system.profile_calls", "count"),
    ("system.profile_memo_hits", "count"),
    ("system.profile_unattributed_s", "s"),
    ("system.roofline_s", "s"),
    ("system.serialize_s", "s"),
    ("service.submit_s", "s"),
    ("service.cache_hits", "count"),
    ("service.cache_misses", "count"),
    ("service.cache_get_s", "s"),
    ("service.cache_put_s", "s"),
    ("service.spec_hash_s", "s"),
    ("server.request_s", "s"),
    ("server.queue_wait_s", "s"),
    ("server.execute_s", "s"),
    ("server.cache_hits", "count"),
    ("server.executions", "count"),
    ("server.coalesced", "count"),
    ("server.rejected", "count"),
    ("server.client_residual_s", "s"),
    ("experiments.fig9_s", "s"),
    ("experiments.fig11_s", "s"),
    ("experiments.fig12_s", "s"),
    ("experiments.other_s", "s"),
    ("loadgen.late_fraction", "ratio"),
    ("loadgen.sent", "count"),
    ("trace.cold_ops", "count"),
    ("trace.overhead_fraction", "ratio"),
    ("host.time_scale", "ratio"),
)

#: How a host-time scale factor applies to each unit.
_SCALED = {"s": 1, "us": 1, "1/s": -1}

#: Experiments folded into ``experiments.other_s``.
OTHER_EXPERIMENTS = ("tables", "fig2", "fig10", "fig13", "fig14")


def _emit(table, values: dict, scale: float) -> dict:
    missing = [name for name, _ in table if name not in values]
    if missing:
        raise KeyError(f"metrics not computed: {missing}")
    return {
        name: {
            "value": float(values[name]) * scale ** _SCALED.get(unit, 0),
            "unit": unit,
        }
        for name, unit in table
    }


def end_to_end(
    setup_s: float,
    peak_rss_mb: float,
    tally,
    cold_p50_s: float,
    hot_p50_s: float,
    cold_per_s: float,
) -> dict:
    """The untraced run's metrics, times already in reference seconds
    (see :mod:`calibrate`)."""
    return _emit(
        END_TO_END,
        {
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
            "ok_fraction": 1.0 - tally.failed / tally.attempted,
            "cold_p50_s": cold_p50_s,
            "cold_per_s": cold_per_s,
            "hot_p50_s": hot_p50_s,
        },
        1.0,
    )


def per_layer(
    totals: dict, cold_ops: int, extra: dict, scale: float
) -> dict:
    """The traced run's metrics from :func:`tracer.aggregate` totals,
    host times scaled by ``scale``.

    ``extra`` supplies what spans cannot: the steady-engine report,
    server ``/metrics`` deltas, load-generator figures and the tracing
    overhead (zero where a workload has none).
    """

    def get(layer: str, key: str = "time") -> float:
        return totals.get(layer, {}).get(key, 0)

    n = max(cold_ops, 1)
    scheduled = get("dram.schedule", "count")
    values = {
        "kernels.build_s": get("kernels.build") / n,
        "kernels.build_calls": get("kernels.build", "calls") / n,
        "kernels.commands_built": get("kernels.build", "count") / n,
        "kernels.columnar_s": get("kernels.columnar") / n,
        "dram.schedule_s": get("dram.schedule") / n,
        "dram.schedule_calls": get("dram.schedule", "calls") / n,
        "dram.commands_scheduled": scheduled / n,
        "dram.schedule_us_per_cmd": (
            1e6 * get("dram.schedule") / scheduled if scheduled else 0.0
        ),
        "dram.validate_s": get("dram.validate") / n,
        "dram.validate_calls": get("dram.validate", "calls") / n,
        "system.profile_s": get("system.profile") / n,
        "system.profile_calls": get("system.profile", "calls") / n,
        "system.profile_memo_hits": get("system.profile", "memo_hits") / n,
        "system.profile_unattributed_s": get("system.profile", "self") / n,
        "system.roofline_s": get("system.simulate", "self") / n,
        "system.serialize_s": get("system.serialize") / n,
        "service.submit_s": get("service.submit") / n,
        "service.cache_hits": get("service.cache_get", "count") / n,
        "service.cache_misses": (
            get("service.cache_get", "calls")
            - get("service.cache_get", "count")
        ) / n,
        "service.cache_get_s": get("service.cache_get") / n,
        "service.cache_put_s": get("service.cache_put") / n,
        "service.spec_hash_s": get("service.spec_hash") / n,
        "experiments.fig9_s": get("experiments.fig9") / n,
        "experiments.fig11_s": get("experiments.fig11") / n,
        "experiments.fig12_s": get("experiments.fig12") / n,
        "experiments.other_s": sum(
            get(f"experiments.{name}") for name in OTHER_EXPERIMENTS
        ) / n,
        "trace.cold_ops": cold_ops,
        "host.time_scale": scale,
    }
    for name, _ in PER_LAYER:
        if name.startswith(("dram.steady_", "server.", "loadgen.")):
            values[name] = 0.0
    values.update(extra)
    return _emit(PER_LAYER, values, scale)
