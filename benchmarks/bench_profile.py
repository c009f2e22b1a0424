"""Update-phase profiling benchmark -> BENCH_profile.json.

Times ``UpdatePhaseModel.profile()`` cold — stream compilation,
scheduling, validation, everything — for the columnar engine against
the periodic steady-state engine (:mod:`repro.dram.steady`), across the
design points and a workload set. Both replay locked steady-state
sweeps in place: the columnar engine schedules the full sample stream
that way, the periodic engine one small warm sample (plus at most one
retry at a realigned width) whose profile it extends arithmetically.
Cells are timed at the default sample width (``columns_per_stripe=32``)
and the full-row width (128, the most accurate sample a row supports
and the regime sweeps use when accuracy matters).

Two hard gates make this benchmark CI-worthy; both are about
*exactness*, never about machine-dependent wall-clock:

* every periodic and columnar profile must be byte-identical to the
  profile the test-suite oracles imply (``tests/oracle.py``: the
  reference greedy loop plus the family-by-family validator);
* a fig9 ResNet-18 end-to-end run under both engines must serialize
  byte-identically to the checked-in golden artifact
  (``golden_fig9_resnet18.json``).

Speedups are recorded honestly per cell, with the fast-path /
fallback / warm-run accounting that explains them and the exact
work each engine did (the model's ``EngineReport``): commands
simulated and replayed, commands whose per-command loop lists were
built, and rows the validator's rule families ran over. A workload whose
machine cycle is longer than the warm sample (single-port GradPIM-DR
``sgd`` repeats only every 21 sweeps) cannot lock in it: after that one
warm run it falls back to the full-stream schedule, which locks and
replays as the columnar cell does, and records ~1x or below.
The headline target (>=10x on the PIM-kernel designs) is stored in the
record as aspiration alongside the measured geomeans.

Usage::

    PYTHONPATH=src python benchmarks/bench_profile.py           # full
    PYTHONPATH=src python benchmarks/bench_profile.py --quick   # CI
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys
import time
from pathlib import Path

from _record import write_record
from repro.models.zoo import build_network
from repro.optim.precision import PRECISIONS
from repro.optim.registry import build_optimizer
from repro.system.design import DESIGN_ORDER, DesignPoint
from repro.system.training import TrainingSimulator
from repro.system.update_model import UpdatePhaseModel

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from oracle import oracle_profile  # noqa: E402

#: The paper's default update algorithm.
MOMENTUM = ("momentum_sgd", {
    "eta": 0.01, "alpha": 0.9, "weight_decay": 1e-4,
})

#: Designs whose update phase runs as a GradPIM/AoS kernel — the
#: targets of the >=10x aspiration.
PIM_DESIGNS = (
    DesignPoint.GRADPIM_DIRECT,
    DesignPoint.GRADPIM_BUFFERED,
    DesignPoint.AOS,
    DesignPoint.AOS_PB,
)

#: Workloads beyond the paper default exercised by the full run.
EXTRA_WORKLOADS = (
    ("sgd", {}, "32/32"),
    ("adagrad", {}, "8/32"),
)

GOLDEN_PATH = Path(__file__).with_name("golden_fig9_resnet18.json")


def _best_of(fn, repeats: int):
    best = math.inf
    out = None
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            start = time.perf_counter()
            out = fn()
            elapsed = time.perf_counter() - start
            best = min(best, elapsed)
    finally:
        if gc_was_enabled:
            gc.enable()
    return best, out


def bench_cell(design, optimizer_name, optimizer_params, precision,
               columns, repeats):
    """Cold ``profile()`` for one design x workload x sample width."""
    results = {}
    times = {}
    reports = {}
    for engine in ("columnar", "periodic"):
        def run():
            model = UpdatePhaseModel(
                columns_per_stripe=columns,
                engine=engine,
                extended_alu=True,
            )
            profile = model.profile(
                design,
                build_optimizer(optimizer_name, optimizer_params),
                PRECISIONS[precision],
            )
            return model, profile
        times[engine], (model, profile) = _best_of(run, repeats)
        results[engine] = profile
        reports[engine] = model.report
    expected = oracle_profile(
        UpdatePhaseModel(columns_per_stripe=columns, extended_alu=True),
        design,
        build_optimizer(optimizer_name, optimizer_params),
        PRECISIONS[precision],
    )
    identical = results["columnar"] == results["periodic"] == expected
    columnar, periodic = reports["columnar"], reports["periodic"]
    return {
        "design": design.value,
        "optimizer": optimizer_name,
        "precision": precision,
        "columns_per_stripe": columns,
        "profile_columnar_s": times["columnar"],
        "profile_periodic_s": times["periodic"],
        "speedup": times["columnar"] / times["periodic"],
        "identical": identical,
        "fast_path": bool(periodic.fast_path),
        "warm_runs": periodic.warm_runs,
        "columnar_commands_simulated": columnar.commands_simulated,
        "columnar_commands_replayed": columnar.commands_replayed,
        "columnar_commands_prepared": columnar.commands_prepared,
        "columnar_commands_validated": columnar.commands_validated,
        "periodic_commands_simulated": periodic.commands_simulated,
        "periodic_commands_replayed": periodic.commands_replayed,
        "periodic_commands_prepared": periodic.commands_prepared,
        "periodic_commands_validated": periodic.commands_validated,
    }


def check_fig9_resnet18() -> bool:
    """fig9 under both engines must match the golden byte for byte."""
    payloads = {}
    for engine in ("columnar", "periodic"):
        simulator = TrainingSimulator(
            optimizer=build_optimizer(*MOMENTUM),
            precision=PRECISIONS["8/32"],
            update_model=UpdatePhaseModel(engine=engine),
        )
        result = simulator.simulate(build_network("ResNet18"))
        payloads[engine] = json.dumps(
            result.to_dict(), sort_keys=True
        ).encode()
    if payloads["columnar"] != payloads["periodic"]:
        return False
    golden = json.dumps(
        json.loads(GOLDEN_PATH.read_text()), sort_keys=True
    ).encode()
    return payloads["periodic"] == golden


def _geomean(values) -> float:
    values = list(values)
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark steady-state update-phase profiling."
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="paper-default workload only, one repeat (CI)",
    )
    parser.add_argument(
        "--output", "-o", default="BENCH_profile.json",
        help="where to write the JSON record",
    )
    parser.add_argument(
        "--repeats", type=int, default=None,
        help="timing repeats per cell (default: 1 quick, 3 full)",
    )
    args = parser.parse_args(argv)
    repeats = args.repeats or (1 if args.quick else 3)
    widths = (32, 128)
    workloads = [(*MOMENTUM, "8/32")]
    if not args.quick:
        workloads += list(EXTRA_WORKLOADS)

    rows = []
    failures = []
    for columns in widths:
        for design in DESIGN_ORDER:
            for name, params, precision in workloads:
                row = bench_cell(
                    design, name, params, precision, columns, repeats
                )
                rows.append(row)
                if not row["identical"]:
                    failures.append(
                        f"profile-mismatch@{design.value}/{name}/"
                        f"{precision}/k={columns}"
                    )
                print(
                    f"{design.value:11s} {name:12s} {precision:6s} "
                    f"k={columns:<3d} "
                    f"{row['profile_columnar_s'] * 1e3:7.1f} -> "
                    f"{row['profile_periodic_s'] * 1e3:7.1f} ms "
                    f"(x{row['speedup']:5.2f})  "
                    f"fast_path={row['fast_path']}  "
                    f"identical={row['identical']}",
                    file=sys.stderr,
                )

    fig9_ok = check_fig9_resnet18()
    print(
        f"fig9 ResNet-18 byte-identical (periodic vs columnar vs "
        f"golden): {fig9_ok}",
        file=sys.stderr,
    )
    if not fig9_ok:
        failures.append("fig9-resnet18-divergence")

    def cells(columns, designs=None, momentum_only=False):
        for row in rows:
            if row["columns_per_stripe"] != columns:
                continue
            if designs and row["design"] not in designs:
                continue
            if momentum_only and row["optimizer"] != MOMENTUM[0]:
                continue
            yield row["speedup"]

    pim_values = {d.value for d in PIM_DESIGNS}
    summary = {
        "speedup_target": 10.0,
        "pim_geomean_default_width": _geomean(
            cells(32, pim_values)
        ),
        "pim_geomean_full_row": _geomean(cells(128, pim_values)),
        "pim_geomean_full_row_momentum": _geomean(
            cells(128, pim_values, momentum_only=True)
        ),
        "all_identical": all(r["identical"] for r in rows),
        "fig9_identical": fig9_ok,
        "fast_path_cells": sum(1 for r in rows if r["fast_path"]),
        "periodic_warm_runs": sum(r["warm_runs"] for r in rows),
        "columnar_commands_simulated": sum(
            r["columnar_commands_simulated"] for r in rows
        ),
        "periodic_commands_simulated": sum(
            r["periodic_commands_simulated"] for r in rows
        ),
        "total_cells": len(rows),
    }
    summary["target_met_full_row"] = (
        summary["pim_geomean_full_row"] >= summary["speedup_target"]
    )
    print(
        "PIM geomean: "
        f"x{summary['pim_geomean_default_width']:.2f} @ k=32, "
        f"x{summary['pim_geomean_full_row']:.2f} @ k=128 "
        f"(momentum only: "
        f"x{summary['pim_geomean_full_row_momentum']:.2f}; "
        f"target x{summary['speedup_target']:.0f})",
        file=sys.stderr,
    )

    payload = {
        "benchmark": "profile",
        "quick": args.quick,
        "engineering_note": (
            "Gates are exactness-only: wall-clock depends on the host. "
            "The columnar cell schedules the full stream and replays "
            "its locked steady-state sweeps in place; the periodic "
            "cell extrapolates from one warm sample (retried once at a "
            "realigned width when a lock's machine cycle does not "
            "divide the extension). Cells without fast_path fell back "
            "to the full-stream schedule (the warm sample did not lock, "
            "e.g. a machine cycle longer than the sample), which "
            "replays like the columnar cell, and record ~1x or below "
            "honestly. *_commands_simulated/_replayed/"
            "_prepared/_validated are the exact EngineReport counts of "
            "each engine's profile."
        ),
        "results": rows,
        "summary": summary,
    }
    write_record(args.output, payload)
    print(f"wrote {args.output}", file=sys.stderr)

    if failures:
        print(f"REGRESSION: {sorted(set(failures))}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
