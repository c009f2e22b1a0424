"""Steady-state lock census over the perfbench ``fullrow`` grid and a
figure regeneration.

The ``fullrow`` grid profiles every optimizer x precision x timing
grade of the ``fullrow`` workload (3 x 4 x 2 = 24 configs) on all six
design points at 128 columns per stripe, once with the default engine
(the full stream scheduled with steady-state replay) and once with
``engine="periodic"`` (a warm sample extended in closed form, or the
full stream when the sample does not lock), and prints what each
model's :class:`~repro.obs.report.EngineReport` says: commands
simulated, replayed, prepared, validated and materialized (rows of
runs of two copies or more a whole-stream expansion wrote: 0 while
every consumer reads the tiled form), segment locks, warm runs, fast
paths and fallbacks by reason. The ``figures`` grid regenerates every
figure in-process from cold update models (the perfbench ``figures``
cold operation) and records the schedules run and the same command
counts, summed over the service's shared models. Every one of these
counts is deterministic: it depends on the code, never on the host.

Run:  PYTHONPATH=src python scripts/lock_census.py [--verbose]
      [--check benchmarks/lock_census.json | --write PATH]

``--check`` exits 1 on any difference from the checked-in totals (so
a change that makes either engine or the figure regeneration do more
work, or less, must update the record); ``--write`` records the
current totals.
"""

from __future__ import annotations

import argparse
import itertools
import json

from repro.dram.timing import PRESETS
from repro.obs.report import EngineReport
from repro.optim.precision import PRECISIONS
from repro.optim.registry import build_optimizer
from repro.system.design import DESIGN_ORDER
from repro.system.update_model import UpdatePhaseModel

OPTIMIZERS = ("sgd", "momentum_sgd", "nag")
MIXES = ("8/32", "16/32", "8/16", "32/32")
TIMINGS = ("DDR4-2133", "DDR4-3200")
COLUMNS = 128
CONFIGS = tuple(itertools.product(TIMINGS, OPTIMIZERS, MIXES))
ENGINES = ("columnar", "periodic")

#: The ``EngineReport`` counters the census records per engine.
COUNTERS = (
    "commands_simulated", "commands_replayed", "commands_prepared",
    "commands_validated", "commands_materialized", "lock_attempts",
    "locks_confirmed",
    "warm_runs", "fast_path", "fallback", "fallback_reasons",
)
#: The counters the ``figures`` grid records: schedules run, then the
#: ``EngineReport`` command counts.
FIGURE_COUNTERS = (
    "schedules", "commands_simulated", "commands_replayed",
    "commands_prepared", "commands_validated", "commands_materialized",
)


def census(engine: str, verbose: bool = False) -> dict:
    """The grid's totals of :data:`COUNTERS` under ``engine``."""
    total = EngineReport(engine=engine)
    for timing, optimizer, mix in CONFIGS:
        model = UpdatePhaseModel(
            timing=PRESETS[timing], columns_per_stripe=COLUMNS,
            engine=engine,
        )
        for design in DESIGN_ORDER:
            before = model.report.to_dict()
            model.profile(
                design, build_optimizer(optimizer), PRECISIONS[mix]
            )
            if verbose:
                _print_profile(
                    engine, design, optimizer, mix, timing, before,
                    model.report.to_dict(),
                )
        total.merge(model.report)
    counts = total.to_dict()
    return {name: counts[name] for name in COUNTERS}


def figures_census() -> dict:
    """:data:`FIGURE_COUNTERS` of one cold in-process figure
    regeneration, summed over the service's shared update models."""
    from repro.experiments.common import ExperimentContext
    from repro.experiments.runner import EXPERIMENTS
    from repro.service import pool

    pool.clear_model_cache()
    ctx = ExperimentContext(jobs=1)
    for run in EXPERIMENTS.values():
        run(ctx)
    total = EngineReport()
    for model in pool._MODELS.values():
        total.merge(model.report)
    pool.clear_model_cache()
    counts = total.to_dict()
    counts["schedules"] = sum(counts["scheduling_paths"].values())
    return {name: counts[name] for name in FIGURE_COUNTERS}


def _print_profile(engine, design, optimizer, mix, timing, before, after):
    sim, rep, built, checked, attempts, locks = (
        after[k] - before[k] for k in (
            "commands_simulated", "commands_replayed",
            "commands_prepared", "commands_validated",
            "lock_attempts", "locks_confirmed",
        )
    )
    cycles = sorted(
        int(q) for q, n in after["super_periods"].items()
        if n > before["super_periods"].get(q, 0)
    )
    print(
        f"{engine:8s} {design.value:11s} {optimizer:12s} {mix:6s} "
        f"{timing}  simulated {sim:6d}  replayed {rep:6d}  prepared "
        f"{built:6d}  validated {checked:6d}  unlocked segments "
        f"{attempts - locks}  sweeps per cycle {cycles}"
    )


def _differences(expected: dict, actual: dict) -> list[str]:
    out = []
    for grid, counts in actual.items():
        for name, got in counts.items():
            want = expected.get(grid, {}).get(name)
            if want != got:
                out.append(f"{grid} {name}: recorded {want}, now {got}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--verbose", action="store_true",
        help="one line per engine x design x config: counts and the "
             "lock cycles",
    )
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--check", metavar="PATH",
        help="exit 1 unless the totals equal this record's",
    )
    mode.add_argument("--write", metavar="PATH", help="record the totals")
    args = parser.parse_args(argv)
    totals = {engine: census(engine, args.verbose) for engine in ENGINES}
    for engine in ENGINES:
        counts = totals[engine]
        reasons = ", ".join(
            f"{reason} {n}"
            for reason, n in sorted(counts["fallback_reasons"].items())
        )
        print(f'engine="{engine}":')
        for name in COUNTERS[:-1]:
            print(f"  {name + ':':20s} {counts[name]}")
        print(f"  {'fallback_reasons:':20s} {reasons or 'none'}")
    totals["figures"] = figures_census()
    print("figures:")
    for name, count in totals["figures"].items():
        print(f"  {name + ':':20s} {count}")
    if args.write:
        with open(args.write, "w") as handle:
            json.dump(totals, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if args.check:
        with open(args.check) as handle:
            differences = _differences(json.load(handle), totals)
        for line in differences:
            print(f"MISMATCH {line}")
        if differences:
            return 1
        print(f"work counters equal {args.check}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
