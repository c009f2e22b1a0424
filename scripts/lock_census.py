"""Steady-state lock census over the perfbench ``fullrow`` grid.

Profiles every optimizer x precision x timing grade of the ``fullrow``
workload (3 x 4 x 2 = 24 configs) on all six design points at 128
columns per stripe, with the default engine (the full stream scheduled
with steady-state replay), and prints what the model's
:class:`~repro.obs.report.EngineReport` says: commands simulated and
replayed, and the stripe-periodic segments that never locked. It then
profiles the same configs with ``engine="periodic"`` (a warm sample
extended in closed form, or the full stream when the sample does not
lock) and prints its fast paths, fallbacks by reason, warm runs, and
commands simulated, replayed and prepared.

Run:  PYTHONPATH=src python scripts/lock_census.py [--verbose]
"""

from __future__ import annotations

import argparse
import itertools

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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--verbose", action="store_true",
        help="one line per design x config: counts and the lock cycles",
    )
    args = parser.parse_args(argv)
    simulated = replayed = prepared = validated = unlocked = 0
    unlocked_configs = set()
    for timing, optimizer, mix in CONFIGS:
        model = UpdatePhaseModel(
            timing=PRESETS[timing], columns_per_stripe=COLUMNS
        )
        for design in DESIGN_ORDER:
            before = model.report.to_dict()
            model.profile(
                design, build_optimizer(optimizer), PRECISIONS[mix]
            )
            after = model.report.to_dict()
            sim, rep, built, checked, misses = (
                after[k] - before[k] for k in (
                    "commands_simulated", "commands_replayed",
                    "commands_prepared", "commands_validated",
                    "lock_attempts",
                )
            )
            misses -= after["locks_confirmed"] - before["locks_confirmed"]
            simulated += sim
            replayed += rep
            prepared += built
            validated += checked
            unlocked += misses
            if misses:
                unlocked_configs.add((timing, optimizer, mix))
            if args.verbose:
                cycles = sorted(
                    int(q) for q, n in after["super_periods"].items()
                    if n > before["super_periods"].get(q, 0)
                )
                print(
                    f"{design.value:11s} {optimizer:12s} {mix:6s} "
                    f"{timing}  simulated {sim:6d}  replayed "
                    f"{rep:6d}  prepared {built:6d}  validated "
                    f"{checked:6d}  unlocked segments {misses}  "
                    f"sweeps per cycle {cycles}"
                )
    print(f"commands simulated: {simulated}")
    print(f"commands replayed:  {replayed}")
    print(f"commands prepared:  {prepared}")
    print(f"commands validated: {validated}")
    print(
        f"unlocked segments:  {unlocked} "
        f"in {len(unlocked_configs)} configs"
    )
    periodic = EngineReport(engine="periodic")
    for timing, optimizer, mix in CONFIGS:
        model = UpdatePhaseModel(
            timing=PRESETS[timing], columns_per_stripe=COLUMNS,
            engine="periodic",
        )
        model.profiles(build_optimizer(optimizer), PRECISIONS[mix])
        periodic.merge(model.report)
    reasons = ", ".join(
        f"{reason} {n}"
        for reason, n in sorted(periodic.fallback_reasons.items())
    )
    print('engine="periodic":')
    print(f"  fast paths:         {periodic.fast_path}")
    print(f"  fallbacks:          {periodic.fallback} ({reasons or 'none'})")
    print(f"  warm runs:          {periodic.warm_runs}")
    print(f"  commands simulated: {periodic.commands_simulated}")
    print(f"  commands replayed:  {periodic.commands_replayed}")
    print(f"  commands prepared:  {periodic.commands_prepared}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
