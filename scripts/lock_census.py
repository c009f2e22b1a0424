"""Steady-state lock census over the perfbench ``fullrow`` grid.

Profiles every optimizer x precision x timing grade of the ``fullrow``
workload (3 x 4 x 2 = 24 configs) on all six design points at 128
columns per stripe, with the default engine (the full stream scheduled
with steady-state replay), and prints what the model's
:class:`~repro.obs.report.EngineReport` says: commands simulated and
replayed, and the stripe-periodic segments that never locked.

Run:  PYTHONPATH=src python scripts/lock_census.py [--verbose]
"""

from __future__ import annotations

import argparse

from repro.dram.timing import PRESETS
from repro.optim.precision import PRECISIONS
from repro.optim.registry import build_optimizer
from repro.system.design import DESIGN_ORDER
from repro.system.update_model import UpdatePhaseModel

OPTIMIZERS = ("sgd", "momentum_sgd", "nag")
MIXES = ("8/32", "16/32", "8/16", "32/32")
TIMINGS = ("DDR4-2133", "DDR4-3200")
COLUMNS = 128


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--verbose", action="store_true",
        help="one line per design x config: counts and the lock cycles",
    )
    args = parser.parse_args(argv)
    simulated = replayed = prepared = validated = unlocked = 0
    unlocked_configs = set()
    for timing in TIMINGS:
        for optimizer in OPTIMIZERS:
            for mix in MIXES:
                model = UpdatePhaseModel(
                    timing=PRESETS[timing], columns_per_stripe=COLUMNS
                )
                for design in DESIGN_ORDER:
                    before = model.report.to_dict()
                    model.profile(
                        design, build_optimizer(optimizer),
                        PRECISIONS[mix],
                    )
                    after = model.report.to_dict()
                    sim, rep, built, checked, misses = (
                        after[k] - before[k] for k in (
                            "commands_simulated", "commands_replayed",
                            "commands_prepared", "commands_validated",
                            "lock_attempts",
                        )
                    )
                    misses -= (
                        after["locks_confirmed"] - before["locks_confirmed"]
                    )
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
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
