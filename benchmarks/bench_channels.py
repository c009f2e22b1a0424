"""Channel-scaling benchmark -> BENCH_channels.json.

Sweeps the channel count of the HBM2 substrate (1/2/4/8 independent
channels, each with its own command bus, data bus, and bank state
machines), measuring

* **architectural scaling** — the simulated update rate: channels
  partition the parameters, so ``seconds_per_param`` must scale by
  exactly ``1/channels`` and achieved internal bandwidth by
  ``channels``;
* **scheduling wall-clock** — one ``CommandScheduler.run`` over the
  channel-replicated stream (the serial per-channel partition path,
  recorded, not gated);
* **the channels=1 golden** — a ResNet-18 Fig. 9 ``NetworkResult``
  under the current defaults must serialize byte-identically to the
  checked-in pre-channel golden (``golden_fig9_resnet18.json``), and
  the multi-channel partitioning code path must reproduce the
  single-channel schedule bit-for-bit. These are the gates that make
  the whole channel dimension safe to ship.

Usage::

    PYTHONPATH=src python benchmarks/bench_channels.py           # full
    PYTHONPATH=src python benchmarks/bench_channels.py --quick   # CI

Exit status is non-zero when the channels=1 golden diverges, when the
architectural scaling is off, or when the partition path diverges.

JSON schema (``BENCH_channels.json``)::

    {
      "benchmark": "channels",
      "quick": bool,
      "timing": "HBM-like",
      "optimizer": "<name>",
      "columns_per_stripe": int,
      "fig9_channels1_identical": bool,
      "partition_path_identical": bool,
      "results": [
        {
          "channels": int,
          "n_commands": int,
          "schedule_s": float,
          "sim_ns_per_param": float,
          "rate_scaling_vs_one_channel": float,
          "achieved_internal_gbps": float,
          "peak_internal_gbps": float
        }, ...
      ],
      "summary": {
        "max_channels": int,
        "rate_scaling_at_max": float
      }
    }
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
from repro.dram.geometry import DeviceGeometry
from repro.dram.scheduler import CommandScheduler, replicate_across_channels
from repro.dram.timing import HBM_LIKE
from repro.models.zoo import build_network
from repro.optim.precision import PRECISION_8_32
from repro.optim.registry import build_optimizer
from repro.system.design import DESIGNS, DesignPoint
from repro.system.training import TrainingSimulator
from repro.system.update_model import UpdatePhaseModel

DESIGN = DesignPoint.GRADPIM_BUFFERED
OPTIMIZER = ("momentum_sgd", {
    "eta": 0.01, "alpha": 0.9, "weight_decay": 1e-4,
})


def _best_of(fn, repeats: int) -> float:
    best = math.inf
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
    finally:
        if gc_was_enabled:
            gc.enable()
    return best


def bench_channels(
    n_channels: int,
    columns_per_stripe: int,
    repeats: int,
    one_channel_rate: float | None,
) -> dict:
    """One channel count: simulated rates plus scheduling wall-clock."""
    optimizer = build_optimizer(*OPTIMIZER)
    geometry = DeviceGeometry(channels=n_channels)
    model = UpdatePhaseModel(
        timing=HBM_LIKE,
        geometry=geometry,
        columns_per_stripe=columns_per_stripe,
    )
    profile = model.profile(DESIGN, optimizer, PRECISION_8_32)

    config = DESIGNS[DESIGN]
    commands, _, _, _period, _art = model._build_stream(
        config, optimizer, PRECISION_8_32
    )
    if n_channels > 1:
        commands = replicate_across_channels(commands, n_channels)
    scheduler = CommandScheduler(
        HBM_LIKE,
        geometry,
        config.issue_model(geometry),
        per_bank_pim=config.per_bank_pim,
        data_bus_scope=config.data_bus_scope,
    )
    schedule_s = _best_of(lambda: scheduler.run(commands), repeats)
    rate = profile.seconds_per_param
    return {
        "channels": n_channels,
        "n_commands": len(commands),
        "schedule_s": schedule_s,
        "sim_ns_per_param": rate * 1e9,
        "rate_scaling_vs_one_channel": (
            one_channel_rate / rate if one_channel_rate else 1.0
        ),
        "achieved_internal_gbps": profile.internal_bandwidth / 1e9,
        "peak_internal_gbps": HBM_LIKE.peak_internal_bandwidth(
            geometry.bankgroups, geometry.ranks, n_channels
        )
        / 1e9,
    }


#: Pre-channel ResNet-18 Fig. 9 NetworkResult, captured from the seed
#: behavior and checked into the repo — the reference the channels=1
#: gate compares against (an in-process A/B of two current configs
#: could not catch a regression both of them share).
GOLDEN_PATH = Path(__file__).with_name("golden_fig9_resnet18.json")


def check_fig9_channels1() -> bool:
    """The fig9 golden: a channels=1 ResNet-18 run of the current
    defaults must be byte-identical to the checked-in pre-channel
    golden artifact."""
    simulator = TrainingSimulator(
        optimizer=build_optimizer(*OPTIMIZER),
        precision=PRECISION_8_32,
        update_model=UpdatePhaseModel(),
    )
    result = simulator.simulate(build_network("ResNet18"))
    payload = json.dumps(result.to_dict(), sort_keys=True).encode()
    golden = json.dumps(
        json.loads(GOLDEN_PATH.read_text()), sort_keys=True
    ).encode()
    return payload == golden


def check_partition_path_identity(columns_per_stripe: int) -> bool:
    """The multi-channel partitioning code path must reproduce the
    single-channel schedule bit-for-bit: the same stream scheduled on a
    channels=1 geometry (partitioning bypassed) and on a channels=2
    geometry with every command in channel 0 (partitioned, one empty
    channel) must carry identical issue cycles."""
    optimizer = build_optimizer(*OPTIMIZER)
    model = UpdatePhaseModel(
        timing=HBM_LIKE, columns_per_stripe=columns_per_stripe
    )
    config = DESIGNS[DESIGN]
    commands, _, _, _period, _art = model._build_stream(
        config, optimizer, PRECISION_8_32
    )
    results = []
    for geometry in (DeviceGeometry(), DeviceGeometry(channels=2)):
        scheduler = CommandScheduler(
            HBM_LIKE,
            geometry,
            config.issue_model(geometry),
            per_bank_pim=config.per_bank_pim,
            data_bus_scope=config.data_bus_scope,
        )
        results.append(scheduler.run(commands).issue_cycles())
    return results[0] == results[1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark multi-channel scheduling scaling."
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="fewer channel counts and repeats (the CI configuration)",
    )
    parser.add_argument(
        "--output", "-o", default="BENCH_channels.json",
        help="where to write the JSON record",
    )
    parser.add_argument(
        "--repeats", type=int, default=None,
        help="timing repeats per measurement (default: 2 quick, 3 full)",
    )
    args = parser.parse_args(argv)
    channel_counts = (1, 4) if args.quick else (1, 2, 4, 8)
    columns = 16 if args.quick else 32
    repeats = args.repeats or (2 if args.quick else 3)

    results = []
    one_channel_rate = None
    for n_channels in channel_counts:
        row = bench_channels(
            n_channels, columns, repeats, one_channel_rate
        )
        if n_channels == 1:
            one_channel_rate = row["sim_ns_per_param"] * 1e-9
        results.append(row)
        print(
            f"channels={n_channels:<2d} "
            f"schedule {row['schedule_s'] * 1e3:7.1f} ms  "
            f"rate x{row['rate_scaling_vs_one_channel']:4.2f}  "
            f"internal {row['achieved_internal_gbps']:6.1f} GB/s",
            file=sys.stderr,
        )
    golden_ok = check_fig9_channels1()
    print(
        f"fig9 channels=1 byte-identical to golden: {golden_ok}",
        file=sys.stderr,
    )
    partition_ok = check_partition_path_identity(columns)
    print(
        f"partition path reproduces single-channel schedule: "
        f"{partition_ok}",
        file=sys.stderr,
    )

    failures = []
    if not golden_ok:
        failures.append("fig9-channels1-golden")
    if not partition_ok:
        failures.append("partition-path-divergence")
    for row in results:
        expected = float(row["channels"])
        if abs(row["rate_scaling_vs_one_channel"] - expected) > 1e-6:
            failures.append(f"rate-scaling@{row['channels']}")

    payload = {
        "benchmark": "channels",
        "quick": args.quick,
        "timing": HBM_LIKE.name,
        "optimizer": OPTIMIZER[0],
        "precision": PRECISION_8_32.name,
        "columns_per_stripe": columns,
        "fig9_channels1_identical": golden_ok,
        "partition_path_identical": partition_ok,
        "results": results,
        "summary": {
            "max_channels": max(r["channels"] for r in results),
            "rate_scaling_at_max": max(
                r["rate_scaling_vs_one_channel"] for r in results
            ),
        },
    }
    write_record(args.output, payload)
    print(f"wrote {args.output}", file=sys.stderr)

    if failures:
        print(f"REGRESSION: {sorted(set(failures))}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
