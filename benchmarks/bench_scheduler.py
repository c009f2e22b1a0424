"""Scheduler engine benchmark -> BENCH_scheduler.json.

Times the reference greedy loop (the test-suite oracle,
``tests/oracle.py``) against the columnar engine and the periodic
engine on every design point of the paper's evaluation, verifies exact
equivalence with the oracle on each timed stream, and emits a JSON
record for the repo's performance trajectory.

Measurements per (design, window):

* ``run`` — one schedule of the design's compiled update stream: the
  oracle loop vs the columnar engine vs the periodic engine (with the
  stream's period metadata). The columnar engine is timed twice:
  *cold* (a fresh ``ColumnarStream`` per call, so preparation and the
  scheduling loop both run) and *warm* (one shared stream, the replay
  the service layer sees, where the issue-cycle memo turns scheduling
  into an O(n) copy).
* stream build — ``ColumnarStream.from_commands`` per design.
* ``profile`` — a cold end-to-end ``UpdatePhaseModel.profile()``
  (stream compile + schedule + vectorized trace validation + rate
  extraction) vs the same pipeline on the oracles (reference loop +
  family-by-family validator).
* equivalence — issue cycles and ``TraceStats`` of both engines must
  match the oracle exactly, and one ResNet-18 ``NetworkResult`` (the
  paper's Fig. 9 workload) must serialize byte-identically to the
  checked-in golden under both engines.

Usage::

    PYTHONPATH=src python benchmarks/bench_scheduler.py            # full
    PYTHONPATH=src python benchmarks/bench_scheduler.py --quick    # CI
    PYTHONPATH=src python benchmarks/bench_scheduler.py --large    # +1M
    PYTHONPATH=src python benchmarks/bench_scheduler.py \
        --baseline BENCH_scheduler.json         # gate vs checked-in

Exit status is non-zero when any design point schedules slower on the
columnar engine (cold) than on the oracle loop, when warm columnar
replay is below 10x over a cold run, when any equivalence check fails,
or (with ``--baseline``) when a summary speedup regresses more than
10% against the checked-in record — the CI benchmark job gates on this.

JSON schema (``BENCH_scheduler.json``)::

    {
      "benchmark": "scheduler",
      "quick": bool,
      "timing": "<DDR grade>",
      "optimizer": "<name>",
      "precision": "<mix>",
      "columns_per_stripe": int,
      "fig9_resnet_identical": bool,
      "results": [
        {
          "design": "<design point>",
          "window": int,
          "n_commands": int,
          "build_columnar_s": float,        # best-of-N, from_commands
          "columnar_nbytes": int,           # stream footprint
          "run_reference_s": float,         # best-of-N, oracle loop
          "run_columnar_cold_s": float,     # best-of-N, fresh stream
          "run_columnar_warm_s": float,     # best-of-N, memoized replay
          "run_periodic_s": float,          # best-of-N, steady engine
          "run_speedup": float,             # reference / columnar cold
          "columnar_warm_speedup": float,   # columnar cold / warm
          "periodic_speedup": float,        # columnar cold / periodic
          "profile_seed_s": float,          # oracle pipeline
          "profile_new_s": float,           # UpdatePhaseModel.profile
          "profile_speedup": float,
          "columnar_identical": bool,       # columnar vs oracle
          "periodic_identical": bool        # periodic vs oracle
        }, ...
      ],
      "large": {                            # only with --large
        "design": "<design point>",
        "n_commands": int, "reps": int,
        "build_columnar_s": float, "columnar_nbytes": int,
        "run_columnar_cold_s": float, "run_columnar_warm_s": float,
        "columnar_warm_speedup": float,
        "columnar_valid": bool              # vectorized validator
      },
      "summary": {
        "min_run_speedup": float,
        "min_columnar_warm_speedup": float,
        "min_profile_speedup": float,
        "pim_kernel_profile_speedup": float  # geomean, pim designs
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
from repro.dram.columnar import ColumnarStream
from repro.dram.commands import Command
from repro.dram.scheduler import CommandScheduler
from repro.dram.validator import validate_trace_columnar
from repro.errors import TimingViolation
from repro.models.zoo import build_network
from repro.optim.precision import PRECISION_8_32
from repro.optim.registry import build_optimizer
from repro.system.design import DESIGNS, DesignPoint, UPDATE_PIM_KERNEL
from repro.system.training import TrainingSimulator
from repro.system.update_model import UpdatePhaseModel

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from oracle import ReferenceScheduler, oracle_profile  # noqa: E402

OPTIMIZER = ("momentum_sgd", {
    "eta": 0.01, "alpha": 0.9, "weight_decay": 1e-4,
})

#: Warm columnar replay must beat a cold columnar run by at least this
#: factor (the memo's reason to exist).
COLUMNAR_WARM_GATE = 10.0

#: A summary speedup may not drop below this fraction of the baseline.
BASELINE_TOLERANCE = 0.9

#: Summary metrics compared against ``--baseline`` (ratios, so they
#: are stable across machines in a way absolute wall-clock times are
#: not). ``min_columnar_warm_speedup`` is deliberately absent: warm
#: replays complete in microseconds, so that ratio is dominated by
#: timer resolution and run-to-run noise — it is protected by the
#: absolute :data:`COLUMNAR_WARM_GATE` instead.
BASELINE_METRICS = (
    "min_run_speedup",
    "pim_kernel_profile_speedup",
)

#: Pre-channel ResNet-18 Fig. 9 NetworkResult, checked into the repo.
GOLDEN_PATH = Path(__file__).with_name("golden_fig9_resnet18.json")


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


def _identical(a, b) -> bool:
    return a.issue_cycles() == b.issue_cycles() and a.stats == b.stats


def _substrate(model, config, window: int) -> dict:
    return dict(
        timing=model.timing,
        geometry=model.geometry,
        issue_model=config.issue_model(model.geometry),
        per_bank_pim=config.per_bank_pim,
        window=window,
        data_bus_scope=config.data_bus_scope,
    )


def bench_design(design, window: int, repeats: int) -> dict:
    """Time one design point at one lookahead window."""
    config = DESIGNS[design]
    optimizer = build_optimizer(*OPTIMIZER)
    model = UpdatePhaseModel(window=window)
    commands, _, _, period, art = model._build_stream(
        config, optimizer, PRECISION_8_32
    )
    substrate = _substrate(model, config, window)
    reference = ReferenceScheduler(**substrate)
    columnar = CommandScheduler(engine="columnar", **substrate)
    periodic = CommandScheduler(engine="periodic", **substrate)
    dependents = art.dependents

    build_col_s = _best_of(
        lambda: ColumnarStream.from_commands(commands), repeats
    )
    stream = ColumnarStream.from_commands(commands)

    ref_result = reference.run(commands)
    col_identical = _identical(
        ref_result, columnar.run(commands, columnar=stream)
    )
    per_identical = _identical(
        ref_result,
        periodic.run(commands, dependents=dependents, period=period),
    )

    run_ref = _best_of(lambda: reference.run(commands), repeats)
    # Cold: a fresh stream per call defeats the issue-cycle memo.
    cold_streams = iter([
        ColumnarStream.from_commands(commands) for _ in range(repeats)
    ])
    run_col_cold = _best_of(
        lambda: columnar.run(commands, columnar=next(cold_streams)),
        repeats,
    )
    # Warm: the shared stream has already scheduled once above, so the
    # memo is populated — this is the artifact-replay steady state.
    run_col_warm = _best_of(
        lambda: columnar.run(commands, columnar=stream), repeats
    )
    run_per = _best_of(
        lambda: periodic.run(
            commands, dependents=dependents, period=period
        ),
        repeats,
    )

    # Cold end-to-end profile(): a fresh model per invocation so the
    # internal profile cache never hides the work being measured.
    prof_seed = _best_of(
        lambda: oracle_profile(
            UpdatePhaseModel(window=window), design, optimizer
        ),
        repeats,
    )
    prof_new = _best_of(
        lambda: UpdatePhaseModel(window=window).profile(design, optimizer),
        repeats,
    )
    return {
        "design": design.value,
        "window": window,
        "n_commands": len(commands),
        "build_columnar_s": build_col_s,
        "columnar_nbytes": stream.nbytes,
        "run_reference_s": run_ref,
        "run_columnar_cold_s": run_col_cold,
        "run_columnar_warm_s": run_col_warm,
        "run_periodic_s": run_per,
        "run_speedup": run_ref / run_col_cold,
        "columnar_warm_speedup": run_col_cold / max(run_col_warm, 1e-9),
        "periodic_speedup": run_col_cold / run_per,
        "profile_seed_s": prof_seed,
        "profile_new_s": prof_new,
        "profile_speedup": prof_seed / prof_new,
        "columnar_identical": col_identical,
        "periodic_identical": per_identical,
    }


def tile_commands(commands: list[Command], reps: int) -> list[Command]:
    """Tile a valid stream ``reps`` times with block-shifted deps.

    Each copy is internally identical to the original, with its
    dependency indices offset into its own block, so the tiled stream
    is schedulable whenever the original is (later copies' ACTs are
    structurally blocked on the open row until the earlier copy's
    final PRE closes it, which serializes copies per bank without ever
    deadlocking).
    """
    big = list(commands)
    base = len(commands)
    for k in range(1, reps):
        off = k * base
        for c in commands:
            big.append(
                Command(
                    c.kind, rank=c.rank, bankgroup=c.bankgroup,
                    bank=c.bank, row=c.row, col=c.col,
                    channel=c.channel, scale_id=c.scale_id,
                    dst_reg=c.dst_reg, src_reg=c.src_reg,
                    position=c.position,
                    deps=tuple(d + off for d in c.deps),
                    tag=c.tag, scaler=c.scaler,
                )
            )
    return big


def bench_large(target: int, window: int) -> dict:
    """Million-command synthetic stream on the columnar engine.

    The oracle is quadratic in stream length and is left out; the
    schedule is checked by the vectorized validator instead (the
    engine itself is equivalence-gated against the oracle on every
    design stream above).
    """
    design = DesignPoint.GRADPIM_BUFFERED
    config = DESIGNS[design]
    optimizer = build_optimizer(*OPTIMIZER)
    model = UpdatePhaseModel(window=window)
    seed_cmds, _, _, _period, _art = model._build_stream(
        config, optimizer, PRECISION_8_32
    )
    reps = max(1, target // len(seed_cmds))
    commands = tile_commands(seed_cmds, reps)

    t0 = time.perf_counter()
    stream = ColumnarStream.from_commands(commands)
    build_col_s = time.perf_counter() - t0

    substrate = _substrate(model, config, window)
    columnar = CommandScheduler(engine="columnar", **substrate)
    t0 = time.perf_counter()
    result = columnar.run(commands, columnar=stream)
    run_cold = time.perf_counter() - t0
    run_warm = _best_of(
        lambda: columnar.run(commands, columnar=stream), 3
    )
    try:
        validate_trace_columnar(
            result.columnar, model.timing, model.geometry,
            substrate["issue_model"].port_of_rank,
            per_bank_pim=config.per_bank_pim,
            data_bus_scope=config.data_bus_scope,
        )
        valid = True
    except TimingViolation:
        valid = False
    return {
        "design": design.value,
        "n_commands": len(commands),
        "reps": reps,
        "build_columnar_s": build_col_s,
        "columnar_nbytes": stream.nbytes,
        "run_columnar_cold_s": run_cold,
        "run_columnar_warm_s": run_warm,
        "columnar_warm_speedup": run_cold / max(run_warm, 1e-9),
        "columnar_valid": valid,
    }


def check_fig9_resnet() -> bool:
    """ResNet-18 NetworkResult must be byte-identical to the golden
    under both engines."""
    golden = json.dumps(
        json.loads(GOLDEN_PATH.read_text()), sort_keys=True
    ).encode()
    for engine in ("columnar", "periodic"):
        simulator = TrainingSimulator(
            optimizer=build_optimizer(*OPTIMIZER),
            precision=PRECISION_8_32,
            update_model=UpdatePhaseModel(engine=engine),
        )
        result = simulator.simulate(build_network("ResNet18"))
        payload = json.dumps(result.to_dict(), sort_keys=True).encode()
        if payload != golden:
            return False
    return True


def summarize(results: list[dict]) -> dict:
    """The record's ``summary`` block over ``results`` rows."""
    pim_rows = [
        r for r in results
        if DESIGNS[DesignPoint(r["design"])].update_kind
        == UPDATE_PIM_KERNEL
    ]
    return {
        "min_run_speedup": min(r["run_speedup"] for r in results),
        "min_columnar_warm_speedup": min(
            r["columnar_warm_speedup"] for r in results
        ),
        "min_profile_speedup": min(
            r["profile_speedup"] for r in results
        ),
        "pim_kernel_profile_speedup": math.exp(
            sum(math.log(r["profile_speedup"]) for r in pim_rows)
            / len(pim_rows)
        ),
    }


def check_baseline(
    results: list[dict], baseline_text: str
) -> list[str]:
    """Compare summary speedups against a checked-in record.

    The baseline summary is recomputed over its rows at the windows
    this run measured (profile speedups grow with the window, so a
    ``--quick`` run gates against the record's own window-16 rows).
    Returns a list of human-readable regression descriptions (empty
    when within tolerance). Ratios are compared, not wall-clock times,
    so records from different machines stay comparable.
    """
    windows = {r["window"] for r in results}
    base_rows = [
        r for r in json.loads(baseline_text).get("results", [])
        if r["window"] in windows
    ]
    if not base_rows:
        return []
    summary = summarize(results)
    base_summary = summarize(base_rows)
    regressions = []
    for key in BASELINE_METRICS:
        ours = summary.get(key)
        theirs = base_summary.get(key)
        if ours is None or theirs is None:
            continue
        if ours < BASELINE_TOLERANCE * theirs:
            regressions.append(
                f"{key}: {ours:.2f} < {BASELINE_TOLERANCE} * "
                f"{theirs:.2f} (baseline)"
            )
    return regressions


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the scheduler engines against the oracle."
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="one window, fewer repeats (the CI smoke configuration)",
    )
    parser.add_argument(
        "--output", "-o", default="BENCH_scheduler.json",
        help="where to write the JSON record",
    )
    parser.add_argument(
        "--repeats", type=int, default=None,
        help="timing repeats per measurement (default: 3 quick, 4 full)",
    )
    parser.add_argument(
        "--large", action="store_true",
        help="also time a ~million-command tiled synthetic stream "
             "on the columnar engine",
    )
    parser.add_argument(
        "--large-commands", type=int, default=1_000_000,
        help="target command count for --large (default: 1000000)",
    )
    parser.add_argument(
        "--baseline", default=None, metavar="RECORD",
        help="checked-in BENCH_scheduler.json to gate against: fail on "
             f"any summary speedup below {BASELINE_TOLERANCE:.0%} of "
             "the recorded value",
    )
    args = parser.parse_args(argv)
    windows = (16,) if args.quick else (8, 16, 32)
    repeats = args.repeats or (3 if args.quick else 4)
    # Read the baseline before we potentially overwrite it.
    baseline_record = None
    if args.baseline:
        baseline_record = Path(args.baseline).read_text()

    results = []
    for design in DESIGNS:
        for window in windows:
            row = bench_design(design, window, repeats)
            results.append(row)
            print(
                f"{row['design']:12s} w={window:<3d} "
                f"run {row['run_reference_s'] * 1e3:7.1f} -> "
                f"{row['run_columnar_cold_s'] * 1e3:6.1f} ms "
                f"(x{row['run_speedup']:4.1f})  "
                f"warm x{row['columnar_warm_speedup']:5.1f}  "
                f"periodic x{row['periodic_speedup']:4.1f}  "
                f"profile x{row['profile_speedup']:4.1f}  "
                f"identical={row['columnar_identical']}/"
                f"{row['periodic_identical']}",
                file=sys.stderr,
            )
    fig9_ok = check_fig9_resnet()
    print(f"fig9 ResNet-18 byte-identical: {fig9_ok}", file=sys.stderr)

    payload = {
        "benchmark": "scheduler",
        "quick": args.quick,
        "timing": "DDR4-2133",
        "optimizer": OPTIMIZER[0],
        "precision": PRECISION_8_32.name,
        "columns_per_stripe": 32,
        "fig9_resnet_identical": fig9_ok,
        "results": results,
        "summary": summarize(results),
    }
    if args.large:
        large = bench_large(args.large_commands, window=16)
        payload["large"] = large
        print(
            f"large {large['n_commands']} commands: "
            f"columnar cold {large['run_columnar_cold_s']:.2f}s, "
            f"warm {large['run_columnar_warm_s'] * 1e3:.0f}ms "
            f"(x{large['columnar_warm_speedup']:.1f}), "
            f"valid={large['columnar_valid']}",
            file=sys.stderr,
        )
    write_record(args.output, payload)
    print(f"wrote {args.output}", file=sys.stderr)

    failures = [
        r["design"] for r in results
        if r["run_speedup"] < 1.0
        or not r["columnar_identical"]
        or not r["periodic_identical"]
    ]
    if payload["summary"]["min_columnar_warm_speedup"] < (
        COLUMNAR_WARM_GATE
    ):
        failures.append(
            f"columnar-warm<{COLUMNAR_WARM_GATE:g}x"
        )
    if not fig9_ok:
        failures.append("fig9-resnet")
    if args.large and not payload["large"]["columnar_valid"]:
        failures.append("large-validation")
    if baseline_record is not None:
        # Compare against the pre-read text: the output above may have
        # overwritten the baseline path.
        regressions = check_baseline(results, baseline_record)
        for item in regressions:
            print(f"BASELINE REGRESSION: {item}", file=sys.stderr)
        failures.extend(regressions)
    if failures:
        print(
            f"REGRESSION: {sorted(set(failures))}", file=sys.stderr
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
