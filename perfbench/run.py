"""The repo benchmark: one command, three workloads, every metric.

Usage (from the repository root)::

    python3 perfbench/run.py --workload figures --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload fullrow --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --workload serve --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` measures half the time untraced and half with layer
spans installed, and reports the per-layer metrics.  The last stdout
line is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (name → value and unit).  Times are host seconds scaled to
reference seconds by ``calibrate.py``; stderr gives the run's mean
scale.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import sys

from common import MissingProgram, ensure_src

WORKLOADS = ("figures", "fullrow", "serve")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help=argparse.SUPPRESS,  # internal: one timed set-up, then exit
    )
    return parser


def main(argv: list[str]) -> int:
    args = _parser().parse_args(argv)
    try:
        ensure_src()
    except MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        import inproc

        inproc.warm_up()
        print("ready", flush=True)
        return 0
    if args.workload is None:
        print("perfbench: --workload is required", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    if args.workload == "serve":
        import serve

        outcome = serve.run(args.seed, args.seconds, bool(args.trace))
    else:
        import inproc

        outcome = inproc.run(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )
    tally = outcome["tally"]
    print(f"perfbench: host time scale {outcome['scale']:.4f}", file=sys.stderr)
    for note in tally.notes:
        print(f"perfbench: failed: {note}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": outcome["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
