"""Minimal-size self-check of the benchmark.

Usage (from the repository root; takes about a minute)::

    python3 perfbench/selfcheck.py

Checks that ``BENCHMARK.json`` and ``metrics.py`` name the same
metrics with the same units, then runs every workload once untraced
and once traced at the smallest size, and checks that each run is
correct and emits exactly the metrics ``BENCHMARK.json`` lists for its
mode, each with its unit.  Exits non-zero on the first mismatch.
"""

from __future__ import annotations

import json
import subprocess
import sys

import metrics
from common import HERE, REPO

SECONDS = "1"


def declared(section: str) -> dict:
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def main() -> int:
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    expected = {
        0: declared("end_to_end"),
        1: declared("per_layer"),
    }
    if expected[0] != dict(metrics.END_TO_END):
        raise SystemExit("BENCHMARK.json end_to_end differs from metrics.py")
    if expected[1] != dict(metrics.PER_LAYER):
        raise SystemExit("BENCHMARK.json per_layer differs from metrics.py")
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", "0", "--seconds", SECONDS, "--trace", str(trace)],
                cwd=str(REPO), capture_output=True, text=True, timeout=180,
            )
            label = f"{workload} --trace {trace}"
            if out.returncode != 0:
                raise SystemExit(f"{label}: exit {out.returncode}\n{out.stderr}")
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                raise SystemExit(f"{label}: bad keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                raise SystemExit(f"{label}: incorrect run\n{out.stderr}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                raise SystemExit(f"{label}: metrics {got} != {expected[trace]}")
            print(f"ok  {label}: {len(got)} metrics, "
                  f"{result['attempted']} checked operations")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
