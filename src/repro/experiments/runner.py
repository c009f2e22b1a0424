"""Run the full evaluation: every table and figure, one report.

Usage::

    python -m repro.experiments.runner                # everything
    python -m repro.experiments.runner fig9 fig11     # a subset
    python -m repro.experiments.runner --jobs 4 fig9  # 4 workers
    python -m repro.experiments.runner --cache-dir .repro-cache
    python -m repro.experiments.runner --no-validate fig9

Simulations route through :mod:`repro.service`, so ``--jobs N`` fans
cache misses across worker processes and ``--cache-dir`` persists
results between invocations. Figure output (stdout) is byte-identical
regardless of worker count; progress/timing lines go to stderr.

``--no-validate`` skips the independent trace checker on every
profiled schedule — faster sweeps at the cost of the redundant
cross-check (the scheduler itself stays property-tested against its
reference implementation). Figure output is identical either way;
validated and unvalidated runs use separate cache entries.

``--trace out.json`` records a span trace of the whole run (submit →
pool dispatch → model/stream build → engine schedule → validate →
cache write) and writes Chrome trace-event JSON loadable in Perfetto.
"""

from __future__ import annotations

import sys
import time

from repro.dram.scheduler import ENGINE_SPELLINGS
from repro.experiments.common import ExperimentContext
from repro.experiments.fig2 import render_fig2, run_fig2
from repro.experiments.fig9 import render_fig9, run_fig9
from repro.experiments.fig10 import render_fig10, run_fig10
from repro.experiments.fig11 import render_fig11, run_fig11
from repro.experiments.fig12 import (
    render_fig12,
    run_fig12a,
    run_fig12b,
    run_fig12c,
    run_fig12d,
)
from repro.experiments.fig13 import render_fig13, run_fig13
from repro.experiments.fig14 import render_fig14, run_fig14
from repro.experiments.tables import render_tables
from repro.obs.trace import disable_tracing, enable_tracing
from repro.service.cache import ResultCache


def _run_fig12(ctx: ExperimentContext) -> str:
    return render_fig12(
        run_fig12a(ctx), run_fig12b(ctx), run_fig12c(ctx), run_fig12d(ctx)
    )


EXPERIMENTS = {
    "tables": lambda ctx: render_tables(),
    "fig2": lambda ctx: render_fig2(run_fig2(ctx)),
    "fig9": lambda ctx: render_fig9(run_fig9(ctx)),
    "fig10": lambda ctx: render_fig10(run_fig10(ctx)),
    "fig11": lambda ctx: render_fig11(run_fig11(ctx)),
    "fig12": _run_fig12,
    "fig13": lambda ctx: render_fig13(run_fig13(ctx)),
    "fig14": lambda ctx: render_fig14(run_fig14(ctx)),
}

USAGE = (
    "usage: python -m repro.experiments.runner "
    "[--jobs N] [--cache-dir DIR] [--no-validate] "
    "[--engine ENGINE] [--trace FILE] [figure ...]"
)

class _HelpRequested(ValueError):
    """-h/--help: print usage and exit 0, not 2."""


def parse_args(argv: list[str]):
    """Split argv into (figure names, jobs, cache_dir, validate,
    engine, trace) or raise ValueError."""
    names: list[str] = []
    jobs = 1
    cache_dir = None
    validate = True
    engine = "incremental"
    trace = None
    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg in ("-h", "--help"):
            raise _HelpRequested(USAGE)
        if arg == "--no-validate":
            validate = False
            i += 1
        elif arg.startswith("--jobs"):
            value, i = _flag_value(argv, i, "--jobs")
            try:
                jobs = int(value)
            except ValueError:
                raise ValueError(f"--jobs expects an integer, got {value!r}")
            if jobs < 1:
                raise ValueError("--jobs must be >= 1")
        elif arg.startswith("--cache-dir"):
            cache_dir, i = _flag_value(argv, i, "--cache-dir")
        elif arg.startswith("--engine"):
            engine, i = _flag_value(argv, i, "--engine")
            if engine not in ENGINE_SPELLINGS:
                raise ValueError(
                    f"--engine expects one of {tuple(ENGINE_SPELLINGS)}, "
                    f"got {engine!r}"
                )
        elif arg.startswith("--trace"):
            trace, i = _flag_value(argv, i, "--trace")
        elif arg.startswith("-"):
            raise ValueError(f"unknown option {arg!r}")
        else:
            names.append(arg)
            i += 1
    return names, jobs, cache_dir, validate, engine, trace


def _flag_value(argv: list[str], i: int, flag: str) -> tuple[str, int]:
    arg = argv[i]
    if arg == flag:
        if i + 1 >= len(argv):
            raise ValueError(f"{flag} expects a value")
        return argv[i + 1], i + 2
    if arg.startswith(flag + "="):
        return arg[len(flag) + 1:], i + 1
    raise ValueError(f"unknown option {arg!r}")


def main(argv: list[str]) -> int:
    """Entry point: run the selected (or all) experiments."""
    try:
        names, jobs, cache_dir, validate, engine, trace = parse_args(
            argv
        )
    except _HelpRequested as exc:
        print(exc)
        return 0
    except ValueError as exc:
        print(exc)
        print(USAGE)
        return 2
    names = names or list(EXPERIMENTS)
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {unknown}; choose from "
              f"{list(EXPERIMENTS)}")
        return 2
    ctx = ExperimentContext(
        jobs=jobs,
        validate=validate,
        engine=engine,
        cache=ResultCache(directory=cache_dir),
    )
    tracer = enable_tracing() if trace else None
    try:
        for name in names:
            start = time.time()
            print("=" * 72)
            print(EXPERIMENTS[name](ctx))
            print(
                f"[{name} done in {time.time() - start:.1f}s]",
                file=sys.stderr,
            )
    finally:
        if tracer is not None:
            tracer.write(trace)
            disable_tracing()
            print(
                f"wrote {len(tracer.spans())} spans to {trace}",
                file=sys.stderr,
            )
    return 0


def entry() -> None:
    """Console-script entry point (``repro-run``)."""
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
