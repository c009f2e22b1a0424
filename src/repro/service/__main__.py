"""CLI: submit JSON job files to the simulation service.

Job files name either an explicit job list or a sweep::

    {"jobs": [{"network": "ResNet50"}, {"network": "MLP1"}]}

    {"sweep": {"base": {"network": "ResNet50"},
               "axes": {"timing": ["DDR4-2133", "HBM-like"],
                        "precision": ["8/32", "32/32"]}}}

Results are emitted as JSON (stdout or ``--output``)::

    python -m repro.service jobs.json --jobs 4 --cache-dir .repro-cache

``repro-service cache-stats --cache-dir DIR`` reports the cache
configuration and a disk scan (entries, bytes, entries stranded by a
code-version bump) without running anything. Live hit/miss counters
appear in the ``cache`` block of every job run's output instead.

``--trace out.json`` (or the ``repro-service trace out.json jobs.json``
spelling) records a span trace of the whole run — submit, cache
lookups, pool dispatch, per-job model/stream builds, engine schedule,
validation, cache writes — and writes Chrome trace-event JSON loadable
in Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``.

``--no-validate`` forces ``validate: false`` onto every job: the
independent trace checker is skipped, trading the redundant cross-check
of each scheduled trace for sweep throughput (the scheduler itself is
property-tested against a reference implementation). Validated and
unvalidated runs hash — and therefore cache — separately.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro import faults
from repro.dram.scheduler import ENGINE_SPELLINGS
from repro.errors import ConfigError
from repro.obs.log import configure_json_logging
from repro.obs.trace import disable_tracing, enable_tracing
from repro.service.api import submit_many
from repro.service.cache import ResultCache
from repro.service.config import add_execution_flags, execution_from_args
from repro.service.spec import SimJobSpec
from repro.service.sweep import expand_grid, SweepResult


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-service",
        description=(
            "Run GradPIM training-step simulations from a JSON job "
            "file, with content-addressed caching and a worker pool."
        ),
    )
    parser.add_argument(
        "job_file",
        help="path to the JSON job file, or '-' to read stdin",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for cache misses (default: 1, serial)",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="persist results as JSON files under DIR",
    )
    parser.add_argument(
        "--output",
        "-o",
        metavar="FILE",
        help="write results to FILE instead of stdout",
    )
    parser.add_argument(
        "--summary-only",
        action="store_true",
        help="omit the full per-design result payloads",
    )
    parser.add_argument(
        "--no-validate",
        action="store_true",
        help=(
            "skip trace validation on every job (faster sweeps; the "
            "scheduler stays property-tested against its reference)"
        ),
    )
    parser.add_argument(
        "--engine",
        choices=tuple(ENGINE_SPELLINGS),
        default=None,
        help=(
            "force a scheduler engine onto every job (periodic = "
            "steady-state extrapolation; columnar = the exact loop, "
            "also spelled incremental or reference; all engines "
            "produce byte-identical results)"
        ),
    )
    parser.add_argument(
        "--channels",
        type=int,
        default=None,
        metavar="N",
        help=(
            "force every job onto an N-channel device (default: each "
            "job's own 'channels' field, falling back to its timing "
            "preset's physical channel count — 8 for HBM2)"
        ),
    )
    add_execution_flags(parser)
    parser.add_argument(
        "--faults",
        metavar="SPEC",
        default=None,
        help=(
            "arm a deterministic fault-injection plan, e.g. "
            "'seed=7;worker.kill:rate=0.1,attempts=1' (also read from "
            "the REPRO_FAULTS environment variable)"
        ),
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        help=(
            "record a span trace of the run and write Chrome "
            "trace-event JSON to FILE (open in Perfetto)"
        ),
    )
    parser.add_argument(
        "--log-json",
        action="store_true",
        help="emit structured JSON logs on stderr",
    )
    return parser


def _load_request(path: str) -> dict:
    text = (
        sys.stdin.read() if path == "-" else Path(path).read_text()
    )
    data = json.loads(text)
    if not isinstance(data, dict) or not (
        ("jobs" in data) ^ ("sweep" in data)
    ):
        raise ConfigError(
            "the job file must be an object with exactly one of "
            "'jobs' (a list of specs) or 'sweep' ({'base', 'axes'})"
        )
    return data


def _cache_stats_main(argv: Sequence[str]) -> int:
    """``repro-service cache-stats``: inspect a disk cache directory.

    Reports configuration plus the disk scan only. The live hit/miss
    counters (``ResultCache.stats()``) are process-local — a one-shot
    CLI has necessarily served nothing, so printing them here would
    always show zeros; job runs print them per invocation instead.
    """
    parser = argparse.ArgumentParser(
        prog="repro-service cache-stats",
        description=(
            "Report result-cache statistics: entry count, bytes, and "
            "entries stranded by a code-version bump."
        ),
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="the disk cache directory to scan (omit for memory-only)",
    )
    args = parser.parse_args(argv)
    cache = ResultCache(directory=args.cache_dir)
    stats = cache.stats()
    payload = {
        "max_entries": stats["max_entries"],
        "directory": stats["directory"],
    }
    payload.update(cache.disk_stats())
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _trace_main(argv: Sequence[str]) -> int:
    """``repro-service trace OUT.json JOB_FILE [options]``.

    Sugar for ``repro-service JOB_FILE --trace OUT.json [options]`` —
    a dedicated spelling for "run this job file and give me a
    Perfetto-loadable trace of everything that happened".
    """
    if len(argv) < 2 or argv[0].startswith("-"):
        print(
            "usage: repro-service trace OUT.json JOB_FILE [options]",
            file=sys.stderr,
        )
        return 2
    return main([argv[1], "--trace", argv[0], *argv[2:]])


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "cache-stats":
        return _cache_stats_main(list(argv[1:]))
    if argv and argv[0] == "trace":
        return _trace_main(list(argv[1:]))
    args = _parser().parse_args(argv)
    if args.jobs < 1:
        print("--jobs must be >= 1", file=sys.stderr)
        return 2
    if args.log_json:
        configure_json_logging()
    if args.faults is not None:
        try:
            faults.install(faults.FaultPlan.parse(args.faults))
        except ConfigError as exc:
            print(f"bad --faults: {exc}", file=sys.stderr)
            return 2
    else:
        faults.auto_install()
    try:
        service_config = execution_from_args(args)
    except ConfigError as exc:
        print(f"bad execution policy: {exc}", file=sys.stderr)
        return 2
    cache = ResultCache(directory=args.cache_dir)
    try:
        request = _load_request(args.job_file)
        if "sweep" in request:
            sweep = request["sweep"]
            specs = expand_grid(
                sweep.get("base", {}), sweep.get("axes", {})
            )
            axes = {k: list(v) for k, v in sweep.get("axes", {}).items()}
        else:
            specs = [SimJobSpec.from_dict(d) for d in request["jobs"]]
            axes = {}
    except (OSError, ValueError, ConfigError) as exc:
        print(f"bad job file: {exc}", file=sys.stderr)
        return 2
    if args.engine is not None:
        specs = [
            dataclasses.replace(s, engine=args.engine) for s in specs
        ]
    if args.no_validate:
        specs = [
            dataclasses.replace(s, validate=False) for s in specs
        ]
    if args.channels is not None:
        try:
            specs = [
                dataclasses.replace(s, channels=args.channels)
                for s in specs
            ]
        except ConfigError as exc:
            print(f"bad --channels: {exc}", file=sys.stderr)
            return 2

    tracer = enable_tracing() if args.trace else None
    try:
        results = submit_many(
            specs, jobs=args.jobs, cache=cache, config=service_config
        )
    finally:
        if tracer is not None:
            tracer.write(args.trace)
            disable_tracing()
            print(
                f"wrote {len(tracer.spans())} spans to {args.trace}",
                file=sys.stderr,
            )
    if axes:
        payload = SweepResult(axes=axes, jobs=results).to_dict(
            include_results=not args.summary_only
        )
    else:
        payload = {
            "n_jobs": len(results),
            "n_failures": sum(not r.ok for r in results),
            "jobs": [
                r.to_dict(include_result=not args.summary_only)
                for r in results
            ],
        }
    payload["cache"] = cache.stats()
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.output:
        Path(args.output).write_text(text + "\n")
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        print(text)
    return 0 if all(r.ok for r in results) else 1


def entry() -> None:
    """Console-script entry point (``repro-service``)."""
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
