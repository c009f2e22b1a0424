"""CLI: run the sharded serving tier.

::

    repro-cluster --shards 3 --cache-dir .repro-cache
    python -m repro.cluster --shards 2 --port 0 --url-file /tmp/cluster.url

The router binds ``--port`` (0 = ephemeral; ``--url-file`` publishes
the bound URL), spawns ``--shards`` supervised gateway children on
ephemeral ports, and serves the unchanged ``/v1`` protocol with
consistent-hash routing, graceful spill, and supervised failover.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.cluster.config import ClusterConfig
from repro.cluster.router import create_cluster
from repro.errors import ConfigError
from repro.service.config import add_execution_flags, execution_from_args


def _parser() -> argparse.ArgumentParser:
    defaults = ClusterConfig()
    parser = argparse.ArgumentParser(
        prog="repro-cluster",
        description=(
            "Serve GradPIM training-step simulations from a sharded "
            "cluster: a consistent-hash router in front of N "
            "supervised repro-server gateway processes."
        ),
    )
    parser.add_argument(
        "--host", default=defaults.host, help="bind address"
    )
    parser.add_argument(
        "--port",
        type=int,
        default=defaults.port,
        help="router bind port (0 for an OS-assigned ephemeral port)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=defaults.shards,
        metavar="N",
        help=f"shard gateway processes (default: {defaults.shards})",
    )
    parser.add_argument(
        "--probe-interval",
        type=float,
        default=defaults.probe_interval_seconds,
        metavar="SECONDS",
        help="supervisor readiness-probe cadence",
    )
    parser.add_argument(
        "--probe-timeout",
        type=float,
        default=defaults.probe_timeout_seconds,
        metavar="SECONDS",
        help="per-probe socket budget before it counts as a miss",
    )
    parser.add_argument(
        "--probe-misses",
        type=int,
        default=defaults.probe_misses,
        metavar="N",
        help="consecutive probe misses that declare a shard dead",
    )
    parser.add_argument(
        "--restart-budget",
        type=int,
        default=defaults.restart_budget,
        metavar="N",
        help=(
            "restarts granted per shard before it is declared a crash "
            "loop and parked (terminal FAILED state)"
        ),
    )
    parser.add_argument(
        "--restart-backoff",
        type=float,
        default=defaults.restart_backoff_seconds,
        metavar="SECONDS",
        help="base of the exponential restart backoff",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        help=(
            "shared content-addressed cache root for every shard "
            "(what makes failover byte-identical and usually free)"
        ),
    )
    parser.add_argument(
        "--shard-workers",
        type=int,
        default=defaults.shard_workers,
        metavar="N",
        help="worker processes inside each shard gateway",
    )
    parser.add_argument(
        "--shard-queue-depth",
        type=int,
        default=defaults.shard_queue_depth,
        metavar="N",
        help="per-shard dispatcher queue bound (503 past it)",
    )
    add_execution_flags(parser)
    parser.add_argument(
        "--faults",
        metavar="SPEC",
        default=None,
        help=(
            "arm a deterministic fault plan in the router/supervisor "
            "and every shard, e.g. 'seed=7;shard.kill:rate=1,max=1,"
            "after=10' (also read from REPRO_FAULTS)"
        ),
    )
    parser.add_argument(
        "--url-file",
        metavar="FILE",
        help="write the router's bound base URL to FILE once listening",
    )
    parser.add_argument(
        "--log-json",
        action="store_true",
        help="emit structured JSON logs on stderr",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        config = ClusterConfig(
            host=args.host,
            port=args.port,
            shards=args.shards,
            probe_interval_seconds=args.probe_interval,
            probe_timeout_seconds=args.probe_timeout,
            probe_misses=args.probe_misses,
            restart_budget=args.restart_budget,
            restart_backoff_seconds=args.restart_backoff,
            cache_dir=args.cache_dir,
            shard_workers=args.shard_workers,
            shard_queue_depth=args.shard_queue_depth,
            execution=execution_from_args(args),
            faults=args.faults,
            log_json=args.log_json,
        )
        cluster = create_cluster(config)
    except (ConfigError, OSError) as exc:
        print(f"cannot start cluster: {exc}", file=sys.stderr)
        return 2
    if args.url_file:
        Path(args.url_file).write_text(cluster.url + "\n")
    print(
        f"repro-cluster router listening on {cluster.url} "
        f"({config.shards} shards)",
        file=sys.stderr,
    )
    try:
        cluster.serve_forever()
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    finally:
        cluster.stop()
    return 0


def entry() -> None:
    """Console-script entry point (``repro-cluster``)."""
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
