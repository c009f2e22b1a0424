"""CLI: run the HTTP simulation gateway.

::

    repro-server --port 8037 --workers 4 --cache-dir .repro-cache
    python -m repro.server --port 0 --url-file /tmp/repro-server.url

``--port 0`` binds an ephemeral port; ``--url-file`` writes the final
base URL once the socket is bound, which is how scripts (and the CI
smoke job) discover where the server landed.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.errors import ConfigError
from repro.server.app import create_server
from repro.server.config import ServerConfig
from repro.service.config import add_execution_flags, execution_from_args


def _parser() -> argparse.ArgumentParser:
    defaults = ServerConfig()
    parser = argparse.ArgumentParser(
        prog="repro-server",
        description=(
            "Serve GradPIM training-step simulations over HTTP: "
            "POST /v1/jobs, GET /v1/jobs/{id}, GET /v1/results/{hash}, "
            "GET /healthz, GET /metrics."
        ),
    )
    parser.add_argument(
        "--host", default=defaults.host, help="bind address"
    )
    parser.add_argument(
        "--port",
        type=int,
        default=defaults.port,
        help="bind port (0 for an OS-assigned ephemeral port)",
    )
    parser.add_argument(
        "--queue-depth",
        type=int,
        default=defaults.queue_depth,
        metavar="N",
        help="max queued executions before 503 backpressure",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=defaults.workers,
        metavar="N",
        help="worker processes for batch execution (1 = in-thread)",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="persist results as JSON files under DIR",
    )
    parser.add_argument(
        "--cache-max-entries",
        type=int,
        default=defaults.cache_max_entries,
        metavar="N",
        help="bound on in-memory cached results (0 disables memory)",
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
        "--url-file",
        metavar="FILE",
        help="write the bound base URL to FILE once listening",
    )
    parser.add_argument(
        "--log-json",
        action="store_true",
        help=(
            "emit structured JSON logs on stderr (one object per "
            "line, with spec-hash correlation ids)"
        ),
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        config = ServerConfig(
            host=args.host,
            port=args.port,
            queue_depth=args.queue_depth,
            workers=args.workers,
            cache_dir=args.cache_dir,
            cache_max_entries=args.cache_max_entries,
            log_json=args.log_json,
            execution=execution_from_args(args),
            faults=args.faults,
        )
        server = create_server(config)
    except (ConfigError, OSError) as exc:
        print(f"cannot start server: {exc}", file=sys.stderr)
        return 2
    if args.url_file:
        Path(args.url_file).write_text(server.url + "\n")
    print(f"repro-server listening on {server.url}", file=sys.stderr)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    finally:
        server.stop()
    return 0


def entry() -> None:
    """Console-script entry point (``repro-server``)."""
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
