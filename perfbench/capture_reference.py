"""Regenerate ``reference.json``: the outputs every run is checked against.

Usage (from the repository root, on the commit whose outputs are the
reference)::

    python3 perfbench/capture_reference.py

Captures the SHA-256 of the ``figures`` stdout and of each experiment's
text, the canonical ``NetworkResult.to_dict()`` digest of every result a
figure regeneration stores in its cache, the canonical ``NetworkResult.to_dict()`` digest of every
``fullrow`` config, and — through a live server — the digests of the
hot specs' results and speedup summaries and of a seeded sample of
cold jobs (cold results do not depend on ``eta``; the sample must agree
on one digest).  Takes about a minute.
"""

from __future__ import annotations

import json
import random
import sys

from common import REFERENCE_PATH, digest, ensure_src, text_digest


def capture_figures() -> dict:
    import inproc

    ctx, texts = inproc.regenerate_figures()
    return {
        "stdout": text_digest(inproc.figures_stdout(texts)),
        "experiments": {name: text_digest(t) for name, t in texts.items()},
        "results": inproc.figures_results(ctx),
    }


def capture_fullrow() -> dict:
    import inproc

    out = {}
    for opt in inproc.OPTIMIZERS:
        for prec in inproc.PRECISIONS:
            for timing in inproc.TIMINGS:
                _, result = inproc.simulate_fullrow(opt, prec, timing)
                out[inproc.fullrow_config_id(opt, prec, timing)] = digest(
                    result.to_dict()
                )
    return out


def capture_serve(sample: int = 3) -> dict:
    import serve

    server = serve.ServerProcess(trace=False)
    try:
        server.wait_ready()
        client = server.client()
        hot, speedups = [], []
        for spec in serve.HOT_SPECS:
            job = serve._wait_job(client, spec)
            hot.append(digest(job["result"]))
            speedups.append(digest(job["speedups"]))
        eta = serve.EtaDraw(random.Random(0))
        cold = {digest(serve._wait_job(client, serve.cold_spec(eta()))["result"])
                for _ in range(sample)}
    finally:
        server.stop()
    if len(cold) != 1:
        raise RuntimeError(f"cold results depend on eta: {sorted(cold)}")
    return {"hot": hot, "hot_speedups": speedups, "cold": cold.pop()}


def main() -> int:
    ensure_src()
    reference = {
        "figures": capture_figures(),
        "fullrow": capture_fullrow(),
        "serve": capture_serve(),
    }
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
