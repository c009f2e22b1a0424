"""Golden content digests of every generated update stream.

Each entry of ``stream_golden.json`` is a sha256 over one generated
stream's columnar form — every :class:`~repro.dram.columnar.ColumnarStream`
column, the dependency CSR, tags, scaler payloads — plus its
``StreamPeriod`` and the artifact's counters. The matrix spans the
Baseline (plain and fused), PIM (plain, ``fuse_quantize``, extended
ALU), AoS and AoS-PB generators over optimizers, all four precisions
and sample widths from 1 column (too short to tile) to a full row,
plus full-array (``n_params``) streams.

The digests are the exactness contract of stream generation: any
change to how a generator emits its stream must reproduce them
byte for byte. Regenerate the file only for an intended change to
stream content::

    PYTHONPATH=src python tests/kernels/test_stream_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.kernels.aos import AoSKernelGenerator
from repro.kernels.compiler import UpdateKernelCompiler
from repro.kernels.streams import BaselineStreamGenerator
from repro.optim.precision import PRECISIONS
from repro.optim.registry import build_optimizer

GOLDEN = Path(__file__).with_name("stream_golden.json")

WIDTHS = (1, 2, 3, 7, 32, 100, 128)
BASE_OPTIMIZERS = ("sgd", "momentum_sgd", "nag")
EXTENDED_OPTIMIZERS = ("adam", "rmsprop")

_COLUMNS = (
    "kind", "rank", "bankgroup", "bank", "row", "col", "channel",
    "scale_id", "dst_reg", "src_reg", "position", "issue_cycle",
    "dep_indptr", "dep_indices",
)


def _generators() -> dict:
    """Variant name -> ``build(optimizer, precision, width)``."""
    return {
        "baseline": lambda o, p, w: BaselineStreamGenerator().generate(
            o, p, columns_per_stripe=w
        ),
        "baseline-fused": lambda o, p, w: BaselineStreamGenerator().generate(
            o, p, columns_per_stripe=w, fused=True
        ),
        "pim": lambda o, p, w: UpdateKernelCompiler().compile(
            o, p, columns_per_stripe=w
        ),
        "pim-fuseq": lambda o, p, w: UpdateKernelCompiler().compile(
            o, p, columns_per_stripe=w, fuse_quantize=True
        ),
        "pim-ext": lambda o, p, w: UpdateKernelCompiler(
            extended_alu=True
        ).compile(o, p, columns_per_stripe=w),
        "aos": lambda o, p, w: AoSKernelGenerator().generate(
            o, p, columns_per_unit=w
        ),
        "aos-pb": lambda o, p, w: AoSKernelGenerator(per_bank=True).generate(
            o, p, columns_per_unit=w
        ),
    }


def _groups() -> list[tuple[str, str]]:
    """(variant, optimizer) pairs; one test each."""
    out = []
    for variant in _generators():
        names = (
            EXTENDED_OPTIMIZERS if variant == "pim-ext" else BASE_OPTIMIZERS
        )
        out.extend((variant, name) for name in names)
    return out


#: Full-array streams: (case id, builder).
_FULL_ARRAY = {
    "n_params=5000/baseline/momentum_sgd/8/32": lambda: (
        BaselineStreamGenerator().generate(
            build_optimizer("momentum_sgd"), PRECISIONS["8/32"],
            n_params=5000,
        )
    ),
    "n_params=5000/pim/momentum_sgd/8/32": lambda: (
        UpdateKernelCompiler().compile(
            build_optimizer("momentum_sgd"), PRECISIONS["8/32"],
            n_params=5000,
        )
    ),
}


def stream_digest(artifact) -> str:
    """sha256 over a generated stream's full content."""
    stream = artifact.columnar
    h = hashlib.sha256()
    h.update(str(stream.n).encode())
    for name in _COLUMNS:
        column = np.ascontiguousarray(getattr(stream, name))
        h.update(name.encode())
        h.update(str(column.dtype).encode())
        h.update(column.tobytes())
    h.update(json.dumps(stream.tags).encode())
    h.update(repr(stream.scalers).encode())
    h.update(repr(artifact.period).encode())
    meta = {
        name: getattr(artifact, name)
        for name in (
            "phase_counts", "reads", "writes", "n_hp_columns",
            "params_per_column", "n_columns", "n_units",
            "structure_bytes",
        )
        if hasattr(artifact, name)
    }
    h.update(json.dumps(meta, sort_keys=True).encode())
    return h.hexdigest()


def group_digests(variant: str, name: str) -> dict[str, str]:
    build = _generators()[variant]
    optimizer = build_optimizer(name)
    out = {}
    for precision_name, precision in PRECISIONS.items():
        for width in WIDTHS:
            artifact = build(optimizer, precision, width)
            key = f"{variant}/{name}/{precision_name}/w{width}"
            out[key] = stream_digest(artifact)
    return out


def _load() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize(
    "variant,name", _groups(), ids=[f"{v}-{n}" for v, n in _groups()]
)
def test_sampled_stream_digests(variant, name):
    expected = {
        key: value
        for key, value in _load()["digests"].items()
        if key.startswith(f"{variant}/{name}/")
    }
    assert len(expected) == len(PRECISIONS) * len(WIDTHS)
    actual = group_digests(variant, name)
    mismatched = sorted(k for k in expected if actual.get(k) != expected[k])
    assert not mismatched, f"stream content changed: {mismatched}"


def test_full_array_stream_digests():
    digests = _load()["digests"]
    for key, build in _FULL_ARRAY.items():
        assert stream_digest(build()) == digests[key], key


def test_golden_covers_the_matrix():
    digests = _load()["digests"]
    expected = len(_groups()) * len(PRECISIONS) * len(WIDTHS)
    assert len(digests) == expected + len(_FULL_ARRAY)


def _write() -> None:
    digests: dict[str, str] = {}
    for variant, name in _groups():
        digests.update(group_digests(variant, name))
    for key, build in _FULL_ARRAY.items():
        digests[key] = stream_digest(build())
    commit = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"],
        capture_output=True, text=True, check=False,
    ).stdout.strip()
    GOLDEN.write_text(
        json.dumps(
            {"captured_at_commit": commit, "digests": digests},
            indent=1, sort_keys=True,
        )
        + "\n"
    )


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        _write()
    else:
        sys.exit("usage: test_stream_golden.py --write")
