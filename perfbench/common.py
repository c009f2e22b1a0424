"""Helpers shared by the benchmark's workloads."""

from __future__ import annotations

import contextlib
import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SRC = REPO / "src"
REFERENCE_PATH = HERE / "reference.json"
GOLDEN_PATH = REPO / "benchmarks" / "golden_fig9_resnet18.json"


class MissingProgram(RuntimeError):
    """The checkout does not hold the program's sources."""


def ensure_src() -> None:
    """Put ``src/`` on ``sys.path``, or raise :class:`MissingProgram`."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise MissingProgram(f"no program sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def digest(obj) -> str:
    """SHA-256 of the canonical JSON of ``obj`` (a ``to_dict()`` form)."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def golden_digest() -> str:
    """Digest of the checked-in Fig. 9 ResNet-18 golden result."""
    return digest(json.loads(GOLDEN_PATH.read_text()))


class Tally:
    """Operations attempted and failed (output mismatches included)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, ok: bool, what: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)
        return ok


class NoTrace:
    """Stand-in for :class:`tracer.Recorder` when not tracing."""

    def span(self, layer: str):
        return contextlib.nullcontext()

    def paused(self):
        return contextlib.nullcontext()


def vm_hwm_mb(pid="self") -> float:
    """Peak resident set (``VmHWM``) of process ``pid`` in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")
