"""Outside-in span recording around the public entry points of each layer.

Nothing inside ``src/repro`` is edited: :meth:`Recorder.install`
replaces each entry point named in :data:`TARGETS` with a timing
wrapper, and :meth:`Recorder.uninstall` puts the originals back.  A
span records its layer name, start, end, parent span and a count
(commands built or scheduled, or a cache hit).  Spans live in memory until
:func:`aggregate` folds them into per-layer totals:

* a layer's *time* counts only its outermost spans, so a layer that
  re-enters itself (``validate_trace_columnar`` falling back to
  ``validate_trace``) is not counted twice;
* a span's *self time* is its duration minus the time its direct
  children cover; ``UpdatePhaseModel.profile`` self time is the
  residual no named stage explains.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import threading
import time

#: ``(module, attribute path, layer)`` for every wrapped entry point.
#: Functions are also replaced wherever another loaded module imported
#: them by name, so callers holding the bare name are traced too.
TARGETS = (
    ("repro.kernels.compiler", "UpdateKernelCompiler.compile", "kernels.build"),
    ("repro.kernels.streams", "BaselineStreamGenerator.generate", "kernels.build"),
    ("repro.kernels.aos", "AoSKernelGenerator.generate", "kernels.build"),
    ("repro.kernels.artifact", "CommandStreamArtifact.columnar", "kernels.columnar"),
    ("repro.kernels.artifact", "CommandStreamArtifact.dependents", "kernels.columnar"),
    ("repro.dram.scheduler", "CommandScheduler.run", "dram.schedule"),
    ("repro.dram.validator", "validate_trace", "dram.validate"),
    ("repro.dram.validator", "validate_trace_columnar", "dram.validate"),
    ("repro.system.update_model", "UpdatePhaseModel.profile", "system.profile"),
    ("repro.system.training", "TrainingSimulator.simulate", "system.simulate"),
    ("repro.system.training", "NetworkResult.to_dict", "system.serialize"),
    ("repro.system.training", "NetworkResult.from_dict", "system.serialize"),
    ("repro.service.api", "submit", "service.submit"),
    ("repro.service.api", "submit_many", "service.submit"),
    ("repro.service.cache", "ResultCache.lookup", "service.cache_get"),
    ("repro.service.cache", "ResultCache.put", "service.cache_put"),
    ("repro.service.cache", "cache_key", "service.spec_hash"),
    ("repro.service.spec", "SimJobSpec.content_hash", "service.spec_hash"),
)

#: Layers whose firing inside a ``profile`` call means real work was
#: done (a profile call with none of them beneath it was a memo hit).
WORK_LAYERS = ("kernels.build", "kernels.columnar", "dram.schedule", "dram.validate")


def _count_commands(layer, args, kwargs, result):
    """Commands built or scheduled, or 1 for a result-cache hit."""
    if layer == "kernels.build":
        return len(result.commands)
    if layer == "dram.schedule":
        commands = args[1] if len(args) > 1 else kwargs.get("commands", ())
        return len(commands)
    if layer == "service.cache_get":
        return 1 if result is not None else 0
    return 0


class Recorder:
    """In-memory span store shared by every thread of one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()
        self._saved: list[tuple] = []

    # ------------------------------------------------------------------
    def span(self, layer: str):
        """Context manager recording one span from benchmark code."""
        return _Span(self, layer)

    @contextlib.contextmanager
    def paused(self):
        """Leave this thread's calls unrecorded inside the block (the
        benchmark's own output checks)."""
        self._local.paused = True
        try:
            yield
        finally:
            self._local.paused = False

    def _wrap(self, fn, layer: str):
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if getattr(recorder._local, "paused", False):
                return fn(*args, **kwargs)
            stack = recorder._stack()
            record = [layer, 0.0, 0.0, stack[-1] if stack else None, 0]
            stack.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
                recorder.spans.append(record)
            record[4] = _count_commands(layer, args, kwargs, result)
            return result

        return wrapper

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every entry point in :data:`TARGETS`."""
        import importlib
        from functools import cached_property

        for module_name, path, layer in TARGETS:
            module = importlib.import_module(module_name)
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, cached_property):
                    new = cached_property(self._wrap(raw.func, layer))
                    new.__set_name__(owner, attr)
                elif isinstance(raw, classmethod):
                    new = classmethod(self._wrap(raw.__func__, layer))
                else:
                    new = self._wrap(raw, layer)
                self._saved.append((owner, attr, raw))
                setattr(owner, attr, new)
            else:
                raw = getattr(module, path)
                new = self._wrap(raw, layer)
                # Replace the function under every name bound to it.
                for mod in list(sys.modules.values()):
                    for name, value in list(getattr(mod, "__dict__", {}).items()):
                        if value is raw:
                            self._saved.append((mod, name, raw))
                            setattr(mod, name, new)

    def uninstall(self) -> None:
        """Restore every original entry point."""
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    def take(self) -> list[list]:
        """Hand over the recorded spans and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


class _Span:
    def __init__(self, recorder: Recorder, layer: str) -> None:
        self.recorder = recorder
        self.record = [layer, 0.0, 0.0, None, 0]

    def __enter__(self):
        stack = self.recorder._stack()
        self.record[3] = stack[-1] if stack else None
        stack.append(self.record)
        self.record[1] = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.record[2] = time.perf_counter()
        self.recorder._stack().pop()
        self.recorder.spans.append(self.record)


def aggregate(spans: list[list]) -> dict:
    """Per-layer totals: ``time``, ``self``, ``calls``, ``count``.

    Also ``system.profile`` memo hits under ``memo_hits`` — profile
    calls beneath which no :data:`WORK_LAYERS` span fired.
    """
    totals: dict[str, dict] = {}
    child_time: dict[int, float] = {}
    worked: set[int] = set()
    for record in spans:
        parent = record[3]
        if parent is not None:
            key = id(parent)
            child_time[key] = child_time.get(key, 0.0) + record[2] - record[1]
            if record[0] in WORK_LAYERS:
                ancestor = parent
                while ancestor is not None:
                    worked.add(id(ancestor))
                    ancestor = ancestor[3]
    for record in spans:
        layer, start, end, parent, count = record
        entry = totals.setdefault(
            layer,
            {"time": 0.0, "self": 0.0, "calls": 0, "count": 0, "memo_hits": 0},
        )
        duration = end - start
        entry["calls"] += 1
        entry["count"] += count
        entry["self"] += duration - child_time.get(id(record), 0.0)
        ancestor, nested = parent, False
        while ancestor is not None:
            if ancestor[0] == layer:
                nested = True
                break
            ancestor = ancestor[3]
        if not nested:
            entry["time"] += duration
        if layer == "system.profile" and id(record) not in worked:
            entry["memo_hits"] += 1
    return totals

