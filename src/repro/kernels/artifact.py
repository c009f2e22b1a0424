"""Shared base for generated command-stream artifacts.

The three kernel generators (:mod:`repro.kernels.compiler`,
:mod:`repro.kernels.streams`, :mod:`repro.kernels.aos`) each produce a
dataclass wrapping a ``commands`` list. The derived scheduling views
live here once, each built on first access and then owned by the
artifact for its lifetime (the update model's stream cache keeps
artifacts alive across jobs):

* ``columnar`` — the stream's struct-of-arrays form
  (:class:`repro.dram.columnar.ColumnarStream`, with its CSR
  dependency adjacency), fed to the columnar engine. The stream object
  is what the engine memoizes schedules on, so caching it here is what
  makes re-profiling a cached kernel O(1).
* ``dependents`` — the dependent-command adjacency as Python lists
  (:func:`repro.dram.steady.build_dependents`), fed to the periodic
  engine's loop. Only periodic warm samples read it, so a stream the
  columnar loop schedules never builds it.
"""

from __future__ import annotations

from functools import cached_property

from repro.dram.columnar import ColumnarStream
from repro.dram.steady import build_dependents


class CommandStreamArtifact:
    """Mixin for generator outputs carrying a ``commands`` list.

    Subclasses are dataclasses defining ``commands: list[Command]``;
    this base deliberately declares no fields (dataclass machinery
    must not see annotations here).
    """

    @cached_property
    def dependents(self) -> list[list[int]]:
        """Dependent-command adjacency for the periodic engine,
        computed once per stream."""
        return build_dependents(self.commands)

    @cached_property
    def columnar(self) -> ColumnarStream:
        """Struct-of-arrays form of the stream, built once per
        artifact and shared by every schedule of it (the columnar
        engine memoizes issue cycles on this object)."""
        return ColumnarStream.from_commands(self.commands)
