"""Shared base for generated command-stream artifacts and their emitters.

The three kernel generators (:mod:`repro.kernels.compiler`,
:mod:`repro.kernels.streams`, :mod:`repro.kernels.aos`) emit straight
into columns through a :class:`repro.dram.columnar.StreamBuilder`, and
each returns a dataclass holding the finished
:class:`~repro.dram.columnar.ColumnarStream` as ``stream`` from
construction. The views of it live here once:

* ``columnar`` — the stream itself, what the scheduler runs. The
  update model's stream cache keeps artifacts alive, so sibling
  designs and warm-sample retries share one build; finished profiles
  are memoized on the model, not the stream.
* ``commands`` — a read-only sequence view of
  :class:`~repro.dram.commands.Command` objects with O(1) ``len()``;
  the objects are materialized (:meth:`ColumnarStream.to_commands`)
  only when an element is first read. The functional executor, trace
  dumps and tests read it; no profile path does.
* ``dependents`` — the dependent-command adjacency as Python lists
  (read from the stream's transposed CSR), for callers that walk it
  per command; no engine reads it.

:class:`SweepEmitter` is the generators' shared emission base: row
tracking, period metadata and **sweep tiling**. A sampled stream (one
built with a :class:`~repro.dram.period.SegmentRecorder`) sweeps the
same per-column pattern round-robin over the stripes, one sweep after
another. At every sweep boundary the emitter fingerprints its state
with command indices and column values made relative; once the
fingerprints at three boundaries ``q`` sweeps apart agree — every
index entry either unchanged (it points before the periodic region)
or moved by exactly one block, unchanged ones all below moved ones —
every later sweep provably repeats the last block shifted, so the
builder records the rest of the segment body as copies of one block
(:meth:`StreamBuilder.tile`: the two emitted blocks and their copies
become one :class:`~repro.dram.columnar.TiledRun`, and no tiled row is
ever written). The emitter reads that block to advance its state by
the skipped blocks (:meth:`SweepEmitter._rebuild_accesses`) and
resumes command-by-command emission at the next phase. Sampled widths
never exceed one row, so a tiled body never crosses a row and column
addresses advance by a constant per sweep.
"""

from __future__ import annotations

import copy
from collections.abc import Sequence
from functools import cached_property
from typing import Callable, Iterator, Optional

import numpy as np

from repro.dram.columnar import BUILD_FIELDS, KIND_INDEX, StreamBuilder
from repro.dram.commands import COLUMN_COMMANDS, CommandType

#: Longest super-period (in sweeps) the tiler looks for.
MAX_SWEEPS_PER_BLOCK = 4

_KIND = BUILD_FIELDS.index("kind")
_RANK = BUILD_FIELDS.index("rank")
_BANKGROUP = BUILD_FIELDS.index("bankgroup")
_BANK = BUILD_FIELDS.index("bank")
_ACT = KIND_INDEX[CommandType.ACT]
_PRE = KIND_INDEX[CommandType.PRE]
_IS_COLUMN = np.array([k in COLUMN_COMMANDS for k in CommandType])


class CommandsView(Sequence):
    """Read-only ``Command`` sequence over a columnar stream.

    ``len()`` is O(1); the first element read materializes the whole
    list once (:meth:`ColumnarStream.to_commands`). Copies
    (``copy.copy`` / ``copy.deepcopy``) and concatenations are plain
    lists.
    """

    __slots__ = ("_stream", "_list")

    def __init__(self, stream) -> None:
        self._stream = stream
        self._list: Optional[list] = None

    def _commands(self) -> list:
        if self._list is None:
            self._list = self._stream.to_commands()
        return self._list

    def __len__(self) -> int:
        return self._stream.n

    def __getitem__(self, index):
        return self._commands()[index]

    def __iter__(self) -> Iterator:
        return iter(self._commands())

    def __eq__(self, other) -> bool:
        if isinstance(other, CommandsView):
            other = other._commands()
        return self._commands() == other

    __hash__ = None

    def __add__(self, other) -> list:
        return self._commands() + list(other)

    def __radd__(self, other) -> list:
        return list(other) + self._commands()

    def __copy__(self) -> list:
        return list(self._commands())

    def __deepcopy__(self, memo) -> list:
        return copy.deepcopy(self._commands(), memo)

    def __repr__(self) -> str:
        return f"CommandsView(n={self._stream.n})"


class CommandStreamArtifact:
    """Mixin for generator outputs carrying a columnar ``stream``.

    Subclasses are dataclasses whose first field is ``stream:
    ColumnarStream``; this base deliberately declares no fields
    (dataclass machinery must not see annotations here).
    """

    @cached_property
    def columnar(self):
        """The stream's columnar form, what the scheduler runs."""
        return self.stream

    @cached_property
    def commands(self) -> CommandsView:
        """The stream as ``Command`` objects, materialized on first
        element read."""
        return CommandsView(self.stream)

    @cached_property
    def dependents(self) -> list[list[int]]:
        """Dependent-command adjacency as Python lists, computed once
        per stream (the engines read the stream's CSR instead)."""
        stream = self.stream
        indptr = stream.out_indptr.tolist()
        indices = stream.out_indices.tolist()
        return [indices[indptr[i]:indptr[i + 1]] for i in range(stream.n)]

    @property
    def total_commands(self) -> int:
        return self.stream.n


def round_robin(
    columns: list[list[int]], group: int
) -> list[tuple[int, list[int]]]:
    """Interleave per-stripe column lists in chunks of ``group``.

    Returns (stripe, [hp columns]) pairs so consecutive entries target
    different stripes — the controller's per-bank-group queues.
    """
    out: list[tuple[int, list[int]]] = []
    position = [0] * len(columns)
    remaining = sum(len(c) for c in columns)
    while remaining:
        for s, cols in enumerate(columns):
            p = position[s]
            if p >= len(cols):
                continue
            chunk = cols[p : p + group]
            position[s] = p + len(chunk)
            remaining -= len(chunk)
            out.append((s, chunk))
    return out


def _classify(before, after, span: int) -> Optional[frozenset]:
    """Compare two state fingerprints one block apart.

    Returns the set of index values that stay put, or ``None`` unless
    the structures match, every index entry either stays put or moves
    by exactly ``span``, and every staying value lies below every
    moving one (so no later shift can make two entries collide).
    """
    structure_a, indices_a = before
    structure_b, indices_b = after
    if structure_a != structure_b or len(indices_a) != len(indices_b):
        return None
    fixed = set()
    lowest_moving = None
    for a, b in zip(indices_a, indices_b):
        if a == b:
            fixed.add(a)
        elif b - a == span:
            if lowest_moving is None or a < lowest_moving:
                lowest_moving = a
        else:
            return None
    if fixed and lowest_moving is not None and max(fixed) >= lowest_moving:
        return None
    return frozenset(fixed)


class SweepEmitter:
    """Columnar emission shared by the kernel generators.

    Owns the :class:`StreamBuilder`, the open-row table (rank,
    bankgroup, bank) -> ``[open_row, [access indices], act_index]``,
    the period metadata hooks and sweep tiling. Subclasses describe
    their own state to the tiler through :meth:`_fingerprint` and
    :meth:`_shift` (and :meth:`_count_tiled` for counters).
    """

    def __init__(self, geometry, recorder=None) -> None:
        self.geometry = geometry
        self.recorder = recorder
        self.out = StreamBuilder()
        self._rows: dict[tuple[int, int, int], list] = {}
        self._tag_act = self.out.template("act")
        self._tag_pre = self.out.template("pre")
        self._tag_pre_final = self.out.template("pre-final")
        self._columns_per_sweep = 1
        #: (command index, fingerprint) at each sweep boundary of the
        #: open segment; ``None`` once the segment has been tiled.
        self._bounds: Optional[list[tuple[int, tuple]]] = []

    # -- period metadata -----------------------------------------------
    def begin_segment(self, columns_per_sweep: int) -> None:
        """Open a periodic phase body for the sweep recorder."""
        if self.recorder is not None:
            self.recorder.begin(columns_per_sweep, self.out.n)
        self._columns_per_sweep = columns_per_sweep
        self._bounds = []

    def end_segment(self) -> None:
        """Close the open phase body (inter-phase commands belong to
        the next segment's prologue, not the previous segment's final
        sweep)."""
        if self.recorder is not None:
            self.recorder.end(self.out.n)

    def sweeps(self, entries: list, stride: int) -> Iterator[list]:
        """Yield round-robin ``entries`` one sweep (``stride`` entries,
        one pass over the stripes) at a time, recording each boundary;
        on a sampled stream, once the state locks, tile the remaining
        sweeps and stop early."""
        chunks = [
            entries[i:i + stride] for i in range(0, len(entries), stride)
        ]
        s = 0
        while s < len(chunks):
            if self.recorder is not None:
                self.recorder.sweep(self.out.n)
                tiled = self._try_tile(s, len(chunks))
                if tiled:
                    s += tiled
                    continue
            yield chunks[s]
            s += 1

    def _try_tile(self, sweep: int, total: int) -> int:
        """At the start of ``sweep`` of ``total``: tile the remaining
        whole blocks if the state has locked; returns sweeps tiled."""
        if self._bounds is None:  # this segment already tiled
            return 0
        here = self.out.n
        fingerprint = self._fingerprint(sweep * self._columns_per_sweep)
        self._bounds.append((here, fingerprint))
        for q in range(1, MAX_SWEEPS_PER_BLOCK + 1):
            copies = (total - sweep) // q
            if sweep < 2 * q or copies < 1:
                break
            start, first = self._bounds[sweep - 2 * q]
            mid, second = self._bounds[sweep - q]
            span = mid - start
            if here - mid != span:
                continue
            fixed = _classify(first, second, span)
            if fixed is None or _classify(second, fingerprint, span) != fixed:
                continue
            run = self.out.tile(start, span, copies)
            if run is None:
                continue
            shift = copies * span
            self._shift(
                lambda v: v if v in fixed else v + shift,
                copies * q * self._columns_per_sweep,
            )
            self._rebuild_accesses(run)
            self._count_tiled(run.block, copies)
            offsets = [b - mid for b, _ in self._bounds[sweep - q:sweep]]
            for k in range(copies):
                for t, offset in enumerate(offsets):
                    if k or t:  # the first boundary is already recorded
                        self.recorder.sweep(here + k * span + offset)
            self._bounds = None
            return copies * q
        return 0

    # -- state hooks -----------------------------------------------------
    def _fingerprint(self, column_base: int) -> tuple[tuple, list[int]]:
        """``(structure, indices)`` of the emitter state at a sweep
        boundary: ``structure`` holds everything but command indices,
        with column values made relative to ``column_base``;
        ``indices`` lists every command index the state holds, in a
        fixed order. The base covers the open-row table (access lists
        excluded: they grow every sweep and are rebuilt after a
        tile)."""
        structure = []
        indices = []
        for key in sorted(self._rows):
            entry = self._rows[key]
            structure.append((key, entry[0]))
            indices.append(entry[2])
        return tuple(structure), indices

    def _shift(self, move: Callable[[int], int], columns: int) -> None:
        """Advance the state past tiled blocks: ``move`` maps every held
        command index, ``columns`` is added to every column value."""
        for entry in self._rows.values():
            entry[2] = move(entry[2])

    def _count_tiled(self, block: np.ndarray, copies: int) -> None:
        """Account for ``copies`` tiled copies of ``block`` (rows whose
        shape fields every copy repeats)."""

    def _rebuild_accesses(self, run) -> None:
        """Bring each open row's access list up to date with the copies
        ``run`` tiled past its two emitted blocks (the accesses since the
        row's ACT), reading only its block: a bank the block activates
        keeps the last copy's accesses after that ACT, any other gains
        its accesses in every tiled copy."""
        block = run.block
        geom = self.geometry
        bank_id = (
            block[:, _RANK] * geom.bankgroups + block[:, _BANKGROUP]
        ) * geom.banks_per_group + block[:, _BANK]
        kinds = block[:, _KIND]
        accesses = np.flatnonzero(_IS_COLUMN[kinds])
        acts = np.flatnonzero(kinds == _ACT)
        copies = np.arange(run.start + 2 * run.span, run.end, run.span)
        for (rank, bankgroup, bank), entry in self._rows.items():
            key = (rank * geom.bankgroups + bankgroup) * (
                geom.banks_per_group
            ) + bank
            mine = accesses[bank_id[accesses] == key]
            opened = acts[bank_id[acts] == key]
            if len(opened):
                entry[1] = (mine[mine > opened[-1]] + copies[-1]).tolist()
            else:
                entry[1].extend((copies[:, None] + mine).ravel().tolist())

    # -- rows --------------------------------------------------------------
    def _open_row(self, rank: int, bankgroup: int, bank: int,
                  row: int) -> list[int]:
        """Ensure (bank, row) open; returns deps for the column access."""
        key = (rank, bankgroup, bank)
        entry = self._rows.get(key)
        deps: list[int] = []
        if entry is not None:
            open_row, accesses, act_index = entry
            if open_row == row:
                return [act_index]
            deps.append(self.out.append(
                (_PRE, rank, bankgroup, bank, open_row, 0, 0, 0, 0, 0,
                 self._tag_pre, 0, 0),
                tuple(accesses) if accesses else (act_index,),
            ))
        act = self.out.append(
            (_ACT, rank, bankgroup, bank, row, 0, 0, 0, 0, 0,
             self._tag_act, 0, 0),
            tuple(deps),
        )
        self._rows[key] = [row, [], act]
        return [act]

    def _record_access(self, key: tuple[int, int, int], index: int) -> None:
        self._rows[key][1].append(index)

    def close_all_rows(self) -> None:
        """Close every open row (pairing each ACT with a PRE)."""
        self.end_segment()
        for key in sorted(self._rows):
            open_row, accesses, act_index = self._rows[key]
            rank, bankgroup, bank = key
            self.out.append(
                (_PRE, rank, bankgroup, bank, open_row, 0, 0, 0, 0, 0,
                 self._tag_pre_final, 0, 0),
                tuple(accesses) if accesses else (act_index,),
            )
        self._rows.clear()

    def finish(self):
        """``(stream, period)``: the built stream and its period
        metadata (``None`` without a recorder)."""
        period = (
            self.recorder.finish(self.out.n)
            if self.recorder is not None
            else None
        )
        return self.out.build(), period
