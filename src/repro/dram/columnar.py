"""Columnar command streams, kept tiled, and the exact scheduling loop.

A :class:`ColumnarStream` is one command stream held as the ordered
pieces that tile it, all of one type: a :class:`TiledRun` is one block
of integer rows — opcode, rank, bankgroup, bank, row, channel, col,
operand fields, tag codes, issue cycle — with the dependency CSR of
its first copy, standing for ``copies`` copies of it, each copy's
column address (and column-valued tag arguments) advanced by a per-row
step and each dependency either kept (it points before the periodic
body) or moved one block per copy. A stretch of explicit rows is a run
of one copy. It is lossless: :meth:`ColumnarStream.from_commands` /
:meth:`ColumnarStream.to_commands` round-trip every
:class:`~repro.dram.commands.Command` field byte-identically, including
dependency tuples (order and duplicates preserved), tags and scaler
payloads. Kernel generators emit straight into it through a
:class:`StreamBuilder` (per-command integer rows, a flat CSR dependency
list, :class:`TagCodes` instead of tag strings); once a sampled
stream's sweeps lock, :meth:`StreamBuilder.tile` records the rest of
the segment body as one run of many copies instead of writing it, so a
full-row stream holds a few thousand rows however long it is
(:attr:`ColumnarStream.nbytes`). ``artifact.commands`` is only a view
that :meth:`ColumnarStream.to_commands` materializes on first read (see
:class:`repro.kernels.artifact.CommandStreamArtifact`).

Every consumer on the profile path reads the tiled form: per-range
accessors (:meth:`~ColumnarStream.rows`, :meth:`~ColumnarStream.take`,
:meth:`~ColumnarStream.deps`, :meth:`~ColumnarStream.edges` for
out-edges, by index arithmetic inside a run) and per-block aggregates
(each of :attr:`~ColumnarStream.pieces` stands for ``copies`` copies of
its block's shape). Only a run of two copies or more proves how the
stream repeats itself (:meth:`~ColumnarStream.translated`,
:meth:`~ColumnarStream.shape_repeats`). The full columns, the full
dependency and dependents CSRs, the tag strings and ``to_commands``
expand every run once, for cold consumers only (``Command`` lists,
channel splitting and replication, ``artifact.dependents``, tests), and
each expansion counts the rows of runs of two copies or more it wrote
in :attr:`ColumnarStream.materialized`, which the update model reports
as ``EngineReport.commands_materialized``.

:func:`schedule_columnar` is the simulator's one exact greedy FR-FCFS
loop, behind every :meth:`~repro.dram.scheduler.CommandScheduler.run`
(given period metadata, the run adds a
:class:`~repro.dram.steady.SteadyTracker` that replays locked
steady-state sweeps in place):

* **Per-run preparation.** Everything the issue loop needs per command
  — kind codes, completion latencies, flat bank/group/rank ids,
  read/write flags, floor-table slots, out-edges, per-port queue links,
  initial dependency refcounts — is derived from the stream during a
  run, and dropped when the run ends. Only the refcounts and ports
  become Python lists up front, block by block; the rest are filled
  chunk by chunk when first needed (:class:`_Prepared`), so commands a
  steady-state replay issues mostly never get them. No replayed
  command is written to a Python list: the issue vector is assembled
  with numpy from the replay records.

* **Vectorized validation and statistics.** Backward-dependency and
  rank/channel range checks run per run on its block alone (cached per
  geometry), and the :class:`~repro.dram.stats.TraceStats`
  counters are per-block ``bincount`` results times copies — every
  command issues exactly once, so they do not depend on the schedule
  at all.

The cold loop (:func:`_schedule_cold`) keeps the machine state in flat
Python lists and per-port queues as index-linked lists, and caches each
candidate's earliest cycle, the rank / data-bus floors and each port's
scan result. Exactness against the reference greedy loop kept in the
test suite is enforced by golden, hand-built and Hypothesis tests
(``tests/dram/test_engine_equivalence.py``); the tiled form against its
eager expansion by ``tests/dram/test_tiled.py``.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from operator import attrgetter
from typing import Optional, Sequence

import numpy as np

from repro.dram.commands import (
    Command,
    CommandType,
    EXTERNAL_COLUMN_COMMANDS,
    INTERNAL_COLUMN_COMMANDS,
    PIM_ALU_COMMANDS,
    READ_COMMANDS,
    WRITE_COMMANDS,
    command_latency,
)
from repro.dram.stats import TraceStats
from repro.errors import SimulationError

#: Direction-change bubble on the data bus, cycles (JEDEC's
#: back-to-back RD-to-WR gap; the larger WR-to-RD gap is enforced by
#: the tWTR rules at rank and bank-group level).
TURNAROUND_GAP = 2

# Command-kind classes driving the scheduling loop's earliest-cycle
# computation.
_ACT = 0
_PRE = 1
_INT_COL = 2
_EXT_COL = 3
_ALU = 4
_OTHER = 5  # REF / MRW: no state machine constrains them
#: Kind code of a static list slot :class:`_Prepared` has not built yet.
#: It matches no class, so the scan's recompute falls through to the
#: ``_OTHER`` branch, which builds the slot's chunk and revisits it.
_UNBUILT = 6
#: Queue-link slot :class:`_Prepared` has not linked yet: neither a
#: command index nor the ``-1`` that ends a queue.
_UNLINKED = -2

# Cached-cycle encoding in the cold loop: ``_BLOCKED`` marks a candidate
# that cannot issue until some other command does (closed or wrong row);
# an RD / WR caches ``_RW_BASE - e`` (always below ``_BLOCKED``), so one
# sign test sends only those two cases off the common path.
_BLOCKED = -1
_RW_BASE = -2


def _kind_class(kind: CommandType) -> int:
    if kind is CommandType.ACT:
        return _ACT
    if kind is CommandType.PRE:
        return _PRE
    if kind in INTERNAL_COLUMN_COMMANDS:
        return _INT_COL
    if kind in EXTERNAL_COLUMN_COMMANDS:
        return _EXT_COL
    if kind in PIM_ALU_COMMANDS:
        return _ALU
    return _OTHER


_KIND_CODE: dict[CommandType, int] = {
    k: _kind_class(k) for k in CommandType
}

#: Canonical kind <-> small-integer encoding (enum definition order).
KIND_ORDER: tuple[CommandType, ...] = tuple(CommandType)
KIND_INDEX: dict[CommandType, int] = {k: i for i, k in enumerate(KIND_ORDER)}

# Static per-kind lookup tables indexed by the kind code above.
_KC_TABLE = np.array([_KIND_CODE[k] for k in KIND_ORDER], dtype=np.int64)
_ISRD_TABLE = np.array(
    [1 if k in READ_COMMANDS else 0 for k in KIND_ORDER], dtype=np.int64
)
_ISWR_TABLE = np.array(
    [1 if k in WRITE_COMMANDS else 0 for k in KIND_ORDER], dtype=np.int64
)


def _latency_table(timing) -> np.ndarray:
    """Per-kind completion latency, indexed by kind code."""
    return np.array(
        [command_latency(k, timing) for k in KIND_ORDER], dtype=np.int64
    )


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


#: Per-command integer fields of a :class:`StreamBuilder` row, in order
#: (the last three are the :class:`TagCodes` columns).
BUILD_FIELDS = (
    "kind", "rank", "bankgroup", "bank", "row", "col", "scale_id",
    "dst_reg", "src_reg", "position", "tag", "tag_a", "tag_b",
)
#: Every per-command integer field of a stream, in the column order of
#: its row matrices. The first :data:`SHAPE` of them are the stream's
#: *shape*: what scheduling and validation read, and what every copy of
#: a tiled run repeats exactly.
FIELDS = (
    "kind", "rank", "bankgroup", "bank", "row", "channel", "col",
    "scale_id", "dst_reg", "src_reg", "position", "tag", "tag_a", "tag_b",
    "issue_cycle",
)
SHAPE = 6
_F = {name: i for i, name in enumerate(FIELDS)}
KIND, RANK, BANKGROUP, BANK, ROW, CHANNEL = range(SHAPE)
_TAG, _TAG_A, _TAG_B = _F["tag"], _F["tag_a"], _F["tag_b"]

#: Fields a tiled run may advance from one copy to the next (the column
#: address and the column-valued tag arguments); every other field must
#: repeat exactly.
_AFFINE_FIELDS = frozenset({"col", "tag_a", "tag_b"})
_FIXED_FIELD_MASK = np.array([name not in _AFFINE_FIELDS for name in FIELDS])
_AFFINE = np.flatnonzero(~_FIXED_FIELD_MASK)
_FIXED_BUILD_MASK = np.array(
    [name not in _AFFINE_FIELDS for name in BUILD_FIELDS]
)

#: The dtype each full column materializes with.
_DTYPES = {
    "kind": np.int16, "row": np.int64, "col": np.int64,
    "issue_cycle": np.int64,
}


def _widen(rows: np.ndarray, issue: int) -> np.ndarray:
    """:data:`BUILD_FIELDS` rows as :data:`FIELDS` rows (channel 0,
    issue cycle ``issue``)."""
    out = np.empty((len(rows), len(FIELDS)), dtype=np.int64)
    out[:, :CHANNEL] = rows[:, :CHANNEL]
    out[:, CHANNEL] = 0
    out[:, CHANNEL + 1:-1] = rows[:, CHANNEL:]
    out[:, -1] = issue
    return out


#: The ``moving_from`` of a run none of whose dependencies moves.
_NO_MOVE = 1 << 62


def _ragged(ptr: np.ndarray, r: np.ndarray):
    """``(counts, entries)`` of CSR rows ``r``: each row's entry count and
    the flat entry indices of all of them, in order."""
    lo = ptr[r]
    counts = ptr[r + 1] - lo
    total = int(counts.sum())
    if not total:
        return counts, np.zeros(0, dtype=np.int64)
    ends = np.cumsum(counts)
    return counts, np.repeat(lo - ends + counts, counts) + np.arange(total)


class TiledRun:
    """``copies`` copies of one block of ``span`` commands from stream
    index ``start`` on: the one piece of a :class:`ColumnarStream`.

    Copy ``k`` of block row ``p`` (stream index ``start + k * span +
    p``) is ``block[p] + k * step[p]``, a :data:`FIELDS` row; only the
    affine fields (column address, tag arguments) may step, so every
    shape field repeats exactly. Its dependencies are copy 0's
    (``dep_counts`` per row, flat ``dep_indices``): one pointing at or
    past ``moving_from`` moves one block per copy (it points into the
    periodic body), one below it is kept (it points before the body).
    An explicit stretch of rows is a run of one copy: nothing steps and
    nothing moves.

    The out-edges of a target range are index arithmetic
    (:meth:`edges`): a kept dependency points at one command from
    every copy, a moving one at a command one block further per copy.
    The dependencies are grouped by target on the first call and kept
    as ``int32`` pairs, like the ``int32`` dependency list itself.
    """

    __slots__ = (
        "start", "span", "copies", "end", "block", "step", "dep_counts",
        "dep_ptr", "dep_indices", "moving_from", "_edges",
    )

    def __init__(self, start, block, dep_counts, dep_indices, copies=1,
                 step=None, moving_from=None) -> None:
        self.start, self.copies = int(start), int(copies)
        self.block = _freeze(np.asarray(block, dtype=np.int64))
        self.span = len(self.block)
        self.end = self.start + self.span * self.copies
        self.dep_counts = _freeze(np.asarray(dep_counts, dtype=np.int64))
        self.dep_indices = _freeze(np.asarray(dep_indices, dtype=np.int32))
        ptr = np.zeros(self.span + 1, dtype=np.int64)
        np.cumsum(self.dep_counts, out=ptr[1:])
        self.dep_ptr = _freeze(ptr)
        shape = (self.span, len(FIELDS))
        if step is None:
            step = np.zeros(shape, dtype=np.int64)
        step = np.asarray(step, dtype=np.int64)
        if (self.span < 1 or self.copies < 1 or self.block.shape != shape
                or step.shape != shape
                or len(self.dep_counts) != self.span
                or len(self.dep_indices) != ptr[-1]):
            raise ValueError("inconsistent tiled run")
        if step[:, _FIXED_FIELD_MASK].any():
            raise ValueError("a tiled run may step only its affine fields")
        #: Per block row, the affine fields' advance per copy.
        self.step = _freeze(np.ascontiguousarray(step[:, _AFFINE]))
        #: The lowest dependency target that moves with the block.
        self.moving_from = _NO_MOVE if moving_from is None else int(
            moving_from
        )
        self._edges = None

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in (
            self.block, self.step, self.dep_counts, self.dep_ptr,
            self.dep_indices, *(self._edges or ())[:4],
        ))

    @property
    def moves(self) -> np.ndarray:
        """Per dependency of copy 0, whether it moves with the block."""
        return self.dep_indices >= self.moving_from

    def take(self, idx: np.ndarray, shape: bool = False) -> np.ndarray:
        """Rows of stream indices ``idx`` (all inside the run); only
        their :data:`SHAPE` fields with ``shape``."""
        k, r = np.divmod(idx - self.start, self.span)
        if shape:
            return self.block[r, :SHAPE]
        rows = self.block[r]
        rows[:, _AFFINE] += k[:, None] * self.step[r]
        return rows

    def rows(self, a: int, b: int, shape: bool = False) -> np.ndarray:
        """Rows ``[a, b)`` (inside the run), as :meth:`take`; a range
        inside one copy is read from the block in place."""
        k, p = divmod(a - self.start, self.span)
        q = p + b - a
        if q > self.span:
            return self.take(np.arange(a, b, dtype=np.int64), shape)
        if shape:
            return self.block[p:q, :SHAPE]
        rows = self.block[p:q]
        if k:
            rows = rows.copy()
            rows[:, _AFFINE] += k * self.step[p:q]
        return rows

    def deps(self, a: int, b: int):
        """``(counts, indices)``: the dependency CSR of rows ``[a, b)``:
        its whole copies by broadcasting copy 0's, the partial ones at
        either end gathered (:meth:`deps_at`); a range inside one copy
        is sliced from copy 0's."""
        span = self.span
        k, p = divmod(a - self.start, span)
        if p + b - a <= span:
            d = self.dep_indices[self.dep_ptr[p]:self.dep_ptr[p + b - a]]
            if k:
                d = d + k * span * (d >= self.moving_from)
            return self.dep_counts[p:p + b - a], d
        k0 = -(-(a - self.start) // span)
        k1 = (b - self.start) // span
        if k1 - k0 < 2:
            return self.deps_at(np.arange(a, b, dtype=np.int64))
        mid, hi = self.start + k0 * span, self.start + k1 * span
        head = self.deps_at(np.arange(a, mid, dtype=np.int64))
        tail = self.deps_at(np.arange(hi, b, dtype=np.int64))
        copies = np.arange(k0, k1, dtype=np.int64)[:, None]
        return (
            np.concatenate((
                head[0], np.tile(self.dep_counts, k1 - k0), tail[0],
            )),
            np.concatenate((
                head[1],
                (self.dep_indices + copies * span * self.moves).ravel(),
                tail[1],
            )),
        )

    def deps_at(self, idx: np.ndarray):
        """``(counts, indices)``: the dependency CSR of rows ``idx``."""
        k, r = np.divmod(idx - self.start, self.span)
        counts, e = _ragged(self.dep_ptr, r)
        d = self.dep_indices[e]
        return counts, d + np.repeat(k * self.span, counts) * (
            d >= self.moving_from
        )

    def translation(self, shift: int):
        """How row ``x`` of the run relates to row ``x - shift`` when
        both lie in it: ``(back, carry)`` per block position ``p`` of
        ``x`` — ``x - shift`` is block position ``back[p]``, ``shift //
        span + carry[p]`` copies earlier."""
        rem = shift % self.span
        p = np.arange(self.span)
        return (p - rem) % self.span, (p < rem).astype(np.int64)

    def _grouped(self):
        """``(kept targets, kept consumers, moving targets, moving
        consumers, reach, lag)`` of copy 0's dependencies (built once):
        the kept ones ordered by target, then consumer; ``reach`` the
        targets some copy of a moving one reaches, ``lag`` the longest
        distance from a moving one's target to its consumer."""
        if self._edges is None:
            d = self.dep_indices
            consumer = (self.start + np.repeat(
                np.arange(self.span, dtype=np.int64), self.dep_counts
            )).astype(np.int32)
            moving = self.moves
            kept = ~moving
            order = np.argsort(d[kept], kind="stable")
            t, c = d[moving], consumer[moving]
            self._edges = (
                _freeze(d[kept][order]), _freeze(consumer[kept][order]),
                _freeze(t), _freeze(c),
                (int(t.min()), int(t.max()) + (self.copies - 1) * self.span)
                if len(t) else (0, -1),
                int((c - t).max()) if len(t) else 0,
            )
        return self._edges

    def edges(self, a: int, b: int, above: int = 0) -> tuple[list, list]:
        """The run's dependencies on targets ``[a, b)`` from consumers
        at or past ``above``, as lists of ``(targets, consumers)`` array
        pairs (unordered)."""
        targets, consumers = [], []
        d, c, md, mc, reach, lag = self._grouped()
        lo = hi = 0
        if len(d) and a <= d[-1] and b > d[0]:
            lo, hi = np.searchsorted(d, (a, b))
        if hi > lo:
            t, u = d[lo:hi], c[lo:hi]
            if self.copies > 1:  # the same target, from every copy
                t = np.repeat(t, self.copies)
                u = (
                    u[:, None]
                    + self.span * np.arange(self.copies, dtype=np.int64)
                ).ravel()
            if above > self.start:
                keep = u >= above
                t, u = t[keep], u[keep]
            targets.append(t)
            consumers.append(u)
        if above > a and len(md):
            # A consumer lies less than a block's reach past its target.
            a = max(a, above - lag)
        if a < b and a <= reach[1] and b > reach[0]:
            # Copy k of dependency e targets md[e] + k * span: the
            # copies landing in [a, b), per dependency.
            span = self.span
            d = md.astype(np.int64)
            k_lo = np.clip(-((d - a) // span), 0, self.copies)
            count = np.clip(-((d - b) // span), 0, self.copies) - k_lo
            total = int(count.sum())
            if total:
                e = np.repeat(np.arange(len(d)), count)
                shift = span * (np.arange(total) - np.repeat(
                    np.cumsum(count) - count - k_lo, count
                ))
                t, u = d[e] + shift, mc[e] + shift
                if above > a:
                    keep = u >= above
                    t, u = t[keep], u[keep]
                targets.append(t)
                consumers.append(u)
        return targets, consumers


class ColumnarStream:
    """One command stream: the ordered :class:`TiledRun` pieces that
    tile ``[0, n)``, read-only.

    A stretch of explicit rows is a run of one copy; a stream built
    from full columns or ``Command`` objects is one such piece, a
    kernel generator's stream mostly runs of many copies
    (:meth:`StreamBuilder.tile`) between one-copy prologues. Everything
    is frozen (``writeable=False``): a stream is a value, so artifacts
    can share it between runs and results.

    Hot consumers read the pieces through per-range accessors —
    :meth:`rows`, :meth:`take`, :meth:`deps` (dependency CSR),
    :meth:`edges` (out-edges) — and per-block aggregates (each of
    :attr:`pieces` is a block standing for ``copies`` copies of its
    shape fields). :attr:`runs` and :meth:`translated` name only the
    runs of two copies or more, whose block proves how the stream
    repeats itself. The full columns (``kind`` ... ``issue_cycle``,
    ``dep_indptr`` / ``dep_indices``, ``out_indptr`` / ``out_indices``),
    ``tags`` and :meth:`to_commands` expand every run once and keep the
    result; each expansion adds the rows of runs of two copies or more
    it wrote to :attr:`materialized`, the work counter that keeps
    profile paths off them. ``tags`` / ``scalers`` exist purely for
    lossless round-tripping: ``tags`` is a plain list, or encoded as
    :class:`TagCodes` columns rendered on each read; ``scalers`` is
    stored sparsely (index -> payload) and read back as a list.
    """

    __slots__ = (
        "n", "pieces", "_starts", "_tags", "_templates", "_scalers",
        "_structure_ok", "_full", "_cols", "materialized",
    )

    #: The per-command columns (everything but the dependency CSR).
    COLUMNS = (
        "kind", "rank", "bankgroup", "bank", "row", "col", "channel",
        "scale_id", "dst_reg", "src_reg", "position", "issue_cycle",
    )

    def __init__(self, *, dep_indptr, dep_indices, tags=None,
                 scalers=None, **columns) -> None:
        """A stream of explicit full columns, one of each of
        :attr:`COLUMNS` (every field but the tags): one run of one
        copy."""
        if set(columns) != set(self.COLUMNS):
            raise TypeError(f"a stream has the columns {self.COLUMNS}")
        rows = np.zeros((len(columns["kind"]), len(FIELDS)), dtype=np.int64)
        rows[:, _TAG] = -1
        for name, column in columns.items():
            rows[:, _F[name]] = column
        pieces = (
            [TiledRun(0, rows, np.diff(dep_indptr), dep_indices)]
            if len(rows) else []
        )
        self._assemble(pieces, tags, None, scalers)

    @classmethod
    def from_runs(cls, runs, tags=None, templates=None,
                  scalers=None) -> "ColumnarStream":
        """The stream of ``runs`` in order, each starting where the one
        before it ends (the first at 0). Tags are a list, or
        :class:`TagCodes` ``templates`` over the rows' tag columns."""
        stream = cls.__new__(cls)
        stream._assemble(runs, tags, templates, scalers)
        return stream

    def _assemble(self, runs, tags, templates, scalers) -> None:
        self.pieces = tuple(runs)
        self._starts = [run.start for run in self.pieces]
        self.n = 0
        for run in self.pieces:
            if run.start != self.n:
                raise ValueError("runs must tile the stream in order")
            self.n = run.end
        self._tags, self._templates = tags, templates
        self._scalers = scalers or None
        self._structure_ok: set = set()
        self._full = None
        self._cols: dict = {}
        self.materialized = 0

    # -- per-range accessors ---------------------------------------------
    def _overlap(self, a: int, b: int):
        """``(lo, hi, run)`` of every piece overlapping ``[a, b)``,
        ``[lo, hi)`` the overlap."""
        pieces = self.pieces
        i = max(bisect_right(self._starts, a) - 1, 0)
        out = []
        while i < len(pieces) and pieces[i].start < b:
            run = pieces[i]
            lo, hi = max(a, run.start), min(b, run.end)
            if lo < hi:
                out.append((lo, hi, run))
            i += 1
        return out

    def rows(self, a: int, b: int, shape: bool = False) -> np.ndarray:
        """The :data:`FIELDS` rows of commands ``[a, b)`` (read-only);
        only their :data:`SHAPE` fields with ``shape``."""
        parts = [
            run.rows(lo, hi, shape) for lo, hi, run in self._overlap(a, b)
        ]
        if len(parts) == 1:
            return parts[0]
        if not parts:
            return np.zeros((0, SHAPE if shape else len(FIELDS)), np.int64)
        return np.concatenate(parts)

    def take(self, idx, shape: bool = False) -> np.ndarray:
        """The rows of commands ``idx``, in that order, as :meth:`rows`."""
        idx = np.asarray(idx, dtype=np.int64)
        out = np.empty((len(idx), SHAPE if shape else len(FIELDS)), np.int64)
        which = np.searchsorted(self._starts, idx, side="right") - 1
        for i in np.unique(which).tolist():
            sel = which == i
            out[sel] = self.pieces[i].take(idx[sel], shape)
        return out

    def deps(self, a: int, b: int):
        """``(counts, indices)``: the dependency CSR of commands ``[a,
        b)`` (per-command counts, flat dependency indices)."""
        parts = [run.deps(lo, hi) for lo, hi, run in self._overlap(a, b)]
        if len(parts) == 1:
            return parts[0]
        if not parts:
            return (np.zeros(0, dtype=np.int64),) * 2
        return tuple(map(np.concatenate, zip(*parts)))

    def deps_at(self, idx):
        """``(counts, indices)``: the dependency CSR of the ascending
        commands ``idx``."""
        idx = np.asarray(idx, dtype=np.int64)
        bounds = np.searchsorted(idx, self._starts + [self.n]).tolist()
        parts = [
            run.deps_at(idx[lo:hi])
            for run, lo, hi in zip(self.pieces, bounds[:-1], bounds[1:])
            if lo < hi
        ]
        if not parts:
            return (np.zeros(0, dtype=np.int64),) * 2
        return tuple(map(np.concatenate, zip(*parts)))

    def shape_columns(self, idx) -> np.ndarray:
        """The :data:`SHAPE` fields of the ascending commands ``idx``,
        one row per field."""
        idx = np.asarray(idx, dtype=np.int64)
        out = np.empty((SHAPE, len(idx)), dtype=np.int64)
        bounds = np.searchsorted(idx, self._starts + [self.n]).tolist()
        for run, lo, hi in zip(self.pieces, bounds[:-1], bounds[1:]):
            if lo < hi:
                out[:, lo:hi] = run.take(idx[lo:hi], shape=True).T
        return out

    def edges(self, a: int, b: int, ordered: bool = True, above: int = 0):
        """``(targets, consumers)``: every dependency on a command of
        ``[a, b)`` from a consumer at or past ``above``, one entry per
        dependency (a duplicated one twice), ordered by target, then
        consumer, unless ``ordered`` is false."""
        targets, consumers = [], []
        for run in self.pieces:
            if run.end > max(a, above):  # else its consumers all lie before
                t, c = run.edges(a, b, above)
                targets += t
                consumers += c
        if not targets:
            return (np.zeros(0, dtype=np.int64),) * 2
        if len(targets) == 1 and not ordered:
            return targets[0], consumers[0]
        t = np.concatenate(targets)
        c = np.concatenate(consumers)
        if ordered:
            key = t.astype(np.int64) * self.n + c
            key.sort()
            t = key // self.n
            c = key - t * self.n
        return t, c

    @property
    def runs(self) -> tuple:
        """The runs of two copies or more, ascending."""
        return tuple(run for run in self.pieces if run.copies > 1)

    def translated(self, lo: int, hi: int, shift: int) -> list:
        """``[lo, hi)`` split into ``(a, b, run)`` intervals: ``run`` is
        the run of two copies or more holding every ``x`` of ``[a, b)``
        and ``x - shift`` (``None`` where no such run holds both), so
        how ``x`` repeats ``x - shift`` follows from the run's block
        alone (:meth:`TiledRun.translation`). A one-copy piece proves
        nothing: its block is not periodic."""
        out = []

        def gap(a: int, b: int) -> None:
            if a < b:
                if out and out[-1][2] is None and out[-1][1] == a:
                    a = out.pop()[0]
                out.append((a, b, None))

        pos = lo
        for run in self.runs:
            a, b = max(pos, run.start + shift), min(hi, run.end)
            if shift > 0 and a < b:
                gap(pos, a)
                out.append((a, b, run))
                pos = b
        gap(pos, hi)
        return out

    def shape_repeats(self, lo: int, hi: int, shift: int) -> bool:
        """Whether every command of ``[lo, hi)`` has the shape of the
        command ``shift`` before it. Where a run holds a whole block of
        both sides its block decides, position against position
        (:meth:`TiledRun.translation`); elsewhere both ranges are
        gathered and compared."""
        for a, b, run in self.translated(lo, hi, shift):
            if run is not None and b - a >= run.span:
                shape = run.block[:, :SHAPE]
                same = np.array_equal(
                    shape, shape[run.translation(shift)[0]]
                )
            else:
                same = np.array_equal(
                    self.rows(a, b, shape=True),
                    self.rows(a - shift, b - shift, shape=True),
                )
            if not same:
                return False
        return True

    # -- full-length views (cold consumers) --------------------------------
    def _materialize(self):
        """``(rows, dep_indptr, dep_indices)`` of the whole stream,
        expanded once (counted in :attr:`materialized`)."""
        if self._full is None:
            counts, deps = self.deps(0, self.n)
            indptr = np.zeros(self.n + 1, dtype=np.int64)
            np.cumsum(counts, out=indptr[1:])
            self._full = (
                _freeze(self.rows(0, self.n)), _freeze(indptr),
                _freeze(deps.astype(np.int64)),
            )
            self.materialized += sum(r.end - r.start for r in self.runs)
        return self._full

    def _column(self, name: str) -> np.ndarray:
        column = self._cols.get(name)
        if column is None:
            rows = self._materialize()[0]
            column = self._cols[name] = _freeze(
                rows[:, _F[name]].astype(_DTYPES.get(name, np.int32))
            )
        return column

    @property
    def dep_indptr(self) -> np.ndarray:
        return self._materialize()[1]

    @property
    def dep_indices(self) -> np.ndarray:
        return self._materialize()[2]

    @property
    def out_indptr(self) -> np.ndarray:
        """Dependents CSR offsets (the transpose of the deps CSR)."""
        return self._transposed()[0]

    @property
    def out_indices(self) -> np.ndarray:
        """Dependents CSR indices: ascending consumer index per
        dependency (a duplicated dependency appears twice), the order a
        ``Command`` list's dependency tuples give."""
        return self._transposed()[1]

    def _transposed(self):
        if "out" not in self._cols:
            self._materialize()
            targets, consumers = self.edges(0, self.n)
            indptr = np.zeros(self.n + 1, dtype=np.int64)
            np.cumsum(np.bincount(targets, minlength=self.n), out=indptr[1:])
            self._cols["out"] = (
                _freeze(indptr), _freeze(consumers.astype(np.int64))
            )
        return self._cols["out"]

    @property
    def tags(self) -> Optional[list]:
        """Per-command tag strings (``None`` when the stream has none).
        Encoded tags are rendered on every read and never kept."""
        if self._templates is not None:
            rows = self._materialize()[0]
            return TagCodes(
                self._templates, rows[:, _TAG], rows[:, _TAG_A],
                rows[:, _TAG_B],
            ).decode()
        return self._tags

    @property
    def scalers(self) -> Optional[list]:
        """Per-command scaler payloads (``None`` when the stream has
        none)."""
        if self._scalers is None:
            return None
        out = [None] * self.n
        for i, value in self._scalers.items():
            out[i] = value
        return out

    # ------------------------------------------------------------------
    @classmethod
    def from_commands(cls, commands: Sequence[Command]) -> "ColumnarStream":
        """Build the columnar form of a ``Command`` list (lossless)."""
        n = len(commands)
        dep_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum([len(cmd.deps) for cmd in commands], out=dep_indptr[1:])
        tags = [cmd.tag for cmd in commands]
        return cls(
            kind=np.array(
                [KIND_INDEX[cmd.kind] for cmd in commands], dtype=np.int16
            ),
            **{
                name: np.fromiter(
                    map(attrgetter(name), commands), np.int64, count=n
                )
                for name in cls.COLUMNS[1:]  # every integer field
            },
            dep_indptr=dep_indptr,
            dep_indices=np.array(
                [d for cmd in commands for d in cmd.deps], dtype=np.int64
            ),
            tags=None if tags.count(None) == n else tags,
            scalers={
                i: cmd.scaler for i, cmd in enumerate(commands)
                if cmd.scaler is not None
            },
        )

    # ------------------------------------------------------------------
    def to_commands(
        self, issue_cycle: Optional[np.ndarray] = None
    ) -> list[Command]:
        """Materialize the stream back into ``Command`` objects.

        ``issue_cycle`` optionally overrides the stream's own issue
        cycles (a :class:`ColumnarSchedule` passes its result vector).
        """
        n = self.n
        rows, indptr, indices = self._materialize()
        (kinds, ranks, bgs, banks, rows_, channels, cols, scale_ids, dsts,
         srcs, positions) = (rows[:, j].tolist() for j in range(11))
        cycles = (
            rows[:, _F["issue_cycle"]] if issue_cycle is None
            else issue_cycle
        ).tolist()
        indptr = indptr.tolist()
        indices = indices.tolist()
        tags = self.tags
        scalers = self._scalers or {}
        kind_order = KIND_ORDER
        out: list[Command] = []
        append = out.append
        for i in range(n):
            cmd = Command.__new__(Command)
            cmd.kind = kind_order[kinds[i]]
            cmd.rank = ranks[i]
            cmd.bankgroup = bgs[i]
            cmd.bank = banks[i]
            cmd.row = rows_[i]
            cmd.col = cols[i]
            cmd.channel = channels[i]
            cmd.scale_id = scale_ids[i]
            cmd.dst_reg = dsts[i]
            cmd.src_reg = srcs[i]
            cmd.position = positions[i]
            cmd.deps = tuple(indices[indptr[i]:indptr[i + 1]])
            cmd.tag = tags[i] if tags is not None else None
            cmd.scaler = scalers.get(i)
            cmd.issue_cycle = cycles[i]
            append(cmd)
        return out

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.n

    @property
    def nbytes(self) -> int:
        """Bytes the stream holds: its runs, and whatever has been
        computed from them and kept (out-edges, expanded full columns;
        a view of a run's block holds no bytes of its own)."""
        arrays = list(self._full or ())
        for value in self._cols.values():
            arrays += value if isinstance(value, tuple) else (value,)
        return sum(a.nbytes for a in arrays if a.base is None) + sum(
            run.nbytes for run in self.pieces
        )

    # ------------------------------------------------------------------
    def check_structure(self, geometry) -> None:
        """Vectorized ``run()`` precondition checks (cached).

        Mirrors the scheduler's per-command validation loops: deps must
        point strictly backwards, ranks and channels must fit the
        geometry. Raises :class:`SimulationError` naming the first
        offender exactly as the scalar loops do. A run is checked on
        its block: its other copies keep their shape, and each of their
        dependencies keeps its distance or points where copy 0's does.
        """
        key = (geometry.ranks, geometry.channels)
        if key in self._structure_ok:
            return
        for run in self.pieces:
            deps = run.dep_indices  # copy 0's
            consumer = run.start + np.repeat(
                np.arange(run.span, dtype=np.int64), run.dep_counts
            )
            bad = (deps >= consumer) | (deps < 0)
            if bad.any():
                first = int(np.argmax(bad))
                raise SimulationError(
                    f"command {int(consumer[first])} has illegal "
                    f"dependency {int(deps[first])}"
                )
        for column, limit in ((RANK, geometry.ranks),
                              (CHANNEL, geometry.channels)):
            for run in self.pieces:
                start, values = run.start, run.block[:, column]
                bad = (values < 0) | (values >= limit)
                if bad.any():
                    first = int(np.argmax(bad))
                    if column == RANK:
                        raise SimulationError(
                            f"command {start + first} rank out of range"
                        )
                    raise SimulationError(
                        f"command {start + first} channel "
                        f"{int(values[first])} out of range (geometry "
                        f"has {geometry.channels})"
                    )
        self._structure_ok.add(key)

    def select(self, indices, dep_indices, **columns) -> "ColumnarStream":
        """The stream of commands ``indices`` (in that order) whose
        dependencies, in CSR order, are ``dep_indices``; ``columns``
        replace whole columns. Tags and scalers are left off."""
        fields = {name: getattr(self, name)[indices] for name in self.COLUMNS}
        indptr = np.zeros(len(indices) + 1, dtype=np.int64)
        np.cumsum(np.diff(self.dep_indptr)[indices], out=indptr[1:])
        return ColumnarStream(
            **{**fields, **columns}, dep_indptr=indptr,
            dep_indices=dep_indices,
        )


def _column_property(name: str) -> property:
    return property(
        lambda self: self._column(name),
        doc=f"The full ``{name}`` column (expanded on first read).",
    )


for _name in ColumnarStream.COLUMNS:
    setattr(ColumnarStream, _name, _column_property(_name))


class TagCodes:
    """Command tags encoded without per-command string formatting.

    A template table of ``(prefix, nargs)`` pairs plus three integer
    columns: template id (``-1`` = no tag) and two arguments. Template
    ``(prefix, 0)`` renders as ``prefix``, ``(prefix, 1)`` as
    ``prefix + str(a)`` and ``(prefix, 2)`` as ``prefix + str(a) + ":"
    + str(b)``. Kernel generators emit tags this way, so tag strings
    exist only once someone reads :attr:`ColumnarStream.tags`.
    """

    __slots__ = ("templates", "ids", "a", "b")

    def __init__(self, templates, ids, a, b) -> None:
        self.templates = tuple(templates)
        self.ids = _freeze(np.asarray(ids, dtype=np.int32))
        self.a = _freeze(np.asarray(a, dtype=np.int32))
        self.b = _freeze(np.asarray(b, dtype=np.int32))

    def decode(self) -> Optional[list]:
        """The tag strings (``None`` when no command carries a tag)."""
        if not len(self.ids) or int(self.ids.max()) < 0:
            return None
        templates = self.templates
        out: list = []
        append = out.append
        for t, a, b in zip(
            self.ids.tolist(), self.a.tolist(), self.b.tolist()
        ):
            if t < 0:
                append(None)
                continue
            prefix, nargs = templates[t]
            if nargs == 0:
                append(prefix)
            elif nargs == 1:
                append(f"{prefix}{a}")
            else:
                append(f"{prefix}{a}:{b}")
        return out


class StreamBuilder:
    """An append-only command stream built straight into columns.

    Kernel generators emit through a builder instead of building
    :class:`~repro.dram.commands.Command` objects: :meth:`append` takes
    one row of :data:`BUILD_FIELDS` plus the command's dependency
    indices, and :meth:`tile` turns the stream's last two periodic
    blocks into a :class:`TiledRun` of many copies without writing a
    row of them (the explicit rows before them become a run of one
    copy). :meth:`build` returns the frozen :class:`ColumnarStream`
    (channel 0, unscheduled) of those runs, as built.
    """

    def __init__(self) -> None:
        self.n = 0
        self._rows: list[tuple] = []  # pending scalar rows
        self._counts: list[int] = []  # pending dependency counts
        self._deps: list[int] = []  # pending dependency indices
        # Explicit rows since the last run, and their deps.
        self._mat = np.zeros((0, len(BUILD_FIELDS)), dtype=np.int64)
        self._dep_counts = np.zeros(0, dtype=np.int64)
        self._dep_indices = np.zeros(0, dtype=np.int64)
        self._runs: list[TiledRun] = []
        self._scalers: dict[int, object] = {}
        self._templates: list[tuple[str, int]] = []
        self._template_ids: dict[tuple[str, int], int] = {}

    def template(self, prefix: str, nargs: int = 0) -> int:
        """Id of a tag template (see :class:`TagCodes`)."""
        key = (prefix, nargs)
        tid = self._template_ids.get(key)
        if tid is None:
            tid = self._template_ids[key] = len(self._templates)
            self._templates.append(key)
        return tid

    def append(self, row: tuple, deps) -> int:
        """Append one command; returns its index."""
        index = self.n
        self._rows.append(row)
        self._counts.append(len(deps))
        self._deps.extend(deps)
        self.n = index + 1
        return index

    def set_scaler(self, index: int, value) -> None:
        """Attach a scaler payload (an MRW's program) to a command."""
        self._scalers[index] = value

    def _flush(self) -> None:
        if self._rows:
            self._mat = np.concatenate(
                [self._mat, np.array(self._rows, dtype=np.int64)]
            )
            self._dep_counts = np.concatenate(
                [self._dep_counts, np.array(self._counts, dtype=np.int64)]
            )
            self._dep_indices = np.concatenate(
                [self._dep_indices, np.array(self._deps, dtype=np.int64)]
            )
            self._rows, self._counts, self._deps = [], [], []

    def _explicit(self, rows: int) -> list:
        """The first ``rows`` explicit rows as a run of one copy (none
        when ``rows`` is 0)."""
        if not rows:
            return []
        counts = self._dep_counts[:rows]
        return [TiledRun(
            self.n - len(self._mat), _widen(self._mat[:rows], -1), counts,
            self._dep_indices[:int(counts.sum())],
        )]

    def tile(self, start: int, span: int, copies: int) -> Optional[TiledRun]:
        """Repeat a periodic block ``copies`` more times.

        The stream must end with two consecutive explicit blocks of
        ``span`` commands starting at ``start``. Their difference gives
        the per-position step of every field and dependency; the tile
        goes ahead only if that difference has the shape a periodic
        body has: fields other than the column address repeat exactly,
        every dependency either repeats (it points before the periodic
        region) or moves by exactly ``span``, all repeating ones point
        below all moving ones, and no command carries a scaler. The two
        blocks and the copies become one :class:`TiledRun` of ``copies
        + 2`` copies of the first block, which is returned (``None``
        when it did not tile).
        """
        self._flush()
        x = len(self._mat) - 2 * span
        if start + 2 * span != self.n or start < 0 or span < 1 or x < 0:
            return None
        if any(start <= i for i in self._scalers):
            return None
        first = self._mat[x:x + span]
        step = self._mat[x + span:] - first
        if step[:, _FIXED_BUILD_MASK].any():
            return None
        counts = self._dep_counts[x:x + span]
        if not np.array_equal(counts, self._dep_counts[x + span:]):
            return None
        m = int(counts.sum())
        d0 = len(self._dep_indices) - 2 * m
        a_deps = self._dep_indices[d0:d0 + m]
        moved = self._dep_indices[d0 + m:] - a_deps
        fixed = moved == 0
        if not (fixed | (moved == span)).all():
            return None
        moving = a_deps[~fixed]
        if len(moving) and fixed.any() and a_deps[fixed].max() >= moving.min():
            return None
        run = TiledRun(
            start, _widen(first, -1), counts, a_deps, copies + 2,
            _widen(step, 0), moving.min() if len(moving) else None,
        )
        self._runs += self._explicit(x)
        self._runs.append(run)
        self._mat = self._mat[:0]
        self._dep_counts = self._dep_counts[:0]
        self._dep_indices = self._dep_indices[:0]
        self.n += copies * span
        return run

    def build(self) -> "ColumnarStream":
        """The finished stream."""
        self._flush()
        return ColumnarStream.from_runs(
            self._runs + self._explicit(len(self._mat)),
            templates=tuple(self._templates), scalers=dict(self._scalers),
        )


class ColumnarSchedule:
    """A scheduled columnar stream: the stream plus its issue cycles.

    Carried by every :class:`~repro.dram.scheduler.ScheduleResult`;
    ``Command`` objects are materialized lazily only if someone
    actually asks for them.
    """

    __slots__ = ("stream", "issue_cycle")

    def __init__(self, stream: ColumnarStream,
                 issue_cycle: np.ndarray) -> None:
        self.stream = stream
        self.issue_cycle = issue_cycle

    def to_commands(self) -> list[Command]:
        return self.stream.to_commands(issue_cycle=self.issue_cycle)


class _Prepared:
    """Flat lists feeding one run of the scheduling loop.

    Derived from the stream at the start of a run and dropped when it
    ends: as Python lists they cost several times the stream itself, so
    no stream keeps them between runs. The loop consumes the queue
    links and dependency counters in place.

    Only the dependency counters and ports are built up front (out-edges
    and replay relinks reach any index), block by block: a run's
    block-long lists are repeated ``copies`` times. So are the
    per-kind and per-port issue counts and the data-bus ports
    (per-block aggregates). The rest is built :attr:`CHUNK` commands at
    a time, on first use: the static lists (kind code, latency, flat
    bank / group / rank ids, row, read / write flags, floor-table slot,
    out-edges; :attr:`prepared` counts them) by :meth:`build`, when the
    scan first evaluates a slot whose kind code reads :data:`_UNBUILT` —
    the slots of a run of several copies are slices of its block's,
    unrolled once per run (a one-copy run's are read in place), and
    the out-edges are read from the stream's accessors and grouped by
    target :attr:`WINDOW` chunks at a time (a run's builds cluster: on
    the ``fullrow`` grid 267 chunk builds fall in 58 windows, and one
    grouping of 16 chunks costs about what three per-chunk ones did);
    the per-port queue
    links ``nxt`` / ``prv`` by :meth:`link`, when a slot reading
    :data:`_UNLINKED` is first needed. A link the loop or a replay writes
    into a chunk not linked yet (an unlink's successor, a relink's ends)
    survives: :meth:`link` fills only sentinel slots. Commands a
    steady-state replay issues are never scanned past the lookahead
    window, so a replayed stream builds little more than its simulated
    spans.

    Thirteen lists stay full-length placeholders (the static slots, the
    out-edge bounds and the queue links). Allocating one costs about 5
    ns per command (some 1.7 ms per 26k-command run for all of them),
    but the loop indexes each by stream index on every scan, and any
    denser form costs more there: a ``bytearray`` read alone is 40%
    slower than a list read.
    """

    __slots__ = (
        "kc", "lat", "bank_id", "group_id", "rank", "row", "isrd",
        "iswr", "fkey", "bus_of_rank", "port", "ndeps",
        "optr", "oend", "oidx", "heads", "nxt", "prv", "n_ports",
        "n_banks", "n_groups", "n_ranks", "bus_ranks", "bus_ports",
        "counts", "port_issued", "n", "prepared", "_stream", "_n_bg",
        "_bpg", "_kinds", "_pieces", "_starts", "_blocks", "_links",
        "_windows",
    )

    #: Commands per on-demand build of the static lists and the links.
    CHUNK = 256
    #: Chunks per out-edge window: :meth:`build` groups the out-edges of
    #: a whole window by target at once (the builds of one run cluster),
    #: and each chunk copies its slice.
    WINDOW = 16

    def __init__(self, stream: ColumnarStream, timing, geometry,
                 issue_model, bus_ids) -> None:
        n = stream.n
        n_ranks = geometry.ranks
        self.n = n
        self.prepared = 0
        self._stream = stream
        self._n_bg = geometry.bankgroups
        self._bpg = geometry.banks_per_group
        # Per kind code: kind class, latency, RD and WR flags.
        self._kinds = np.stack((
            _KC_TABLE, _latency_table(timing), _ISRD_TABLE, _ISWR_TABLE,
        ), axis=1)
        bus_of_rank = np.asarray(bus_ids, dtype=np.int64)
        self.kc = [_UNBUILT] * n
        (self.lat, self.bank_id, self.group_id, self.rank, self.row,
         self.isrd, self.iswr, self.fkey) = ([0] * n for _ in range(8))
        self.bus_of_rank = list(bus_ids)
        # Each command's out-edges are ``oidx[optr[i]:oend[i]]``; a
        # chunk's are appended to ``oidx`` when it is built.
        self.optr = [0] * n
        self.oend = [0] * n
        self.oidx: list[int] = []
        n_ports = issue_model.n_ports
        port_of_rank = np.asarray(issue_model.port_of_rank)
        n_buses = len(set(bus_ids))
        self.bus_ranks = [
            [r for r in range(n_ranks) if bus_ids[r] == b]
            for b in range(n_buses)
        ]
        # Per block: dependency counters and ports (as lists repeated
        # ``copies`` times), schedule-independent statistics (every
        # command issues exactly once, so per-kind counts and per-port
        # totals are stream properties), and the (bus, port) pairs
        # holding RD / WR.
        self.ndeps, self.port = [], []
        self._pieces = stream.pieces
        self._starts = [run.start for run in self._pieces]
        all_ports = []
        for run in self._pieces:
            ports = port_of_rank[run.block[:, RANK]]
            self.ndeps += run.dep_counts.tolist() * run.copies
            self.port += ports.tolist() * run.copies
            all_ports.append(np.tile(ports, run.copies))
        # Every block row once, weighted by its copies.
        blocks = [run.block for run in self._pieces]
        kinds, ranks = np.concatenate(
            blocks or [np.zeros((0, RANK + 1), np.int64)]
        )[:, [KIND, RANK]].T
        ports = port_of_rank[ranks]
        weight = np.repeat(
            [run.copies for run in self._pieces],
            [run.span for run in self._pieces],
        )
        kcounts = np.bincount(
            kinds, weight, minlength=len(KIND_ORDER)
        ).astype(np.int64)
        pcounts = np.bincount(ports, weight, minlength=n_ports).astype(
            np.int64
        )
        # Ports holding RD/WR on each bus: the only ports whose scans a
        # burst on that bus can change besides the issuing port's own.
        is_ext = _KC_TABLE[kinds] == _EXT_COL
        self.bus_ports = [[] for _ in range(n_buses)]
        for pair in np.unique(
            bus_of_rank[ranks[is_ext]] * n_ports + ports[is_ext]
        ).tolist():
            self.bus_ports[pair // n_ports].append(pair % n_ports)
        self._blocks: dict[int, list] = {}  # a run's static slot lists
        self._windows: dict[int, tuple] = {}  # out-edge CSRs by window
        # Per-port pending queues as index-linked lists in stream order
        # (:meth:`link` copies a chunk of these columns).
        self.heads = [-1] * n_ports
        port = np.concatenate(all_ports) if all_ports else np.zeros(0)
        nxt = np.full(n, -1, dtype=np.int64)
        prv = np.full(n, -1, dtype=np.int64)
        for p in range(n_ports):
            idxs = np.flatnonzero(port == p)
            if len(idxs):
                self.heads[p] = int(idxs[0])
                nxt[idxs[:-1]] = idxs[1:]
                prv[idxs[1:]] = idxs[:-1]
        self.nxt, self.prv = [_UNLINKED] * n, [_UNLINKED] * n
        self._links = ((self.nxt, nxt), (self.prv, prv))
        self.n_ports = n_ports
        self.n_banks = n_ranks * self._n_bg * self._bpg
        self.n_groups = n_ranks * self._n_bg
        self.n_ranks = n_ranks
        self.counts = {
            KIND_ORDER[k]: c for k, c in enumerate(kcounts.tolist()) if c
        }
        used = np.flatnonzero(pcounts)
        self.port_issued = pcounts[:used[-1] + 1].tolist() if n else []

    def _static(self, rows: np.ndarray) -> list:
        """The static slots of ``rows`` (shape fields), as lists."""
        rank = rows[:, RANK]
        bg = rows[:, BANKGROUP]
        gid = rank * self._n_bg + bg
        kc, lat, isrd, iswr = self._kinds[rows[:, KIND]].T
        # The rank/bus floor-table slot of an RD is 2 * rank + 1, of a
        # WR 2 * rank; only RD / WR read it.
        return [column.tolist() for column in (
            kc, lat, gid * self._bpg + rows[:, BANK], gid, rank,
            rows[:, ROW], isrd, iswr, 2 * rank + isrd,
        )]

    def build(self, i: int) -> None:
        """Fill the static slots of the chunk holding command ``i``. A
        run's slots repeat its block's, sliced from the block's lists
        (computed once per run, unrolled past a chunk)."""
        a = i - i % self.CHUNK
        b = min(a + self.CHUNK, self.n)
        lists = (
            self.kc, self.lat, self.bank_id, self.group_id, self.rank,
            self.row, self.isrd, self.iswr, self.fkey,
        )
        for k in range(bisect_right(self._starts, a) - 1, len(self._starts)):
            run = self._pieces[k]
            if run.start >= b:
                break
            lo, hi = max(a, run.start), min(b, run.end)
            if run.copies == 1:
                columns, r = self._static(run.rows(lo, hi, shape=True)), 0
            else:
                columns = self._blocks.get(k)
                if columns is None:
                    reps = -(-self.CHUNK // run.span) + 1
                    columns = self._blocks[k] = [
                        column * reps
                        for column in self._static(run.block[:, :SHAPE])
                    ]
                r = (lo - run.start) % run.span
            for values, column in zip(lists, columns):
                values[lo:hi] = column[r:r + hi - lo]
        ptr, consumers, w = self._window(a)
        ptr = ptr[a - w:b - w + 1]
        lo = int(ptr[0])
        base = len(self.oidx)
        ends = self.oend[a:b] = (ptr[1:] + (base - lo)).tolist()
        self.optr[a + 1:b] = ends[:-1]
        self.optr[a] = base
        self.oidx += consumers[lo:ptr[-1]].tolist()
        self.prepared += b - a

    def _window(self, a: int):
        """``(ptr, consumers, w)``: the out-edges of the window of
        :attr:`WINDOW` chunks starting at ``w`` that holds command
        ``a``, grouped by target (a radix sort; the loop's out-edge
        pass does not depend on the order within a group) as a CSR over
        its targets."""
        size = self.WINDOW * self.CHUNK
        w = a - a % size
        window = self._windows.get(w)
        if window is None:
            b = min(w + size, self.n)
            targets, consumers = self._stream.edges(w, b, ordered=False)
            slot = (targets - w).astype(np.uint16)
            ptr = np.zeros(b - w + 1, dtype=np.int64)
            np.cumsum(np.bincount(slot, minlength=b - w), out=ptr[1:])
            if len(slot) > 1 and (slot[1:] < slot[:-1]).any():
                consumers = consumers[np.argsort(slot, kind="stable")]
            window = self._windows[w] = (ptr, consumers, w)
        return window

    def link(self, i: int) -> None:
        """Fill the unlinked queue-link slots of the chunk holding
        command ``i`` with their initial links (a slot the loop or a
        replay wrote keeps its link)."""
        a = i - i % self.CHUNK
        b = min(a + self.CHUNK, self.n)
        for values, column in self._links:
            links = column[a:b].tolist()
            held = values[a:b]
            if held.count(_UNLINKED) < b - a:
                links = [
                    new if old == _UNLINKED else old
                    for old, new in zip(held, links)
                ]
            values[a:b] = links

    def linked(self, links: list, i: int) -> int:
        """``links[i]`` (``links`` is :attr:`nxt` or :attr:`prv`),
        linking its chunk first if the slot is not linked yet."""
        if links[i] == _UNLINKED:
            self.link(i)
        return links[i]


def schedule_columnar(
    stream: ColumnarStream,
    timing,
    geometry,
    issue_model,
    per_bank_pim: bool,
    window: int,
    bus_ids: Sequence[int],
    steady=None,
) -> tuple[np.ndarray, TraceStats, int]:
    """Schedule a columnar stream; return (issue cycles, stats, commands
    whose per-command lists were built).

    Byte-identical to the reference greedy loop on every stream (the
    equivalence contract); the issue-cycle vector is read-only.

    ``steady`` optionally supplies a
    :class:`~repro.dram.steady.SteadyTracker` for the stream: the loop
    then reports every issue to it and lets it replay locked
    steady-state sweeps in place. The vector is assembled with numpy:
    the loop's issue list holds what it simulated, and image ``t`` of a
    :class:`~repro.dram.period.Replay` issues ``t * delta`` after its
    event. ``total_cycles`` is the latest issue cycle plus latency.
    """
    prep = _Prepared(stream, timing, geometry, issue_model, bus_ids)
    issue = np.array(
        _schedule_cold(prep, timing, per_bank_pim, window, steady),
        dtype=np.int64,
    )
    for replay in steady.outcome.replays if steady is not None else ():
        events = np.array(replay.events, dtype=np.int64)
        t = np.arange(1, replay.copies + 1)[:, None]
        issue[events + t * replay.period] = issue[events] + t * replay.delta
    # The last completion, block by block (a run's copies are rows).
    latency = prep._kinds[:, 1]
    total = 0
    for run in stream.pieces:
        done = issue[run.start:run.end].reshape(run.copies, -1)
        total = max(total, int((done + latency[run.block[:, KIND]]).max()))
    stats = TraceStats(
        counts=prep.counts,
        total_cycles=total,
        issued_commands=stream.n,
        port_issued=prep.port_issued,
    )
    return _freeze(issue), stats, prep.prepared


def _schedule_cold(
    prep: _Prepared,
    timing,
    per_bank_pim: bool,
    window: int,
    steady=None,
) -> list[int]:
    """The exact greedy selection loop over the prepared flat arrays;
    returns the issue cycle of every command it simulated (``-1`` for
    most replayed ones).

    The DDR4 bank, bank-group, rank and data-bus state machines are
    flat lists indexed by the prepared flat ids, and their earliest-
    cycle and update rules are inlined below. A candidate's earliest
    cycle is the max of three parts, each cached where it changes least
    often:

    * the bank / bank-group / dependency part, cached per candidate
      until its bank or group issues (ACTs also wait on their rank's
      activation window, so they join the rank's dirty list too);
    * the rank / data-bus part of RD and WR, one floor-table entry per
      (rank, read-or-write), rewritten for every rank on a bus
      whenever an RD or WR puts a burst on that bus;
    * the issuing port's own free cycle.

    Each port's scan result — its best clamped cycle and the index
    holding it — is memoized until something it read changes; a scan
    stops at the first candidate issuable at the port's own free cycle,
    since later candidates tie and lose on stream index. Banks,
    groups and ranks belong to exactly one rank and so to exactly one
    port: their changes only ever come from the port itself issuing.
    Only the data bus and dependencies cross ports, so a port's memo
    goes stale when it issues, when one of its commands' last
    dependency completes, or when an RD / WR issues on a data bus the
    port has RD / WR commands on. The global pick is the
    (cycle, index) argmin over the port results — the same argmin as
    one scan over every port's window. A one-port stream rescans its
    only port after every issue anyway, so it skips the cross-port
    marking.

    A candidate whose static slots are not built yet reads the kind
    code :data:`_UNBUILT`; its recompute builds the chunk and revisits
    it. A queue link not built yet reads :data:`_UNLINKED`: the walk
    links that chunk and goes on, and an issue links its command's
    chunk before unlinking it.

    With a ``steady`` tracker, every issue is reported to it
    (:meth:`~repro.dram.steady.SteadyTracker.issued`) until it is
    :attr:`~repro.dram.steady.SteadyTracker.idle`; when it replays
    locked sweeps it updates their dependents and queues, shifts the
    live timers and marks every cache stale itself, and the loop only
    discounts the replayed commands (whose issue cycles
    :func:`schedule_columnar` fills in from the replay records).
    """
    n = prep.n
    build = prep.build
    link = prep.link
    n_banks, n_groups, n_ranks = prep.n_banks, prep.n_groups, prep.n_ranks

    # Flattened machine state.
    CLOSED = -(1 << 62)  # "no open row" sentinel outside any row id
    # A rank's last ACT cycle before its first ACT: far enough back that
    # a steady-state fingerprint always sees it as stale.
    NEVER = -(1 << 62)
    b_open = [CLOSED] * n_banks
    b_col = [0] * n_banks
    b_pre = [0] * n_banks
    b_act = [0] * n_banks
    pb_io = [0] * n_banks  # per-bank PIM I/O gating (bank_id indexed)
    pb_alu = [0] * n_banks
    g_io = [0] * n_groups
    g_wtr = [0] * n_groups
    g_alu = [0] * n_groups
    r_ext = [0] * n_ranks
    r_wtr = [0] * n_ranks
    r_lastact = [NEVER] * n_ranks
    r_lastgrp = [-1] * n_ranks
    r_actwin = [deque(maxlen=4) for _ in range(n_ranks)]
    # Rank/bus floor of RD (slot 2r + 1) and WR (slot 2r) on rank r.
    floor = [0] * (2 * n_ranks)

    # Dirty lists: candidates whose cached cycle must be recomputed
    # when the corresponding state machine changes.
    dirty_bank: list[list[int]] = [[] for _ in range(n_banks)]
    dirty_group: list[list[int]] = [[] for _ in range(n_groups)]
    dirty_rank: list[list[int]] = [[] for _ in range(n_ranks)]

    kind_code = prep.kc
    latency = prep.lat
    bank_id = prep.bank_id
    group_id = prep.group_id
    rank_arr = prep.rank
    bus_of_rank = prep.bus_of_rank
    row_arr = prep.row
    is_read = prep.isrd
    is_write = prep.iswr
    fkey = prep.fkey
    port_of = prep.port
    bus_ranks = prep.bus_ranks
    bus_ports = prep.bus_ports
    optr = prep.optr
    oend = prep.oend
    oidx = prep.oidx
    ndeps = prep.ndeps
    nxt = prep.nxt
    prv = prep.prv
    heads = prep.heads
    n_ports = prep.n_ports
    multi = n_ports > 1

    dep_ready = [0] * n
    cached_e: list = [None] * n  # None: recompute on the next visit
    completion = [0] * n
    issue = [-1] * n
    port_free = [0] * n_ports

    INF = 1 << 62
    memo_e = [INF] * n_ports
    memo_i = [-1] * n_ports
    stale = bytearray(b"\x01") * n_ports

    t = timing
    tRRD_L, tRRD_S, tFAW = t.tRRD_L, t.tRRD_S, t.tFAW
    tRCD, tRAS, tRP, tRTP, tWR = t.tRCD, t.tRAS, t.tRP, t.tRTP, t.tWR
    tBURST, tCCD_L, tCCD_S = t.tBURST, t.tCCD_L, t.tCCD_S
    tWTR_L, tWTR_S, tPIM = t.tWTR_L, t.tWTR_S, t.tPIM
    tCWL = t.tCWL
    # Floor offsets from an RD/WR's issue cycle to the next RD and WR
    # on its bus: (RD same rank, WR same rank, RD other rank, WR other
    # rank), indexed by whether the issuing command is an RD. A burst
    # occupies the bus until issue + data offset + tBURST; the next one
    # waits out a turnaround on a direction change and the rank-switch
    # bubble on a rank change, whichever is longer.
    data_off = (tCWL, t.tCL)  # indexed by is-RD
    floor_off = []
    for last_rd in (0, 1):
        busy = data_off[last_rd] + tBURST
        offsets = []
        for other_rank in (False, True):
            for next_rd in (1, 0):
                gap = 0 if next_rd == last_rd else TURNAROUND_GAP
                if other_rank and t.rank_switch_penalty > gap:
                    gap = t.rank_switch_penalty
                offsets.append(busy + gap - data_off[next_rd])
        floor_off.append(tuple(offsets))

    if steady is not None:
        steady.attach(
            prep,
            timers=(
                b_col, b_pre, b_act, pb_io, pb_alu, g_io, g_wtr, g_alu,
                r_ext, r_wtr, r_lastact, floor, port_free,
            ),
            shape=(b_open, r_lastgrp),
            act_windows=r_actwin,
            issue=issue,
            completion=completion,
            dep_ready=dep_ready,
            caches=(cached_e, stale, dirty_bank, dirty_group, dirty_rank),
        )

    remaining = n
    ports_range = range(n_ports)
    best_port = 0
    while remaining:
        for port in ports_range:
            if not stale[port]:
                continue
            stale[port] = 0
            pf = port_free[port]
            pe = INF
            pi = -1
            node = heads[port]
            steps = window
            while steps:
                if node < 0:
                    if node == -1:
                        break  # the port's queue ends
                    link(i)  # ``i``'s successor is not linked yet
                    node = nxt[i]
                    continue
                i = node
                node = nxt[i]
                steps -= 1
                if ndeps[i]:
                    continue
                e = cached_e[i]
                if e is None:
                    kc = kind_code[i]
                    e = dep_ready[i]
                    if kc == _INT_COL or kc == _EXT_COL:
                        bid = bank_id[i]
                        gid = group_id[i]
                        if b_open[bid] != row_arr[i]:
                            e = _BLOCKED  # closed or different row
                        else:
                            v = b_col[bid]
                            if v > e:
                                e = v
                            if kc == _INT_COL and per_bank_pim:
                                v = pb_io[bid]
                            else:
                                v = g_io[gid]
                            if v > e:
                                e = v
                            if is_read[i]:
                                v = g_wtr[gid]
                                if v > e:
                                    e = v
                            if kc == _EXT_COL:
                                e = _RW_BASE - e
                        dirty_bank[bid].append(i)
                        dirty_group[gid].append(i)
                    elif kc == _ACT:
                        bid = bank_id[i]
                        rid = rank_arr[i]
                        if b_open[bid] != CLOSED:
                            e = _BLOCKED
                        else:
                            v = b_act[bid]
                            if v > e:
                                e = v
                            lac = r_lastact[rid]
                            if lac >= 0:
                                v = lac + (
                                    tRRD_L
                                    if group_id[i] == r_lastgrp[rid]
                                    else tRRD_S
                                )
                                if v > e:
                                    e = v
                            aw = r_actwin[rid]
                            if len(aw) == 4:
                                v = aw[0] + tFAW
                                if v > e:
                                    e = v
                        dirty_bank[bid].append(i)
                        dirty_rank[rid].append(i)
                    elif kc == _PRE:
                        bid = bank_id[i]
                        if b_open[bid] == CLOSED:
                            e = _BLOCKED
                        elif b_pre[bid] > e:
                            e = b_pre[bid]
                        dirty_bank[bid].append(i)
                    elif kc == _ALU:
                        gid = group_id[i]
                        v = (
                            pb_alu[bank_id[i]]
                            if per_bank_pim
                            else g_alu[gid]
                        )
                        if v > e:
                            e = v
                        dirty_group[gid].append(i)
                    elif kc == _UNBUILT:
                        build(i)
                        node = i  # revisit it with its slots built
                        steps += 1
                        continue
                    # _OTHER: dep_ready alone constrains it.
                    cached_e[i] = e
                if e < 0:
                    if e == _BLOCKED:
                        continue  # structurally blocked: deps unblock later
                    e = _RW_BASE - e  # RD / WR: add the rank/bus floor
                    v = floor[fkey[i]]
                    if v > e:
                        e = v
                if e < pf:
                    e = pf
                if e < pe:
                    pe = e
                    pi = i
                    if e == pf:
                        break  # later candidates tie and lose on index
            memo_e[port] = pe
            memo_i[port] = pi
        if multi:
            best_e = INF
            best_idx = -1
            for port in ports_range:
                e = memo_e[port]
                if e < best_e or (e == best_e and memo_i[port] < best_idx):
                    best_e = e
                    best_idx = memo_i[port]
                    best_port = port
        else:
            best_e = memo_e[0]
            best_idx = memo_i[0]
        if best_idx < 0:
            raise SimulationError(
                "deadlock: no pending command is issuable "
                f"({remaining} remaining)"
            )

        i = best_idx
        cycle = best_e
        issue[i] = cycle
        comp = cycle + latency[i]
        completion[i] = comp
        kc = kind_code[i]
        if kc == _INT_COL or kc == _EXT_COL:
            bid = bank_id[i]
            gid = group_id[i]
            if is_read[i]:
                v = cycle + tRTP
                if v > b_pre[bid]:
                    b_pre[bid] = v
            elif kc == _EXT_COL:  # WR
                v = cycle + tCWL + tBURST + tWR
                if v > b_pre[bid]:
                    b_pre[bid] = v
            else:  # WRITEBACK / QREG_STORE: register data, no bus lag
                v = cycle + tBURST + tWR
                if v > b_pre[bid]:
                    b_pre[bid] = v
            if kc == _INT_COL and per_bank_pim:
                pb_io[bid] = cycle + tCCD_L
            else:
                g_io[gid] = cycle + tCCD_L
            if is_write[i]:
                if kc == _EXT_COL:  # WR
                    data_end = cycle + tCWL + tBURST
                else:
                    data_end = cycle + tBURST
                v = data_end + tWTR_L
                if v > g_wtr[gid]:
                    g_wtr[gid] = v
            flushes = (dirty_bank[bid], dirty_group[gid])
            if kc == _EXT_COL:
                rid = rank_arr[i]
                r_ext[rid] = cycle + tCCD_S
                if is_write[i]:  # WR
                    v = cycle + tCWL + tBURST + tWTR_S
                    if v > r_wtr[rid]:
                        r_wtr[rid] = v
                rd_same, wr_same, rd_other, wr_other = floor_off[
                    is_read[i]
                ]
                bi = bus_of_rank[rid]
                for r in bus_ranks[bi]:
                    if r == rid:
                        rd_f = cycle + rd_same
                        wr_f = cycle + wr_same
                    else:
                        rd_f = cycle + rd_other
                        wr_f = cycle + wr_other
                    v = r_ext[r]
                    if v > wr_f:
                        wr_f = v
                    if v > rd_f:
                        rd_f = v
                    v = r_wtr[r]
                    if v > rd_f:
                        rd_f = v
                    floor[2 * r] = wr_f
                    floor[2 * r + 1] = rd_f
                if multi:
                    for p in bus_ports[bi]:
                        stale[p] = 1
        elif kc == _ACT:
            bid = bank_id[i]
            rid = rank_arr[i]
            b_open[bid] = row_arr[i]
            b_col[bid] = cycle + tRCD
            b_pre[bid] = cycle + tRAS
            r_actwin[rid].append(cycle)
            r_lastact[rid] = cycle
            r_lastgrp[rid] = group_id[i]
            flushes = (dirty_bank[bid], dirty_rank[rid])
        elif kc == _PRE:
            bid = bank_id[i]
            b_open[bid] = CLOSED
            b_act[bid] = cycle + tRP
            flushes = (dirty_bank[bid],)
        elif kc == _ALU:
            if per_bank_pim:
                pb_alu[bank_id[i]] = cycle + tPIM
            else:
                g_alu[group_id[i]] = cycle + tPIM
            flushes = (dirty_group[group_id[i]],)
        else:  # _OTHER: no machine effects
            flushes = ()
        for lst in flushes:
            if lst:
                for j in lst:
                    cached_e[j] = None
                del lst[:]
        port_free[best_port] = cycle + 1
        stale[best_port] = 1

        p, q = prv[i], nxt[i]
        if p == _UNLINKED or q == _UNLINKED:
            link(i)
            p, q = prv[i], nxt[i]
        if p >= 0:
            nxt[p] = q
        else:
            heads[best_port] = q
        if q >= 0:
            prv[q] = p

        remaining -= 1
        if multi:
            for j in oidx[optr[i]:oend[i]]:
                left = ndeps[j] - 1
                ndeps[j] = left
                if comp > dep_ready[j]:
                    dep_ready[j] = comp
                if not left:
                    stale[port_of[j]] = 1
        else:
            for j in oidx[optr[i]:oend[i]]:
                ndeps[j] -= 1
                if comp > dep_ready[j]:
                    dep_ready[j] = comp
        if steady is not None:
            remaining -= steady.issued(i, cycle, best_port)
            if steady.idle:
                steady = None

    return issue
