"""Columnar (struct-of-arrays) command streams and the exact scheduling loop.

A :class:`ColumnarStream` holds one command stream as parallel numpy
columns — opcode, rank, bankgroup, bank, row, col, channel, operand
fields, issue cycle — plus CSR-style dependency index arrays (both
directions: ``deps`` and the transposed dependents adjacency). It is
lossless: :meth:`ColumnarStream.from_commands` /
:meth:`ColumnarStream.to_commands` round-trip every
:class:`~repro.dram.commands.Command` field byte-identically, including
dependency tuples (order and duplicates preserved), tags and scaler
payloads. Kernel generators attach the columnar form: they emit
straight into it through a :class:`StreamBuilder` (per-command integer
rows, a flat CSR dependency list, :class:`TagCodes` instead of tag
strings) and tile the periodic body of a sampled stream with
:func:`tile_block`, so their artifacts hold the stream from
construction and ``artifact.commands`` is only a view that
:meth:`ColumnarStream.to_commands` materializes on first read (see
:class:`repro.kernels.artifact.CommandStreamArtifact`). The hot path
never builds ``Command`` objects.

:func:`schedule_columnar` is the simulator's one exact greedy FR-FCFS
loop, behind every :meth:`~repro.dram.scheduler.CommandScheduler.run`
(given period metadata, the run adds a
:class:`~repro.dram.steady.SteadyTracker` that replays locked
steady-state sweeps in place):

* **Per-run preparation.** Everything the issue loop needs per command
  — kind codes, completion latencies, flat bank/group/rank/bus ids,
  read/write flags, floor-table slots, out-edges, per-port queue links,
  initial dependency refcounts — is derived from the columns with numpy
  during a run, and dropped when the run ends. Only the refcounts and
  ports become Python lists up front; the rest are filled chunk by
  chunk when first needed (:class:`_Prepared`), so commands a
  steady-state replay issues mostly never get them, and no replayed
  command is written to a Python list: the issue vector is assembled
  with numpy from the replay records.

* **Vectorized validation and statistics.** Backward-dependency and
  rank/channel range checks are single array comparisons (cached per
  geometry), and the :class:`~repro.dram.stats.TraceStats` counters are
  ``bincount`` results — every command issues exactly once, so they do
  not depend on the schedule at all.

The cold loop (:func:`_schedule_cold`) keeps the machine state in flat
Python lists and per-port queues as index-linked lists, and caches each
candidate's earliest cycle, the rank / data-bus floors and each port's
scan result. Exactness against the reference greedy loop kept in the
test suite is enforced by golden, hand-built and Hypothesis tests
(``tests/dram/test_engine_equivalence.py``).
"""

from __future__ import annotations

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


class ColumnarStream:
    """One command stream as parallel read-only numpy columns.

    Columns are frozen at construction (``writeable=False``): a stream
    is a value, so artifacts can share it between runs and results.
    ``tags`` / ``scalers`` exist purely for
    lossless round-tripping (no hot path reads them): ``tags`` is a
    plain list, or ``None`` when the whole stream carries none, given
    either as strings or as :class:`TagCodes` rendered on each read;
    ``scalers`` is stored sparsely (index -> payload) and read back as
    a list the same way.
    """

    __slots__ = (
        "n", "kind", "rank", "bankgroup", "bank", "row", "col",
        "channel", "scale_id", "dst_reg", "src_reg", "position",
        "issue_cycle", "dep_indptr", "dep_indices", "out_indptr",
        "out_indices", "_tags", "_tag_codes", "_scalers",
        "_structure_ok",
    )

    #: The per-command columns (everything but the dependency CSR).
    COLUMNS = (
        "kind", "rank", "bankgroup", "bank", "row", "col", "channel",
        "scale_id", "dst_reg", "src_reg", "position", "issue_cycle",
    )

    def __init__(
        self,
        *,
        kind: np.ndarray,
        rank: np.ndarray,
        bankgroup: np.ndarray,
        bank: np.ndarray,
        row: np.ndarray,
        col: np.ndarray,
        channel: np.ndarray,
        scale_id: np.ndarray,
        dst_reg: np.ndarray,
        src_reg: np.ndarray,
        position: np.ndarray,
        issue_cycle: np.ndarray,
        dep_indptr: np.ndarray,
        dep_indices: np.ndarray,
        tags: "Optional[list | TagCodes]" = None,
        scalers: Optional[dict[int, object]] = None,
    ) -> None:
        self.n = int(len(kind))
        self.kind = _freeze(np.asarray(kind, dtype=np.int16))
        self.rank = _freeze(np.asarray(rank, dtype=np.int32))
        self.bankgroup = _freeze(np.asarray(bankgroup, dtype=np.int32))
        self.bank = _freeze(np.asarray(bank, dtype=np.int32))
        self.row = _freeze(np.asarray(row, dtype=np.int64))
        self.col = _freeze(np.asarray(col, dtype=np.int64))
        self.channel = _freeze(np.asarray(channel, dtype=np.int32))
        self.scale_id = _freeze(np.asarray(scale_id, dtype=np.int32))
        self.dst_reg = _freeze(np.asarray(dst_reg, dtype=np.int32))
        self.src_reg = _freeze(np.asarray(src_reg, dtype=np.int32))
        self.position = _freeze(np.asarray(position, dtype=np.int32))
        self.issue_cycle = _freeze(np.asarray(issue_cycle, dtype=np.int64))
        self.dep_indptr = _freeze(np.asarray(dep_indptr, dtype=np.int64))
        self.dep_indices = _freeze(np.asarray(dep_indices, dtype=np.int64))
        out_indptr, out_indices = self._transpose_deps()
        self.out_indptr = _freeze(out_indptr)
        self.out_indices = _freeze(out_indices)
        if isinstance(tags, TagCodes):
            self._tags, self._tag_codes = None, tags
        else:
            self._tags, self._tag_codes = tags, None
        self._scalers = scalers or None
        self._structure_ok: set = set()

    @property
    def tags(self) -> Optional[list]:
        """Per-command tag strings (``None`` when the stream has none).
        Encoded tags are rendered on every read and never kept."""
        if self._tag_codes is not None:
            return self._tag_codes.decode()
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
    def _transpose_deps(self) -> tuple[np.ndarray, np.ndarray]:
        """Dependents CSR (the transpose of the deps CSR), vectorized.

        Row order within each dependent list is ascending consumer
        index (a duplicated dependency appears twice), the order a
        ``Command`` list's dependency tuples give.
        """
        n = self.n
        counts = np.diff(self.dep_indptr)
        rows = np.repeat(np.arange(n, dtype=np.int64), counts)
        order = np.argsort(self.dep_indices, kind="stable")
        out_indices = rows[order]
        out_counts = np.bincount(
            self.dep_indices, minlength=n
        ) if len(self.dep_indices) else np.zeros(n, dtype=np.int64)
        out_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(out_counts, out=out_indptr[1:])
        return out_indptr, out_indices

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
        kinds = self.kind.tolist()
        ranks = self.rank.tolist()
        bgs = self.bankgroup.tolist()
        banks = self.bank.tolist()
        rows = self.row.tolist()
        cols = self.col.tolist()
        channels = self.channel.tolist()
        scale_ids = self.scale_id.tolist()
        dsts = self.dst_reg.tolist()
        srcs = self.src_reg.tolist()
        positions = self.position.tolist()
        cycles = (
            self.issue_cycle if issue_cycle is None else issue_cycle
        ).tolist()
        indptr = self.dep_indptr.tolist()
        indices = self.dep_indices.tolist()
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
            cmd.row = rows[i]
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
        """Bytes held by the numpy columns (the memory-win metric)."""
        return sum(
            getattr(self, name).nbytes
            for name in self.COLUMNS + (
                "dep_indptr", "dep_indices", "out_indptr", "out_indices",
            )
        )

    # ------------------------------------------------------------------
    def check_structure(self, geometry) -> None:
        """Vectorized ``run()`` precondition checks (cached).

        Mirrors the scheduler's per-command validation loops: deps must
        point strictly backwards, ranks and channels must fit the
        geometry. Raises :class:`SimulationError` naming the first
        offender exactly as the scalar loops do.
        """
        key = (geometry.ranks, geometry.channels)
        if key in self._structure_ok:
            return
        n = self.n
        if len(self.dep_indices):
            counts = np.diff(self.dep_indptr)
            rows = np.repeat(np.arange(n, dtype=np.int64), counts)
            bad = (self.dep_indices >= rows) | (self.dep_indices < 0)
            if bad.any():
                first = int(np.argmax(bad))
                raise SimulationError(
                    f"command {int(rows[first])} has illegal dependency "
                    f"{int(self.dep_indices[first])}"
                )
        bad_rank = (self.rank < 0) | (self.rank >= geometry.ranks)
        if bad_rank.any():
            first = int(np.argmax(bad_rank))
            raise SimulationError(f"command {first} rank out of range")
        bad_ch = (self.channel < 0) | (self.channel >= geometry.channels)
        if bad_ch.any():
            first = int(np.argmax(bad_ch))
            raise SimulationError(
                f"command {first} channel {int(self.channel[first])} "
                f"out of range (geometry has {geometry.channels})"
            )
        self._structure_ok.add(key)

    def repeats(self, lo: int, hi: int, shift: int, moving: int) -> bool:
        """Whether commands ``[lo, hi)`` repeat ``[lo - shift, hi -
        shift)``: same kind and coordinates, and each dependency moved
        by ``shift`` if it points at or past ``moving`` (into a periodic
        body), else unchanged (into what precedes it)."""
        if hi > self.n:
            return False
        a, b = slice(lo, hi), slice(lo - shift, hi - shift)
        ptr, deps = self.dep_indptr, self.dep_indices
        here, back = ptr[lo:hi + 1], ptr[lo - shift:hi - shift + 1]
        before = deps[back[0]:back[-1]]
        return all(
            np.array_equal(col[a], col[b])
            for col in (self.kind, self.rank, self.bankgroup, self.bank,
                        self.row, self.channel)
        ) and np.array_equal(here - here[0], back - back[0]) and (
            np.array_equal(
                deps[here[0]:here[-1]],
                before + shift * (before >= moving),
            )
        )

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


#: Per-command integer fields of a :class:`StreamBuilder` row, in order
#: (the last three are the :class:`TagCodes` columns).
BUILD_FIELDS = (
    "kind", "rank", "bankgroup", "bank", "row", "col", "scale_id",
    "dst_reg", "src_reg", "position", "tag", "tag_a", "tag_b",
)

#: Fields a periodic block may advance from one copy to the next (the
#: column address and the column-valued tag arguments); every other
#: field must repeat exactly.
_AFFINE_FIELDS = frozenset({"col", "tag_a", "tag_b"})
_FIXED_FIELD_MASK = np.array(
    [name not in _AFFINE_FIELDS for name in BUILD_FIELDS]
)


def tile_block(
    block: np.ndarray,
    step: np.ndarray,
    dep_counts: np.ndarray,
    dep_indices: np.ndarray,
    dep_step: np.ndarray,
    copies: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Copies ``1..copies`` of one block of commands, as new rows.

    ``block`` holds one row of integer fields per command and ``step``
    the per-position advance per copy (copy ``k`` is ``block + k *
    step``). The block's dependencies are CSR-shaped (``dep_counts``
    per command, flat ``dep_indices``); copy ``k`` of a dependency is
    ``index + k * dep_step`` (``dep_step`` is 0 for a dependency on a
    command before the periodic region, the block length for one that
    moves with the block). Returns ``(rows, dep_counts, dep_indices)``
    of all copies, in stream order.
    """
    k = np.arange(1, copies + 1, dtype=np.int64)
    rows = (block[None] + k[:, None, None] * step[None]).reshape(
        -1, block.shape[1]
    )
    indices = (
        dep_indices[None] + k[:, None] * dep_step[None]
    ).reshape(-1)
    return rows, np.tile(dep_counts, copies), indices


class StreamBuilder:
    """An append-only command stream built straight into columns.

    Kernel generators emit through a builder instead of building
    :class:`~repro.dram.commands.Command` objects: :meth:`append` takes
    one row of :data:`BUILD_FIELDS` plus the command's dependency
    indices, and :meth:`tile` repeats the stream's last periodic block
    with numpy. :meth:`build` returns the frozen :class:`ColumnarStream`
    (channel 0, unscheduled).
    """

    def __init__(self) -> None:
        self.n = 0
        self._rows: list[tuple] = []  # pending scalar rows
        self._counts: list[int] = []  # pending dependency counts
        self._deps: list[int] = []  # pending dependency indices
        self._mat = np.zeros((0, len(BUILD_FIELDS)), dtype=np.int64)
        self._dep_counts = np.zeros(0, dtype=np.int64)
        self._dep_indices = np.zeros(0, dtype=np.int64)
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

    def columns(self, start: int, end: int) -> np.ndarray:
        """Rows ``start..end`` as an ``(n, len(BUILD_FIELDS))`` array."""
        self._flush()
        return self._mat[start:end]

    def tile(self, start: int, span: int, copies: int) -> bool:
        """Repeat a periodic block ``copies`` more times.

        The stream must end with two consecutive blocks of ``span``
        commands starting at ``start``. Their difference gives the
        per-position step of every field and dependency; the tile goes
        ahead only if that difference has the shape a periodic body
        has: fields other than the column address repeat exactly,
        every dependency either repeats (it points before the periodic
        region) or moves by exactly ``span``, all repeating ones point
        below all moving ones, and no command carries a scaler.
        Returns whether it tiled.
        """
        self._flush()
        mid, end = start + span, start + 2 * span
        if end != self.n or start < 0:
            return False
        if any(start <= i for i in self._scalers):
            return False
        first = self._mat[start:mid]
        second = self._mat[mid:end]
        step = second - first
        if step[:, _FIXED_FIELD_MASK].any():
            return False
        counts = self._dep_counts[start:mid]
        if not np.array_equal(counts, self._dep_counts[mid:end]):
            return False
        offsets = np.concatenate([[0], np.cumsum(self._dep_counts)])
        a_deps = self._dep_indices[offsets[start]:offsets[mid]]
        b_deps = self._dep_indices[offsets[mid]:offsets[end]]
        moved = b_deps - a_deps
        fixed = moved == 0
        if not (fixed | (moved == span)).all():
            return False
        if fixed.any() and not fixed.all():
            if a_deps[fixed].max() >= a_deps[~fixed].min():
                return False
        rows, t_counts, t_deps = tile_block(
            second, step, counts, b_deps,
            np.where(fixed, 0, span), copies,
        )
        self._mat = np.concatenate([self._mat, rows])
        self._dep_counts = np.concatenate([self._dep_counts, t_counts])
        self._dep_indices = np.concatenate([self._dep_indices, t_deps])
        self.n += copies * span
        return True

    def build(self) -> "ColumnarStream":
        """The finished stream."""
        self._flush()
        mat = self._mat
        n = self.n
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(self._dep_counts, out=indptr[1:])
        field = {name: mat[:, i] for i, name in enumerate(BUILD_FIELDS)}
        return ColumnarStream(
            kind=field["kind"],
            rank=field["rank"],
            bankgroup=field["bankgroup"],
            bank=field["bank"],
            row=field["row"],
            col=field["col"],
            channel=np.zeros(n, dtype=np.int32),
            scale_id=field["scale_id"],
            dst_reg=field["dst_reg"],
            src_reg=field["src_reg"],
            position=field["position"],
            issue_cycle=np.full(n, -1, dtype=np.int64),
            dep_indptr=indptr,
            dep_indices=self._dep_indices,
            tags=TagCodes(
                self._templates, field["tag"], field["tag_a"],
                field["tag_b"],
            ),
            scalers=dict(self._scalers),
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

    Derived from the columns at the start of a run and dropped when it
    ends: as Python lists they cost several times the stream's own
    columns, so no stream keeps them between runs. The loop consumes
    the queue links and dependency counters in place.

    Only the dependency counters and ports are built up front (out-edges
    and replay relinks reach any index). The rest is built from the
    stream's columns :attr:`CHUNK` commands at a time, on first use:
    the static lists (kind code, latency, flat bank / group / rank / bus
    ids, row, bank group, read / write flags, floor-table slot,
    out-edges; :attr:`prepared` counts them) by :meth:`build`, when the
    scan first evaluates a slot whose kind code reads :data:`_UNBUILT`;
    the per-port queue links ``nxt`` / ``prv`` by :meth:`link`, when a
    slot reading :data:`_UNLINKED` is first needed. A link the loop or
    a replay writes into a chunk not linked yet (an unlink's successor,
    a relink's ends) survives: :meth:`link` fills only sentinel slots.
    Commands a steady-state replay issues are never scanned past the
    lookahead window, so a replayed stream builds little more than its
    simulated spans.
    """

    __slots__ = (
        "kc", "lat", "bank_id", "group_id", "rank", "bus", "row",
        "bg", "isrd", "iswr", "fkey", "port", "ndeps",
        "optr", "oidx", "heads", "nxt", "prv", "n_ports",
        "n_banks", "n_groups", "n_ranks", "bus_ranks", "bus_ports",
        "counts", "port_issued", "n", "prepared", "_stream", "_n_bg",
        "_bpg", "_kinds", "_bus_of_rank", "_links",
    )

    #: Commands per on-demand build of the static lists and the links.
    CHUNK = 256

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
        self._bus_of_rank = np.asarray(bus_ids, dtype=np.int64)
        self.kc = [_UNBUILT] * n
        (self.lat, self.bank_id, self.group_id, self.rank, self.bus,
         self.row, self.bg, self.isrd, self.iswr, self.fkey) = (
            [0] * n for _ in range(10)
        )
        self.optr = [0] * (n + 1)
        self.oidx = [0] * len(stream.out_indices)
        self.ndeps = np.diff(stream.dep_indptr).tolist()
        # Per-port pending queues as index-linked lists in stream order
        # (:meth:`link` copies a chunk of these columns).
        n_ports = issue_model.n_ports
        port = np.asarray(issue_model.port_of_rank)[stream.rank]
        self.port = port.tolist()
        n_buses = len(set(bus_ids))
        self.bus_ranks = [
            [r for r in range(n_ranks) if bus_ids[r] == b]
            for b in range(n_buses)
        ]
        # Ports holding RD/WR on each bus: the only ports whose scans a
        # burst on that bus can change besides the issuing port's own.
        is_ext = _KC_TABLE[stream.kind] == _EXT_COL
        ext_pairs = np.bincount(
            self._bus_of_rank[stream.rank[is_ext]] * n_ports
            + port[is_ext],
            minlength=n_buses * n_ports,
        )
        self.bus_ports = [[] for _ in range(n_buses)]
        for pair in np.flatnonzero(ext_pairs).tolist():
            self.bus_ports[pair // n_ports].append(pair % n_ports)
        self.heads = [-1] * n_ports
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
        # Schedule-independent statistics: every command issues exactly
        # once, so per-kind counts and per-port totals are stream
        # properties, not schedule properties.
        kcounts = np.bincount(stream.kind, minlength=len(KIND_ORDER))
        self.counts = {
            KIND_ORDER[k]: c for k, c in enumerate(kcounts.tolist()) if c
        }
        self.port_issued = np.bincount(port).tolist() if n else []

    def build(self, i: int) -> None:
        """Fill the static slots of the chunk holding command ``i``."""
        a = i - i % self.CHUNK
        b = min(a + self.CHUNK, self.n)
        s = self._stream
        rank = s.rank[a:b]
        bg = s.bankgroup[a:b]
        gid = rank * self._n_bg + bg
        kc, lat, isrd, iswr = self._kinds[s.kind[a:b]].T
        # The rank/bus floor-table slot of an RD is 2 * rank + 1, of a
        # WR 2 * rank; only RD / WR read it.
        for values, column in (
            (self.kc, kc),
            (self.lat, lat),
            (self.bank_id, gid * self._bpg + s.bank[a:b]),
            (self.group_id, gid),
            (self.rank, rank),
            (self.bus, self._bus_of_rank[rank]),
            (self.row, s.row[a:b]),
            (self.bg, bg),
            (self.isrd, isrd),
            (self.iswr, iswr),
            (self.fkey, 2 * rank + isrd),
        ):
            values[a:b] = column.tolist()
        ptr = s.out_indptr
        self.optr[a:b + 1] = ptr[a:b + 1].tolist()
        lo, hi = int(ptr[a]), int(ptr[b])
        self.oidx[lo:hi] = s.out_indices[lo:hi].tolist()
        self.prepared += b - a

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
    stats = TraceStats(
        counts=prep.counts,
        total_cycles=(
            int((issue + prep._kinds[stream.kind, 1]).max())
            if stream.n else 0
        ),
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
    bus_arr = prep.bus
    row_arr = prep.row
    bg_arr = prep.bg
    is_read = prep.isrd
    is_write = prep.iswr
    fkey = prep.fkey
    port_of = prep.port
    bus_ranks = prep.bus_ranks
    bus_ports = prep.bus_ports
    optr = prep.optr
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
                                    if bg_arr[i] == r_lastgrp[rid]
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
                bi = bus_arr[i]
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
            r_lastgrp[rid] = bg_arr[i]
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
            for j in oidx[optr[i]:optr[i + 1]]:
                left = ndeps[j] - 1
                ndeps[j] = left
                if comp > dep_ready[j]:
                    dep_ready[j] = comp
                if not left:
                    stale[port_of[j]] = 1
        else:
            for j in oidx[optr[i]:optr[i + 1]]:
                ndeps[j] -= 1
                if comp > dep_ready[j]:
                    dep_ready[j] = comp
        if steady is not None:
            remaining -= steady.issued(i, cycle, best_port)
            if steady.idle:
                steady = None

    return issue
