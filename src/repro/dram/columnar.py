"""Columnar (struct-of-arrays) command streams and the exact scheduling loop.

A :class:`ColumnarStream` holds one command stream as parallel numpy
columns — opcode, rank, bankgroup, bank, row, col, channel, operand
fields, issue cycle — plus CSR-style dependency index arrays (both
directions: ``deps`` and the transposed dependents adjacency). It is
lossless: :meth:`ColumnarStream.from_commands` /
:meth:`ColumnarStream.to_commands` round-trip every
:class:`~repro.dram.commands.Command` field byte-identically, including
dependency tuples (order and duplicates preserved), tags and scaler
payloads. Kernel generators attach the columnar form to their stream
artifacts (see :class:`repro.kernels.artifact.CommandStreamArtifact`),
so the hot path never re-derives it.

:func:`schedule_columnar` is the simulator's one exact greedy FR-FCFS
loop (``engine="columnar"`` in
:class:`~repro.dram.scheduler.CommandScheduler`, and every fallback of
the periodic engine):

* **Per-run preparation.** Everything the issue loop needs per command
  — kind codes, completion latencies, flat bank/group/rank/bus ids,
  data-burst offsets, read/write flags, per-port queue links, initial
  dependency refcounts — is derived from the columns with numpy in one
  shot at the start of a cold run, and dropped when the run ends. Only
  the schedule-independent statistics (per-kind counts, per-port
  totals) outlive it, beside the issue-cycle memo.

* **Vectorized validation and statistics.** Backward-dependency and
  rank/channel range checks are single array comparisons (cached per
  geometry), and the :class:`~repro.dram.stats.TraceStats` counters are
  ``bincount`` results — every command issues exactly once, so they do
  not depend on the schedule at all.

* **Issue-cycle memoization.** The greedy schedule of a given (stream,
  substrate, window) is deterministic, so the resulting issue-cycle
  vector is memoized on the stream (whose columns are frozen read-only
  at construction, making identity caching sound) and replayed as one
  array copy on re-scheduling — what the service layer does all day
  across jobs, sweeps and figure harnesses.

The cold loop keeps the machine state in flat Python lists (banks,
bank groups, ranks and buses indexed by flat ids), caches each
candidate's earliest feasible cycle until one of the machines it read
changes (per-machine dirty lists), keeps per-port queues as
index-linked lists, and stops a port's scan at the first candidate
issuable at the port's own floor cycle (later candidates tie and lose
on stream index). Exactness against the reference greedy loop kept in
the test suite is enforced by golden and Hypothesis tests
(``tests/dram/test_engine_equivalence.py``).
"""

from __future__ import annotations

from collections import deque
from typing import Optional, Sequence

import numpy as np

from repro.dram.channel import TURNAROUND_GAP
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

# Command-kind classes driving the scheduling loops' earliest-cycle
# computation (shared with the periodic engine in repro.dram.steady).
_ACT = 0
_PRE = 1
_INT_COL = 2
_EXT_COL = 3
_ALU = 4
_OTHER = 5  # REF / MRW: no state machine constrains them


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
    is a value, and freezing is what makes the issue-cycle memo sound
    without re-hashing content. ``tags`` / ``scalers`` are kept as plain
    lists (or ``None`` when the whole stream carries none) purely for
    lossless round-tripping; no hot path reads them.
    """

    __slots__ = (
        "n", "kind", "rank", "bankgroup", "bank", "row", "col",
        "channel", "scale_id", "dst_reg", "src_reg", "position",
        "issue_cycle", "dep_indptr", "dep_indices", "out_indptr",
        "out_indices", "tags", "scalers", "_memo", "_structure_ok",
    )

    #: Bound on memoized schedules kept per stream (FIFO eviction) —
    #: mirrors the update model's small stream cache; one stream is
    #: typically scheduled under a handful of substrates at most.
    CACHE_MAX = 8

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
        tags: Optional[list] = None,
        scalers: Optional[list] = None,
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
        self.tags = tags
        self.scalers = scalers
        self._memo: dict = {}
        self._structure_ok: set = set()

    # ------------------------------------------------------------------
    def _transpose_deps(self) -> tuple[np.ndarray, np.ndarray]:
        """Dependents CSR (the transpose of the deps CSR), vectorized.

        Row order within each dependent list is ascending consumer
        index (a duplicated dependency appears twice) — exactly what
        :func:`repro.dram.steady.build_dependents` produces.
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
        kind = [0] * n
        rank = [0] * n
        bankgroup = [0] * n
        bank = [0] * n
        row = [0] * n
        col = [0] * n
        channel = [0] * n
        scale_id = [0] * n
        dst_reg = [0] * n
        src_reg = [0] * n
        position = [0] * n
        issue_cycle = [0] * n
        dep_indptr = [0] * (n + 1)
        dep_indices: list[int] = []
        tags: Optional[list] = None
        scalers: Optional[list] = None
        kind_index = KIND_INDEX
        for i, cmd in enumerate(commands):
            kind[i] = kind_index[cmd.kind]
            rank[i] = cmd.rank
            bankgroup[i] = cmd.bankgroup
            bank[i] = cmd.bank
            row[i] = cmd.row
            col[i] = cmd.col
            channel[i] = cmd.channel
            scale_id[i] = cmd.scale_id
            dst_reg[i] = cmd.dst_reg
            src_reg[i] = cmd.src_reg
            position[i] = cmd.position
            issue_cycle[i] = cmd.issue_cycle
            deps = cmd.deps
            if deps:
                dep_indices.extend(deps)
            dep_indptr[i + 1] = len(dep_indices)
            if cmd.tag is not None:
                if tags is None:
                    tags = [None] * n
                tags[i] = cmd.tag
            if cmd.scaler is not None:
                if scalers is None:
                    scalers = [None] * n
                scalers[i] = cmd.scaler
        return cls(
            kind=np.array(kind, dtype=np.int16),
            rank=np.array(rank, dtype=np.int32),
            bankgroup=np.array(bankgroup, dtype=np.int32),
            bank=np.array(bank, dtype=np.int32),
            row=np.array(row, dtype=np.int64),
            col=np.array(col, dtype=np.int64),
            channel=np.array(channel, dtype=np.int32),
            scale_id=np.array(scale_id, dtype=np.int32),
            dst_reg=np.array(dst_reg, dtype=np.int32),
            src_reg=np.array(src_reg, dtype=np.int32),
            position=np.array(position, dtype=np.int32),
            issue_cycle=np.array(issue_cycle, dtype=np.int64),
            dep_indptr=np.array(dep_indptr, dtype=np.int64),
            dep_indices=np.array(dep_indices, dtype=np.int64),
            tags=tags,
            scalers=scalers,
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
        scalers = self.scalers
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
            cmd.scaler = scalers[i] if scalers is not None else None
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
            for name in (
                "kind", "rank", "bankgroup", "bank", "row", "col",
                "channel", "scale_id", "dst_reg", "src_reg", "position",
                "issue_cycle", "dep_indptr", "dep_indices",
                "out_indptr", "out_indices",
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

    def _memo_put(self, key, value) -> None:
        self._memo[key] = value
        while len(self._memo) > self.CACHE_MAX:
            self._memo.pop(next(iter(self._memo)))


class ColumnarSchedule:
    """A scheduled columnar stream: the stream plus its issue cycles.

    Carried by :class:`~repro.dram.scheduler.ScheduleResult` for the
    columnar engine; ``Command`` objects are materialized lazily only
    if someone actually asks for them.
    """

    __slots__ = ("stream", "issue_cycle")

    def __init__(self, stream: ColumnarStream,
                 issue_cycle: np.ndarray) -> None:
        self.stream = stream
        self.issue_cycle = issue_cycle

    def to_commands(self) -> list[Command]:
        return self.stream.to_commands(issue_cycle=self.issue_cycle)


class _Prepared:
    """Flat arrays feeding one cold run of the scheduling loop.

    Derived from the columns with numpy at the start of a cold run and
    dropped when it ends: as Python lists they cost several times the
    stream's own columns, so no stream keeps them between runs. The
    loop consumes the queue links and dependency counters in place.
    """

    __slots__ = (
        "kc", "kidx", "lat", "bank_id", "group_id", "rank", "bus",
        "row", "big", "bg", "doff", "isrd", "iswr", "ndeps", "optr",
        "oidx", "heads", "tails", "nxt", "prv", "n_ports", "n_banks",
        "n_groups", "n_ranks", "n_buses", "counts", "port_issued",
    )

    def __init__(self, stream: ColumnarStream, timing, geometry,
                 issue_model, bus_ids) -> None:
        n = stream.n
        n_ranks = geometry.ranks
        n_bg = geometry.bankgroups
        bpg = geometry.banks_per_group
        kind = stream.kind.astype(np.int64)
        kc_arr = _KC_TABLE[kind]
        self.kc = kc_arr.tolist()
        self.kidx = kind.tolist()
        self.lat = _latency_table(timing)[kind].tolist()
        rank = stream.rank.astype(np.int64)
        bg = stream.bankgroup.astype(np.int64)
        bank = stream.bank.astype(np.int64)
        gid = rank * n_bg + bg
        self.bank_id = (gid * bpg + bank).tolist()
        self.group_id = gid.tolist()
        self.rank = rank.tolist()
        self.bus = np.asarray(bus_ids, dtype=np.int64)[rank].tolist()
        self.row = stream.row.tolist()
        self.big = bank.tolist()
        self.bg = bg.tolist()
        self.doff = np.where(
            kc_arr == _EXT_COL,
            np.where(
                kind == KIND_INDEX[CommandType.RD],
                timing.tCL,
                timing.tCWL,
            ),
            0,
        ).tolist()
        self.isrd = _ISRD_TABLE[kind].tolist()
        self.iswr = _ISWR_TABLE[kind].tolist()
        self.ndeps = np.diff(stream.dep_indptr).tolist()
        self.optr = stream.out_indptr.tolist()
        self.oidx = stream.out_indices.tolist()
        # Per-port pending queues as index-linked lists in stream order.
        n_ports = issue_model.n_ports
        port = np.asarray(issue_model.port_of_rank, dtype=np.int64)[rank]
        heads = [-1] * n_ports
        tails = [-1] * n_ports
        nxt = np.full(n, -1, dtype=np.int64)
        prv = np.full(n, -1, dtype=np.int64)
        for p in range(n_ports):
            idxs = np.flatnonzero(port == p)
            if len(idxs):
                heads[p] = int(idxs[0])
                tails[p] = int(idxs[-1])
                nxt[idxs[:-1]] = idxs[1:]
                prv[idxs[1:]] = idxs[:-1]
        self.heads = heads
        self.tails = tails
        self.nxt = nxt.tolist()
        self.prv = prv.tolist()
        self.n_ports = n_ports
        self.n_banks = n_ranks * n_bg * bpg
        self.n_groups = n_ranks * n_bg
        self.n_ranks = n_ranks
        self.n_buses = len(set(bus_ids))
        # Schedule-independent statistics: every command issues exactly
        # once, so per-kind counts and per-port totals are stream
        # properties, not schedule properties.
        kcounts = np.bincount(kind, minlength=len(KIND_ORDER))
        self.counts = {
            KIND_ORDER[k]: int(c)
            for k, c in enumerate(kcounts.tolist())
            if c
        }
        self.port_issued = np.bincount(port).tolist() if n else []


def schedule_columnar(
    stream: ColumnarStream,
    timing,
    geometry,
    issue_model,
    per_bank_pim: bool,
    window: int,
    bus_ids: Sequence[int],
) -> tuple[np.ndarray, TraceStats]:
    """Schedule a columnar stream; return (issue cycles, stats).

    Byte-identical to the reference greedy loop on every stream (the
    equivalence contract). Repeat scheduling of the same stream under
    the same substrate replays the memoized issue-cycle vector.
    """
    memo_key = (
        timing, geometry.ranks, geometry.bankgroups,
        geometry.banks_per_group, issue_model.port_of_rank,
        per_bank_pim, tuple(bus_ids), window,
    )
    hit = stream._memo.get(memo_key)
    if hit is None:
        prep = _Prepared(stream, timing, geometry, issue_model, bus_ids)
        issue, total_cycles = _schedule_cold(
            prep, timing, per_bank_pim, window
        )
        hit = (
            _freeze(np.array(issue, dtype=np.int64)),
            total_cycles,
            prep.counts,
            prep.port_issued,
        )
        stream._memo_put(memo_key, hit)
    issue, total_cycles, counts, port_issued = hit
    stats = TraceStats(
        counts=dict(counts),
        total_cycles=total_cycles,
        issued_commands=stream.n,
        port_issued=list(port_issued),
    )
    return issue, stats


def _schedule_cold(
    prep: _Prepared,
    timing,
    per_bank_pim: bool,
    window: int,
) -> tuple[list[int], int]:
    """The exact greedy selection loop over the prepared flat arrays.

    The four state machines (:mod:`repro.dram.bank`,
    :mod:`~repro.dram.bankgroup`, :mod:`~repro.dram.rank`,
    :mod:`~repro.dram.channel`) are flattened into plain lists indexed
    by the prepared flat ids, and their ``earliest`` / ``apply``
    methods are inlined below.
    """
    n = len(prep.kc)
    n_banks, n_groups = prep.n_banks, prep.n_groups
    n_ranks, n_buses = prep.n_ranks, prep.n_buses

    # Flattened machine state (the four state-machine classes' fields).
    CLOSED = -(1 << 62)  # "no open row" sentinel outside any row id
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
    r_lastact = [-1] * n_ranks
    r_lastgrp = [-1] * n_ranks
    r_actwin = [deque(maxlen=4) for _ in range(n_ranks)]
    bus_busy = [0] * n_buses
    bus_kind = [-1] * n_buses  # kind index, -1 == untouched bus
    bus_rank = [-1] * n_buses

    # Dirty lists: candidates whose cached cycle must be recomputed
    # when the corresponding state machine changes.
    dirty_bank: list[list[int]] = [[] for _ in range(n_banks)]
    dirty_group: list[list[int]] = [[] for _ in range(n_groups)]
    dirty_rank: list[list[int]] = [[] for _ in range(n_ranks)]
    dirty_bus: list[list[int]] = [[] for _ in range(n_buses)]

    kind_code = prep.kc
    kidx = prep.kidx
    latency = prep.lat
    bank_id = prep.bank_id
    group_id = prep.group_id
    rank_arr = prep.rank
    bus_arr = prep.bus
    row_arr = prep.row
    bank_in_group = prep.big
    bg_arr = prep.bg
    data_off = prep.doff
    is_read = prep.isrd
    is_write = prep.iswr
    optr = prep.optr
    oidx = prep.oidx
    ndeps = prep.ndeps
    nxt = prep.nxt
    prv = prep.prv
    heads = prep.heads
    tails = prep.tails
    n_ports = prep.n_ports

    dep_ready = [0] * n
    cached_e = [0] * n
    fresh = bytearray(n)
    completion = [0] * n
    issue = [-1] * n
    port_free = [0] * n_ports

    t = timing
    tRRD_L, tRRD_S, tFAW = t.tRRD_L, t.tRRD_S, t.tFAW
    tRCD, tRAS, tRP, tRTP, tWR = t.tRCD, t.tRAS, t.tRP, t.tRTP, t.tWR
    tBURST, tCCD_L, tCCD_S = t.tBURST, t.tCCD_L, t.tCCD_S
    tWTR_L, tWTR_S, tPIM = t.tWTR_L, t.tWTR_S, t.tPIM
    tCWL = t.tCWL
    rank_switch = t.rank_switch_penalty
    remaining = n
    ports_range = range(n_ports)

    INF = 1 << 62
    while remaining:
        best_e = INF
        best_idx = -1
        best_port = -1
        for port in ports_range:
            node = heads[port]
            if node < 0:
                continue
            pf = port_free[port]
            steps = window
            while node >= 0 and steps:
                i = node
                node = nxt[i]
                steps -= 1
                if ndeps[i]:
                    continue
                if fresh[i]:
                    e = cached_e[i]
                else:
                    kc = kind_code[i]
                    e = dep_ready[i]
                    if kc == _INT_COL or kc == _EXT_COL:
                        bid = bank_id[i]
                        gid = group_id[i]
                        if b_open[bid] != row_arr[i]:
                            e = -1  # closed or different row
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
                                rid = rank_arr[i]
                                v = r_ext[rid]
                                if v > e:
                                    e = v
                                if is_read[i]:
                                    v = r_wtr[rid]
                                    if v > e:
                                        e = v
                                bi = bus_arr[i]
                                lk = bus_kind[bi]
                                gap = 0
                                if lk >= 0:
                                    if lk != kidx[i]:
                                        gap = TURNAROUND_GAP
                                    if (
                                        bus_rank[bi] != rid
                                        and rank_switch > gap
                                    ):
                                        gap = rank_switch
                                v = bus_busy[bi] + gap - data_off[i]
                                if v > e:
                                    e = v
                                dirty_rank[rid].append(i)
                                dirty_bus[bi].append(i)
                        dirty_bank[bid].append(i)
                        dirty_group[gid].append(i)
                    elif kc == _ACT:
                        bid = bank_id[i]
                        rid = rank_arr[i]
                        if b_open[bid] != CLOSED:
                            e = -1
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
                            e = -1
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
                    # _OTHER: dep_ready alone constrains it.
                    cached_e[i] = e
                    fresh[i] = 1
                if e < 0:
                    continue  # structurally blocked: deps unblock later
                if e < pf:
                    e = pf
                if e < best_e or (e == best_e and i < best_idx):
                    best_e, best_idx, best_port = e, i, port
                if e == pf:
                    break
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
                bi = bus_arr[i]
                bus_busy[bi] = cycle + data_off[i] + tBURST
                bus_kind[bi] = kidx[i]
                bus_rank[bi] = rid
                flushes = (
                    dirty_bank[bid],
                    dirty_group[gid],
                    dirty_rank[rid],
                    dirty_bus[bi],
                )
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
                    fresh[j] = 0
                del lst[:]
        port_free[best_port] = cycle + 1

        p, q = prv[i], nxt[i]
        if p >= 0:
            nxt[p] = q
        else:
            heads[best_port] = q
        if q >= 0:
            prv[q] = p
        else:
            tails[best_port] = p

        remaining -= 1
        for j in oidx[optr[i]:optr[i + 1]]:
            ndeps[j] -= 1
            if comp > dep_ready[j]:
                dep_ready[j] = comp

    return issue, (max(completion) if n else 0)
