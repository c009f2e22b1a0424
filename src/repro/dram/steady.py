"""Periodic steady-state command scheduling (the ``"periodic"`` engine).

GradPIM update-phase streams are stripe-periodic by construction: after
a short prologue (row activates, scaler MRWs), every *sweep* — one
round-robin pass over all stripes — issues the same command pattern
against the same bank/bank-group/rank/bus state-machine shape. The
scheduler therefore converges to a steady state in which each sweep
takes exactly the same number of cycles, and simulating every sweep of
a long sample window is redundant work.

This module exploits that regularity *without giving up cycle
exactness*:

* Kernel generators annotate their streams with :class:`StreamPeriod`
  metadata — per segment (dequantize phase, each update pass, quantize
  phase), the index range of the periodic body and the commands per
  sweep.

* :func:`schedule_steady` runs the same event-driven greedy loop as
  the columnar engine (:func:`repro.dram.columnar.schedule_columnar`)
  over ``Command`` lists, but tracks the *frontier* (lowest unissued
  stream index) and, each time it crosses a sweep boundary, fingerprints
  the complete dynamic scheduler state: every bank / bank-group / rank /
  data-bus timer, the per-port issue floors, the set of commands issued
  ahead of the frontier, and the dependency counters and readiness of
  every command the lookahead window can currently see. Timer values are
  compared *relative to the boundary's anchor cycle* when recent, and
  absolutely when stale (older than :func:`stale_floor` cycles — too old
  to ever bind a future issue decision).

* When two consecutive boundary fingerprints match, the machine has
  entered a cycle: the issue events of the matched sweep (recorded as
  ``(index, cycle, port)`` triples) will repeat verbatim, shifted by
  ``period`` commands and ``delta`` cycles per sweep. After verifying
  that the upcoming commands really are shape-identical to the matched
  sweep (kind, geometry coordinates, and dependency structure under the
  shift), the engine *replays the sweep arithmetically*: issue cycles,
  completions, statistics, dependency resolution and queue removal are
  computed in closed form for all but the last few sweeps of the
  segment, the machine state advances by ``skipped * delta``, and the
  event loop resumes to simulate the segment tail (where lookahead into
  the next phase perturbs the pattern) for real.

The result is *byte-identical* to the reference greedy loop — the same
issue cycle for every command and the same :class:`TraceStats` — which
is enforced by golden and Hypothesis property tests
(``tests/dram/test_steady.py``). Streams that never lock (irregular
patterns, perturbed dependencies, windows too small to settle) simply
simulate every command, so the engine transparently degrades to plain
exact scheduling, including deadlock detection. Streams without period
metadata never reach this module: the scheduler routes them to the
columnar engine.

Soundness of the lock
---------------------

The fingerprint is a sufficient statistic for the scheduler's future:
the greedy loop's next decision depends only on (a) the visible
candidates per port and their dependency state — captured rel-indexed
per port up to the lookahead window, (b) the machine timers — captured
rel-cycle when live, and (c) the static shape of the not-yet-visible
stream — verified explicitly before a skip. A timer older than the
stale floor cannot bind any future issue (every constraint the state
machines impose spans at most a few hundred cycles), so stale values
are compared for identity rather than shift; a value that drifts
through the live band mismatches and simply prevents locking. Two
additional guards keep the lock conservative: the anchor delta must be
positive, and no issue during the matched sweep may dip near the stale
floor (monotonicity guard).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.dram.bank import BankState
from repro.dram.bankgroup import BankGroupState
from repro.dram.channel import DataBusState, TURNAROUND_GAP
from repro.dram.columnar import (
    _ACT,
    _ALU,
    _EXT_COL,
    _INT_COL,
    _KIND_CODE,
    _PRE,
)
from repro.dram.commands import (
    Command,
    CommandType,
    READ_COMMANDS,
    WRITE_COMMANDS,
    command_latency,
)
from repro.dram.rank import RankState
from repro.dram.stats import TraceStats
from repro.errors import ConfigError, SimulationError

#: Test/debug hook: when set to a list, every boundary snapshot is
#: appended as ``(segment_index, boundary, anchor, fingerprint)``.
_DEBUG_SNAPSHOTS: Optional[list] = None


def build_dependents(commands: Sequence[Command]) -> list[list[int]]:
    """Adjacency from each command to the commands that depend on it.

    The periodic engine's loop walks it on every issue; kernel
    artifacts cache it (``CommandStreamArtifact.dependents``) so warm
    samples re-scheduled under several substrates build it once.
    """
    out: list[list[int]] = [[] for _ in commands]
    for i, cmd in enumerate(commands):
        for d in cmd.deps:
            out[d].append(i)
    return out


# ----------------------------------------------------------------------
# Period metadata (emitted by the kernel generators)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PeriodSegment:
    """One periodic body inside a command stream.

    ``[start, end)`` covers whole sweeps of exactly ``period`` commands
    each; the sweep that precedes ``start`` (row activates, different
    length) is the segment's prologue and is always simulated.
    ``columns_per_sweep`` records how many high-precision columns one
    sweep advances the sample by — the scaling knob that lets
    :class:`~repro.system.update_model.UpdatePhaseModel` translate
    sweep counts between sample widths.
    """

    start: int
    end: int
    period: int
    columns_per_sweep: int = 1

    def __post_init__(self) -> None:
        if self.start < 0 or self.end < self.start:
            raise ConfigError(
                f"bad segment range [{self.start}, {self.end})"
            )
        if self.period < 1:
            raise ConfigError(f"period must be >= 1, got {self.period}")
        if (self.end - self.start) % self.period:
            raise ConfigError(
                f"segment [{self.start}, {self.end}) is not a whole "
                f"number of {self.period}-command sweeps"
            )
        if self.columns_per_sweep < 1:
            raise ConfigError(
                "columns_per_sweep must be >= 1, got "
                f"{self.columns_per_sweep}"
            )

    @property
    def sweeps(self) -> int:
        """Body sweeps in this segment."""
        return (self.end - self.start) // self.period


@dataclass(frozen=True)
class StreamPeriod:
    """Period metadata for one generated command stream."""

    segments: tuple[PeriodSegment, ...]
    #: Columns per stripe the stream samples (after precision rounding).
    columns: int

    def __post_init__(self) -> None:
        prev_end = 0
        for seg in self.segments:
            if seg.start < prev_end:
                raise ConfigError(
                    "period segments must be ordered and disjoint"
                )
            prev_end = seg.end
        if self.columns < 1:
            raise ConfigError(f"columns must be >= 1, got {self.columns}")


class SegmentRecorder:
    """Builds :class:`StreamPeriod` metadata while an emitter runs.

    The emitter calls :meth:`begin` when a phase starts, :meth:`sweep`
    at the start of every sweep, and :meth:`finish` once at the end.
    The recorder derives each segment's periodic body as the longest
    uniform-length suffix of its sweeps (the first sweep usually
    carries row activates and is longer), and drops segments with
    fewer than two body sweeps — nothing to lock onto.
    """

    def __init__(self, columns: int) -> None:
        self.columns = columns
        self._open: Optional[tuple[int, list[int]]] = None  # (cps, marks)
        self._done: list[tuple[int, list[int], int]] = []

    def begin(self, columns_per_sweep: int, position: int) -> None:
        self.end(position)
        self._open = (columns_per_sweep, [])

    def sweep(self, position: int) -> None:
        if self._open is not None:
            self._open[1].append(position)

    def end(self, position: int) -> None:
        if self._open is not None:
            cps, marks = self._open
            self._done.append((cps, marks, position))
            self._open = None

    def finish(self, position: int) -> StreamPeriod:
        self.end(position)
        segments = []
        for cps, marks, end in self._done:
            bounds = marks + [end]
            lengths = [
                bounds[i + 1] - bounds[i] for i in range(len(marks))
            ]
            if not lengths:
                continue
            period = lengths[-1]
            first = len(lengths)
            while first > 0 and lengths[first - 1] == period:
                first -= 1
            if period >= 1 and len(lengths) - first >= 2:
                segments.append(
                    PeriodSegment(
                        start=bounds[first],
                        end=end,
                        period=period,
                        columns_per_sweep=cps,
                    )
                )
        return StreamPeriod(
            segments=tuple(segments), columns=self.columns
        )


# ----------------------------------------------------------------------
# Lock bookkeeping
# ----------------------------------------------------------------------
@dataclass
class SegmentLock:
    """A confirmed steady-state cycle for one segment.

    The machine may repeat with a *super-period* of several sweeps
    (register alternation and bus phase drift commonly settle into
    two- or three-sweep cycles); ``sweeps_per_period`` records it, and
    ``delta``/``counts``/``port_counts`` describe one full super-period.
    """

    delta: int  # cycles per super-period in steady state
    counts: dict[CommandType, int]  # commands per super-period, by kind
    port_counts: tuple[int, ...]  # commands per super-period, by port
    locked_at: int  # boundary index at which the pair confirmed
    sweeps_per_period: int  # structural sweeps per machine cycle
    tail_sweeps: int  # sweeps the lookahead horizon contaminates
    margin_ok: bool  # lock confirmed clear of the contaminated tail
    #: The segment's remaining body verified statically shape-periodic
    #: under the locked shift (set by a successful replay, or by the
    #: standalone check when there was no room to skip). A lock whose
    #: shape never verified must not be extrapolated from.
    shape_ok: bool = False
    skipped_sweeps: int = 0  # sweeps replayed arithmetically


@dataclass
class PeriodicOutcome:
    """What the periodic engine did with one stream."""

    locks: list[Optional[SegmentLock]] = field(default_factory=list)
    simulated: int = 0  # commands scheduled by the event loop
    skipped: int = 0  # commands annotated arithmetically
    reason: str = ""  # why the fast path did not engage (if it didn't)

    @property
    def engaged(self) -> bool:
        return self.skipped > 0

    @property
    def all_locked(self) -> bool:
        """Every segment locked with a clean tail margin *and* a
        statically verified shape — the precondition for closing the
        form over more sweeps than the stream contains."""
        return bool(self.locks) and all(
            lock is not None and lock.margin_ok and lock.shape_ok
            for lock in self.locks
        )


def stale_floor(timing) -> int:
    """Cycles after which an untouched timer cannot bind any decision.

    Every constraint the state machines impose reaches at most one of
    the spans below past the cycle that set it; twice their maximum is
    a conservative horizon (refresh timings are analytical and never
    enter the state machines). The lock's monotonicity guard only
    accepts a period whose issues stayed above ``anchor - floor // 2``,
    so a stale-classified value sits at least half the floor below any
    cycle the schedule can ever produce again — it can never be the
    binding term of a future issue, which is what makes comparing stale
    values for identity (rather than shift) sound.
    """
    t = timing
    span = max(
        t.tRCD + t.tRAS + t.tRP,
        t.tCL + t.tCWL + 2 * t.tBURST + t.tWR + t.tWTR_L,
        t.tFAW,
        t.tCCD_L,
        t.tPIM,
        t.rank_switch_penalty + TURNAROUND_GAP,
        t.tMOD,
    )
    return 2 * span


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
def schedule_steady(
    timing,
    geometry,
    issue_model,
    per_bank_pim: bool,
    window: int,
    bus_ids: Sequence[int],
    commands: list[Command],
    dependents: Optional[Sequence[Sequence[int]]] = None,
    period: Optional[StreamPeriod] = None,
) -> tuple[TraceStats, PeriodicOutcome]:
    """Annotate ``commands`` with issue cycles; return stats + outcome.

    Produces exactly the schedule the greedy loop produces, skipping
    locked steady-state sweeps arithmetically where the period metadata
    allows it. ``commands`` must already be validated and carry
    ``issue_cycle == -1``; the caller owns copying. ``dependents``
    (see :func:`build_dependents`) is built here when not supplied.
    """
    outcome = PeriodicOutcome()
    segments = tuple(period.segments) if period is not None else ()
    outcome.locks = [None] * len(segments)

    n = len(commands)
    n_ranks = geometry.ranks
    n_bg = geometry.bankgroups
    bpg = geometry.banks_per_group
    n_banks = n_ranks * n_bg * bpg
    n_groups = n_ranks * n_bg
    n_buses = len(set(bus_ids))

    banks = [BankState(timing) for _ in range(n_banks)]
    groups = [
        BankGroupState(timing, bpg, per_bank_pim) for _ in range(n_groups)
    ]
    ranks = [RankState(timing) for _ in range(n_ranks)]
    buses = [DataBusState(timing) for _ in range(n_buses)]

    dirty_bank: list[list[int]] = [[] for _ in range(n_banks)]
    dirty_group: list[list[int]] = [[] for _ in range(n_groups)]
    dirty_rank: list[list[int]] = [[] for _ in range(n_ranks)]
    dirty_bus: list[list[int]] = [[] for _ in range(n_buses)]

    kind_code = [0] * n
    kind_obj: list[CommandType] = [CommandType.ACT] * n
    latency = [0] * n
    bank_id = [0] * n
    group_id = [0] * n
    rank_arr = [0] * n
    bus_arr = [0] * n
    row_arr = [0] * n
    bank_in_group = [0] * n
    bg_arr = [0] * n
    data_off = [0] * n
    is_read = bytearray(n)
    is_write = bytearray(n)
    fresh = bytearray(n)
    issued = bytearray(n)
    ndeps = [0] * n
    dep_ready = [0] * n
    cached_e = [0] * n
    port_of_rank = issue_model.port_of_rank
    port_arr = [0] * n
    tCL, tCWL = timing.tCL, timing.tCWL
    kind_info = {
        k: (
            _KIND_CODE[k],
            command_latency(k, timing),
            1 if k in READ_COMMANDS else 0,
            1 if k in WRITE_COMMANDS else 0,
            (tCL if k is CommandType.RD else tCWL)
            if _KIND_CODE[k] == _EXT_COL
            else 0,
        )
        for k in CommandType
    }
    if dependents is None:
        dependents = build_dependents(commands)
    n_ports = issue_model.n_ports
    heads = [-1] * n_ports
    tails = [-1] * n_ports
    nxt = [-1] * n
    prv = [-1] * n
    for i, cmd in enumerate(commands):
        kind = cmd.kind
        kc, lat, rd, wr, doff = kind_info[kind]
        kind_code[i] = kc
        kind_obj[i] = kind
        latency[i] = lat
        is_read[i] = rd
        is_write[i] = wr
        data_off[i] = doff
        r = cmd.rank
        bg = cmd.bankgroup
        bank = cmd.bank
        gi = r * n_bg + bg
        bank_id[i] = gi * bpg + bank
        group_id[i] = gi
        rank_arr[i] = r
        bus_arr[i] = bus_ids[r]
        row_arr[i] = cmd.row
        bank_in_group[i] = bank
        bg_arr[i] = bg
        ndeps[i] = len(cmd.deps)
        port = port_of_rank[r]
        port_arr[i] = port
        if tails[port] < 0:
            heads[port] = i
        else:
            nxt[tails[port]] = i
            prv[i] = tails[port]
        tails[port] = i

    completion = [0] * n
    port_free = [0] * n_ports

    t = timing
    tRRD_L, tRRD_S, tFAW = t.tRRD_L, t.tRRD_S, t.tFAW
    tRCD, tRAS, tRP, tRTP, tWR = t.tRCD, t.tRAS, t.tRP, t.tRTP, t.tWR
    tBURST, tCCD_L, tCCD_S = t.tBURST, t.tCCD_L, t.tCCD_S
    tWTR_L, tWTR_S, tPIM = t.tWTR_L, t.tWTR_S, t.tPIM
    rank_switch = t.rank_switch_penalty
    counts: dict[CommandType, int] = {}
    port_issued_full = [0] * n_ports
    max_port = -1
    remaining = n
    ports_range = range(n_ports)
    floor = stale_floor(timing)

    # ------------------------------------------------------------------
    # Periodic bookkeeping
    # ------------------------------------------------------------------
    frontier = 0  # lowest unissued stream index
    ahead: set[int] = set()  # issued indices > frontier
    seg_i = 0  # current segment cursor
    seg = segments[0] if segments else None
    boundary_j = -1  # boundary index of the last snapshot
    # Consecutive-boundary records: (j, anchor, snap, events, min_cycle)
    history: list[tuple] = []
    events: list[tuple[int, int, int]] = []  # (index, cycle, port)
    min_event_cycle = 1 << 62
    seg_done = False  # skip already taken / segment abandoned
    shape_failures = 0  # failed skip attempts in the current segment
    max_completion = 0

    #: Dependency patterns may take a couple of sweeps to stabilise
    #: (register alternation creates edges two sweeps back), so a
    #: failed shape check retries at later boundaries before giving up.
    MAX_SHAPE_FAILURES = 4
    #: Largest machine super-period (in sweeps) the lock searches for
    #: (AoS-PB's interleaved per-bank ALU pipelines settle into cycles
    #: as long as nine sweeps).
    MAX_SUPER = 12

    def snapshot(b: int, anchor: int):
        """Fingerprint the full dynamic state, rel to (b, anchor).

        Returns ``(structure, scalars)``: the structural tuple carries
        everything shape-like (open rows, bus direction, rel indices,
        dependency counters), the scalar list carries every
        cycle-valued timer as ``value - anchor`` in a fixed order that
        the structural tuple pins down.
        """
        scal: list[int] = []
        ap = scal.append
        struct: list = []
        sp = struct.append
        for bk in banks:
            sp(bk.open_row)
            ap(bk.act_ready - anchor)
            ap(bk.col_ready - anchor)
            ap(bk.pre_ready - anchor)
        for g in groups:
            ap(g.io_ready - anchor)
            ap(g.alu_ready - anchor)
            ap(g.wtr_ready - anchor)
            for v in g.bank_io_ready:
                ap(v - anchor)
            for v in g.bank_alu_ready:
                ap(v - anchor)
        for rk in ranks:
            sp(len(rk.act_window))
            sp(rk.last_act_group)
            for v in rk.act_window:
                ap(v - anchor)
            ap(rk.last_act_cycle - anchor)
            ap(rk.ext_col_ready - anchor)
            ap(rk.wtr_ready - anchor)
        for bus in buses:
            sp(bus.last_kind)
            sp(bus.last_rank)
            ap(bus.busy_until - anchor)
        for v in port_free:
            ap(v - anchor)
        # Commands issued ahead of the frontier (always recent).
        sp(
            tuple(
                sorted(
                    (
                        i - b,
                        commands[i].issue_cycle - anchor,
                        completion[i] - anchor,
                    )
                    for i in ahead
                )
            )
        )
        # Everything the lookahead windows can currently see, with its
        # dynamic dependency state.
        for port in ports_range:
            node = heads[port]
            steps = window
            seen = []
            while node >= 0 and steps:
                seen.append((node - b, ndeps[node]))
                ap(dep_ready[node] - anchor)
                node = nxt[node]
                steps -= 1
            sp(tuple(seen))
        return tuple(struct), scal

    def snaps_match(s1, a1, s2, a2) -> bool:
        """Fingerprints match when every scalar is either shifted
        identically (same rel value — covers timers refreshed every
        period, however deep they sit) or stale-identical (both below
        the floor and equal in absolute cycles — covers timers not
        touched since before the periodic window, which can never bind
        a future decision)."""
        if s1[0] != s2[0]:
            return False
        neg = -floor
        gap = a2 - a1
        for x, y in zip(s1[1], s2[1]):
            if x == y:
                continue
            if x <= neg and y <= neg and x == y + gap:
                continue
            return False
        return True

    def shape_shift_ok(lo: int, hi: int, seg_start: int, P: int) -> bool:
        """Commands in [lo, hi) must mirror their predecessors ``P``
        commands back: same kind and geometry coordinates, and
        dependencies that either shift with the period (edges into the
        segment body) or stay fixed (edges into the prologue or
        earlier phases)."""
        for x in range(lo, hi):
            a = commands[x]
            bcmd = commands[x - P]
            if (
                a.kind is not bcmd.kind
                or a.rank != bcmd.rank
                or a.bankgroup != bcmd.bankgroup
                or a.bank != bcmd.bank
                or a.row != bcmd.row
                or a.channel != bcmd.channel
            ):
                return False
            da, db = a.deps, bcmd.deps
            if len(da) != len(db):
                return False
            if da:
                mapped = {
                    (d + P if d >= seg_start else d) for d in db
                }
                if set(da) != mapped:
                    return False
        return True

    def shift_state(shift: int, anchor: int) -> None:
        """Advance every live timer by ``shift`` cycles (stale timers
        were untouched through the skipped sweeps and stay put)."""
        live = anchor - floor
        for bk in banks:
            if bk.act_ready > live:
                bk.act_ready += shift
            if bk.col_ready > live:
                bk.col_ready += shift
            if bk.pre_ready > live:
                bk.pre_ready += shift
        for g in groups:
            if g.io_ready > live:
                g.io_ready += shift
            if g.alu_ready > live:
                g.alu_ready += shift
            if g.wtr_ready > live:
                g.wtr_ready += shift
            for lst in (g.bank_io_ready, g.bank_alu_ready):
                for k2, v in enumerate(lst):
                    if v > live:
                        lst[k2] = v + shift
        for rk in ranks:
            if rk.act_window:
                shifted = [
                    v + shift if v > live else v for v in rk.act_window
                ]
                rk.act_window.clear()
                rk.act_window.extend(shifted)
            if rk.last_act_cycle > live:
                rk.last_act_cycle += shift
            if rk.ext_col_ready > live:
                rk.ext_col_ready += shift
            if rk.wtr_ready > live:
                rk.wtr_ready += shift
        for bus in buses:
            if bus.busy_until > live:
                bus.busy_until += shift
        for p2 in ports_range:
            if port_free[p2] > live:
                port_free[p2] += shift

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
                        bank = banks[bid]
                        gid = group_id[i]
                        if bank.open_row != row_arr[i]:
                            e = -1
                        else:
                            v = bank.col_ready
                            if v > e:
                                e = v
                            grp = groups[gid]
                            if kc == _INT_COL and per_bank_pim:
                                v = grp.bank_io_ready[bank_in_group[i]]
                            else:
                                v = grp.io_ready
                            if v > e:
                                e = v
                            if is_read[i]:
                                v = grp.wtr_ready
                                if v > e:
                                    e = v
                            if kc == _EXT_COL:
                                rid = rank_arr[i]
                                rk = ranks[rid]
                                v = rk.ext_col_ready
                                if v > e:
                                    e = v
                                if is_read[i]:
                                    v = rk.wtr_ready
                                    if v > e:
                                        e = v
                                bus = buses[bus_arr[i]]
                                lk = bus.last_kind
                                gap = 0
                                if lk is not None:
                                    if lk is not kind_obj[i]:
                                        gap = TURNAROUND_GAP
                                    if (
                                        bus.last_rank != rid
                                        and rank_switch > gap
                                    ):
                                        gap = rank_switch
                                v = bus.busy_until + gap - data_off[i]
                                if v > e:
                                    e = v
                                dirty_rank[rid].append(i)
                                dirty_bus[bus_arr[i]].append(i)
                        dirty_bank[bid].append(i)
                        dirty_group[gid].append(i)
                    elif kc == _ACT:
                        bid = bank_id[i]
                        bank = banks[bid]
                        rid = rank_arr[i]
                        if bank.open_row is not None:
                            e = -1
                        else:
                            v = bank.act_ready
                            if v > e:
                                e = v
                            rk = ranks[rid]
                            lac = rk.last_act_cycle
                            if lac >= 0:
                                v = lac + (
                                    tRRD_L
                                    if bg_arr[i] == rk.last_act_group
                                    else tRRD_S
                                )
                                if v > e:
                                    e = v
                            aw = rk.act_window
                            if len(aw) == 4:
                                v = aw[0] + tFAW
                                if v > e:
                                    e = v
                        dirty_bank[bid].append(i)
                        dirty_rank[rid].append(i)
                    elif kc == _PRE:
                        bid = bank_id[i]
                        bank = banks[bid]
                        if bank.open_row is None:
                            e = -1
                        elif bank.pre_ready > e:
                            e = bank.pre_ready
                        dirty_bank[bid].append(i)
                    elif kc == _ALU:
                        gid = group_id[i]
                        grp = groups[gid]
                        v = (
                            grp.bank_alu_ready[bank_in_group[i]]
                            if per_bank_pim
                            else grp.alu_ready
                        )
                        if v > e:
                            e = v
                        dirty_group[gid].append(i)
                    cached_e[i] = e
                    fresh[i] = 1
                if e < 0:
                    continue
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
        commands[i].issue_cycle = cycle
        comp = cycle + latency[i]
        completion[i] = comp
        if comp > max_completion:
            max_completion = comp
        kc = kind_code[i]
        if kc == _INT_COL or kc == _EXT_COL:
            bid = bank_id[i]
            gid = group_id[i]
            bank = banks[bid]
            grp = groups[gid]
            if is_read[i]:
                v = cycle + tRTP
                if v > bank.pre_ready:
                    bank.pre_ready = v
            elif kc == _EXT_COL:
                v = cycle + tCWL + tBURST + tWR
                if v > bank.pre_ready:
                    bank.pre_ready = v
            else:
                v = cycle + tBURST + tWR
                if v > bank.pre_ready:
                    bank.pre_ready = v
            if kc == _INT_COL and per_bank_pim:
                grp.bank_io_ready[bank_in_group[i]] = cycle + tCCD_L
            else:
                grp.io_ready = cycle + tCCD_L
            if is_write[i]:
                if kc == _EXT_COL:
                    data_end = cycle + tCWL + tBURST
                else:
                    data_end = cycle + tBURST
                v = data_end + tWTR_L
                if v > grp.wtr_ready:
                    grp.wtr_ready = v
            flushes = (dirty_bank[bid], dirty_group[gid])
            if kc == _EXT_COL:
                rid = rank_arr[i]
                rk = ranks[rid]
                rk.ext_col_ready = cycle + tCCD_S
                if is_write[i]:
                    v = cycle + tCWL + tBURST + tWTR_S
                    if v > rk.wtr_ready:
                        rk.wtr_ready = v
                bus = buses[bus_arr[i]]
                bus.busy_until = cycle + data_off[i] + tBURST
                bus.last_kind = kind_obj[i]
                bus.last_rank = rid
                flushes = (
                    dirty_bank[bid],
                    dirty_group[gid],
                    dirty_rank[rid],
                    dirty_bus[bus_arr[i]],
                )
        elif kc == _ACT:
            bid = bank_id[i]
            rid = rank_arr[i]
            bank = banks[bid]
            bank.open_row = row_arr[i]
            bank.col_ready = cycle + tRCD
            bank.pre_ready = cycle + tRAS
            rk = ranks[rid]
            rk.act_window.append(cycle)
            rk.last_act_cycle = cycle
            rk.last_act_group = bg_arr[i]
            flushes = (dirty_bank[bid], dirty_rank[rid])
        elif kc == _PRE:
            bid = bank_id[i]
            bank = banks[bid]
            bank.open_row = None
            bank.act_ready = cycle + tRP
            flushes = (dirty_bank[bid],)
        elif kc == _ALU:
            gid = group_id[i]
            grp = groups[gid]
            if per_bank_pim:
                grp.bank_alu_ready[bank_in_group[i]] = cycle + tPIM
            else:
                grp.alu_ready = cycle + tPIM
            flushes = (dirty_group[gid],)
        else:
            flushes = ()
        for lst in flushes:
            if lst:
                for j2 in lst:
                    fresh[j2] = 0
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

        kind = kind_obj[i]
        counts[kind] = counts.get(kind, 0) + 1
        port_issued_full[best_port] += 1
        if best_port > max_port:
            max_port = best_port
        remaining -= 1
        outcome.simulated += 1
        for j2 in dependents[i]:
            ndeps[j2] -= 1
            if comp > dep_ready[j2]:
                dep_ready[j2] = comp

        # --------------------------------------------------------------
        # Periodic bookkeeping: frontier, boundaries, lock, skip.
        # --------------------------------------------------------------
        issued[i] = 1
        if seg is not None and not seg_done:
            events.append((i, cycle, best_port))
            if cycle < min_event_cycle:
                min_event_cycle = cycle
        if i != frontier:
            ahead.add(i)
            continue
        frontier += 1
        while frontier < n and issued[frontier]:
            ahead.discard(frontier)
            frontier += 1
        if seg is None:
            continue
        while seg is not None and frontier >= seg.end:
            seg_i += 1
            seg = segments[seg_i] if seg_i < len(segments) else None
            boundary_j = -1
            history = []
            events = []
            min_event_cycle = INF
            seg_done = False
            shape_failures = 0
        if seg is None or frontier < seg.start:
            continue
        j_now = (frontier - seg.start) // seg.period
        if j_now == boundary_j:
            continue
        # Crossed one (or more) sweep boundaries.
        skipped_boundary = j_now != boundary_j + 1
        boundary_j = j_now
        period_events = events
        period_min = min_event_cycle
        events = []
        min_event_cycle = INF
        if seg_done:
            continue
        if skipped_boundary:
            history = []
        b = seg.start + j_now * seg.period
        anchor = cycle
        snap = snapshot(b, anchor)
        if _DEBUG_SNAPSHOTS is not None:
            _DEBUG_SNAPSHOTS.append((seg_i, j_now, anchor, snap))
        history.append((j_now, anchor, snap, period_events, period_min))
        if len(history) > MAX_SUPER + 1:
            history.pop(0)
        # Look for a steady cycle: the smallest super-period q whose
        # fingerprint q boundaries ago matches this one exactly.
        locked_q = 0
        delta = 0
        sup_events: list[tuple[int, int, int]] = []
        for q in range(1, len(history)):
            prev = history[-1 - q]
            if prev[0] != j_now - q:
                break
            d = anchor - prev[1]
            if d <= 0:
                continue
            if not snaps_match(prev[2], prev[1], snap, anchor):
                continue
            ev: list[tuple[int, int, int]] = []
            low = INF
            for rec in history[-q:]:
                ev.extend(rec[3])
                if rec[4] < low:
                    low = rec[4]
            if len(ev) != q * seg.period:
                continue
            if low <= prev[1] - floor // 2:
                # An issue dipped towards the stale zone during the
                # matched window: the monotonicity guard refuses.
                continue
            locked_q, delta, sup_events = q, d, ev
            break
        if not locked_q:
            give_up = max(4 * MAX_SUPER, min(seg.sweeps // 2, 64))
            if j_now >= give_up or seg.sweeps - j_now < 2:
                # Not settling: stop paying for snapshots here.
                seg_done = True
                history = []
            continue
        # Confirmed steady state. Record the lock and, if there is
        # room, replay the matched super-period arithmetically across
        # the segment middle, resuming simulation for the tail sweeps
        # the next phase's lookahead perturbs.
        per_port = [0] * n_ports
        per_kind: dict[CommandType, int] = {}
        for idx, _c, pt in sup_events:
            per_port[pt] += 1
            k3 = kind_obj[idx]
            per_kind[k3] = per_kind.get(k3, 0) + 1
        # Contamination horizon: during the period ending at boundary
        # j, a port's queue head advances by its per-period entry count
        # while the scan looks a further ``window`` entries ahead, so
        # the deepest sweep it can touch is j + 1 + window/c_p. The
        # final ``1 + ceil(window*q/c_p)`` sweeps of the segment may
        # therefore interact with the next phase (or the epilogue) and
        # must be simulated for real — dropping the +1 provably breaks
        # exactness (an epilogue PRE can slip into a port gap one
        # period before the boundary where it first becomes pending).
        tail = 1 + max(
            (
                -(-(window * locked_q) // c)
                for c in per_port
                if c > 0
            ),
            default=1,
        )
        lock = outcome.locks[seg_i]
        if lock is None:
            outcome.locks[seg_i] = lock = SegmentLock(
                delta=delta,
                counts=per_kind,
                port_counts=tuple(per_port),
                locked_at=j_now,
                sweeps_per_period=locked_q,
                tail_sweeps=tail,
                margin_ok=j_now <= seg.sweeps - tail,
            )
        m = (seg.sweeps - tail - j_now) // locked_q
        P_eff = locked_q * seg.period
        if m < 1 or j_now - locked_q < 1:
            # Nothing worth skipping (or the matched window leans on
            # the prologue's dependency alignment). Still corroborate
            # the lock's static shape over the remaining body so
            # profile-level extrapolation may trust it.
            if not lock.shape_ok and j_now - locked_q >= 1:
                # Dependency patterns stabilise two periods in (edges
                # may reach one full period back), so corroborate from
                # there to the segment end; an empty range (segment
                # too short) leaves the lock uncorroborated.
                lo = seg.start + 2 * P_eff
                if lo < seg.end and shape_shift_ok(
                    lo, seg.end, seg.start, P_eff
                ):
                    lock.shape_ok = True
            continue
        hi = max(idx for idx, _c, _p in sup_events) + 1
        if not shape_shift_ok(
            b,
            max(b + m * P_eff, hi + m * P_eff),
            seg.start,
            P_eff,
        ):
            # The stream is not (yet) shape-periodic under this shift:
            # dependency patterns can take a couple of sweeps to
            # stabilise, so retry at the next boundary before giving
            # the segment up as irregular.
            shape_failures += 1
            if shape_failures >= MAX_SHAPE_FAILURES:
                seg_done = True
            continue
        # ---- replay ----
        for t2 in range(1, m + 1):
            shift_i = t2 * P_eff
            shift_c = t2 * delta
            for idx, cyc, pt in sup_events:
                x = idx + shift_i
                c2 = cyc + shift_c
                commands[x].issue_cycle = c2
                comp2 = c2 + latency[idx]
                completion[x] = comp2
                issued[x] = 1
                # Unlink from the port queue.
                p2, q2 = prv[x], nxt[x]
                if p2 >= 0:
                    nxt[p2] = q2
                else:
                    heads[pt] = q2
                if q2 >= 0:
                    prv[q2] = p2
                else:
                    tails[pt] = p2
        for idx, cyc, pt in sup_events:
            comp_base = cyc + latency[idx]
            for t2 in range(1, m + 1):
                x = idx + t2 * P_eff
                comp2 = comp_base + t2 * delta
                if comp2 > max_completion:
                    max_completion = comp2
                for j2 in dependents[x]:
                    if issued[j2]:
                        continue
                    ndeps[j2] -= 1
                    if comp2 > dep_ready[j2]:
                        dep_ready[j2] = comp2
        for k3, c3 in per_kind.items():
            counts[k3] = counts.get(k3, 0) + m * c3
        for pt in ports_range:
            c3 = per_port[pt]
            if c3:
                port_issued_full[pt] += m * c3
                if pt > max_port:
                    max_port = pt
        skipped_count = m * P_eff
        remaining -= skipped_count
        outcome.skipped += skipped_count
        lock.skipped_sweeps += m * locked_q
        lock.shape_ok = True
        shift_state(m * delta, anchor)
        # All cached earliest-cycle values are stale now.
        fresh = bytearray(n)
        for lsts in (dirty_bank, dirty_group, dirty_rank, dirty_bus):
            for lst in lsts:
                del lst[:]
        # Advance the frontier over the replayed range. Everything
        # below b + m*P_eff is now issued, so the only issued-ahead
        # commands left are the final replay's images of the matched
        # window's own lookahead.
        while frontier < n and issued[frontier]:
            frontier += 1
        ahead = {
            idx + m * P_eff
            for idx, _c, _p in sup_events
            if idx + m * P_eff > frontier
        }
        boundary_j = j_now + m * locked_q
        seg_done = True
        history = []

    stats = TraceStats()
    stats.counts = counts
    stats.issued_commands = n
    stats.port_issued = port_issued_full[: max_port + 1]
    stats.total_cycles = max_completion if n else 0
    if not outcome.engaged and not outcome.reason:
        outcome.reason = (
            "no-period-metadata" if not segments else "no-lock"
        )
    return stats, outcome
