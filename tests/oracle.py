"""Test oracles: the original greedy scheduling loop, its DDR4 state
machines and the family-by-family JEDEC checker.

All are deliberately naive formulations that the production code is
checked against; none runs outside the test suite and the
benchmarks' equivalence gates.

* :class:`ReferenceScheduler` — the greedy FR-FCFS loop as first
  written: every iteration rescans every port's lookahead window,
  re-derives each candidate's dependency readiness and asks the four
  state machines (:class:`BankState`, :class:`BankGroupState`,
  :class:`RankState`, :class:`DataBusState`) for its earliest cycle.
  The columnar and periodic engines must reproduce its issue cycles
  and ``TraceStats`` exactly, deadlocks and structural errors
  included.
* :func:`build_dependents` — the dependent-command adjacency of a
  ``Command`` list, which the columnar stream's transposed CSR must
  reproduce.
* :func:`split_channels` / :func:`replicate_across_channels` — the
  ``Command``-list channel partitioning and tiling the scheduler's
  numpy split and the columnar replicate must agree with.
* :func:`validate_trace_thorough` — one checker per rule family, each
  walking the whole trace with its own state reconstruction. The
  production checker must accept exactly the traces it accepts and
  reject the seeded violations it rejects.
* :func:`settings` — ``hypothesis.settings`` whose ``max_examples``
  pin holds under the derandomized tier-1 profile and never caps the
  randomized ``deep`` fuzz profile.
* :func:`replay_reference` — steady-state replay as first written:
  one Python step per replayed command and per out-edge. The numpy
  replay of :class:`~repro.dram.steady.SteadyTracker` must leave the
  loop state it leaves.
* :func:`oracle_profile` — the ``UpdateProfile`` an
  :class:`~repro.system.update_model.UpdatePhaseModel` must produce,
  computed from the model's own stream on the two oracles above.

Import as ``from oracle import ...`` (``tests/`` is on ``sys.path``
under pytest; the benchmarks insert it themselves).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.dram.columnar import (
    TURNAROUND_GAP,
    ColumnarSchedule,
    ColumnarStream,
)
from repro.dram.commands import Command, CommandType, command_latency
from repro.dram.geometry import DEFAULT_GEOMETRY, DeviceGeometry
from repro.dram.scheduler import (
    CommandScheduler,
    IssueModel,
    ScheduleResult,
)
from repro.dram.stats import TraceStats
from repro.dram.timing import TimingParams
from repro.errors import SimulationError, TimingViolation
from repro.optim.precision import PRECISION_8_32
from repro.system.design import DESIGNS


def settings(*args, **kwargs):
    """``hypothesis.settings`` for property tests: a ``max_examples``
    pin holds under a derandomized profile (tier-1 keeps its exact
    draws) and never lowers a randomized profile's budget."""
    # Imported here: the benchmarks import this module without
    # Hypothesis installed.
    from hypothesis import settings as hypothesis_settings

    current = hypothesis_settings.default
    if "max_examples" in kwargs and not current.derandomize:
        kwargs["max_examples"] = max(
            kwargs["max_examples"], current.max_examples
        )
    return hypothesis_settings(*args, **kwargs)


# ----------------------------------------------------------------------
# DDR4 state machines (the reference loop asks them for earliest cycles)
# ----------------------------------------------------------------------
# Per bank: ACT needs the bank closed and tRP since the last PRE; column
# commands need the addressed row open and tRCD since its ACT; PRE needs
# tRAS since ACT, tRTP since the last read-type access and tWR after the
# last write's data. Per bank group: the I/O gating (tCCD_L, every
# column access) and the GradPIM ALU (tPIM, arithmetic only; per bank
# under AoS-PB). Per rank: tRRD_S / tRRD_L, tFAW, tCCD_S and tWTR_S for
# external accesses. Per data bus: burst occupancy, rank-switch and
# direction-turnaround bubbles.
class BankState:
    """Mutable timing state of one bank."""

    __slots__ = ("timing", "open_row", "act_ready", "col_ready", "pre_ready")

    def __init__(self, timing: TimingParams) -> None:
        self.timing = timing
        self.open_row: Optional[int] = None
        self.act_ready = 0  # earliest legal ACT
        self.col_ready = 0  # earliest legal column access to the open row
        self.pre_ready = 0  # earliest legal PRE

    # ------------------------------------------------------------------
    def earliest(self, cmd: Command) -> int:
        """Earliest cycle at which this bank permits ``cmd``.

        Returns a cycle number; commands that are structurally illegal in
        the current state (ACT on an open bank, column access to a closed
        or different row) raise :class:`SimulationError` because the
        kernel generators are supposed to produce well-formed streams.
        """
        if cmd.kind is CommandType.ACT:
            if self.open_row is not None:
                raise SimulationError(
                    f"ACT to bank with open row {self.open_row} "
                    f"(command row {cmd.row})"
                )
            return self.act_ready
        if cmd.kind is CommandType.PRE:
            if self.open_row is None:
                raise SimulationError("PRE to a closed bank")
            return self.pre_ready
        if cmd.is_column():
            if self.open_row is None:
                raise SimulationError(
                    f"column access {cmd.kind.value} to a closed bank"
                )
            if self.open_row != cmd.row:
                raise SimulationError(
                    f"column access to row {cmd.row} but row "
                    f"{self.open_row} is open"
                )
            return self.col_ready
        # ALU / register commands do not involve the bank.
        return 0

    # ------------------------------------------------------------------
    def apply(self, cmd: Command, cycle: int) -> None:
        """Update bank state after ``cmd`` issues at ``cycle``."""
        t = self.timing
        if cmd.kind is CommandType.ACT:
            self.open_row = cmd.row
            self.col_ready = cycle + t.tRCD
            self.pre_ready = cycle + t.tRAS
            # Next ACT is gated through PRE; act_ready is set on PRE.
            return
        if cmd.kind is CommandType.PRE:
            self.open_row = None
            self.act_ready = cycle + t.tRP
            return
        if cmd.is_read():
            # Row must stay open for tRTP after a read-type access.
            self.pre_ready = max(self.pre_ready, cycle + t.tRTP)
            return
        if cmd.kind is CommandType.WR:
            data_end = cycle + t.tCWL + t.tBURST
            self.pre_ready = max(self.pre_ready, data_end + t.tWR)
            return
        if cmd.is_write():
            # WRITEBACK / QREG_STORE are the latter half of a write:
            # register data enters the sense amplifiers immediately (no
            # tCWL bus delay) but the row must stay open tWR for
            # restoration (§IV-C).
            data_end = cycle + t.tBURST
            self.pre_ready = max(self.pre_ready, data_end + t.tWR)
            return
        # ALU / register commands: no bank effect.


class BankGroupState:
    """Mutable timing state of one bank group."""

    __slots__ = (
        "timing",
        "per_bank_pim",
        "io_ready",
        "alu_ready",
        "wtr_ready",
        "bank_io_ready",
        "bank_alu_ready",
    )

    def __init__(
        self,
        timing: TimingParams,
        banks_per_group: int,
        per_bank_pim: bool = False,
    ) -> None:
        self.timing = timing
        self.per_bank_pim = per_bank_pim
        self.io_ready = 0  # bank-group I/O gating free (tCCD_L domain)
        self.alu_ready = 0  # GradPIM ALU free (tPIM domain)
        self.wtr_ready = 0  # earliest read-type access after a write burst
        # AoS-PB: per-bank local I/O and per-bank ALU readiness.
        self.bank_io_ready = [0] * banks_per_group
        self.bank_alu_ready = [0] * banks_per_group

    # ------------------------------------------------------------------
    def earliest(self, cmd: Command) -> int:
        """Earliest cycle this bank group permits ``cmd``."""
        if cmd.is_column():
            if cmd.is_internal_column() and self.per_bank_pim:
                ready = self.bank_io_ready[cmd.bank]
            else:
                ready = self.io_ready
            if cmd.is_read():
                ready = max(ready, self.wtr_ready)
            return ready
        if cmd.is_pim_alu():
            if self.per_bank_pim:
                return self.bank_alu_ready[cmd.bank]
            return self.alu_ready
        return 0

    # ------------------------------------------------------------------
    def apply(self, cmd: Command, cycle: int) -> None:
        """Update group state after ``cmd`` issues at ``cycle``."""
        t = self.timing
        if cmd.is_column():
            if cmd.is_internal_column() and self.per_bank_pim:
                self.bank_io_ready[cmd.bank] = cycle + t.tCCD_L
            else:
                self.io_ready = cycle + t.tCCD_L
            if cmd.is_write():
                # Same-group write-to-read turnaround (tWTR_L) measured
                # from the end of the write data.
                if cmd.kind.value == "WR":
                    data_end = cycle + t.tCWL + t.tBURST
                else:  # WRITEBACK: register data, no bus latency
                    data_end = cycle + t.tBURST
                self.wtr_ready = max(self.wtr_ready, data_end + t.tWTR_L)
            return
        if cmd.is_pim_alu():
            if self.per_bank_pim:
                self.bank_alu_ready[cmd.bank] = cycle + t.tPIM
            else:
                self.alu_ready = cycle + t.tPIM
            return


class RankState:
    """Mutable timing state of one rank."""

    __slots__ = (
        "timing",
        "act_window",
        "last_act_cycle",
        "last_act_group",
        "ext_col_ready",
        "wtr_ready",
    )

    def __init__(self, timing: TimingParams) -> None:
        self.timing = timing
        self.act_window: deque[int] = deque(maxlen=4)  # recent ACT cycles
        self.last_act_cycle = -(10**9)
        self.last_act_group = -1
        self.ext_col_ready = 0  # global I/O gating free (tCCD_S domain)
        self.wtr_ready = 0  # earliest external read after a write burst

    # ------------------------------------------------------------------
    def earliest(self, cmd: Command) -> int:
        """Earliest cycle this rank permits ``cmd``."""
        t = self.timing
        if cmd.kind is CommandType.ACT:
            ready = 0
            if self.last_act_cycle >= 0:
                spacing = (
                    t.tRRD_L
                    if cmd.bankgroup == self.last_act_group
                    else t.tRRD_S
                )
                ready = self.last_act_cycle + spacing
            if len(self.act_window) == 4:
                ready = max(ready, self.act_window[0] + t.tFAW)
            return ready
        if cmd.is_external_column():
            ready = self.ext_col_ready
            if cmd.is_read():
                ready = max(ready, self.wtr_ready)
            return ready
        return 0

    # ------------------------------------------------------------------
    def apply(self, cmd: Command, cycle: int) -> None:
        """Update rank state after ``cmd`` issues at ``cycle``."""
        t = self.timing
        if cmd.kind is CommandType.ACT:
            self.act_window.append(cycle)
            self.last_act_cycle = cycle
            self.last_act_group = cmd.bankgroup
            return
        if cmd.is_external_column():
            self.ext_col_ready = cycle + t.tCCD_S
            if cmd.kind is CommandType.WR:
                data_end = cycle + t.tCWL + t.tBURST
                self.wtr_ready = max(self.wtr_ready, data_end + t.tWTR_S)
            return


class DataBusState:
    """Mutable occupancy state of the channel data bus."""

    __slots__ = ("timing", "busy_until", "last_kind", "last_rank")

    def __init__(self, timing: TimingParams) -> None:
        self.timing = timing
        self.busy_until = 0  # first cycle the bus is free again
        self.last_kind: CommandType | None = None
        self.last_rank = -1

    # ------------------------------------------------------------------
    def _data_offset(self, kind: CommandType) -> int:
        """Cycles between command issue and the start of its data burst."""
        if kind is CommandType.RD:
            return self.timing.tCL
        return self.timing.tCWL

    def earliest(self, cmd: Command) -> int:
        """Earliest *issue* cycle so the data burst finds the bus free.

        Clamped to 0: on a fresh bus ``busy_until + gap`` can be smaller
        than the command's data offset.
        """
        if not cmd.is_external_column():
            return 0
        gap = 0
        if self.last_kind is not None:
            if self.last_kind is not cmd.kind:
                gap = max(gap, TURNAROUND_GAP)
            if self.last_rank != cmd.rank:
                gap = max(gap, self.timing.rank_switch_penalty)
        earliest_data_start = self.busy_until + gap
        return max(0, earliest_data_start - self._data_offset(cmd.kind))

    def apply(self, cmd: Command, cycle: int) -> None:
        """Record the data burst of ``cmd`` issued at ``cycle``."""
        if not cmd.is_external_column():
            return
        start = cycle + self._data_offset(cmd.kind)
        self.busy_until = start + self.timing.tBURST
        self.last_kind = cmd.kind
        self.last_rank = cmd.rank


def build_dependents(commands: Sequence[Command]) -> list[list[int]]:
    """Adjacency from each command to the commands that depend on it."""
    out: list[list[int]] = [[] for _ in commands]
    for i, cmd in enumerate(commands):
        for d in cmd.deps:
            out[d].append(i)
    return out


# ----------------------------------------------------------------------
# Command-list channel partitioning
# ----------------------------------------------------------------------
def _fresh_copy(cmd: Command) -> Command:
    """A clean, unissued copy of ``cmd`` (deps tuples are shared).

    Field-by-field into a bare slotted instance, guarded by a test that
    diffs the field list against the dataclass.
    """
    out = Command.__new__(Command)
    out.kind = cmd.kind
    out.rank = cmd.rank
    out.bankgroup = cmd.bankgroup
    out.bank = cmd.bank
    out.row = cmd.row
    out.col = cmd.col
    out.channel = cmd.channel
    out.scale_id = cmd.scale_id
    out.dst_reg = cmd.dst_reg
    out.src_reg = cmd.src_reg
    out.position = cmd.position
    out.deps = cmd.deps
    out.tag = cmd.tag
    out.scaler = cmd.scaler
    out.issue_cycle = -1
    return out


@dataclass
class ChannelPartition:
    """One channel's share of a multi-channel stream.

    ``commands`` are fresh copies with dependency indices remapped to
    the partition's own index space; ``indices`` maps them back to the
    global stream (``commands[i]`` came from global ``indices[i]``).
    """

    channel: int
    indices: list[int]
    commands: list[Command]


def split_channels(
    commands: Sequence[Command], n_channels: int
) -> list[ChannelPartition]:
    """Partition a stream into per-channel sub-streams, one partition
    per channel id (empty channels get empty partitions).

    Dependencies must stay within a channel; a cross-channel edge, or
    a channel id out of range, raises :class:`SimulationError`.
    """
    local_index = [0] * len(commands)
    parts = [
        ChannelPartition(channel=c, indices=[], commands=[])
        for c in range(n_channels)
    ]
    for i, cmd in enumerate(commands):
        if not 0 <= cmd.channel < n_channels:
            raise SimulationError(
                f"command {i} channel {cmd.channel} out of range "
                f"(device has {n_channels})"
            )
        part = parts[cmd.channel]
        local_index[i] = len(part.indices)
        part.indices.append(i)
    for i, cmd in enumerate(commands):
        part = parts[cmd.channel]
        copy = _fresh_copy(cmd)
        if cmd.deps:
            for d in cmd.deps:
                if commands[d].channel != cmd.channel:
                    raise SimulationError(
                        f"command {i} (channel {cmd.channel}) depends "
                        f"on command {d} in channel "
                        f"{commands[d].channel}; dependencies cannot "
                        "cross channels"
                    )
            copy.deps = tuple(local_index[d] for d in cmd.deps)
        part.commands.append(copy)
    return parts


def replicate_across_channels(
    commands: Sequence[Command], channels: int
) -> list[Command]:
    """Tile a single-channel ``Command`` list across ``channels``
    channels: replica ``c`` targets channel ``c`` with its dependency
    indices shifted into its own block."""
    n = len(commands)
    out: list[Command] = []
    for c in range(channels):
        for cmd in commands:
            copy = _fresh_copy(cmd)
            copy.channel = c
            if cmd.deps:
                copy.deps = tuple(d + c * n for d in cmd.deps)
            out.append(copy)
    return out


class ReferenceScheduler:
    """The original greedy loop behind ``CommandScheduler``'s API.

    Takes the same substrate arguments (validated by constructing a
    :class:`CommandScheduler`) and returns a :class:`ScheduleResult`
    holding the stream's columnar form and the loop's issue cycles. The
    loop runs on fresh command copies; multi-channel geometries
    partition the stream (:func:`split_channels`) and schedule each
    channel independently.
    """

    def __init__(
        self,
        timing: TimingParams,
        geometry: DeviceGeometry = DEFAULT_GEOMETRY,
        issue_model: Optional[IssueModel] = None,
        per_bank_pim: bool = False,
        window: int = 16,
        data_bus_scope: str = "channel",
    ) -> None:
        checked = CommandScheduler(
            timing, geometry, issue_model, per_bank_pim, window,
            data_bus_scope,
        )
        self.timing = timing
        self.geometry = geometry
        self.issue_model = checked.issue_model
        self.per_bank_pim = per_bank_pim
        self.window = window
        if data_bus_scope == "channel":
            self.bus_ids = [0] * geometry.ranks
        elif data_bus_scope == "dimm":
            self.bus_ids = [
                geometry.dimm_of_rank(r) for r in range(geometry.ranks)
            ]
        else:
            self.bus_ids = list(range(geometry.ranks))

    def run(self, commands: Sequence[Command]) -> ScheduleResult:
        geom = self.geometry
        for i, cmd in enumerate(commands):
            for d in cmd.deps:
                if d >= i or d < 0:
                    raise SimulationError(
                        f"command {i} has illegal dependency {d}"
                    )
        for i, cmd in enumerate(commands):
            if not 0 <= cmd.rank < geom.ranks:
                raise SimulationError(f"command {i} rank out of range")
            if not 0 <= cmd.channel < geom.channels:
                raise SimulationError(
                    f"command {i} channel {cmd.channel} out of range "
                    f"(geometry has {geom.channels})"
                )
        copies = [_fresh_copy(cmd) for cmd in commands]
        if geom.channels == 1:
            stats = self._greedy(copies)
        else:
            per_channel = []
            for part in split_channels(commands, geom.channels):
                per_channel.append(self._greedy(part.commands))
                for local, global_i in enumerate(part.indices):
                    copies[global_i].issue_cycle = (
                        part.commands[local].issue_cycle
                    )
            stats = TraceStats.merge_channels(per_channel)
        stream = ColumnarStream.from_commands(commands)
        issue = np.array([c.issue_cycle for c in copies], dtype=np.int64)
        return ScheduleResult(
            ColumnarSchedule(stream, issue), stats, self.timing, geom,
            self.issue_model,
        )

    def _greedy(self, commands: list[Command]) -> TraceStats:
        """Schedule one channel's commands in place."""
        timing = self.timing
        geom = self.geometry

        # State machines.
        banks = [
            [
                [BankState(timing) for _ in range(geom.banks_per_group)]
                for _ in range(geom.bankgroups)
            ]
            for _ in range(geom.ranks)
        ]
        groups = [
            [
                BankGroupState(
                    timing, geom.banks_per_group, self.per_bank_pim
                )
                for _ in range(geom.bankgroups)
            ]
            for _ in range(geom.ranks)
        ]
        ranks = [RankState(timing) for _ in range(geom.ranks)]
        n_buses = len(set(self.bus_ids))
        buses = [DataBusState(timing) for _ in range(n_buses)]

        # Per-port pending queues, in stream order.
        n_ports = self.issue_model.n_ports
        queues: list[list[int]] = [[] for _ in range(n_ports)]
        for i, cmd in enumerate(commands):
            queues[self.issue_model.port_of_rank[cmd.rank]].append(i)

        completion = [0] * len(commands)
        port_free = [0] * n_ports
        stats = TraceStats()
        remaining = len(commands)
        window = self.window

        while remaining:
            best_cycle = None
            best_port = -1
            best_pos = -1
            best_idx = -1
            for port in range(n_ports):
                queue = queues[port]
                examined = 0
                for pos, idx in enumerate(queue):
                    if examined >= window:
                        break
                    examined += 1
                    cmd = commands[idx]
                    # Dependency readiness.
                    ready = port_free[port]
                    blocked = False
                    for d in cmd.deps:
                        if commands[d].issue_cycle < 0:
                            blocked = True
                            break
                        if completion[d] > ready:
                            ready = completion[d]
                    if blocked:
                        continue
                    bank = banks[cmd.rank][cmd.bankgroup][cmd.bank]
                    group = groups[cmd.rank][cmd.bankgroup]
                    rank = ranks[cmd.rank]
                    bus = buses[self.bus_ids[cmd.rank]]
                    try:
                        e = bank.earliest(cmd)
                    except SimulationError:
                        # Structurally not issuable yet (e.g. PRE of the
                        # previous row hasn't gone out): skip; ordering
                        # dependencies will unblock it later.
                        continue
                    e = max(
                        ready,
                        e,
                        group.earliest(cmd),
                        rank.earliest(cmd),
                        bus.earliest(cmd),
                    )
                    if (
                        best_cycle is None
                        or e < best_cycle
                        or (e == best_cycle and idx < best_idx)
                    ):
                        best_cycle, best_port = e, port
                        best_pos, best_idx = pos, idx
            if best_idx < 0:
                raise SimulationError(
                    "deadlock: no pending command is issuable "
                    f"({remaining} remaining)"
                )

            cmd = commands[best_idx]
            cycle = best_cycle
            cmd.issue_cycle = cycle
            completion[best_idx] = cycle + command_latency(cmd.kind, timing)
            banks[cmd.rank][cmd.bankgroup][cmd.bank].apply(cmd, cycle)
            groups[cmd.rank][cmd.bankgroup].apply(cmd, cycle)
            ranks[cmd.rank].apply(cmd, cycle)
            buses[self.bus_ids[cmd.rank]].apply(cmd, cycle)
            port_free[best_port] = cycle + 1
            queues[best_port].pop(best_pos)
            stats.record(cmd, best_port)
            remaining -= 1

        stats.total_cycles = max(completion, default=0)
        return stats


# ----------------------------------------------------------------------
# Steady-state replay
# ----------------------------------------------------------------------
def replay_reference(tracker, events, m: int, P: int, delta: int,
                     anchor: int) -> None:
    """Replay on a :class:`~repro.dram.steady.SteadyTracker`'s bound
    loop state, one command at a time: schedule ``m`` copies of
    ``events`` in place, then advance the machine by ``m * delta``
    cycles (same arguments as ``SteadyTracker._replay``)."""
    prep = tracker.prep
    issue, completion = tracker.issue, tracker.completion
    dep_ready = tracker.dep_ready
    lat, nxt, prv = prep.lat, prep.nxt, prep.prv
    heads, tails = prep.heads, prep.tails
    for t in range(1, m + 1):
        for i, cycle, port in events:
            x = i + t * P
            c = cycle + t * delta
            issue[x] = c
            completion[x] = c + lat[i]
            p, q = prv[x], nxt[x]
            if p >= 0:
                nxt[p] = q
            else:
                heads[port] = q
            if q >= 0:
                prv[q] = p
            else:
                tails[port] = p
    optr, oidx, ndeps = prep.optr, prep.oidx, prep.ndeps
    for i, cycle, _port in events:
        done = cycle + lat[i]
        for t in range(1, m + 1):
            x = i + t * P
            comp = done + t * delta
            for j in oidx[optr[x]:optr[x + 1]]:
                if issue[j] >= 0:
                    continue
                ndeps[j] -= 1
                if comp > dep_ready[j]:
                    dep_ready[j] = comp
    # Live timers advance; stale ones (untouched throughout) stay.
    live = anchor - tracker.floor
    shift = m * delta
    for values in tracker.timers:
        for k, v in enumerate(values):
            if v > live:
                values[k] = v + shift
    for window in tracker.act_windows:
        shifted = [v + shift if v > live else v for v in window]
        window.clear()
        window.extend(shifted)
    cached, stale, *dirty = tracker.caches
    cached[:] = [None] * len(cached)
    stale[:] = b"\x01" * len(stale)
    for lists in dirty:
        for values in lists:
            values.clear()
    f = tracker.frontier
    while f < len(issue) and issue[f] >= 0:
        f += 1
    tracker.frontier = f


def oracle_profile(model, design, optimizer, precision=PRECISION_8_32):
    """The profile ``model.profile(design, optimizer, precision)`` must
    return, derived on the oracles: the model's full sample stream,
    scheduled by :class:`ReferenceScheduler` on one channel, checked by
    :func:`validate_trace_thorough`, aggregated across the design's
    identical channel replicas."""
    config = DESIGNS[design]
    n_params, offchip, _, artifact = model._build_stream(
        config, optimizer, precision
    )
    geometry = model._one_channel()
    issue_model = config.issue_model(geometry)
    result = ReferenceScheduler(
        model.timing, geometry, issue_model,
        per_bank_pim=config.per_bank_pim,
        window=model.window,
        data_bus_scope=config.data_bus_scope,
    ).run(artifact.commands)
    validate_trace_thorough(
        result.commands, model.timing, geometry,
        issue_model.port_of_rank,
        per_bank_pim=config.per_bank_pim,
        data_bus_scope=config.data_bus_scope,
    )
    stats = result.stats
    channels = config.effective_channels(model.geometry)
    if channels > 1:
        stats = TraceStats.merge_channels([stats] * channels)
        n_params *= channels
        offchip *= channels
    return model._finish_profile(
        design, optimizer, precision, stats, n_params, offchip
    )


def validate_trace_thorough(
    commands: Sequence[Command],
    timing: TimingParams,
    geometry: DeviceGeometry,
    port_of_rank: Sequence[int],
    per_bank_pim: bool = False,
    data_bus_scope: str = "channel",
) -> None:
    """Raise :class:`TimingViolation` on a rule breach, checking one
    rule family at a time."""
    if data_bus_scope not in ("channel", "dimm", "rank"):
        raise TimingViolation(
            "config", 0, f"unknown data_bus_scope {data_bus_scope!r}"
        )
    if geometry.channels == 1:
        _require_issued(commands)
        _check_dependencies(commands, timing)
        _check_families(
            commands, timing, geometry, port_of_rank,
            per_bank_pim, data_bus_scope,
        )
        return
    groups: list[list[Command]] = [[] for _ in range(geometry.channels)]
    for i, cmd in enumerate(commands):
        if not 0 <= cmd.channel < geometry.channels:
            raise TimingViolation(
                "channel",
                max(cmd.issue_cycle, 0),
                f"command {i} channel {cmd.channel} out of range",
            )
    _require_issued(commands)
    _check_dependencies(commands, timing)
    for cmd in commands:
        groups[cmd.channel].append(cmd)
    for subset in groups:
        _check_families(
            subset, timing, geometry, port_of_rank,
            per_bank_pim, data_bus_scope,
        )


def _require_issued(commands: Sequence[Command]) -> None:
    for cmd in commands:
        if cmd.issue_cycle < 0:
            raise TimingViolation(
                "unissued", 0, "command without an issue cycle in trace"
            )


def _check_dependencies(
    commands: Sequence[Command], timing: TimingParams
) -> None:
    """Every consumer issues at or after each dependency completes."""
    for i, cmd in enumerate(commands):
        for d in cmd.deps:
            dep = commands[d]
            done = dep.issue_cycle + command_latency(dep.kind, timing)
            if cmd.issue_cycle < done:
                raise TimingViolation(
                    "dependency",
                    cmd.issue_cycle,
                    f"command {i} issued before dependency {d} "
                    f"completed at {done}",
                )


def _check_families(
    commands: Sequence[Command],
    timing: TimingParams,
    geometry: DeviceGeometry,
    port_of_rank: Sequence[int],
    per_bank_pim: bool,
    data_bus_scope: str,
) -> None:
    """The family-by-family checkers over one channel's trace (the
    dependency and unissued checks are the caller's job)."""
    trace = sorted(
        (c for c in commands),
        key=lambda c: (c.issue_cycle, id(c)),
    )
    _require_issued(trace)
    _check_ports(trace, port_of_rank)
    _check_banks(trace, timing)
    _check_bankgroups(trace, timing, per_bank_pim)
    _check_ranks(trace, timing)
    if data_bus_scope == "channel":
        _check_data_bus(trace, timing)
    elif data_bus_scope == "dimm":
        for dimm in range(geometry.dimms):
            subset = [
                c
                for c in trace
                if geometry.dimm_of_rank(c.rank) == dimm
            ]
            _check_data_bus(subset, timing)
    else:  # rank
        for rank in range(geometry.ranks):
            _check_data_bus([c for c in trace if c.rank == rank], timing)


def _data_interval(cmd: Command, timing: TimingParams) -> tuple[int, int]:
    """(start, end) cycles of an external command's data burst."""
    if cmd.kind is CommandType.RD:
        start = cmd.issue_cycle + timing.tCL
    else:
        start = cmd.issue_cycle + timing.tCWL
    return start, start + timing.tBURST


def _write_data_end(cmd: Command, timing: TimingParams) -> int:
    """Cycle at which a write-type command's data has fully arrived."""
    if cmd.kind is CommandType.WR:
        return cmd.issue_cycle + timing.tCWL + timing.tBURST
    # WRITEBACK / QREG_STORE: register data, no bus latency.
    return cmd.issue_cycle + timing.tBURST


def _check_ports(
    trace: Sequence[Command], port_of_rank: Sequence[int]
) -> None:
    seen: dict[tuple[int, int], int] = {}
    for cmd in trace:
        key = (port_of_rank[cmd.rank], cmd.issue_cycle)
        seen[key] = seen.get(key, 0) + 1
        if seen[key] > 1:
            raise TimingViolation(
                "command-bus",
                cmd.issue_cycle,
                f"port {key[0]} issued two commands in one cycle",
            )


def _check_banks(trace: Sequence[Command], timing: TimingParams) -> None:
    state: dict[tuple[int, int, int], dict] = {}
    for cmd in trace:
        if not (
            cmd.kind in (CommandType.ACT, CommandType.PRE) or cmd.is_column()
        ):
            continue
        key = (cmd.rank, cmd.bankgroup, cmd.bank)
        s = state.setdefault(
            key,
            {"row": None, "act": None, "pre": None, "rd": None, "wr_end": None},
        )
        t = cmd.issue_cycle
        if cmd.kind is CommandType.ACT:
            if s["row"] is not None:
                raise TimingViolation("ACT-open", t, f"bank {key} already open")
            if s["pre"] is not None and t < s["pre"] + timing.tRP:
                raise TimingViolation("tRP", t, f"bank {key}")
            s["row"], s["act"] = cmd.row, t
        elif cmd.kind is CommandType.PRE:
            if s["row"] is None:
                raise TimingViolation("PRE-closed", t, f"bank {key}")
            if t < s["act"] + timing.tRAS:
                raise TimingViolation("tRAS", t, f"bank {key}")
            if s["rd"] is not None and t < s["rd"] + timing.tRTP:
                raise TimingViolation("tRTP", t, f"bank {key}")
            if s["wr_end"] is not None and t < s["wr_end"] + timing.tWR:
                raise TimingViolation("tWR", t, f"bank {key}")
            s["row"], s["pre"] = None, t
        else:  # column access
            if s["row"] != cmd.row:
                raise TimingViolation(
                    "row-match",
                    t,
                    f"bank {key}: access to row {cmd.row}, open {s['row']}",
                )
            if t < s["act"] + timing.tRCD:
                raise TimingViolation("tRCD", t, f"bank {key}")
            if cmd.is_read():
                s["rd"] = t if s["rd"] is None else max(s["rd"], t)
            if cmd.is_write():
                end = _write_data_end(cmd, timing)
                s["wr_end"] = (
                    end if s["wr_end"] is None else max(s["wr_end"], end)
                )


def _check_bankgroups(
    trace: Sequence[Command], timing: TimingParams, per_bank_pim: bool
) -> None:
    col_last: dict[tuple, int] = {}
    alu_last: dict[tuple, int] = {}
    wtr_ready: dict[tuple[int, int], int] = {}
    for cmd in trace:
        t = cmd.issue_cycle
        gkey = (cmd.rank, cmd.bankgroup)
        if cmd.is_column():
            if cmd.is_internal_column() and per_bank_pim:
                key = (cmd.rank, cmd.bankgroup, cmd.bank, "pb")
            else:
                key = gkey
            prev = col_last.get(key)
            if prev is not None and t < prev + timing.tCCD_L:
                raise TimingViolation(
                    "tCCD_L", t, f"bank group {key}, prev at {prev}"
                )
            col_last[key] = t
            if cmd.is_read():
                ready = wtr_ready.get(gkey)
                if ready is not None and t < ready:
                    raise TimingViolation(
                        "tWTR_L", t, f"bank group {gkey}, ready at {ready}"
                    )
            if cmd.is_write():
                end = _write_data_end(cmd, timing) + timing.tWTR_L
                wtr_ready[gkey] = max(wtr_ready.get(gkey, 0), end)
        elif cmd.is_pim_alu():
            key = (
                (cmd.rank, cmd.bankgroup, cmd.bank)
                if per_bank_pim
                else gkey
            )
            prev = alu_last.get(key)
            if prev is not None and t < prev + timing.tPIM:
                raise TimingViolation(
                    "tPIM", t, f"PIM unit {key}, prev at {prev}"
                )
            alu_last[key] = t


def _check_ranks(trace: Sequence[Command], timing: TimingParams) -> None:
    acts: dict[int, list[tuple[int, int]]] = {}
    ext_last: dict[int, int] = {}
    wtr_ready: dict[int, int] = {}
    for cmd in trace:
        t = cmd.issue_cycle
        if cmd.kind is CommandType.ACT:
            history = acts.setdefault(cmd.rank, [])
            if history:
                prev_t, prev_bg = history[-1]
                spacing = (
                    timing.tRRD_L
                    if prev_bg == cmd.bankgroup
                    else timing.tRRD_S
                )
                if t < prev_t + spacing:
                    raise TimingViolation("tRRD", t, f"rank {cmd.rank}")
            if len(history) >= 4 and t < history[-4][0] + timing.tFAW:
                raise TimingViolation("tFAW", t, f"rank {cmd.rank}")
            history.append((t, cmd.bankgroup))
        elif cmd.is_external_column():
            prev = ext_last.get(cmd.rank)
            if prev is not None and t < prev + timing.tCCD_S:
                raise TimingViolation("tCCD_S", t, f"rank {cmd.rank}")
            ext_last[cmd.rank] = t
            if cmd.is_read():
                ready = wtr_ready.get(cmd.rank)
                if ready is not None and t < ready:
                    raise TimingViolation("tWTR_S", t, f"rank {cmd.rank}")
            if cmd.kind is CommandType.WR:
                end = _write_data_end(cmd, timing) + timing.tWTR_S
                wtr_ready[cmd.rank] = max(wtr_ready.get(cmd.rank, 0), end)


def _check_data_bus(trace: Sequence[Command], timing: TimingParams) -> None:
    last_end = None
    last_kind = None
    last_rank = None
    bursts = sorted(
        (
            (*_data_interval(c, timing), c.kind, c.rank)
            for c in trace
            if c.is_external_column()
        ),
        key=lambda x: x[0],
    )
    for start, end, kind, rank in bursts:
        if last_end is not None:
            gap = 0
            if kind is not last_kind:
                gap = max(gap, 2)
            if rank != last_rank:
                gap = max(gap, timing.rank_switch_penalty)
            if start < last_end + gap:
                raise TimingViolation(
                    "data-bus",
                    start,
                    f"burst at {start} overlaps previous ending {last_end} "
                    f"(required gap {gap})",
                )
        last_end, last_kind, last_rank = end, kind, rank
