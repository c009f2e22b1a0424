"""Test oracles: the original greedy scheduling loop and the
family-by-family JEDEC checker.

Both are deliberately naive formulations that the production code is
checked against; neither runs outside the test suite and the
benchmarks' equivalence gates.

* :class:`ReferenceScheduler` — the greedy FR-FCFS loop as first
  written: every iteration rescans every port's lookahead window,
  re-derives each candidate's dependency readiness and asks the four
  state machines (:mod:`repro.dram.bank`, ``bankgroup``, ``rank``,
  ``channel``) for its earliest cycle. The columnar and periodic
  engines must reproduce its issue cycles and ``TraceStats`` exactly,
  deadlocks and structural errors included.
* :func:`validate_trace_thorough` — one checker per rule family, each
  walking the whole trace with its own state reconstruction. Both
  production validators must accept exactly the traces it accepts and
  reject the seeded violations it rejects.
* :func:`oracle_profile` — the ``UpdateProfile`` an
  :class:`~repro.system.update_model.UpdatePhaseModel` must produce,
  computed from the model's own stream on the two oracles above.

Import as ``from oracle import ...`` (``tests/`` is on ``sys.path``
under pytest; the benchmarks insert it themselves).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.dram.bank import BankState
from repro.dram.bankgroup import BankGroupState
from repro.dram.channel import DataBusState
from repro.dram.commands import Command, CommandType, command_latency
from repro.dram.geometry import DEFAULT_GEOMETRY, DeviceGeometry
from repro.dram.rank import RankState
from repro.dram.scheduler import (
    CommandScheduler,
    IssueModel,
    ScheduleResult,
    _fresh_copy,
    split_channels,
)
from repro.dram.stats import TraceStats
from repro.dram.timing import TimingParams
from repro.dram.validator import _check_dependencies, _require_issued
from repro.errors import SimulationError, TimingViolation
from repro.optim.precision import PRECISION_8_32
from repro.system.design import DESIGNS


class ReferenceScheduler:
    """The original greedy loop behind ``CommandScheduler``'s API.

    Takes the same substrate arguments (validated by constructing a
    :class:`CommandScheduler`) and returns a :class:`ScheduleResult`
    over fresh command copies; multi-channel geometries partition the
    stream and schedule each channel independently.
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
        return ScheduleResult(
            commands=copies,
            stats=stats,
            timing=self.timing,
            geometry=geom,
            issue_model=self.issue_model,
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


def oracle_profile(model, design, optimizer, precision=PRECISION_8_32):
    """The profile ``model.profile(design, optimizer, precision)`` must
    return, derived on the oracles: the model's full sample stream,
    scheduled by :class:`ReferenceScheduler` on one channel, checked by
    :func:`validate_trace_thorough`, aggregated across the design's
    identical channel replicas."""
    config = DESIGNS[design]
    commands, n_params, offchip, _, _ = model._build_stream(
        config, optimizer, precision
    )
    geometry = model._one_channel()
    issue_model = config.issue_model(geometry)
    result = ReferenceScheduler(
        model.timing, geometry, issue_model,
        per_bank_pim=config.per_bank_pim,
        window=model.window,
        data_bus_scope=config.data_bus_scope,
    ).run(commands)
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
