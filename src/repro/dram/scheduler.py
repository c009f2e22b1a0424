"""Cycle-level command scheduler (the memory controller model).

The scheduler consumes a dependency-annotated command stream (produced by
:mod:`repro.kernels`) and issues it against the DDR4 state machines,
producing issue cycles for every command plus aggregate statistics.

Two properties of real controllers matter for GradPIM and are modelled
explicitly:

* **Command-bus structure** (:class:`IssueModel`). A direct-attached
  DDR4 channel has a single command/address bus: one command per tCK for
  the whole channel, all ranks included. A buffered memory system
  (paper §V-C, Fig. 8b) lets each DIMM's buffer chip generate commands
  locally, so every rank gets its own command stream. This single knob
  reproduces the ~4x internal-bandwidth gap between GradPIM-Direct and
  GradPIM-Buffered (Fig. 11).

* **Limited out-of-order lookahead** (``window``). The scheduler may pick
  any of the next ``window`` pending commands per port whose dependencies
  are satisfied, emulating an FR-FCFS-style reorder queue.

Refresh is accounted analytically (a tRFC/tREFI derate applied by
:mod:`repro.system.update_model`) rather than simulated, because the
sampling windows used for steady-state measurement are much shorter than
tREFI; this is documented in DESIGN.md §3.

Steady-state replay
-------------------

Every run schedules a :class:`~repro.dram.columnar.ColumnarStream` on
the one exact greedy loop of :mod:`repro.dram.columnar` and returns a
:class:`~repro.dram.columnar.ColumnarSchedule`. Passing the stream's
:class:`~repro.dram.period.StreamPeriod` metadata (kernel generators
attach it) as ``run(..., period=...)`` adds steady-state replay
(:mod:`repro.dram.steady`): a :class:`~repro.dram.steady.SteadyTracker`
locks the scheduler's fixed cycle over stripe-periodic stream bodies
at sweep boundaries and replays locked sweeps in place. Both match the
original greedy loop that the test suite keeps as its oracle
(``tests/dram/test_engine_equivalence.py``, ``tests/dram/test_steady.py``).

Channels
--------

A multi-channel geometry (``DeviceGeometry.channels > 1``) gives every
channel its own full replica of the state machines: banks, bank groups,
ranks, data buses *and* issue ports. Channels share nothing, so the
scheduler splits the stream by its ``channel`` column and schedules
each channel on its own; dependencies may not cross channels.
Statistics aggregate across channels (:meth:`TraceStats.merge_channels`)
with elapsed time set by the slowest channel. Period metadata describes
one channel's stream, so multi-channel runs never replay.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional, Sequence

import numpy as np

from repro.dram.columnar import (
    ColumnarSchedule,
    ColumnarStream,
    schedule_columnar,
)
from repro.dram.commands import Command
from repro.dram.geometry import DeviceGeometry, DEFAULT_GEOMETRY
from repro.dram.stats import TraceStats
from repro.dram.period import PeriodicOutcome, StreamPeriod
from repro.dram.steady import SteadyTracker
from repro.dram.timing import TimingParams
from repro.errors import ConfigError, SimulationError

#: Engine spellings accepted on the job surface (``SimJobSpec``,
#: ``UpdatePhaseModel``, the CLIs). Every engine schedules with
#: steady-state replay; ``"periodic"`` also extrapolates profiles from
#: a warm sample. ``"incremental"`` and ``"reference"`` name
#: engines that have been folded into the columnar loop and stay
#: accepted so stored specs and their content hashes keep working.
ENGINE_SPELLINGS = {
    "incremental": "columnar",
    "reference": "columnar",
    "columnar": "columnar",
    "periodic": "periodic",
}


def resolve_engine(name: str) -> str:
    """The engine (``"columnar"`` or ``"periodic"``) a spelling
    selects."""
    try:
        return ENGINE_SPELLINGS[name]
    except KeyError:
        raise ConfigError(
            f"unknown engine {name!r}; choose from "
            f"{tuple(ENGINE_SPELLINGS)}"
        ) from None


@dataclass(frozen=True)
class IssueModel:
    """Command-issue structure of the memory system.

    ``port_of_rank[r]`` names the issue port that delivers commands to
    rank ``r``; each port can issue one command per cycle.
    """

    name: str
    port_of_rank: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.port_of_rank:
            raise ConfigError("issue model needs at least one rank")
        ports = set(self.port_of_rank)
        if ports != set(range(len(ports))):
            raise ConfigError(
                f"ports must be dense 0..N-1, got {sorted(ports)}"
            )

    @property
    def n_ports(self) -> int:
        """Number of independent command generators."""
        return len(set(self.port_of_rank))

    @classmethod
    def direct(cls, ranks: int) -> "IssueModel":
        """Direct-attached channel: one command bus shared by all ranks."""
        return cls(name="direct", port_of_rank=(0,) * ranks)

    @classmethod
    def buffered(cls, ranks: int) -> "IssueModel":
        """Buffered memory system: one command generator per rank."""
        return cls(name="buffered", port_of_rank=tuple(range(ranks)))


@dataclass
class ScheduleResult:
    """Outcome of scheduling one command stream.

    Backed by a :class:`~repro.dram.columnar.ColumnarSchedule`;
    ``commands`` materializes annotated :class:`Command` objects on
    first access, so consumers that only read ``stats`` or
    ``issue_cycles()`` never pay for per-command objects.
    """

    columnar: ColumnarSchedule
    stats: TraceStats
    timing: TimingParams
    geometry: DeviceGeometry
    issue_model: IssueModel
    #: What steady-state replay did (runs given ``period=`` only):
    #: per-segment locks, commands simulated vs. arithmetically
    #: replayed, and the fallback reason when it did not engage.
    periodic: Optional[PeriodicOutcome] = None
    #: Commands whose per-command scheduling lists the run built (the
    #: loop builds them on demand; replayed commands mostly need none).
    commands_prepared: int = 0

    @cached_property
    def commands(self) -> list[Command]:
        """Annotated commands (materialized on first access)."""
        return self.columnar.to_commands()

    @property
    def total_cycles(self) -> int:
        """Cycles until the last command completes."""
        return self.stats.total_cycles

    def issue_cycles(self) -> list[int]:
        """Issue cycle of every command, in stream order."""
        return self.columnar.issue_cycle.tolist()


class CommandScheduler:
    """Greedy earliest-feasible-cycle scheduler over the DDR4 state
    machines.

    The algorithm repeatedly selects, across all ports, the pending
    dependency-ready command with the smallest feasible issue cycle
    (ties broken by stream order), issues it, and updates the machine
    state. Each port issues at most one command per cycle.
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
        """``data_bus_scope`` selects how external bursts share wiring:
        ``"channel"`` (one bus, direct-attach), ``"dimm"`` (one private
        bus per DIMM buffer device — TensorDIMM), or ``"rank"``."""
        if issue_model is None:
            issue_model = IssueModel.direct(geometry.ranks)
        if len(issue_model.port_of_rank) != geometry.ranks:
            raise ConfigError(
                f"issue model covers {len(issue_model.port_of_rank)} ranks "
                f"but geometry has {geometry.ranks}"
            )
        if window < 1:
            raise ConfigError("window must be at least 1")
        bus_of_rank = {
            "channel": lambda r: 0,
            "dimm": geometry.dimm_of_rank,
            "rank": lambda r: r,
        }.get(data_bus_scope)
        if bus_of_rank is None:
            raise ConfigError(
                f"unknown data_bus_scope {data_bus_scope!r}"
            )
        self.timing = timing
        self.geometry = geometry
        self.issue_model = issue_model
        self.per_bank_pim = per_bank_pim
        self.window = window
        self.data_bus_scope = data_bus_scope
        # Data-bus index serving each rank.
        self._bus_ids = tuple(map(bus_of_rank, range(geometry.ranks)))

    # ------------------------------------------------------------------
    def run(
        self,
        commands: "Sequence[Command] | ColumnarStream",
        period: Optional[StreamPeriod] = None,
    ) -> ScheduleResult:
        """Schedule ``commands`` — a
        :class:`~repro.dram.columnar.ColumnarStream` or a ``Command``
        sequence, never mutated — and return the annotated result.

        Dependencies must point backwards (``dep < index``); forward or
        self references raise :class:`SimulationError`. ``period`` (the
        stream's :class:`~repro.dram.period.StreamPeriod` metadata)
        turns on steady-state replay, reported in ``result.periodic``;
        replay is exact, so it never changes the schedule.
        """
        stream = (
            commands if isinstance(commands, ColumnarStream)
            else ColumnarStream.from_commands(commands)
        )
        geom = self.geometry
        stream.check_structure(geom)
        outcome = None
        if geom.channels > 1:
            if period is not None:
                outcome = PeriodicOutcome(reason="multi-channel")
            issue = np.empty(stream.n, dtype=np.int64)
            per_channel = []
            prepared = 0
            for indices, part in _channel_streams(stream, geom.channels):
                issue[indices], stats, built = self._schedule_stream(part)
                per_channel.append(stats)
                prepared += built
            issue.setflags(write=False)
            stats = TraceStats.merge_channels(per_channel)
        else:
            steady = None
            if period is not None and period.segments:
                steady = SteadyTracker(
                    period, stream, self.timing, self.window
                )
            issue, stats, prepared = self._schedule_stream(stream, steady)
            if steady is not None:
                outcome = steady.finish()
            elif period is not None:
                outcome = PeriodicOutcome(
                    reason="no-period-metadata", simulated=stream.n
                )
        return ScheduleResult(
            ColumnarSchedule(stream, issue), stats, self.timing, geom,
            self.issue_model, outcome, prepared,
        )

    def _schedule_stream(self, stream: ColumnarStream, steady=None):
        """Schedule a columnar stream under this scheduler's substrate."""
        return schedule_columnar(
            stream, self.timing, self.geometry, self.issue_model,
            self.per_bank_pim, self.window, self._bus_ids, steady,
        )


def _channel_streams(
    stream: ColumnarStream, channels: int
) -> Iterator[tuple[np.ndarray, ColumnarStream]]:
    """``(stream indices, sub-stream)`` of every channel id in order,
    empty channels included so per-channel statistics stay aligned.

    Sub-streams keep stream order with dependencies remapped to their
    own index space. Channels share no state machines, so a dependency
    across channels has no well-defined completion order: it raises
    :class:`SimulationError` naming the first such pair in CSR order.
    """
    channel = stream.channel
    consumer = np.repeat(np.arange(stream.n), np.diff(stream.dep_indptr))
    deps = stream.dep_indices
    consumer_channel = channel[consumer]
    cross = channel[deps] != consumer_channel
    if cross.any():
        k = int(np.argmax(cross))
        i, d = int(consumer[k]), int(deps[k])
        raise SimulationError(
            f"command {i} (channel {channel[i]}) depends on command {d} "
            f"in channel {channel[d]}; dependencies cannot cross channels"
        )
    local = np.empty(stream.n, dtype=np.int64)
    for c in range(channels):
        indices = np.flatnonzero(channel == c)
        local[indices] = np.arange(len(indices))
        in_channel = deps[consumer_channel == c]
        yield indices, stream.select(indices, local[in_channel])


def replicate_across_channels(
    stream: ColumnarStream, channels: int
) -> ColumnarStream:
    """Tile a single-channel stream across every channel of a device.

    Replica ``c`` is the same stream, unissued, targeted at channel
    ``c`` with its dependency indices shifted into its own block — the
    embarrassingly parallel update-phase partitioning: each channel
    runs an identical steady-state sample over its own slice of the
    parameters. Tags and scaler payloads are left off (scheduling and
    validation never read them).
    """
    n = stream.n
    shift = np.repeat(np.arange(channels) * n, len(stream.dep_indices))
    return stream.select(
        np.tile(np.arange(n), channels),
        np.tile(stream.dep_indices, channels) + shift,
        channel=np.repeat(np.arange(channels), n),
        issue_cycle=np.full(n * channels, -1),
    )
