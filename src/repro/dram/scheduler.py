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

Engines
-------

Two engines produce the schedule:

* ``engine="columnar"`` (the default) — the exact greedy loop of
  :mod:`repro.dram.columnar`: it schedules a
  :class:`~repro.dram.columnar.ColumnarStream` directly, with
  vectorized stream preparation and validation, and memoizes issue
  cycles on the immutable stream.
* ``engine="periodic"`` — the steady-state engine of
  :mod:`repro.dram.steady`: it locks the scheduler's fixed cycle over
  stripe-periodic stream bodies (kernel generators attach the
  :class:`~repro.dram.steady.StreamPeriod` metadata; pass it via
  ``run(..., period=...)``) and replays locked sweeps arithmetically.
  Streams without metadata schedule on the columnar engine.

Both produce the issue cycles and statistics of the original greedy
loop, which the test suite keeps as its oracle
(``tests/dram/test_engine_equivalence.py``, ``tests/dram/test_steady.py``).

``run`` never mutates the caller's :class:`Command` objects: the
columnar engine never touches them, and the periodic engine schedules
fresh copies, returned in the :class:`ScheduleResult`.

Channels
--------

A multi-channel geometry (``DeviceGeometry.channels > 1``) gives every
channel its own full replica of the state machines: banks, bank groups,
ranks, data buses *and* issue ports. Channels share nothing, so the
scheduler partitions the stream by ``Command.channel`` and schedules
each partition independently on the columnar engine
(:func:`split_channels`); dependencies may not cross channels.
Statistics aggregate across channels (:meth:`TraceStats.merge_channels`)
with elapsed time set by the slowest channel. A single-channel geometry
bypasses the partitioning entirely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.dram.columnar import (
    ColumnarSchedule,
    ColumnarStream,
    schedule_columnar,
)
from repro.dram.commands import Command
from repro.dram.geometry import DeviceGeometry, DEFAULT_GEOMETRY
from repro.dram.stats import TraceStats
from repro.dram.steady import (
    PeriodicOutcome,
    StreamPeriod,
    schedule_steady,
)
from repro.dram.timing import TimingParams
from repro.errors import ConfigError, SimulationError

#: The scheduler engines (see the module docstring).
ENGINES = ("columnar", "periodic")

#: Engine spellings accepted on the job surface (``SimJobSpec``,
#: ``UpdatePhaseModel``, the CLIs). ``"incremental"`` and
#: ``"reference"`` name engines that have been folded into the columnar
#: loop; they stay accepted so stored specs and their content hashes
#: keep working, and select the one exact loop.
ENGINE_SPELLINGS = {
    "incremental": "columnar",
    "reference": "columnar",
    "columnar": "columnar",
    "periodic": "periodic",
}


def resolve_engine(name: str) -> str:
    """The scheduler engine an accepted spelling selects."""
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


class ScheduleResult:
    """Outcome of scheduling one command stream.

    Columnar runs return results backed by a
    :class:`~repro.dram.columnar.ColumnarSchedule` instead of a list of
    annotated :class:`Command` objects; ``commands`` materializes the
    objects lazily on first access, so consumers that only read
    ``stats`` or ``issue_cycles()`` never pay for per-command objects.
    """

    __slots__ = (
        "_commands", "stats", "timing", "geometry", "issue_model",
        "periodic", "columnar",
    )

    def __init__(
        self,
        commands: Optional[list[Command]] = None,
        stats: Optional[TraceStats] = None,
        timing: Optional[TimingParams] = None,
        geometry: Optional[DeviceGeometry] = None,
        issue_model: Optional[IssueModel] = None,
        periodic: Optional[PeriodicOutcome] = None,
        columnar: Optional["ColumnarSchedule"] = None,
    ) -> None:
        self._commands = commands
        self.stats = stats
        self.timing = timing
        self.geometry = geometry
        self.issue_model = issue_model
        #: What the periodic engine did (``engine="periodic"`` only):
        #: per-segment locks, commands simulated vs. arithmetically
        #: replayed, and the fallback reason when it did not engage.
        self.periodic = periodic
        #: The scheduled columnar stream (single-channel columnar runs).
        self.columnar = columnar

    @property
    def commands(self) -> list[Command]:
        """Annotated commands (materialized lazily for columnar runs)."""
        if self._commands is None and self.columnar is not None:
            self._commands = self.columnar.to_commands()
        return self._commands

    @property
    def total_cycles(self) -> int:
        """Cycles until the last command completes."""
        return self.stats.total_cycles

    def issue_cycles(self) -> list[int]:
        """Issue cycle of every command, in stream order."""
        if self._commands is None and self.columnar is not None:
            return self.columnar.issue_cycle.tolist()
        return [c.issue_cycle for c in self.commands]


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
        engine: str = "columnar",
    ) -> None:
        """``data_bus_scope`` selects how external bursts share wiring:
        ``"channel"`` (one bus, direct-attach), ``"dimm"`` (one private
        bus per DIMM buffer device — TensorDIMM), or ``"rank"``.
        ``engine`` is ``"columnar"`` or ``"periodic"`` (see the module
        docstring)."""
        if issue_model is None:
            issue_model = IssueModel.direct(geometry.ranks)
        if len(issue_model.port_of_rank) != geometry.ranks:
            raise ConfigError(
                f"issue model covers {len(issue_model.port_of_rank)} ranks "
                f"but geometry has {geometry.ranks}"
            )
        if window < 1:
            raise ConfigError("window must be at least 1")
        if data_bus_scope not in ("channel", "dimm", "rank"):
            raise ConfigError(
                f"unknown data_bus_scope {data_bus_scope!r}"
            )
        if engine not in ENGINES:
            raise ConfigError(
                f"unknown engine {engine!r}; choose from {ENGINES}"
            )
        self.timing = timing
        self.geometry = geometry
        self.issue_model = issue_model
        self.per_bank_pim = per_bank_pim
        self.window = window
        self.data_bus_scope = data_bus_scope
        self.engine = engine
        # Data-bus index serving each rank.
        if data_bus_scope == "channel":
            self._bus_ids = (0,) * geometry.ranks
        elif data_bus_scope == "dimm":
            self._bus_ids = tuple(
                geometry.dimm_of_rank(r) for r in range(geometry.ranks)
            )
        else:
            self._bus_ids = tuple(range(geometry.ranks))

    # ------------------------------------------------------------------
    def run(
        self,
        commands: Sequence[Command],
        dependents: Optional[Sequence[Sequence[int]]] = None,
        period: Optional[StreamPeriod] = None,
        columnar: Optional[ColumnarStream] = None,
    ) -> ScheduleResult:
        """Schedule ``commands`` and return the annotated result.

        Dependencies must point backwards (``dep < index``); forward or
        self references raise :class:`SimulationError`. The caller's
        command objects are never mutated.

        ``period`` optionally supplies the stream's
        :class:`~repro.dram.steady.StreamPeriod` metadata (kernel
        generators attach it to their streams); only the ``"periodic"``
        engine consumes it, together with ``dependents``, the optional
        precomputed dependent-command adjacency (see
        :func:`repro.dram.steady.build_dependents`). Without metadata —
        or on multi-channel geometries, where partitions carry no
        metadata — the periodic engine schedules on the columnar loop,
        so it is always safe to select.

        ``columnar`` optionally supplies the stream's prebuilt
        :class:`~repro.dram.columnar.ColumnarStream` (it must describe
        the same stream as ``commands``; kernel artifacts cache it).
        The columnar loop builds it from ``commands`` when absent.
        """
        geom = self.geometry
        steady = (
            self.engine == "periodic"
            and period is not None
            and bool(period.segments)
        )
        if geom.channels == 1 and not steady:
            result = self._run_columnar(commands, columnar)
            if self.engine == "periodic":
                result.periodic = PeriodicOutcome(
                    reason="no-period-metadata", simulated=len(commands)
                )
            return result
        _check_structure(commands, geom)
        copies = [_fresh_copy(cmd) for cmd in commands]
        periodic = None
        if geom.channels > 1:
            stats = self._run_channels(commands, copies)
            if self.engine == "periodic":
                periodic = PeriodicOutcome(reason="multi-channel")
        else:
            stats, periodic = schedule_steady(
                self.timing,
                geom,
                self.issue_model,
                self.per_bank_pim,
                self.window,
                self._bus_ids,
                copies,
                dependents,
                period,
            )
        return ScheduleResult(
            commands=copies,
            stats=stats,
            timing=self.timing,
            geometry=geom,
            issue_model=self.issue_model,
            periodic=periodic,
        )

    # ------------------------------------------------------------------
    def _run_channels(
        self, commands: Sequence[Command], copies: list[Command]
    ) -> TraceStats:
        """Partition by channel, schedule each on the columnar loop,
        annotate ``copies`` and merge the per-channel statistics."""
        per_channel = []
        for part in split_channels(commands, self.geometry.channels):
            stream = ColumnarStream.from_commands(part.commands)
            issue, stats = self._schedule_stream(stream)
            for global_i, cycle in zip(part.indices, issue.tolist()):
                copies[global_i].issue_cycle = cycle
            per_channel.append(stats)
        return TraceStats.merge_channels(per_channel)

    def _schedule_stream(self, stream: ColumnarStream):
        """Schedule a columnar stream under this scheduler's substrate."""
        return schedule_columnar(
            stream,
            self.timing,
            self.geometry,
            self.issue_model,
            self.per_bank_pim,
            self.window,
            self._bus_ids,
        )

    def _run_columnar(
        self,
        commands: Sequence[Command],
        stream: Optional[ColumnarStream],
    ) -> ScheduleResult:
        """Single-channel columnar run: vectorized validation, no
        per-command copies."""
        if stream is None:
            stream = ColumnarStream.from_commands(commands)
        stream.check_structure(self.geometry)
        issue, stats = self._schedule_stream(stream)
        return ScheduleResult(
            stats=stats,
            timing=self.timing,
            geometry=self.geometry,
            issue_model=self.issue_model,
            columnar=ColumnarSchedule(stream, issue),
        )


def _check_structure(
    commands: Sequence[Command], geometry: DeviceGeometry
) -> None:
    """``run()`` preconditions over a ``Command`` list (the scalar twin
    of :meth:`ColumnarStream.check_structure`, same messages)."""
    for i, cmd in enumerate(commands):
        for d in cmd.deps:
            if d >= i or d < 0:
                raise SimulationError(
                    f"command {i} has illegal dependency {d}"
                )
    for i, cmd in enumerate(commands):
        if not 0 <= cmd.rank < geometry.ranks:
            raise SimulationError(f"command {i} rank out of range")
        if not 0 <= cmd.channel < geometry.channels:
            raise SimulationError(
                f"command {i} channel {cmd.channel} out of range "
                f"(geometry has {geometry.channels})"
            )


def _fresh_copy(cmd: Command) -> Command:
    """A clean, unissued copy of ``cmd`` (deps tuples are shared).

    Field-by-field into a bare slotted instance: meaningfully faster
    than ``copy.copy``/``dataclasses.replace`` at stream scale, and
    guarded by a test that diffs the field list against the dataclass.
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
    per channel id (empty channels get empty partitions so channel ids
    and per-channel statistics stay aligned).

    Dependencies must stay within a channel: channels share no state
    machines and schedule independently, so a cross-channel edge has no
    well-defined completion order. Such streams raise
    :class:`SimulationError`.
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
    """Tile a single-channel stream across every channel of a device.

    Replica ``c`` is the same stream targeted at channel ``c`` with its
    dependency indices shifted into its own block — the embarrassingly
    parallel update-phase partitioning: each channel runs an identical
    steady-state sample over its own slice of the parameters.
    """
    n = len(commands)
    out: list[Command] = []
    for c in range(channels):
        offset = c * n
        for cmd in commands:
            copy = _fresh_copy(cmd)
            copy.channel = c
            if cmd.deps:
                copy.deps = tuple(d + offset for d in cmd.deps)
            out.append(copy)
    return out
