"""Stream periodicity: what generators declare, what the scheduler finds.

Kernel generators record, while they emit a sampled stream, where its
stripe-periodic bodies lie (:class:`SegmentRecorder` builds a
:class:`StreamPeriod` of :class:`PeriodSegment` entries). Steady-state
replay (:mod:`repro.dram.steady`) reads that metadata and reports, per
stream, what it locked and replayed (:class:`PeriodicOutcome` of
:class:`SegmentLock` and :class:`Replay` entries); the update model
extends warm samples from those locks, and the trace validator cuts
the replayed images it can prove are shifted copies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.dram.commands import CommandType
from repro.errors import ConfigError


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
    sweeps_per_period: int  # structural sweeps per machine cycle
    margin_ok: bool  # lock confirmed clear of the contaminated tail
    #: The segment's remaining body verified statically shape-periodic
    #: under the locked shift (set by a successful replay, or by the
    #: standalone check when there was no room to skip). A lock whose
    #: shape never verified must not be extrapolated from.
    shape_ok: bool = False


@dataclass(frozen=True)
class Replay:
    """One in-place replay: image ``u`` (``1 <= u <= copies``) of event
    ``e`` is command ``e + u * period``, issued ``u * delta`` cycles
    after it. ``events`` are the matched super-period's stream indices,
    ascending. The validator trusts none of this: it checks the
    translation on the trace before it relies on it."""

    events: tuple[int, ...]
    period: int  # P: commands per super-period
    delta: int  # cycles per super-period
    copies: int  # m: super-periods replayed


@dataclass
class PeriodicOutcome:
    """What steady-state replay did with one stream."""

    locks: list[Optional[SegmentLock]] = field(default_factory=list)
    simulated: int = 0  # commands scheduled by the event loop
    skipped: int = 0  # commands annotated arithmetically
    reason: str = ""  # why the fast path did not engage (if it didn't)
    #: Every replay, in the order the loop made them.
    replays: list[Replay] = field(default_factory=list)

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
