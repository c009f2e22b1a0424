"""The scheduler-engine flight recorder.

:class:`EngineReport` is the structured, mergeable record of what
:class:`~repro.system.update_model.UpdatePhaseModel`'s engines
actually did — warm-sample escalation rungs, lock attempts and
confirmations, super-period lengths, replayed-vs-simulated sweeps,
*why* each fallback to full simulation happened, and which scheduling
path served each schedule.

Reports are plain JSON-able state: the service pool snapshots the
model's report before a job, diffs after, and ships the per-job delta
through the result envelope (``SimJobResult.engine_report`` →
``GET /v1/jobs/{id}``); the server dispatcher folds the deltas into
``/metrics`` counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

#: Fallback reasons the update-phase model classifies. Kept as module
#: constants so the dispatcher's metric labels and the tests agree on
#: spelling.
FALLBACK_NO_METADATA = "no-metadata"
FALLBACK_HORIZON_EXCEEDED = "horizon-exceeded"
FALLBACK_DEADLOCK = "deadlock"
FALLBACK_NO_LOCK = "no-lock"
FALLBACK_ECONOMICS = "economics"

FALLBACK_REASONS = (
    FALLBACK_NO_METADATA,
    FALLBACK_HORIZON_EXCEEDED,
    FALLBACK_DEADLOCK,
    FALLBACK_NO_LOCK,
    FALLBACK_ECONOMICS,
)

_COUNTER_FIELDS = (
    "fast_path",
    "fallback",
    "warm_runs",
    "lock_attempts",
    "locks_confirmed",
    "commands_simulated",
    "commands_replayed",
    "sweeps_extended",
)
_DICT_FIELDS = (
    "fallback_reasons",
    "warm_widths",
    "super_periods",
    "scheduling_paths",
)


@dataclass
class EngineReport:
    """Cumulative counters describing how profiles were produced.

    ``fast_path`` counts steady-state extrapolations, ``fallback`` full
    simulations under ``engine="periodic"`` (with the *reason* tallied
    in ``fallback_reasons``), ``warm_runs`` warm samples scheduled —
    broken down by warm width in ``warm_widths`` (the escalation-ladder
    rungs actually climbed). ``lock_attempts``/``locks_confirmed``
    count per-segment steady-cycle locks, with confirmed super-period
    lengths (sweeps per machine cycle) histogrammed in
    ``super_periods``. ``commands_simulated``/``commands_replayed``
    split the commands of every schedule (full stream or warm sample,
    under every engine) into genuinely scheduled by the event loop vs
    replayed from a locked steady cycle; ``sweeps_extended``
    counts the sweeps the closed-form extension added on top of the
    warm sample. ``scheduling_paths`` histograms how every schedule
    the model ran was served: ``"single-channel"``,
    ``"serial-replicated"`` (one channel scheduled, aggregated across
    identical replicas) or ``"steady-warm"`` (a periodic warm
    sample).
    """

    engine: str = ""
    fast_path: int = 0
    fallback: int = 0
    warm_runs: int = 0
    lock_attempts: int = 0
    locks_confirmed: int = 0
    commands_simulated: int = 0
    commands_replayed: int = 0
    sweeps_extended: int = 0
    fallback_reasons: dict = field(default_factory=dict)
    warm_widths: dict = field(default_factory=dict)
    super_periods: dict = field(default_factory=dict)
    scheduling_paths: dict = field(default_factory=dict)

    # -- recording hooks (called by the update-phase model) ------------
    def record_fast_path(self) -> None:
        self.fast_path += 1

    def record_fallback(self, reason: str) -> None:
        self.fallback += 1
        self._bump(self.fallback_reasons, reason)

    def record_warm_run(self, warm_columns: int) -> None:
        self.warm_runs += 1
        self._bump(self.warm_widths, warm_columns)

    def record_outcome(self, outcome) -> None:
        """Fold one :class:`~repro.dram.period.PeriodicOutcome` in."""
        if outcome is None:
            return
        self.commands_simulated += outcome.simulated
        self.commands_replayed += outcome.skipped
        for lock in outcome.locks:
            self.lock_attempts += 1
            if lock is None:
                continue
            self.locks_confirmed += 1
            self._bump(self.super_periods, lock.sweeps_per_period)

    def record_extension(self, sweeps: int) -> None:
        self.sweeps_extended += sweeps

    def record_scheduling_path(self, path: str) -> None:
        self._bump(self.scheduling_paths, path)

    @staticmethod
    def _bump(table: dict, key) -> None:
        key = str(key)
        table[key] = table.get(key, 0) + 1

    # -- serde / algebra -----------------------------------------------
    def to_dict(self) -> dict:
        """JSON-safe full state (histograms copied, not aliased)."""
        out = {"engine": self.engine}
        for name in _COUNTER_FIELDS:
            out[name] = getattr(self, name)
        for name in _DICT_FIELDS:
            out[name] = dict(getattr(self, name))
        return out

    @classmethod
    def from_dict(cls, data: Mapping) -> "EngineReport":
        report = cls(engine=str(data.get("engine", "")))
        for name in _COUNTER_FIELDS:
            setattr(report, name, int(data.get(name, 0)))
        for name in _DICT_FIELDS:
            setattr(report, name, dict(data.get(name, {})))
        return report

    def merge(self, other: "EngineReport") -> None:
        """Fold another report's counters into this one."""
        if not self.engine:
            self.engine = other.engine
        for name in _COUNTER_FIELDS:
            setattr(
                self, name, getattr(self, name) + getattr(other, name)
            )
        for name in _DICT_FIELDS:
            table = getattr(self, name)
            for key, value in getattr(other, name).items():
                table[key] = table.get(key, 0) + value

    @staticmethod
    def diff_dicts(
        before: Mapping, after: Mapping
    ) -> Optional[dict]:
        """``after - before`` of two :meth:`to_dict` snapshots.

        The per-job delta the pool attaches to each result. Zero
        counters and empty histograms are dropped; returns ``None``
        when nothing happened between the snapshots (e.g. every
        profile was memoized).
        """
        delta: dict = {}
        for name in _COUNTER_FIELDS:
            d = int(after.get(name, 0)) - int(before.get(name, 0))
            if d:
                delta[name] = d
        for name in _DICT_FIELDS:
            b = before.get(name, {})
            table = {
                key: value - b.get(key, 0)
                for key, value in after.get(name, {}).items()
                if value - b.get(key, 0)
            }
            if table:
                delta[name] = table
        if not delta:
            return None
        delta["engine"] = after.get("engine", "")
        return delta
