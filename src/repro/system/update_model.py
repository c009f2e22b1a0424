"""Update-phase profiling: cycle-level sampling, analytical scaling.

For each (design, optimizer, precision) the model compiles the matching
command stream for a steady-state sample window, schedules it against
the DDR4 state machines, validates the trace, and converts the result
into per-parameter rates (time, command counts, energy-event counts).
The training simulator then scales those rates by each layer's
parameter count — the hybrid methodology of DESIGN.md §3.

Refresh is folded in analytically: every profile's time is derated by
``tREFI / (tREFI - tRFC)`` (the share of time the rank is unavailable),
because sample windows are far shorter than a refresh interval.
Degenerate grades with ``tREFI <= tRFC`` (a device that refreshes
longer than the interval between refreshes) have no meaningful derate
and are rejected with :class:`~repro.errors.ConfigError`.

Performance
-----------

``profile()`` is the hot path of every figure, sweep and service job.
It schedules the kernel artifact's cached
:class:`~repro.dram.columnar.ColumnarStream` on the columnar loop with
the stream's period metadata, so locked steady-state sweeps are
replayed in place rather than simulated (below); validates with the
vectorized columnar checker (``validate=False`` skips checking
entirely); and memoizes finished profiles by (design, full optimizer
identity, precision) so one model instance serves arbitrarily many
jobs. ``engine`` accepts every spelling of
:data:`~repro.dram.scheduler.ENGINE_SPELLINGS`; ``"periodic"`` adds
warm-sample extrapolation (below), every other spelling schedules the
full stream. ``benchmarks/bench_profile.py`` and
``benchmarks/bench_scheduler.py`` track the timings in
``BENCH_profile.json`` / ``BENCH_scheduler.json``.

Steady-state replay and extrapolation
-------------------------------------

Update-phase streams are stripe-periodic: after a short prologue every
sweep over the stripes issues the same command pattern, and the
scheduler settles into a fixed cycle (possibly spanning a few sweeps —
see :mod:`repro.dram.steady`). The model exploits this at two levels:

* every schedule, under every engine spelling, runs the columnar loop
  in steady-state mode, which locks the cycle by fingerprinting the
  loop's state at sweep boundaries and replays the locked sweeps in
  place — byte-identical issue cycles and statistics, enforced by
  golden and Hypothesis tests — and is validated by the same
  vectorized columnar checker;

* ``engine="periodic"`` additionally compiles only a small *warm sample*
  (a few sweeps per phase, enough for the lock to confirm plus the
  lookahead-contaminated tail) and closes the form for the requested
  ``columns_per_stripe``: per-segment cycle deltas and command counts
  scale arithmetically, so the profiling cost is O(period) — flat in
  the sample width — instead of O(window x commands).

**Exactness is the contract**: the extrapolated ``UpdateProfile`` is
byte-identical to what the columnar engine produces on the full stream
(every count is extended by exact integers, and every derived float is
computed from the same integers by the same expressions). Whenever a
lock fails — irregular streams, sample windows too small to settle,
phase patterns that never stabilise — the model transparently falls
back to scheduling the full stream as the other spellings do, and the
trace validator runs on whatever was actually simulated. The model's
``report`` — an :class:`~repro.obs.report.EngineReport` flight
recorder — records which path served each profile and *why* fallbacks
happened.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Optional

from repro import faults
from repro.dram.commands import CommandType
from repro.dram.geometry import DeviceGeometry, DEFAULT_GEOMETRY
from repro.dram.scheduler import CommandScheduler, resolve_engine
from repro.dram.stats import TraceStats
from repro.dram.timing import TimingParams, DDR4_2133
from repro.dram.validator import validate_trace_columnar
from repro.errors import ConfigError, SimulationError
from repro.obs.report import (
    EngineReport,
    FALLBACK_DEADLOCK,
    FALLBACK_ECONOMICS,
    FALLBACK_HORIZON_EXCEEDED,
    FALLBACK_NO_LOCK,
    FALLBACK_NO_METADATA,
)
from repro.obs.trace import span
from repro.units import ceil_div
from repro.kernels.aos import AoSKernelGenerator
from repro.kernels.compiler import UpdateKernelCompiler
from repro.kernels.streams import BaselineStreamGenerator
from repro.optim.precision import PrecisionConfig, PRECISION_8_32
from repro.system.design import (
    DesignConfig,
    DesignPoint,
    DESIGNS,
    UPDATE_AOS_KERNEL,
    UPDATE_BASELINE_STREAM,
    UPDATE_NMP_STREAM,
    UPDATE_PIM_KERNEL,
)


@dataclass(frozen=True)
class UpdateProfile:
    """Steady-state per-parameter rates of one design's update phase."""

    design: DesignPoint
    optimizer_name: str
    precision: str
    seconds_per_param: float
    commands_per_param: float
    internal_accesses_per_param: float
    external_accesses_per_param: float
    reads_per_param: float
    writes_per_param: float
    acts_per_param: float
    alu_ops_per_param: float
    quant_ops_per_param: float
    internal_bandwidth: float  # achieved, bytes/s
    external_bandwidth: float  # achieved, bytes/s
    command_bus_utilization: float  # aggregated over generators
    offchip_bytes_per_param: float  # crossing the channel to the NPU

    def update_seconds(self, n_params: float) -> float:
        """Update-phase time for a layer/network of ``n_params``."""
        return self.seconds_per_param * n_params

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-safe representation (the design enum by its value)."""
        out = dataclasses.asdict(self)
        out["design"] = self.design.value
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "UpdateProfile":
        """Inverse of :meth:`to_dict` (exact: floats never reformatted)."""
        fields = dict(data)
        fields["design"] = DesignPoint(fields["design"])
        return cls(**fields)


def _optimizer_key(optimizer) -> tuple:
    """Full stream-shaping identity of an optimizer-like object.

    Duck-typed pseudo-optimizers (e.g. the distributed gradient
    accumulator) provide ``name``/``recipe``/``state_arrays`` without
    subclassing :class:`~repro.optim.base.Optimizer`, so fall back to
    assembling the same tuple ``Optimizer.cache_key`` returns.
    """
    cache_key = getattr(optimizer, "cache_key", None)
    if cache_key is not None:
        return cache_key()
    return (
        optimizer.name,
        optimizer.recipe(),
        tuple(optimizer.state_arrays()),
    )


class UpdatePhaseModel:
    """Profiles and caches update-phase behaviour per design point."""

    def __init__(
        self,
        timing: TimingParams = DDR4_2133,
        geometry: DeviceGeometry = DEFAULT_GEOMETRY,
        columns_per_stripe: int = 32,
        window: int = 16,
        extended_alu: bool = False,
        validate: bool = True,
        fuse_quantize: bool = False,
        fused_baseline: bool = False,
        engine: str = "columnar",
        periodic_warm_columns: Optional[int] = None,
    ) -> None:
        """``validate`` runs the independent trace checker on every
        profiled schedule (production sweeps may disable it — see
        ``SimJobSpec(validate=False)``). A multi-channel geometry's
        channels run identical replicas of the sample, so the model
        schedules one channel and aggregates exactly: the hot path
        stays independent of the channel count.

        ``engine="periodic"`` turns on steady-state extrapolation (see
        the module docstring): profiles are measured on a small warm
        sample and closed arithmetically for the requested
        ``columns_per_stripe``, falling back to full simulation when
        no steady cycle locks. ``periodic_warm_columns`` pins the warm
        sample width (columns per stripe); the default sizes it
        automatically from the precision's packing ratio and escalates
        if the sample proves too short to lock."""
        self.timing = timing
        self.geometry = geometry
        self.columns_per_stripe = columns_per_stripe
        self.window = window
        self.extended_alu = extended_alu
        self.validate = validate
        self.fuse_quantize = fuse_quantize
        self.fused_baseline = fused_baseline
        self.engine = resolve_engine(engine)
        self.periodic_warm_columns = periodic_warm_columns
        #: Engine flight recorder: how profiles were produced (fast
        #: path vs fallback, with reasons), warm-sample escalation,
        #: lock outcomes, replayed-vs-simulated sweeps, and scheduling
        #: paths. See :class:`repro.obs.report.EngineReport`.
        self.report = EngineReport(engine=self.engine)
        self._cache: dict[tuple, UpdateProfile] = {}
        # Generated streams, shared across design points that compile
        # the same kernel (GradPIM-DR / GradPIM-BD differ only in how
        # commands are issued; Baseline / TensorDIMM likewise).
        # Bounded FIFO: reuse happens within one profiling burst (the
        # sibling design, the warm-escalation rungs), while finished
        # profiles are memoized separately — unbounded retention of
        # command lists would leak in long-lived service workers.
        self._streams: dict[tuple, object] = {}

    # ------------------------------------------------------------------
    @property
    def refresh_derate(self) -> float:
        """Time multiplier covering refresh unavailability."""
        t = self.timing
        if t.tREFI <= t.tRFC:
            raise ConfigError(
                f"degenerate refresh timing: tREFI ({t.tREFI}) must "
                f"exceed tRFC ({t.tRFC}), otherwise the analytical "
                "derate tREFI / (tREFI - tRFC) is infinite or negative "
                "(the device would spend its whole refresh interval "
                "refreshing)"
            )
        return t.tREFI / (t.tREFI - t.tRFC)

    def profile(
        self,
        design: DesignPoint,
        optimizer,
        precision: PrecisionConfig = PRECISION_8_32,
    ) -> UpdateProfile:
        """Measure (or fetch the cached) profile for one design point.

        Profiles are memoized on the full optimizer identity
        (:meth:`~repro.optim.base.Optimizer.cache_key`), not just its
        name: hyperparameters change the compiled command stream
        (e.g. ``weight_decay=0`` drops a scaled-load term), so one
        shared model can safely serve jobs with different optimizers.
        """
        key = (design, _optimizer_key(optimizer), precision.name)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        # Fault sites: a memoization miss is where real engine work
        # begins. engine.slow models a pathologically slow schedule;
        # engine.fail (periodic only) exercises the graceful fallback
        # to the byte-identical columnar engine.
        faults.sleep_site(faults.ENGINE_SLOW)
        if self.engine == "periodic":
            faults.maybe_raise(faults.ENGINE_FAIL)
        config = DESIGNS[design]
        profile = None
        with span(
            "model.profile", design=design.value, engine=self.engine
        ):
            if self.engine == "periodic":
                profile, reason = self._profile_steady(
                    design, config, optimizer, precision
                )
                if profile is None:
                    self.report.record_fallback(reason)
                else:
                    self.report.record_fast_path()
            if profile is None:
                profile = self._profile_simulated(
                    design, config, optimizer, precision
                )
        self._cache[key] = profile
        return profile

    def _profile_simulated(
        self, design, config, optimizer, precision
    ) -> UpdateProfile:
        """Schedule the full sample stream, replaying its locked
        steady-state sweeps, and derive the profile."""
        with span("model.build_stream", design=design.value):
            built = self._build_stream(config, optimizer, precision)
        n_params, offchip_accesses, period, artifact = built
        stream = artifact.columnar
        # Channels are embarrassingly parallel: every channel runs the
        # same steady-state sample over its own parameter slice. The
        # replicas are identical streams and the scheduler is
        # deterministic, so one channel's schedule suffices; the
        # sample represents channels-times the parameters in the
        # (per-channel) elapsed time.
        channels = config.effective_channels(self.geometry)
        geometry = self._one_channel()
        issue_model = config.issue_model(geometry)
        scheduler = self._scheduler(config, geometry, issue_model)
        with span(
            "engine.schedule",
            engine=self.engine,
            commands=stream.n,
            channels=channels,
        ):
            result = scheduler.run(stream, period=period)
        self.report.record_outcome(result.periodic)
        stats = (
            TraceStats.merge_channels([result.stats] * channels)
            if channels > 1
            else result.stats
        )
        self.report.record_scheduling_path(
            "serial-replicated" if channels > 1 else "single-channel"
        )
        if self.validate:
            with span(
                "engine.validate", commands=result.columnar.stream.n
            ):
                validate_trace_columnar(
                    result.columnar,
                    self.timing,
                    geometry,
                    issue_model.port_of_rank,
                    per_bank_pim=config.per_bank_pim,
                    data_bus_scope=config.data_bus_scope,
                )
        if channels > 1:
            n_params *= channels
            offchip_accesses *= channels
        return self._finish_profile(
            design, optimizer, precision, stats, n_params,
            offchip_accesses,
        )

    #: Generated streams kept for reuse (see ``_streams``).
    STREAM_CACHE_MAX = 8

    def _cache_stream(self, key: tuple, stream) -> None:
        self._streams[key] = stream
        while len(self._streams) > self.STREAM_CACHE_MAX:
            self._streams.pop(next(iter(self._streams)))

    # ------------------------------------------------------------------
    #: Warm-sample escalation ladder: sweeps per packed (ratio-grouped)
    #: phase. Each attempt compiles and schedules a warm stream of
    #: ``sweeps * ratio`` columns per stripe; escalation stops at the
    #: first whose steady cycle locks in every segment with a clean
    #: tail margin (locks confirm around sweep 3-6 and the
    #: contamination tail spans ~2 sweeps, which sets the bottom
    #: rung). Buffered command generation settles a couple of sweeps
    #: later than a single direct port (four interleaved issue
    #: streams), so those designs start one rung up.
    WARM_SWEEP_LADDER = (6, 8, 12)
    WARM_SWEEP_LADDER_BUFFERED = (7, 9, 12)
    #: AoS kernels sweep one column per stripe whatever the precision,
    #: and AoS-PB's machine cycle spans up to nine sweeps: absolute
    #: column counts.
    WARM_SWEEPS_AOS = (12, 24, 32)

    def _profile_steady(
        self, design, config, optimizer, precision
    ) -> tuple[Optional[UpdateProfile], Optional[str]]:
        """Extrapolate the profile from a warm sample (module docstring).

        Returns ``(profile, None)`` on success, or ``(None, reason)``
        when extrapolation does not apply — the sample is not wider
        than the warm floor, or no steady cycle locks — letting the
        caller fall back to full simulation with the reason recorded
        on the flight recorder.
        """
        ratio = 1 if precision.is_full else precision.ratio
        if config.update_kind == UPDATE_AOS_KERNEL:
            # AoS kernels build exactly the requested width (structure
            # columns are precision-agnostic) — extrapolating to a
            # packing-rounded width would silently profile a wider
            # kernel than full simulation runs.
            ratio = 1
        k_full = ceil_div(self.columns_per_stripe, ratio) * ratio
        candidates: list[int] = []
        if self.periodic_warm_columns is not None:
            candidates.append(
                ceil_div(self.periodic_warm_columns, ratio) * ratio
            )
        else:
            ladder = (
                self.WARM_SWEEP_LADDER_BUFFERED
                if config.buffered_commands
                and config.update_kind == UPDATE_PIM_KERNEL
                or config.update_kind == UPDATE_NMP_STREAM
                else self.WARM_SWEEP_LADDER
            )
            if config.update_kind == UPDATE_AOS_KERNEL:
                # AoS sweeps one column per stripe regardless of the
                # packing ratio, and its per-bank variant settles into
                # machine cycles as long as nine sweeps — absolute
                # sweep counts, realign retries for the long cycles.
                candidates.extend(self.WARM_SWEEPS_AOS)
            else:
                # Pre-align to the common machine cycles (q <= 3, and
                # the packed phases' ratio-column sweeps), so a
                # momentum/RMSProp kernel extrapolates from the first
                # warm run instead of paying a realignment retry.
                align_span = 3 * ratio
                for s in ladder:
                    base = s * ratio
                    candidates.append(
                        base + (k_full - base) % align_span
                    )
        # Economics: the warm run costs O(k_warm) — extrapolation only
        # pays when the sample is meaningfully narrower than the
        # request (pinning periodic_warm_columns overrides the guard).
        ceiling = (
            k_full - 1
            if self.periodic_warm_columns is not None
            else k_full * 2 // 3
        )
        tried: set[int] = set()
        reasons: set[str] = set()
        hopeless = False
        while candidates:
            k_warm = candidates.pop(0)
            if k_warm in tried or k_warm > ceiling or k_warm < ratio:
                continue
            tried.add(k_warm)
            extended = self._extrapolate_from_warm(
                design, config, optimizer, precision, k_warm, k_full,
                reasons,
            )
            if extended is None:
                continue
            if extended == "hopeless":
                # A segment with plenty of sweeps never settled into a
                # machine cycle; a wider sample will not change that.
                hopeless = True
                break
            if isinstance(extended, int):
                # Super-period alignment: retry at the width the locks
                # demand (front of the queue, before escalating).
                if extended not in tried:
                    candidates.insert(0, extended)
                continue
            stats, n_params, offchip_accesses = extended
            channels = config.effective_channels(self.geometry)
            if channels > 1:
                stats = TraceStats.merge_channels([stats] * channels)
                n_params *= channels
                offchip_accesses *= channels
            return self._finish_profile(
                design, optimizer, precision, stats, n_params,
                offchip_accesses,
            ), None
        # Fallback classification, most diagnostic reason first.
        if hopeless:
            reason = FALLBACK_HORIZON_EXCEEDED
        elif not tried:
            # No candidate was narrow enough to beat full simulation.
            reason = FALLBACK_ECONOMICS
        elif FALLBACK_DEADLOCK in reasons:
            reason = FALLBACK_DEADLOCK
        elif len(reasons) == 1:
            reason = next(iter(reasons))
        else:
            reason = FALLBACK_NO_LOCK
        return None, reason

    def _extrapolate_from_warm(
        self, design, config, optimizer, precision, k_warm, k_full,
        reasons: set,
    ):
        """One warm run: returns ``(stats, n_params, offchip)`` on a
        clean lock, a realigned warm width (int) when a super-period
        misaligns the extension, or ``None`` — adding the failure's
        fallback reason to ``reasons``."""
        with span(
            "model.build_stream", design=design.value, warm=k_warm
        ):
            built = self._build_stream(
                config, optimizer, precision, columns_per_stripe=k_warm
            )
        n_params, offchip_accesses, period, artifact = built
        if period is None or not period.segments:
            reasons.add(FALLBACK_NO_METADATA)
            return None
        self.report.record_warm_run(k_warm)
        geometry = self._one_channel()
        issue_model = config.issue_model(geometry)
        scheduler = self._scheduler(config, geometry, issue_model)
        try:
            with span(
                "engine.schedule",
                engine="periodic",
                commands=artifact.columnar.n,
                warm=k_warm,
            ):
                result = scheduler.run(artifact.columnar, period=period)
        except SimulationError:
            # The warm sample deadlocked; let the fallback simulate
            # the full stream (and surface the real error if it
            # deadlocks too) rather than dying on the sample.
            reasons.add(FALLBACK_DEADLOCK)
            return None
        outcome = result.periodic
        self.report.record_scheduling_path("steady-warm")
        self.report.record_outcome(outcome)
        if not outcome.all_locked:
            for seg, lock in zip(period.segments, outcome.locks):
                if lock is None and seg.sweeps >= 16:
                    return "hopeless"
            reasons.add(FALLBACK_NO_LOCK)
            return None
        # The extension inserts whole super-periods into every segment:
        # the added sweeps must divide by each segment's machine cycle.
        extra = k_full - k_warm
        realign = 0
        for seg, lock in zip(period.segments, outcome.locks):
            cycle_span = seg.columns_per_sweep * lock.sweeps_per_period
            if extra % cycle_span:
                realign = max(realign, cycle_span)
        if realign:
            shift = extra % math.lcm(*(
                seg.columns_per_sweep * lock.sweeps_per_period
                for seg, lock in zip(period.segments, outcome.locks)
            ))
            if k_warm + shift < k_full:
                return k_warm + shift
            # The locks demand a realigned sample at least as wide as
            # the full request — extrapolating buys nothing.
            reasons.add(FALLBACK_ECONOMICS)
            return None
        if self.validate:
            with span(
                "engine.validate", commands=result.columnar.stream.n
            ):
                validate_trace_columnar(
                    result.columnar,
                    self.timing,
                    geometry,
                    issue_model.port_of_rank,
                    per_bank_pim=config.per_bank_pim,
                    data_bus_scope=config.data_bus_scope,
                )
        stats = result.stats
        ext = TraceStats()
        ext.counts = dict(stats.counts)
        ext.total_cycles = stats.total_cycles
        ext.issued_commands = stats.issued_commands
        ext.port_issued = list(stats.port_issued)
        for seg, lock in zip(period.segments, outcome.locks):
            sweeps = extra // seg.columns_per_sweep
            periods = sweeps // lock.sweeps_per_period
            self.report.record_extension(
                periods * lock.sweeps_per_period
            )
            ext.total_cycles += periods * lock.delta
            ext.issued_commands += (
                periods * lock.sweeps_per_period * seg.period
            )
            for kind, c in lock.counts.items():
                ext.counts[kind] = ext.counts.get(kind, 0) + periods * c
            for p, c in enumerate(lock.port_counts):
                if c:
                    while len(ext.port_issued) <= p:
                        ext.port_issued.append(0)
                    ext.port_issued[p] += periods * c
        n_params_full = n_params * k_full // k_warm
        if config.update_uses_offchip_bus:
            offchip_full = ext.count(CommandType.RD) + ext.count(
                CommandType.WR
            )
        else:
            offchip_full = 0
        return ext, n_params_full, offchip_full

    def _finish_profile(
        self, design, optimizer, precision, stats, n_params,
        offchip_accesses,
    ) -> UpdateProfile:
        """Shared tail: device-level stats -> per-parameter rates."""
        seconds = stats.elapsed_seconds(self.timing) * self.refresh_derate
        cb = self.geometry.column_bytes
        quant_ops = stats.count(CommandType.PIM_QUANT) + stats.count(
            CommandType.PIM_DEQUANT
        )
        return UpdateProfile(
            design=design,
            optimizer_name=optimizer.name,
            precision=precision.name,
            seconds_per_param=seconds / n_params,
            commands_per_param=stats.issued_commands / n_params,
            internal_accesses_per_param=stats.internal_accesses() / n_params,
            external_accesses_per_param=stats.external_accesses() / n_params,
            reads_per_param=stats.count(CommandType.RD) / n_params,
            writes_per_param=stats.count(CommandType.WR) / n_params,
            acts_per_param=stats.count(CommandType.ACT) / n_params,
            alu_ops_per_param=(stats.alu_ops() - quant_ops) / n_params,
            quant_ops_per_param=quant_ops / n_params,
            internal_bandwidth=stats.internal_bandwidth(
                self.timing, self.geometry
            ),
            external_bandwidth=stats.external_bandwidth(
                self.timing, self.geometry
            ),
            command_bus_utilization=stats.command_bus_utilization(),
            offchip_bytes_per_param=offchip_accesses * cb / n_params,
        )

    def _one_channel(self) -> DeviceGeometry:
        """The model geometry narrowed to the one channel it schedules."""
        if self.geometry.channels == 1:
            return self.geometry
        return dataclasses.replace(self.geometry, channels=1)

    def _scheduler(
        self, config: DesignConfig, geometry, issue_model
    ) -> CommandScheduler:
        return CommandScheduler(
            self.timing,
            geometry,
            issue_model,
            per_bank_pim=config.per_bank_pim,
            window=self.window,
            data_bus_scope=config.data_bus_scope,
        )

    def profiles(
        self, optimizer, precision: PrecisionConfig = PRECISION_8_32
    ) -> dict[DesignPoint, UpdateProfile]:
        """Profiles for every design point."""
        return {
            point: self.profile(point, optimizer, precision)
            for point in DESIGNS
        }

    # ------------------------------------------------------------------
    def _build_stream(
        self,
        config: DesignConfig,
        optimizer,
        precision: PrecisionConfig,
        columns_per_stripe: Optional[int] = None,
    ):
        """Returns (params represented, off-chip accesses, stripe-period
        metadata, artifact).

        The trailing element is the generator's artifact object itself
        (:class:`~repro.kernels.artifact.CommandStreamArtifact`): it
        owns the ``columnar`` stream the scheduler runs.

        ``columns_per_stripe`` overrides the model's sample width (the
        steady-state fast path uses it to build warm samples)."""
        columns = (
            self.columns_per_stripe
            if columns_per_stripe is None
            else columns_per_stripe
        )
        hp_lanes = self.geometry.column_bytes // precision.hp_bytes
        if config.update_kind in (
            UPDATE_BASELINE_STREAM, UPDATE_NMP_STREAM
        ):
            key = (
                "stream", _optimizer_key(optimizer), precision.name,
                columns,
            )
            stream = self._streams.get(key)
            if stream is None:
                stream = BaselineStreamGenerator(self.geometry).generate(
                    optimizer,
                    precision,
                    columns_per_stripe=columns,
                    fused=self.fused_baseline,
                )
                self._cache_stream(key, stream)
            n_params = stream.n_hp_columns * hp_lanes
            # Only the direct-attached baseline's accesses cross the
            # channel; TensorDIMM's stay behind the buffer devices.
            offchip = (
                stream.reads + stream.writes
                if config.update_uses_offchip_bus
                else 0
            )
            return n_params, offchip, stream.period, stream
        if config.update_kind == UPDATE_PIM_KERNEL:
            key = (
                "pim", _optimizer_key(optimizer), precision.name, columns,
            )
            kernel = self._streams.get(key)
            if kernel is None:
                kernel = UpdateKernelCompiler(
                    self.geometry, extended_alu=self.extended_alu
                ).compile(
                    optimizer,
                    precision,
                    columns_per_stripe=columns,
                    fuse_quantize=self.fuse_quantize,
                )
                self._cache_stream(key, kernel)
            return (
                kernel.n_hp_columns * hp_lanes, 0, kernel.period, kernel,
            )
        if config.update_kind == UPDATE_AOS_KERNEL:
            key = (
                "aos", config.per_bank_pim, _optimizer_key(optimizer),
                precision.name, columns,
            )
            kernel = self._streams.get(key)
            if kernel is None:
                kernel = AoSKernelGenerator(
                    self.geometry, per_bank=config.per_bank_pim
                ).generate(
                    optimizer,
                    precision,
                    columns_per_unit=columns,
                )
                self._cache_stream(key, kernel)
            return kernel.total_params, 0, kernel.period, kernel
        raise ConfigError(f"unknown update kind {config.update_kind!r}")
