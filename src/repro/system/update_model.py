"""Update-phase profiling: cycle-level sampling, analytical scaling.

For each (design, optimizer, precision) the model compiles the matching
command stream for a steady-state sample window, schedules it against
the DDR4 state machines, validates the trace, and converts the result
into per-parameter rates (time, command counts, energy-event counts).
The training simulator then scales those rates by each layer's
parameter count. This hybrid of cycle-level sampling and analytical
scaling is sound because the update stream is stripe-periodic (paper
§IV): a steady-state window's per-parameter rates hold for the whole
array.

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
vectorized columnar checker, whose sorting rule families run over the
simulated spans and the seams of each replay rather than the whole
stream (``validate=False`` skips checking entirely); and memoizes
finished profiles by (design, full optimizer identity, precision) so
one model instance serves arbitrarily many jobs. ``engine`` accepts every spelling of
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
  golden and Hypothesis tests — and is validated by the columnar
  checker, which is given the run's replays: it proves each replayed
  image a shifted copy on the trace and runs the rule families on the
  trace with most images cut out (:mod:`repro.dram.validator`);

* ``engine="periodic"`` additionally profiles a small *warm sample*
  first (a few sweeps per phase, enough for the lock to confirm plus
  the lookahead-contaminated tail), scheduled and validated by the
  same code path as a full stream, and closes the form for the
  requested ``columns_per_stripe``: per-segment cycle deltas and
  command counts scale arithmetically, so the profiling cost is
  O(period) — flat in the sample width — instead of O(window x
  commands). Each profile spends one warm run, plus one retry at a
  realigned width when a lock's machine cycle does not divide the
  extension.

**Exactness is the contract**: the extrapolated ``UpdateProfile`` is
byte-identical to what the columnar engine produces on the full stream
(every count is extended by exact integers, and every derived float is
computed from the same integers by the same expressions). Whenever the
warm sample does not lock — irregular streams, machine cycles longer
than the sample — the model transparently falls back to scheduling the
full stream as the other spellings do, and the trace validator runs on
whatever was actually simulated. The model's
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


def _realign(period, outcome, extra: int) -> Optional[int]:
    """Columns per stripe a locked warm sample must widen by before it
    extends by ``extra``, or ``None`` when a segment did not lock.

    The extension inserts whole machine cycles into every segment, so
    ``extra`` must divide by each segment's cycle span (columns per
    sweep x sweeps per cycle): 0 when it does.
    """
    if not outcome.all_locked:
        return None
    return extra % math.lcm(*(
        seg.columns_per_sweep * lock.sweeps_per_period
        for seg, lock in zip(period.segments, outcome.locks)
    ))


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
        no steady cycle locks. The warm sample width (columns per
        stripe) is sized from the precision's packing ratio; a sample
        too short to lock falls back rather than growing."""
        self.timing = timing
        self.geometry = geometry
        self.columns_per_stripe = columns_per_stripe
        self.window = window
        self.extended_alu = extended_alu
        self.validate = validate
        self.fuse_quantize = fuse_quantize
        self.fused_baseline = fused_baseline
        self.engine = resolve_engine(engine)
        #: Engine flight recorder: how profiles were produced (fast
        #: path vs fallback, with reasons), warm samples, lock
        #: outcomes, replayed-vs-simulated sweeps, and scheduling
        #: paths. See :class:`repro.obs.report.EngineReport`.
        self.report = EngineReport(engine=self.engine)
        self._cache: dict[tuple, UpdateProfile] = {}
        # Generated streams, shared across design points that compile
        # the same kernel (GradPIM-DR / GradPIM-BD differ only in how
        # commands are issued; Baseline / TensorDIMM likewise).
        # Bounded FIFO: reuse happens within one profiling burst (the
        # sibling design), while finished profiles are memoized
        # separately — unbounded retention of command lists would leak
        # in long-lived service workers.
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
        stats, n_params, offchip_accesses, _, _, _ = self._schedule(
            design, config, optimizer, precision
        )
        return self._finish_profile(
            design, optimizer, precision, stats, n_params,
            offchip_accesses, config.effective_channels(self.geometry),
        )

    def _schedule(
        self, design, config, optimizer, precision, warm=None, extra=0
    ):
        """Build one sample stream, schedule it with steady-state
        replay, record the work and validate the trace.

        The sample is the model's width, or a ``warm`` sample that many
        columns per stripe wide, which the caller extends by ``extra``
        columns. Returns one channel's ``(stats, n_params, offchip,
        outcome, period, shift)``, where ``shift`` is a warm sample's
        :func:`_realign` (``None`` for the model's width). A warm sample
        returns ``None`` when its stream has no periodic segment to
        lock onto, and is validated only when its locks extend it
        (``shift`` is 0): the caller falls back or realigns otherwise.
        """
        with span("model.build_stream", design=design.value, warm=warm):
            built = self._build_stream(
                config, optimizer, precision, columns_per_stripe=warm
            )
        n_params, offchip_accesses, period, artifact = built
        if warm is not None:
            if period is None or not period.segments:
                return None
            self.report.record_warm_run(warm)
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
        expanded = artifact.columnar.materialized
        with span(
            "engine.schedule",
            engine=self.engine,
            commands=artifact.columnar.n,
            channels=channels,
            warm=warm,
        ):
            result = scheduler.run(artifact.columnar, period=period)
        outcome = result.periodic
        self.report.record_outcome(outcome)
        self.report.record_work(prepared=result.commands_prepared)
        self.report.record_scheduling_path(
            "steady-warm" if warm is not None
            else "serial-replicated" if channels > 1
            else "single-channel"
        )
        shift = None if warm is None else _realign(period, outcome, extra)
        if self.validate and (warm is None or shift == 0):
            with span(
                "engine.validate", commands=result.columnar.stream.n
            ):
                validated = validate_trace_columnar(
                    result.columnar,
                    self.timing,
                    geometry,
                    issue_model.port_of_rank,
                    per_bank_pim=config.per_bank_pim,
                    data_bus_scope=config.data_bus_scope,
                    periodic=outcome,
                )
            self.report.record_work(validated=validated)
        self.report.record_work(
            materialized=artifact.columnar.materialized - expanded
        )
        return result.stats, n_params, offchip_accesses, outcome, period, shift

    #: Generated streams kept for reuse (see ``_streams``).
    STREAM_CACHE_MAX = 8

    # ------------------------------------------------------------------
    #: Warm-sample width in sweeps per packed (ratio-grouped) phase: a
    #: warm stream of ``sweeps * ratio`` columns per stripe, enough for
    #: most locks to confirm (around sweep 3-6) plus the ~2-sweep
    #: contamination tail. Buffered command generation settles a sweep
    #: later than a single direct port (four interleaved issue
    #: streams).
    WARM_SWEEPS = 6
    WARM_SWEEPS_BUFFERED = 7
    #: AoS kernels sweep one column per stripe whatever the precision:
    #: an absolute column count.
    WARM_COLUMNS_AOS = 12

    def _profile_steady(
        self, design, config, optimizer, precision
    ) -> tuple[Optional[UpdateProfile], Optional[str]]:
        """Extrapolate the profile from a warm sample (module docstring).

        Returns ``(profile, None)`` on success, or ``(None, reason)``
        when extrapolation does not apply — the warm sample is not
        narrow enough to pay, or no steady cycle locks in it — letting
        the caller fall back to full simulation with the reason
        recorded on the flight recorder. A sample whose locks demand
        another width is retried once at that width.
        """
        if config.update_kind == UPDATE_AOS_KERNEL:
            # AoS kernels build exactly the requested width (structure
            # columns are precision-agnostic) — extrapolating to a
            # packing-rounded width would silently profile a wider
            # kernel than full simulation runs.
            k_full = self.columns_per_stripe
            k_warm = self.WARM_COLUMNS_AOS
        else:
            ratio = 1 if precision.is_full else precision.ratio
            k_full = ceil_div(self.columns_per_stripe, ratio) * ratio
            sweeps = ratio * (
                self.WARM_SWEEPS_BUFFERED
                if config.buffered_commands
                and config.update_kind == UPDATE_PIM_KERNEL
                or config.update_kind == UPDATE_NMP_STREAM
                else self.WARM_SWEEPS
            )
            # Pre-align to the common machine cycles (q <= 3, and the
            # packed phases' ratio-column sweeps), so a momentum/RMSProp
            # kernel extrapolates from the first warm run instead of
            # paying a realigned retry.
            k_warm = sweeps + (k_full - sweeps) % (3 * ratio)
        # Economics: the warm run costs O(k_warm) — extrapolation only
        # pays when the sample is meaningfully narrower than the
        # request.
        ceiling = k_full * 2 // 3
        for _ in range(2):
            if k_warm > ceiling:
                return None, FALLBACK_ECONOMICS
            extra = k_full - k_warm
            try:
                sample = self._schedule(
                    design, config, optimizer, precision, k_warm, extra
                )
            except SimulationError:
                # The warm sample deadlocked; let the fallback simulate
                # the full stream (and surface the real error if it
                # deadlocks too) rather than dying on the sample.
                return None, FALLBACK_DEADLOCK
            if sample is None:
                return None, FALLBACK_NO_METADATA
            stats, n_params, _, outcome, period, shift = sample
            if shift is None:
                return None, FALLBACK_NO_LOCK
            if not shift:
                break
            # A super-period misaligns the extension: retry once at
            # the width the locks demand.
            k_warm += shift
        else:
            # The retry's own locks misalign it too: no usable lock.
            return None, FALLBACK_NO_LOCK
        # The closed form: insert ``extra`` columns per stripe of
        # locked machine cycles into every segment (exact integers).
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
        offchip = (
            ext.count(CommandType.RD) + ext.count(CommandType.WR)
            if config.update_uses_offchip_bus
            else 0
        )
        return self._finish_profile(
            design, optimizer, precision, ext,
            n_params * k_full // k_warm, offchip,
            config.effective_channels(self.geometry),
        ), None

    def _finish_profile(
        self, design, optimizer, precision, stats, n_params,
        offchip_accesses, channels=1,
    ) -> UpdateProfile:
        """Shared tail: device-level stats -> per-parameter rates.

        ``channels`` > 1 aggregates one channel's sample over the
        design's identical channel replicas."""
        if channels > 1:
            stats = TraceStats.merge_channels([stats] * channels)
            n_params *= channels
            offchip_accesses *= channels
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
        kind = config.update_kind
        streamed = kind in (UPDATE_BASELINE_STREAM, UPDATE_NMP_STREAM)
        aos = kind == UPDATE_AOS_KERNEL
        if not (streamed or aos or kind == UPDATE_PIM_KERNEL):
            raise ConfigError(f"unknown update kind {kind!r}")
        key = (
            "stream" if streamed else kind, aos and config.per_bank_pim,
            _optimizer_key(optimizer), precision.name, columns,
        )
        artifact = self._streams.get(key)
        if artifact is None:
            if streamed:
                artifact = BaselineStreamGenerator(self.geometry).generate(
                    optimizer,
                    precision,
                    columns_per_stripe=columns,
                    fused=self.fused_baseline,
                )
            elif aos:
                artifact = AoSKernelGenerator(
                    self.geometry, per_bank=config.per_bank_pim
                ).generate(optimizer, precision, columns_per_unit=columns)
            else:
                artifact = UpdateKernelCompiler(
                    self.geometry, extended_alu=self.extended_alu
                ).compile(
                    optimizer,
                    precision,
                    columns_per_stripe=columns,
                    fuse_quantize=self.fuse_quantize,
                )
            self._streams[key] = artifact
            while len(self._streams) > self.STREAM_CACHE_MAX:
                self._streams.pop(next(iter(self._streams)))
        if aos:
            return artifact.total_params, 0, artifact.period, artifact
        hp_lanes = self.geometry.column_bytes // precision.hp_bytes
        # Only the direct-attached baseline's accesses cross the
        # channel; TensorDIMM's stay behind the buffer devices.
        offchip = (
            artifact.reads + artifact.writes
            if config.update_uses_offchip_bus
            else 0
        )
        return (
            artifact.n_hp_columns * hp_lanes, offchip, artifact.period,
            artifact,
        )
