"""Shared experiment configuration and caching.

Experiments route their training-step simulations through the
:mod:`repro.service` layer: each request becomes a declarative
:class:`~repro.service.spec.SimJobSpec`, is checked against the
context's content-addressed result cache, and cache misses fan out
across ``jobs`` worker processes. Configurations the spec language
cannot name (a hand-built timing object, say) fall back to direct
simulation, so the old object-level API keeps working unchanged.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from repro.dram.geometry import DeviceGeometry, DEFAULT_GEOMETRY
from repro.dram.timing import PRESETS, TimingParams, DDR4_2133
from repro.errors import ConfigError
from repro.models.zoo import PAPER_NETWORKS, build_network
from repro.npu.config import NPUConfig, DEFAULT_NPU
from repro.optim.precision import PrecisionConfig, PRECISION_8_32, PRECISIONS
from repro.optim.registry import build_optimizer
from repro.service.api import submit_many
from repro.service.cache import ResultCache
from repro.service.pool import shared_update_model
from repro.service.spec import (
    DEFAULT_OPTIMIZER,
    DEFAULT_OPTIMIZER_PARAMS,
    SimJobSpec,
)
from repro.system.design import DesignPoint
from repro.system.training import NetworkResult, TrainingSimulator
from repro.system.update_model import UpdatePhaseModel

#: Default paper configuration: momentum SGD with weight decay, 8/32.
DEFAULT_OPTIMIZER_FACTORY = lambda: build_optimizer(  # noqa: E731
    DEFAULT_OPTIMIZER, DEFAULT_OPTIMIZER_PARAMS
)


def _overrides(value, default) -> dict:
    """The fields on which ``value`` differs from ``default``."""
    return {
        name: getattr(value, name)
        for name in vars(default)
        if getattr(value, name) != getattr(default, name)
    }


@dataclass
class ExperimentContext:
    """Shared substrate handles so experiments reuse cycle-sim caches."""

    timing: TimingParams = DDR4_2133
    geometry: DeviceGeometry = DEFAULT_GEOMETRY
    npu: NPUConfig = DEFAULT_NPU
    precision: PrecisionConfig = PRECISION_8_32
    columns_per_stripe: int = 32
    networks: tuple[str, ...] = PAPER_NETWORKS
    optimizer_name: str = DEFAULT_OPTIMIZER
    optimizer_params: Mapping[str, float] = field(
        default_factory=lambda: dict(DEFAULT_OPTIMIZER_PARAMS)
    )
    jobs: int = 1  # worker processes for service-routed simulations
    #: Run the independent trace validator on every profiled schedule
    #: (``--no-validate`` on the runner CLI turns it off for faster
    #: sweeps; the scheduler stays property-tested either way).
    validate: bool = True
    #: Scheduler engine spelling for update-phase profiling (see
    #: :data:`repro.dram.scheduler.ENGINE_SPELLINGS`): "periodic" is the
    #: steady-state extrapolation fast path, every other spelling the
    #: columnar loop; all produce byte-identical profiles. The default
    #: keeps its historical spelling because job specs — and so cache
    #: keys — carry it.
    engine: str = "incremental"
    cache: ResultCache = field(default_factory=ResultCache)

    def optimizer(self):
        """A fresh optimizer instance for this context's algorithm."""
        return build_optimizer(self.optimizer_name, self.optimizer_params)

    def _resolved_geometry(
        self, channels: Optional[int] = None
    ) -> DeviceGeometry:
        """The context geometry, optionally re-pinned to a channel
        count (the same override the spec path's ``channels`` field
        applies, so service-routed and direct simulations agree)."""
        if channels is None or channels == self.geometry.channels:
            return self.geometry
        return dataclasses.replace(self.geometry, channels=channels)

    def update_model(
        self,
        timing: Optional[TimingParams] = None,
        channels: Optional[int] = None,
    ) -> UpdatePhaseModel:
        """The process-wide update model for a timing grade — the one
        service-routed jobs on the same substrate use
        (:func:`repro.service.pool.shared_update_model`), so a profile
        is computed once per process however a figure asks for it."""
        return shared_update_model(
            timing if timing is not None else self.timing,
            self._resolved_geometry(channels),
            self.columns_per_stripe,
            self.validate,
            self.engine,
        )

    def simulator(
        self,
        precision: Optional[PrecisionConfig] = None,
        npu: Optional[NPUConfig] = None,
        timing: Optional[TimingParams] = None,
        designs=None,
        channels: Optional[int] = None,
    ) -> TrainingSimulator:
        """A training simulator wired to the shared update model."""
        timing = timing if timing is not None else self.timing
        kwargs = {}
        if designs is not None:
            kwargs["designs"] = designs
        return TrainingSimulator(
            optimizer=self.optimizer(),
            precision=precision if precision is not None else self.precision,
            timing=timing,
            geometry=self._resolved_geometry(channels),
            npu=npu if npu is not None else self.npu,
            update_model=self.update_model(timing, channels=channels),
            **kwargs,
        )

    # ------------------------------------------------------------------
    # Service routing
    # ------------------------------------------------------------------
    def job_spec(
        self,
        network: str,
        *,
        precision: Optional[PrecisionConfig] = None,
        timing: Optional[TimingParams] = None,
        npu: Optional[NPUConfig] = None,
        designs: Optional[Sequence[DesignPoint]] = None,
        batch: Optional[int] = None,
        channels: Optional[int] = None,
    ) -> SimJobSpec:
        """This context's configuration as a declarative job spec.

        ``channels`` defaults to the context geometry's count (always
        passed explicitly, so the spec's timing-preset materialization
        never silently diverges from the direct :meth:`simulator`
        fallback — an HBM sweep opts into the 8-channel stack via
        ``channels=PRESET_CHANNELS[...]``, as Fig. 12a does).

        Raises :class:`ConfigError` when the configuration cannot be
        named declaratively (e.g. a hand-built timing object) — callers
        then fall back to :meth:`simulator`.
        """
        timing = timing if timing is not None else self.timing
        if PRESETS.get(timing.name) != timing:
            raise ConfigError(
                f"timing {timing.name!r} is not a registered preset"
            )
        precision = precision if precision is not None else self.precision
        if PRECISIONS.get(precision.name) != precision:
            raise ConfigError(
                f"precision {precision.name!r} is not a registered mix"
            )
        npu = npu if npu is not None else self.npu
        kwargs = {}
        if designs is not None:
            kwargs["designs"] = tuple(d.value for d in designs)
        geometry = _overrides(self.geometry, DEFAULT_GEOMETRY)
        geometry.pop("channels", None)  # spelled via the channels field
        return SimJobSpec(
            network=network,
            batch=batch,
            optimizer=self.optimizer_name,
            optimizer_params=dict(self.optimizer_params),
            precision=precision.name,
            timing=timing.name,
            geometry=geometry,
            npu=_overrides(npu, DEFAULT_NPU),
            columns_per_stripe=self.columns_per_stripe,
            validate=self.validate,
            engine=self.engine,
            channels=(
                channels
                if channels is not None
                else self.geometry.channels
            ),
            **kwargs,
        )

    def network_result(
        self,
        network: str,
        *,
        precision: Optional[PrecisionConfig] = None,
        timing: Optional[TimingParams] = None,
        npu: Optional[NPUConfig] = None,
        designs: Optional[Sequence[DesignPoint]] = None,
        batch: Optional[int] = None,
        channels: Optional[int] = None,
    ) -> NetworkResult:
        """One network's training-step result, via the service."""
        return self.network_results(
            (network,),
            precision=precision,
            timing=timing,
            npu=npu,
            designs=designs,
            batch=batch,
            channels=channels,
        )[network]

    def network_results(
        self,
        networks: Optional[Sequence[str]] = None,
        *,
        precision: Optional[PrecisionConfig] = None,
        timing: Optional[TimingParams] = None,
        npu: Optional[NPUConfig] = None,
        designs: Optional[Sequence[DesignPoint]] = None,
        batch: Optional[int] = None,
        channels: Optional[int] = None,
    ) -> dict[str, NetworkResult]:
        """Per-network training-step results, cached and fanned out.

        Every request goes through :func:`repro.service.api.submit_many`
        with this context's cache and worker count; unspeccable
        configurations run directly through :meth:`simulator` with the
        same effective geometry (including ``channels``).
        """
        names = tuple(networks) if networks is not None else self.networks
        try:
            specs = [
                self.job_spec(
                    name,
                    precision=precision,
                    timing=timing,
                    npu=npu,
                    designs=designs,
                    batch=batch,
                    channels=channels,
                )
                for name in names
            ]
        except ConfigError:
            sim = self.simulator(
                precision=precision,
                npu=npu,
                timing=timing,
                designs=designs,
                channels=channels,
            )
            return {
                name: sim.simulate(build_network(name, batch=batch))
                for name in names
            }
        results = submit_many(specs, jobs=self.jobs, cache=self.cache)
        out = {}
        for name, job in zip(names, results):
            if not job.ok:
                detail = f"\n{job.traceback}" if job.traceback else ""
                raise RuntimeError(
                    f"simulation of {name!r} failed: {job.error}{detail}"
                )
            out[name] = job.result
        return out


#: Module-level default context shared by runs invoked without one.
DEFAULT_CONTEXT = ExperimentContext()


def fused_update_bytes(optimizer, precision: PrecisionConfig) -> float:
    """Per-parameter off-chip bytes of the *fundamental* update traffic.

    This is the Fig. 2 accounting: read the quantized gradient and each
    high-precision master copy, write the master copies and the
    re-quantized weights (18 B/param for 8/32 momentum SGD, 20 B/param
    at full precision).
    """
    n_hp = 1 + len(optimizer.state_arrays())  # theta + state
    if precision.is_full:
        # read grad + masters, write masters
        return precision.hp_bytes * (1 + 2 * n_hp)
    return (
        2 * precision.lp_bytes  # read q_grad, write q_theta
        + 2 * n_hp * precision.hp_bytes  # read + write masters
    )
