"""Declarative simulation job specifications.

A :class:`SimJobSpec` names everything a training-step simulation
depends on — network, batch, optimizer and hyperparameters, precision
mix, DRAM timing grade, geometry and NPU overrides, design set, sample
window — as plain JSON-able values. Specs round-trip losslessly through
``to_dict``/``from_dict`` and hash deterministically, which is what
makes the result cache content-addressed: two callers asking for the
same simulation get the same key no matter how they spelled the dict.

Canonicalization rules:

* dictionaries hash key-order-insensitively (the canonical JSON is
  dumped with sorted keys);
* the design set is stored deduplicated in paper bar order, so
  ``("Baseline", "AOS")`` and ``("AOS", "Baseline")`` are the same job;
* defaults are materialized at construction, so a spec that spells a
  default explicitly equals one that omitted it.

Engine spellings are the one place canonicalization stops short on
purpose. ``engine`` keeps every historical spelling
(:data:`~repro.dram.scheduler.ENGINE_SPELLINGS`) and its default
``"incremental"``, although ``"incremental"``, ``"reference"`` and
``"columnar"`` all select the same columnar loop today. Folding them
into one spelling would change :meth:`SimJobSpec.canonical_json` for
every stored spec — and with it every on-disk cache address and every
content hash recorded by the benchmarks. :meth:`SimJobSpec.resolve`
maps the spelling to the engine instead, and the service pool shares
one update model across the exact spellings.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional, Sequence

from repro.dram.geometry import DEFAULT_GEOMETRY, DeviceGeometry
from repro.dram.scheduler import ENGINE_SPELLINGS, resolve_engine
from repro.dram.timing import PRESET_CHANNELS, PRESETS, TimingParams
from repro.errors import ConfigError
from repro.models.zoo import DEFAULT_BATCH, NETWORK_BUILDERS
from repro.npu.config import DEFAULT_NPU, NPUConfig
from repro.optim.base import Optimizer
from repro.optim.precision import PrecisionConfig, PRECISIONS
from repro.optim.registry import build_optimizer
from repro.system.design import DESIGN_ORDER, DesignPoint

#: Geometry fields a spec may override.
_GEOMETRY_FIELDS = frozenset(
    f.name for f in dataclasses.fields(DeviceGeometry)
)
#: NPU fields a spec may override.
_NPU_FIELDS = frozenset(f.name for f in dataclasses.fields(NPUConfig))
#: Canonical design order (paper Fig. 9 bar order).
_DESIGN_RANK = {d.value: i for i, d in enumerate(DESIGN_ORDER)}

#: The paper's default update algorithm, as (name, hyperparameters).
DEFAULT_OPTIMIZER = "momentum_sgd"
DEFAULT_OPTIMIZER_PARAMS: dict[str, float] = {
    "eta": 0.01,
    "alpha": 0.9,
    "weight_decay": 1e-4,
}


def _canonical_designs(designs: Sequence[str]) -> tuple[str, ...]:
    """Validate, dedupe, and order a design set canonically."""
    seen = []
    for value in designs:
        if value not in _DESIGN_RANK:
            raise ConfigError(
                f"unknown design point {value!r}; choose from "
                f"{tuple(_DESIGN_RANK)}"
            )
        if value not in seen:
            seen.append(value)
    if DesignPoint.BASELINE.value not in seen:
        raise ConfigError("the design set must include the baseline")
    return tuple(sorted(seen, key=_DESIGN_RANK.__getitem__))


def _check_overrides(
    overrides: Mapping[str, Any], allowed: frozenset, what: str
) -> dict:
    unknown = sorted(set(overrides) - allowed)
    if unknown:
        raise ConfigError(
            f"unknown {what} override(s) {unknown}; choose from "
            f"{sorted(allowed)}"
        )
    return dict(overrides)


@dataclass(frozen=True)
class ResolvedJob:
    """A spec's concrete simulation inputs (constructed objects)."""

    network: str
    batch: int
    optimizer: Optimizer
    precision: PrecisionConfig
    timing: TimingParams
    geometry: DeviceGeometry
    npu: NPUConfig
    designs: tuple[DesignPoint, ...]
    columns_per_stripe: int
    validate: bool
    engine: str


@dataclass(frozen=True, eq=False)
class SimJobSpec:
    """One fully parameterized training-step simulation request.

    ``eq``/``hash`` are defined over the canonical dict form (the
    generated ones would choke on the mapping-typed fields).
    """

    network: str
    batch: Optional[int] = None
    optimizer: str = DEFAULT_OPTIMIZER
    optimizer_params: Mapping[str, float] = field(
        default_factory=lambda: dict(DEFAULT_OPTIMIZER_PARAMS)
    )
    precision: str = "8/32"
    timing: str = "DDR4-2133"
    geometry: Mapping[str, int] = field(default_factory=dict)
    npu: Mapping[str, float] = field(default_factory=dict)
    designs: tuple[str, ...] = tuple(d.value for d in DESIGN_ORDER)
    columns_per_stripe: int = 32
    #: Independent memory channels. ``None`` materializes to the timing
    #: preset's physical channel count (8 for the HBM2 stack, 1 for the
    #: DDR4 grades), so an HBM2 job models the real multi-channel
    #: device unless the caller pins a count explicitly. Channels live
    #: here — not in the ``geometry`` override map — so every spelling
    #: hashes to one content address.
    channels: Optional[int] = None
    #: Run the independent trace validator on every profiled schedule.
    #: Validation roughly re-checks what the property-tested scheduler
    #: already guarantees; production sweeps may turn it off for speed
    #: (the ``--no-validate`` CLI flag), at the cost of losing the
    #: redundant cross-check on that run's traces. The flag is part of
    #: the job's content hash, so validated and unvalidated runs cache
    #: separately.
    validate: bool = True
    #: Scheduler engine spelling for update-phase profiling:
    #: ``"periodic"`` (steady-state extrapolation — profiles a warm
    #: sample and closes the form for the full window) or any spelling
    #: of the exact columnar loop (``"incremental"``, the default,
    #: ``"reference"`` or ``"columnar"``; see the module docstring for
    #: why all three stay). All engines are byte-identical, enforced by
    #: tests. Part of the content hash: engines are exact-equivalent,
    #: but a cache entry must record how it was produced.
    engine: str = "incremental"
    #: Optional wall-clock budget (milliseconds) for producing this
    #: result, propagated through the server dispatcher to the pool. A
    #: job still unfinished when its deadline expires terminates with a
    #: classified ``timeout`` failure instead of running (or hanging)
    #: forever. Deadlines are *delivery* policy, not simulation input:
    #: the field is excluded from :meth:`canonical_json`, so the same
    #: simulation requested with different budgets shares one cache
    #: entry.
    deadline_ms: Optional[int] = None

    def __post_init__(self) -> None:
        if self.network not in NETWORK_BUILDERS:
            raise ConfigError(
                f"unknown network {self.network!r}; choose from "
                f"{tuple(NETWORK_BUILDERS)}"
            )
        if self.batch is None:
            # Materialize the zoo default so an explicit batch=32 and an
            # omitted batch hash to the same content address.
            object.__setattr__(
                self, "batch", DEFAULT_BATCH[self.network]
            )
        if self.batch <= 0:
            raise ConfigError(f"batch must be positive, got {self.batch}")
        if self.precision not in PRECISIONS:
            raise ConfigError(
                f"unknown precision {self.precision!r}; choose from "
                f"{tuple(PRECISIONS)}"
            )
        if self.timing not in PRESETS:
            raise ConfigError(
                f"unknown timing preset {self.timing!r}; choose from "
                f"{tuple(PRESETS)}"
            )
        if self.columns_per_stripe <= 0:
            raise ConfigError(
                "columns_per_stripe must be positive, got "
                f"{self.columns_per_stripe}"
            )
        if not isinstance(self.validate, bool):
            raise ConfigError(
                f"validate must be a boolean, got {self.validate!r}"
            )
        if self.engine not in ENGINE_SPELLINGS:
            raise ConfigError(
                f"unknown engine {self.engine!r}; choose from "
                f"{tuple(ENGINE_SPELLINGS)}"
            )
        if self.deadline_ms is not None:
            if (
                isinstance(self.deadline_ms, bool)
                or not isinstance(self.deadline_ms, int)
                or self.deadline_ms <= 0
            ):
                raise ConfigError(
                    "deadline_ms must be a positive integer, got "
                    f"{self.deadline_ms!r}"
                )
        object.__setattr__(
            self,
            "optimizer_params",
            dict(self.optimizer_params),
        )
        object.__setattr__(
            self,
            "geometry",
            _check_overrides(self.geometry, _GEOMETRY_FIELDS, "geometry"),
        )
        # Canonicalize the channel count: an explicit field wins, a
        # ``geometry`` override folds into the field, and omission
        # materializes the timing preset's physical channel count.
        geometry_channels = self.geometry.pop("channels", None)
        if self.channels is None:
            channels = (
                geometry_channels
                if geometry_channels is not None
                else PRESET_CHANNELS.get(self.timing, 1)
            )
            object.__setattr__(self, "channels", channels)
        elif (
            geometry_channels is not None
            and geometry_channels != self.channels
        ):
            raise ConfigError(
                f"channels given twice and disagreeing: field says "
                f"{self.channels}, geometry override says "
                f"{geometry_channels}"
            )
        if not isinstance(self.channels, int) or self.channels < 1:
            raise ConfigError(
                f"channels must be a positive integer, got "
                f"{self.channels!r}"
            )
        object.__setattr__(
            self,
            "npu",
            _check_overrides(self.npu, _NPU_FIELDS, "npu"),
        )
        object.__setattr__(
            self, "designs", _canonical_designs(self.designs)
        )
        # Surface bad optimizer names/hyperparameters at spec time, not
        # deep inside a worker process.
        build_optimizer(self.optimizer, self.optimizer_params)
        # Same for geometry/NPU override values (pow-of-two channel
        # counts are enforced by the geometry's own validation).
        dataclasses.replace(
            DEFAULT_GEOMETRY, channels=self.channels, **self.geometry
        )
        dataclasses.replace(DEFAULT_NPU, **self.npu)

    # ------------------------------------------------------------------
    # Equality / serialization
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimJobSpec):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __hash__(self) -> int:
        return hash(self.canonical_json())

    def to_dict(self) -> dict:
        """Plain JSON-able dict; the exact inverse of :meth:`from_dict`."""
        out = {
            "network": self.network,
            "batch": self.batch,
            "optimizer": self.optimizer,
            "optimizer_params": dict(self.optimizer_params),
            "precision": self.precision,
            "timing": self.timing,
            "geometry": dict(self.geometry),
            "npu": dict(self.npu),
            "designs": list(self.designs),
            "columns_per_stripe": self.columns_per_stripe,
            "channels": self.channels,
            "validate": self.validate,
            "engine": self.engine,
        }
        if self.deadline_ms is not None:
            out["deadline_ms"] = self.deadline_ms
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SimJobSpec":
        """Build a spec from a dict, rejecting unknown keys."""
        fields = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - fields)
        if unknown:
            raise ConfigError(
                f"unknown spec field(s) {unknown}; choose from "
                f"{sorted(fields)}"
            )
        if "network" not in data:
            raise ConfigError("a job spec must name a network")
        kwargs = dict(data)
        if "designs" in kwargs:
            kwargs["designs"] = tuple(kwargs["designs"])
        return cls(**kwargs)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SimJobSpec":
        return cls.from_dict(json.loads(text))

    # ------------------------------------------------------------------
    # Content addressing
    # ------------------------------------------------------------------
    def canonical_json(self) -> str:
        """Deterministic minimal JSON: sorted keys, no whitespace.

        Delivery-policy fields (``deadline_ms``) are excluded — they
        change how a result is delivered, not what is simulated, so
        they must not fracture the content address.
        """
        data = self.to_dict()
        data.pop("deadline_ms", None)
        return json.dumps(data, sort_keys=True, separators=(",", ":"))

    def content_hash(self) -> str:
        """Stable hex digest identifying this job's inputs."""
        return hashlib.sha256(
            self.canonical_json().encode("utf-8")
        ).hexdigest()

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def resolve(self) -> ResolvedJob:
        """Construct the concrete simulation inputs this spec names."""
        return ResolvedJob(
            network=self.network,
            batch=self.batch,
            optimizer=build_optimizer(
                self.optimizer, self.optimizer_params
            ),
            precision=PRECISIONS[self.precision],
            timing=PRESETS[self.timing],
            geometry=dataclasses.replace(
                DEFAULT_GEOMETRY, channels=self.channels, **self.geometry
            ),
            npu=dataclasses.replace(DEFAULT_NPU, **self.npu),
            designs=tuple(DesignPoint(v) for v in self.designs),
            columns_per_stripe=self.columns_per_stripe,
            validate=self.validate,
            engine=resolve_engine(self.engine),
        )
