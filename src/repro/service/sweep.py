"""Grid/campaign expansion over job specs and structured sweep results.

A sweep is a base spec dict plus axes: ``{"timing": [...], "precision":
[...]}`` expands to the cartesian product of the axis values (axis
order given, values in given order — fully deterministic), each merged
into the base. :class:`SweepResult` keeps the per-job envelopes and
offers flat tables plus geomean speedup aggregations, the shape the
paper's cross-network summaries use.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional, Sequence

from repro.errors import ConfigError
from repro.service.api import DEFAULT_CACHE, SimJobResult, submit_many
from repro.service.cache import ResultCache
from repro.service.config import ServiceConfig
from repro.service.spec import SimJobSpec
from repro.system.design import DesignPoint
from repro.units import geomean

_SPEC_FIELDS = frozenset(f.name for f in dataclasses.fields(SimJobSpec))


def expand_grid(
    base: Mapping[str, Any], axes: Mapping[str, Sequence[Any]]
) -> list[SimJobSpec]:
    """Expand ``base`` × the cartesian product of ``axes`` into specs.

    Axis keys are spec fields; an axis overrides any value the base
    carries for the same field. Axis values may also be dicts for the
    mapping-typed fields (``geometry``, ``npu``, ``optimizer_params``).
    """
    unknown = sorted(set(axes) - _SPEC_FIELDS)
    if unknown:
        raise ConfigError(
            f"unknown sweep axis field(s) {unknown}; choose from "
            f"{sorted(_SPEC_FIELDS)}"
        )
    for name, values in axes.items():
        if not values:
            raise ConfigError(f"sweep axis {name!r} has no values")
    names = list(axes)
    specs = []
    for combo in itertools.product(*(axes[n] for n in names)):
        merged = dict(base)
        merged.update(zip(names, combo))
        specs.append(SimJobSpec.from_dict(merged))
    return specs


@dataclass
class SweepResult:
    """Every job envelope of one campaign plus its axis structure."""

    axes: dict[str, list]
    jobs: list[SimJobResult] = field(default_factory=list)

    # ------------------------------------------------------------------
    @property
    def ok(self) -> list[SimJobResult]:
        return [j for j in self.jobs if j.ok]

    @property
    def failures(self) -> list[SimJobResult]:
        return [j for j in self.jobs if not j.ok]

    @property
    def cache_hit_fraction(self) -> float:
        if not self.jobs:
            return 0.0
        return sum(j.from_cache for j in self.jobs) / len(self.jobs)

    # ------------------------------------------------------------------
    def _axis_values(self, job: SimJobResult) -> dict:
        spec_dict = job.spec.to_dict()
        return {name: spec_dict[name] for name in self.axes}

    def table(self) -> list[dict]:
        """One flat row per job: axis values + per-design speedups."""
        rows = []
        for job in self.jobs:
            row = dict(self._axis_values(job))
            row["network"] = job.spec.network
            row["status"] = job.status
            row["from_cache"] = job.from_cache
            if job.degraded:
                row["degraded"] = True
            if job.retried:
                row["retried"] = True
            if job.ok:
                result = job.result
                for design in result.totals:
                    if design is DesignPoint.BASELINE:
                        continue
                    row[f"overall:{design.value}"] = (
                        result.overall_speedup(design)
                    )
                    row[f"update:{design.value}"] = (
                        result.update_speedup(design)
                    )
            else:
                row["error"] = job.error
                if job.failure_reason is not None:
                    row["failure_reason"] = job.failure_reason
            rows.append(row)
        return rows

    def speedups(self, design: DesignPoint) -> list[float]:
        """Overall speedup of ``design`` for every successful job."""
        return [
            j.result.overall_speedup(design)
            for j in self.ok
            if design in j.result.totals
        ]

    def geomean_overall(self, design: DesignPoint) -> float:
        """Geometric-mean overall speedup of ``design`` over the sweep."""
        values = self.speedups(design)
        if not values:
            raise ConfigError(
                f"no successful job evaluated design {design.value!r}"
            )
        return geomean(values)

    def to_dict(self, include_results: bool = False) -> dict:
        """JSON-able campaign summary (the CLI's sweep output)."""
        return {
            "axes": {k: list(v) for k, v in self.axes.items()},
            "n_jobs": len(self.jobs),
            "n_failures": len(self.failures),
            "cache_hit_fraction": self.cache_hit_fraction,
            "table": self.table(),
            "jobs": [
                j.to_dict(include_result=include_results)
                for j in self.jobs
            ],
        }


def run_sweep(
    base: Mapping[str, Any],
    axes: Mapping[str, Sequence[Any]],
    jobs: int = 1,
    cache: Optional[ResultCache] = DEFAULT_CACHE,
    config: Optional[ServiceConfig] = None,
) -> SweepResult:
    """Expand and execute a campaign; see :func:`expand_grid`.

    ``cache`` follows the :func:`~repro.service.api.submit_many`
    contract: the process-wide default cache unless one is passed,
    ``None`` to disable caching. ``config`` is the execution policy
    (timeouts, retries, quarantine, deadline) for the whole campaign.
    """
    specs = expand_grid(base, axes)
    results = submit_many(specs, jobs=jobs, cache=cache, config=config)
    return SweepResult(
        axes={k: list(v) for k, v in axes.items()}, jobs=results
    )
