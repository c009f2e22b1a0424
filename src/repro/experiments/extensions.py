"""Extension experiments beyond the paper's figures.

Three claims the paper makes in prose get quantified here:

* **Bank-group scaling** (§IX): "It is expected to show similar
  speedups or improvement if we exploit more bank group numbers in
  advanced memory technologies" — :func:`run_bankgroup_sweep` sweeps
  2/4/8 bank groups per rank (8 is the DDR5 organization).
* **Richer optimizers** (§VIII): NAG maps "naturally in the same way";
  Adam-class algorithms need multi-pass with an intermediate array,
  "causing only a small overhead on the overall performance" —
  :func:`run_optimizer_sweep` measures every optimizer's update cost
  and speedup under the extended ALU.
* **Learning-rate scheduling** (§VIII): approximated decay curves cost
  one MRW per change — :func:`run_schedule_overhead` counts them for a
  realistic training run.
* **Channel scaling**: the PIM benchmarking literature identifies
  channel-level parallelism as the first-order scaling knob of real
  PIM systems — :func:`run_channel_sweep` sweeps 1/2/4/8 independent
  channels (8 is the HBM2 stack) with real per-channel buses.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dram.geometry import DeviceGeometry
from repro.dram.timing import DDR4_2133, HBM_LIKE, TimingParams
from repro.optim import Adam, AdaGrad, MomentumSGD, NAG, RMSprop, SGD
from repro.optim.precision import PRECISION_8_32
from repro.optim.schedule import (
    CosineSchedule,
    PolynomialSchedule,
    StepSchedule,
    schedule_error,
)
from repro.system.design import DesignPoint
from repro.system.update_model import UpdatePhaseModel


@dataclass(frozen=True)
class BankGroupPoint:
    """One geometry of the bank-group sweep."""

    bankgroups: int
    peak_internal_gbps: float
    achieved_internal_gbps: float
    update_speedup: float  # GradPIM-Buffered over baseline


def run_bankgroup_sweep(
    bankgroup_counts: tuple[int, ...] = (2, 4, 8),
    columns_per_stripe: int = 16,
) -> list[BankGroupPoint]:
    """Update-phase gains as bank groups scale toward DDR5."""
    optimizer = MomentumSGD(eta=0.01, alpha=0.9, weight_decay=1e-4)
    out = []
    for n_groups in bankgroup_counts:
        geometry = DeviceGeometry(bankgroups=n_groups)
        model = UpdatePhaseModel(
            timing=DDR4_2133,
            geometry=geometry,
            columns_per_stripe=columns_per_stripe,
        )
        base = model.profile(
            DesignPoint.BASELINE, optimizer, PRECISION_8_32
        )
        pim = model.profile(
            DesignPoint.GRADPIM_BUFFERED, optimizer, PRECISION_8_32
        )
        out.append(
            BankGroupPoint(
                bankgroups=n_groups,
                peak_internal_gbps=DDR4_2133.peak_internal_bandwidth(
                    n_groups, geometry.ranks
                )
                / 1e9,
                achieved_internal_gbps=pim.internal_bandwidth / 1e9,
                update_speedup=base.seconds_per_param
                / pim.seconds_per_param,
            )
        )
    return out


@dataclass(frozen=True)
class ChannelPoint:
    """One channel count of the channel-scaling sweep."""

    channels: int
    peak_internal_gbps: float
    achieved_internal_gbps: float
    ns_per_param: float  # GradPIM-Buffered update rate
    update_speedup: float  # GradPIM-Buffered over baseline
    scaling_vs_one_channel: float  # update-rate gain over channels=1


def run_channel_sweep(
    channel_counts: tuple[int, ...] = (1, 2, 4, 8),
    timing: TimingParams = HBM_LIKE,
    columns_per_stripe: int = 16,
) -> list[ChannelPoint]:
    """Update-phase gains as independent channels scale toward HBM2.

    Each point models every channel with its own command bus, data bus
    and bank state machines.
    """
    optimizer = MomentumSGD(eta=0.01, alpha=0.9, weight_decay=1e-4)
    out = []
    one_channel_rate = None
    for n_channels in channel_counts:
        geometry = DeviceGeometry(channels=n_channels)
        model = UpdatePhaseModel(
            timing=timing,
            geometry=geometry,
            columns_per_stripe=columns_per_stripe,
        )
        base = model.profile(
            DesignPoint.BASELINE, optimizer, PRECISION_8_32
        )
        pim = model.profile(
            DesignPoint.GRADPIM_BUFFERED, optimizer, PRECISION_8_32
        )
        if one_channel_rate is None:
            # Normalize to channels=1 even when the sweep omits it:
            # channels partition the parameters exactly, so the first
            # point's rate times its channel count is the one-channel
            # rate (exact — the channel benchmark gates on it).
            one_channel_rate = pim.seconds_per_param * n_channels
        out.append(
            ChannelPoint(
                channels=n_channels,
                peak_internal_gbps=timing.peak_internal_bandwidth(
                    geometry.bankgroups, geometry.ranks, n_channels
                )
                / 1e9,
                achieved_internal_gbps=pim.internal_bandwidth / 1e9,
                ns_per_param=pim.seconds_per_param * 1e9,
                update_speedup=base.seconds_per_param
                / pim.seconds_per_param,
                scaling_vs_one_channel=one_channel_rate
                / pim.seconds_per_param,
            )
        )
    return out


@dataclass(frozen=True)
class OptimizerPoint:
    """One optimizer's update-phase profile on GradPIM-Buffered."""

    name: str
    passes: int
    needs_extended_alu: bool
    ns_per_param_pim: float
    ns_per_param_baseline: float
    update_speedup: float
    commands_per_param: float


def run_optimizer_sweep(
    columns_per_stripe: int = 16,
) -> list[OptimizerPoint]:
    """Every supported optimizer through the same update pipeline."""
    optimizers = [
        SGD(eta=0.01),
        MomentumSGD(eta=0.01, alpha=0.9, weight_decay=1e-4),
        NAG(eta=0.01, alpha=0.9),
        Adam(eta=0.001),
        AdaGrad(eta=0.01),
        RMSprop(eta=0.01),
    ]
    model = UpdatePhaseModel(
        columns_per_stripe=columns_per_stripe, extended_alu=True
    )
    out = []
    for opt in optimizers:
        base = model.profile(
            DesignPoint.BASELINE, opt, PRECISION_8_32
        )
        pim = model.profile(
            DesignPoint.GRADPIM_BUFFERED, opt, PRECISION_8_32
        )
        recipe = opt.recipe()
        out.append(
            OptimizerPoint(
                name=opt.name,
                passes=len(recipe.passes),
                needs_extended_alu=recipe.needs_extended_alu,
                ns_per_param_pim=pim.seconds_per_param * 1e9,
                ns_per_param_baseline=base.seconds_per_param * 1e9,
                update_speedup=base.seconds_per_param
                / pim.seconds_per_param,
                commands_per_param=pim.commands_per_param,
            )
        )
    return out


@dataclass(frozen=True)
class SchedulePoint:
    """MRW overhead of one learning-rate schedule."""

    name: str
    steps: int
    reprograms: int
    worst_relative_error: float


def run_schedule_overhead(total_steps: int = 5000) -> list[SchedulePoint]:
    """MRW reprogram counts for the §VIII scheduling mechanisms."""
    schedules = [
        ("step/2 every 30%", StepSchedule(
            0.5, total_steps, period=max(1, total_steps // 3),
            factor=0.5,
        )),
        ("cosine", CosineSchedule(0.1, total_steps)),
        ("poly-0.9", PolynomialSchedule(0.1, total_steps, power=0.9)),
    ]
    return [
        SchedulePoint(
            name=name,
            steps=total_steps,
            reprograms=len(sched.mrw_reprogram_points()),
            worst_relative_error=schedule_error(sched),
        )
        for name, sched in schedules
    ]
