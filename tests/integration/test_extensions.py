"""Extension-experiment tests (small sample sizes)."""

import pytest

from repro.experiments.extensions import (
    run_bankgroup_sweep,
    run_channel_sweep,
    run_optimizer_sweep,
    run_schedule_overhead,
)
from repro.optim import Adam
from repro.optim.precision import PRECISION_8_32
from repro.system.design import DesignPoint
from repro.system.training import TrainingSimulator
from repro.system.update_model import UpdatePhaseModel


@pytest.fixture(scope="module")
def bankgroup_points():
    return run_bankgroup_sweep(
        bankgroup_counts=(2, 4, 8), columns_per_stripe=8
    )


def test_bankgroup_speedup_monotone(bankgroup_points):
    speedups = [p.update_speedup for p in bankgroup_points]
    assert speedups == sorted(speedups)


def test_bankgroup_peak_doubles(bankgroup_points):
    by_groups = {p.bankgroups: p for p in bankgroup_points}
    assert by_groups[8].peak_internal_gbps == pytest.approx(
        2 * by_groups[4].peak_internal_gbps
    )


@pytest.fixture(scope="module")
def channel_points():
    return run_channel_sweep(
        channel_counts=(1, 2, 4), columns_per_stripe=8
    )


def test_channel_sweep_update_rate_scales(channel_points):
    """Channels partition the parameters, so the per-parameter update
    rate scales (nearly) linearly with the channel count."""
    by_channels = {p.channels: p for p in channel_points}
    assert by_channels[1].scaling_vs_one_channel == pytest.approx(1.0)
    assert by_channels[2].scaling_vs_one_channel == pytest.approx(
        2.0, rel=1e-6
    )
    assert by_channels[4].scaling_vs_one_channel == pytest.approx(
        4.0, rel=1e-6
    )


def test_channel_sweep_bandwidth_scales(channel_points):
    by_channels = {p.channels: p for p in channel_points}
    assert by_channels[4].peak_internal_gbps == pytest.approx(
        4 * by_channels[1].peak_internal_gbps
    )
    assert by_channels[4].achieved_internal_gbps == pytest.approx(
        4 * by_channels[1].achieved_internal_gbps, rel=1e-6
    )


def test_channel_sweep_speedup_survives_channel_scaling(channel_points):
    """Baseline and GradPIM scale together: the per-design speedup is
    channel-count independent (channels multiply both sides)."""
    speedups = [p.update_speedup for p in channel_points]
    for s in speedups[1:]:
        assert s == pytest.approx(speedups[0], rel=1e-6)


def test_optimizer_sweep_adam_overhead_is_small():
    """§VIII: multi-pass Adam costs more than momentum but keeps most
    of the speedup ('only a small overhead')."""
    points = {p.name: p for p in run_optimizer_sweep(8)}
    adam, momentum = points["adam"], points["momentum_sgd"]
    assert adam.passes == 3 and momentum.passes == 1
    assert adam.ns_per_param_pim > momentum.ns_per_param_pim
    assert adam.update_speedup > 0.6 * momentum.update_speedup


def test_schedule_overhead_step_is_free():
    points = {p.name: p for p in run_schedule_overhead(1000)}
    assert points["step/2 every 30%"].worst_relative_error == 0.0
    assert points["step/2 every 30%"].reprograms <= 4


def test_adam_through_full_training_simulator(update_model):
    """The whole pipeline accepts adaptive optimizers with the extended
    ALU enabled."""
    model = UpdatePhaseModel(columns_per_stripe=8, extended_alu=True)
    simulator = TrainingSimulator(
        optimizer=Adam(eta=0.001),
        precision=PRECISION_8_32,
        update_model=model,
        designs=(DesignPoint.BASELINE, DesignPoint.GRADPIM_BUFFERED),
    )
    result = simulator.simulate("MLP1")
    assert result.overall_speedup(DesignPoint.GRADPIM_BUFFERED) > 1.5
