"""Property-based fuzzing: every compiled stream schedules legally.

Hypothesis drives the compiler across optimizers, precisions, sample
sizes, issue models, scheduler windows, and bus scopes; the independent
JEDEC validator must accept every produced trace. This is the broadest
correctness net in the suite: any disagreement between the scheduler's
state machines and the validator's re-implementation, or any malformed
dependency from the compiler, fails here.
"""

import copy

import pytest
from hypothesis import HealthCheck, given, strategies as st

from oracle import settings
from repro.dram.geometry import DeviceGeometry
from repro.dram.scheduler import CommandScheduler, IssueModel
from repro.dram.timing import DDR4_2133, DDR4_3200
from repro.dram.validator import validate_trace
from repro.kernels.aos import AoSKernelGenerator
from repro.kernels.compiler import UpdateKernelCompiler
from repro.kernels.streams import BaselineStreamGenerator
from repro.optim import (
    Adam,
    AdamW,
    AdaGrad,
    MomentumSGD,
    NAG,
    RMSprop,
    SGD,
)
from repro.optim.precision import PRECISIONS

GEOM = DeviceGeometry()

_OPTIMIZERS = st.sampled_from(
    [
        SGD(eta=0.01),
        MomentumSGD(eta=0.01, alpha=0.9),
        MomentumSGD(eta=0.04, alpha=0.8, weight_decay=1e-3),
        NAG(eta=0.02, alpha=0.95),
        Adam(eta=0.001),
        AdamW(eta=0.001, weight_decay=0.01),
        AdaGrad(eta=0.05),
        RMSprop(eta=0.01),
    ]
)
_PRECISIONS = st.sampled_from(list(PRECISIONS.values()))
_TIMINGS = st.sampled_from([DDR4_2133, DDR4_3200])
_PORTS = st.sampled_from(["direct", "buffered"])


def _issue_model(kind: str) -> IssueModel:
    if kind == "direct":
        return IssueModel.direct(GEOM.ranks)
    return IssueModel.buffered(GEOM.ranks)


@given(
    opt=_OPTIMIZERS,
    precision=_PRECISIONS,
    timing=_TIMINGS,
    columns=st.integers(min_value=4, max_value=12),
    ports=_PORTS,
    window=st.sampled_from([2, 8, 16]),
)
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_compiled_kernels_always_schedule_legally(
    opt, precision, timing, columns, ports, window
):
    kernel = UpdateKernelCompiler(GEOM, extended_alu=True).compile(
        opt, precision, columns_per_stripe=columns
    )
    im = _issue_model(ports)
    result = CommandScheduler(
        timing, GEOM, im, window=window
    ).run(copy.deepcopy(kernel.commands))
    validate_trace(result.commands, timing, GEOM, im.port_of_rank)


@given(
    opt=_OPTIMIZERS,
    precision=_PRECISIONS,
    columns=st.integers(min_value=4, max_value=12),
    fused=st.booleans(),
    scope=st.sampled_from(["channel", "dimm", "rank"]),
)
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_baseline_streams_always_schedule_legally(
    opt, precision, columns, fused, scope
):
    stream = BaselineStreamGenerator(GEOM).generate(
        opt, precision, columns_per_stripe=columns, fused=fused
    )
    im = IssueModel.buffered(GEOM.ranks)
    result = CommandScheduler(
        DDR4_2133, GEOM, im, data_bus_scope=scope
    ).run(copy.deepcopy(stream.commands))
    validate_trace(
        result.commands, DDR4_2133, GEOM, im.port_of_rank,
        data_bus_scope=scope,
    )


@given(
    per_bank=st.booleans(),
    columns=st.integers(min_value=2, max_value=8),
)
@settings(max_examples=8, deadline=None)
def test_aos_kernels_always_schedule_legally(per_bank, columns):
    kernel = AoSKernelGenerator(GEOM, per_bank=per_bank).generate(
        MomentumSGD(eta=0.01, alpha=0.9),
        PRECISIONS["8/32"],
        columns_per_unit=columns,
    )
    im = IssueModel.buffered(GEOM.ranks)
    result = CommandScheduler(
        DDR4_2133, GEOM, im, per_bank_pim=per_bank
    ).run(copy.deepcopy(kernel.commands))
    validate_trace(
        result.commands, DDR4_2133, GEOM, im.port_of_rank,
        per_bank_pim=per_bank,
    )


@given(
    opt=_OPTIMIZERS,
    precision=_PRECISIONS,
)
@settings(max_examples=10, deadline=None)
def test_kernel_phase_accounting_is_complete(opt, precision):
    """Phase counters sum to the stream length for every kernel."""
    kernel = UpdateKernelCompiler(GEOM, extended_alu=True).compile(
        opt, precision, columns_per_stripe=4
    )
    assert sum(kernel.phase_counts.values()) == kernel.total_commands
