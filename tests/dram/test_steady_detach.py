"""The columnar loop stops reporting to an idle steady tracker.

Once the tracker is past its last segment, or has replayed or abandoned
it, every further :meth:`SteadyTracker.issued` call would only walk the
frontier and the ``ahead`` set for nothing. The loop drops the tracker
at that point; the schedule itself is pinned by ``test_steady.py``.
"""

import random
from unittest import mock

import pytest

from oracle import _fresh_copy
from repro.dram.scheduler import CommandScheduler
from repro.dram.steady import SteadyTracker
from repro.optim.precision import PRECISIONS
from repro.optim.registry import build_optimizer
from repro.system.design import DESIGNS, DesignPoint
from repro.system.update_model import UpdatePhaseModel


def _strip_dependencies(commands, period, per_sweep, seed=0):
    """Copies of ``commands`` with the dependencies of ``per_sweep``
    seeded commands removed in every sweep of every segment: a legal
    stream that no two sweeps schedule alike, so it never locks."""
    commands = [_fresh_copy(cmd) for cmd in commands]
    rng = random.Random(seed)
    for seg in period.segments:
        for start in range(seg.start, seg.end, seg.period):
            dependent = [
                i for i in range(start, start + seg.period)
                if commands[i].deps
            ]
            for i in rng.sample(dependent, min(per_sweep, len(dependent))):
                commands[i].deps = ()
    return commands


def _run_counting(design, optimizer_name, precision, columns, stripped=0):
    """Schedule one stream with replay (``stripped`` commands per sweep
    lose their dependencies); returns ``(outcome, calls, calls made
    while the tracker was already idle)``."""
    model = UpdatePhaseModel(columns_per_stripe=columns)
    config = DESIGNS[design]
    _, _, period, art = model._build_stream(
        config,
        build_optimizer(optimizer_name, {}),
        PRECISIONS[precision],
    )
    commands = art.commands
    if stripped:
        commands = _strip_dependencies(commands, period, stripped)
    real = SteadyTracker.issued
    counts = {"calls": 0, "idle": 0}

    def counting(tracker, i, cycle, port):
        counts["calls"] += 1
        counts["idle"] += tracker.idle
        return real(tracker, i, cycle, port)

    scheduler = CommandScheduler(
        model.timing,
        model.geometry,
        config.issue_model(model.geometry),
        per_bank_pim=config.per_bank_pim,
        data_bus_scope=config.data_bus_scope,
    )
    with mock.patch.object(SteadyTracker, "issued", counting):
        result = scheduler.run(commands, period=period)
    return result.periodic, counts["calls"], counts["idle"]


@pytest.mark.parametrize(
    "workload, locks",
    [
        ((DesignPoint.GRADPIM_BUFFERED, "sgd", "8/32", 64), True),
        ((DesignPoint.GRADPIM_DIRECT, "sgd", "32/32", 128, 4), False),
    ],
)
def test_no_issued_calls_after_the_last_segment(workload, locks):
    outcome, calls, idle_calls = _run_counting(*workload)
    assert outcome.engaged is locks
    assert any(outcome.locks) is locks
    assert calls > 0
    assert idle_calls == 0
