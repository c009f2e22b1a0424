"""The columnar loop stops reporting to an idle steady tracker.

Once the tracker is past its last segment, or has replayed or abandoned
it, every further :meth:`SteadyTracker.issued` call would only walk the
frontier and the ``ahead`` set for nothing. The loop drops the tracker
at that point; the schedule itself is pinned by ``test_steady.py``.
"""

from unittest import mock

import pytest

from repro.dram.scheduler import CommandScheduler
from repro.dram.steady import SteadyTracker
from repro.optim.precision import PRECISIONS
from repro.optim.registry import build_optimizer
from repro.system.design import DESIGNS, DesignPoint
from repro.system.update_model import UpdatePhaseModel


def _run_counting(design, optimizer_name, precision, columns):
    """Schedule one stream with replay; returns ``(outcome, calls,
    calls made while the tracker was already idle)``."""
    model = UpdatePhaseModel(columns_per_stripe=columns)
    config = DESIGNS[design]
    _, _, period, art = model._build_stream(
        config,
        build_optimizer(optimizer_name, {}),
        PRECISIONS[precision],
    )
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
        result = scheduler.run(art.commands, period=period)
    return result.periodic, counts["calls"], counts["idle"]


@pytest.mark.parametrize(
    "workload, locks",
    [
        ((DesignPoint.GRADPIM_BUFFERED, "sgd", "8/32", 64), True),
        ((DesignPoint.GRADPIM_DIRECT, "sgd", "32/32", 128), False),
    ],
)
def test_no_issued_calls_after_the_last_segment(workload, locks):
    outcome, calls, idle_calls = _run_counting(*workload)
    assert outcome.engaged is locks
    assert calls > 0
    assert idle_calls == 0
