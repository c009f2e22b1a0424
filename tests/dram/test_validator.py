"""Validator tests: seeded violations must be caught.

The validator is an independent re-implementation of the JEDEC rules;
these tests hand-construct traces that break exactly one rule each and
assert the breach is named — by the fused sweep and by the
family-by-family oracle (``tests/oracle.py``) alike.
"""

import pytest

from oracle import validate_trace_thorough
from repro.dram.commands import Command, CommandType
from repro.dram.geometry import DeviceGeometry
from repro.dram.timing import DDR4_2133
from repro.dram.validator import validate_trace
from repro.errors import TimingViolation

T = DDR4_2133
GEOM = DeviceGeometry()
PORTS = (0, 0, 0, 0)


def _issued(kind, cycle, **kwargs):
    cmd = Command(kind, **kwargs)
    cmd.issue_cycle = cycle
    return cmd


def _legal_pair(row=0):
    """ACT then a legal read."""
    return [
        _issued(CommandType.ACT, 0, row=row),
        _issued(CommandType.SCALED_READ, T.tRCD, row=row),
    ]


#: The production sweep and the oracle, checked side by side.
VALIDATORS = (validate_trace, validate_trace_thorough)


def _check(trace, rule):
    """Both checkers must flag the same seeded violation."""
    for validate in VALIDATORS:
        with pytest.raises(TimingViolation) as exc:
            validate(trace, T, GEOM, PORTS)
        assert exc.value.rule == rule, validate.__name__


def test_legal_trace_passes():
    for validate in VALIDATORS:
        validate(_legal_pair(), T, GEOM, PORTS)


def test_trcd_violation():
    trace = [
        _issued(CommandType.ACT, 0, row=0),
        _issued(CommandType.SCALED_READ, T.tRCD - 1, row=0),
    ]
    _check(trace, "tRCD")


def test_tras_violation():
    trace = [
        _issued(CommandType.ACT, 0, row=0),
        _issued(CommandType.PRE, T.tRAS - 1, row=0),
    ]
    _check(trace, "tRAS")


def test_trp_violation():
    trace = [
        _issued(CommandType.ACT, 0, row=0),
        _issued(CommandType.PRE, T.tRAS, row=0),
        _issued(CommandType.ACT, T.tRAS + T.tRP - 1, row=1),
    ]
    _check(trace, "tRP")


def test_trtp_violation():
    read_cycle = T.tRAS  # late enough that tRAS is already satisfied
    trace = [
        _issued(CommandType.ACT, 0, row=0),
        _issued(CommandType.SCALED_READ, read_cycle, row=0),
        _issued(CommandType.PRE, read_cycle + T.tRTP - 1, row=0),
    ]
    _check(trace, "tRTP")


def test_twr_violation():
    wb_cycle = T.tRAS  # tRAS satisfied so only tWR can fire
    trace = [
        _issued(CommandType.ACT, 0, row=0),
        _issued(CommandType.WRITEBACK, wb_cycle, row=0),
        _issued(
            CommandType.PRE, wb_cycle + T.tBURST + T.tWR - 1, row=0
        ),
    ]
    _check(trace, "tWR")


def test_row_match_violation():
    trace = [
        _issued(CommandType.ACT, 0, row=0),
        _issued(CommandType.SCALED_READ, T.tRCD, row=5),
    ]
    _check(trace, "row-match")


def test_act_on_open_bank():
    trace = [
        _issued(CommandType.ACT, 0, row=0),
        _issued(CommandType.ACT, T.tRRD_L, row=1),
    ]
    _check(trace, "ACT-open")


def test_pre_closed_bank():
    _check([_issued(CommandType.PRE, 0, row=0)], "PRE-closed")


def test_tccd_l_violation():
    trace = [
        _issued(CommandType.ACT, 0, row=0, bank=0),
        _issued(CommandType.ACT, T.tRRD_L, row=0, bank=1),
        _issued(CommandType.SCALED_READ, 40, row=0, bank=0),
        _issued(
            CommandType.SCALED_READ, 40 + T.tCCD_L - 1, row=0, bank=1
        ),
    ]
    _check(trace, "tCCD_L")


def test_tpim_violation():
    trace = [
        _issued(CommandType.PIM_ADD, 0),
        _issued(CommandType.PIM_SUB, T.tPIM - 1),
    ]
    _check(trace, "tPIM")


def test_trrd_violation():
    trace = [
        _issued(CommandType.ACT, 0, row=0, bankgroup=0),
        _issued(CommandType.ACT, T.tRRD_S - 1, row=0, bankgroup=1),
    ]
    _check(trace, "tRRD")


def test_tfaw_violation():
    trace = []
    cycle = 0
    for i in range(4):
        trace.append(
            _issued(CommandType.ACT, cycle, row=0, bankgroup=i)
        )
        cycle += T.tRRD_S
    trace.append(
        _issued(CommandType.ACT, T.tFAW - 1, row=0, bankgroup=0, bank=1)
    )
    _check(trace, "tFAW")


def test_tccd_s_violation():
    trace = [
        _issued(CommandType.ACT, 0, row=0, bankgroup=0),
        _issued(CommandType.ACT, T.tRRD_S, row=0, bankgroup=1),
        _issued(CommandType.RD, 40, row=0, bankgroup=0),
        _issued(CommandType.RD, 40 + T.tCCD_S - 1, row=0, bankgroup=1),
    ]
    _check(trace, "tCCD_S")


def test_twtr_l_violation():
    wb = T.tRCD
    trace = [
        _issued(CommandType.ACT, 0, row=0, bank=0),
        _issued(CommandType.ACT, T.tRRD_L, row=0, bank=1),
        _issued(CommandType.WRITEBACK, wb, row=0, bank=0),
        _issued(
            CommandType.SCALED_READ,
            wb + T.tCCD_L,  # satisfies tCCD_L but not tWTR_L
            row=0,
            bank=1,
        ),
    ]
    _check(trace, "tWTR_L")


def test_command_bus_violation():
    trace = [
        _issued(CommandType.ACT, 0, row=0, rank=0, bankgroup=0),
        _issued(CommandType.ACT, 0, row=0, rank=1, bankgroup=0),
    ]
    _check(trace, "command-bus")


def test_dependency_violation():
    a = _issued(CommandType.ACT, 0, row=0)
    b = _issued(CommandType.SCALED_READ, T.tRCD - 2, row=0)
    b.deps = (0,)
    # Dependency check fires on completion, independent of tRCD.
    with pytest.raises(TimingViolation):
        validate_trace([a, b], T, GEOM, PORTS)


def test_data_bus_overlap_violation():
    trace = [
        _issued(CommandType.ACT, 0, row=0, bankgroup=0),
        _issued(CommandType.ACT, T.tRRD_S, row=0, bankgroup=1),
        _issued(CommandType.RD, 40, row=0, bankgroup=0),
        # tCCD_S satisfied (4), but burst data (4 cycles) still overlaps
        # at spacing < tBURST when tCCD_S == tBURST; force overlap with
        # a rank switch requiring a gap.
        _issued(
            CommandType.RD, 40 + T.tBURST, row=0, rank=1, bankgroup=0
        ),
    ]
    trace.insert(
        2, _issued(CommandType.ACT, 2 * T.tRRD_S, row=0, rank=1)
    )
    _check(trace, "data-bus")


def test_unissued_command_rejected():
    cmd = Command(CommandType.ACT, row=0)
    with pytest.raises(TimingViolation):
        validate_trace([cmd], T, GEOM, PORTS)


class TestModeEquivalence:
    """Fused sweep and the oracle agree on real traces."""

    def _scheduled(self, design):
        from repro.dram.scheduler import CommandScheduler
        from repro.optim.registry import build_optimizer
        from repro.optim.precision import PRECISION_8_32
        from repro.system.design import DESIGNS
        from repro.system.update_model import UpdatePhaseModel

        model = UpdatePhaseModel(columns_per_stripe=8)
        optimizer = build_optimizer(
            "momentum_sgd",
            {"eta": 0.01, "alpha": 0.9, "weight_decay": 1e-4},
        )
        config = DESIGNS[design]
        commands, _, _, _period, _art = model._build_stream(
            config, optimizer, PRECISION_8_32
        )
        issue_model = config.issue_model(model.geometry)
        result = CommandScheduler(
            model.timing, model.geometry, issue_model,
            per_bank_pim=config.per_bank_pim,
            data_bus_scope=config.data_bus_scope,
        ).run(commands)
        return config, issue_model, result

    def test_all_design_traces_pass_both_modes(self):
        from repro.system.design import DesignPoint

        for design in DesignPoint:
            config, issue_model, result = self._scheduled(design)
            for validate in VALIDATORS:
                validate(
                    result.commands,
                    T,
                    GEOM,
                    issue_model.port_of_rank,
                    per_bank_pim=config.per_bank_pim,
                    data_bus_scope=config.data_bus_scope,
                )

    def test_corrupted_trace_fails_both_modes(self):
        from repro.system.design import DesignPoint

        _, issue_model, result = self._scheduled(
            DesignPoint.GRADPIM_BUFFERED
        )
        # Pull one mid-trace command several cycles earlier: some rule
        # (which one depends on the command) must fire in both modes.
        victim = result.commands[len(result.commands) // 2]
        victim.issue_cycle = max(victim.issue_cycle - 3, 0)
        for validate in VALIDATORS:
            with pytest.raises(TimingViolation):
                validate(
                    result.commands,
                    T,
                    GEOM,
                    issue_model.port_of_rank,
                    data_bus_scope="channel",
                )

    def test_bad_scope_rejected_in_both_modes(self):
        for validate in VALIDATORS:
            with pytest.raises(TimingViolation):
                validate(
                    _legal_pair(), T, GEOM, PORTS,
                    data_bus_scope="hyperbus",
                )
