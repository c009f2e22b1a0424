"""Validator tests: seeded violations must be caught, and named.

The validator is an independent re-implementation of the JEDEC rules.
These tests hold it to

* the hand-built traces of ``violation_cases.py`` that break exactly
  one rule each: the rule is named by the validator and by the
  family-by-family oracle (``tests/oracle.py``) alike;
* ``violation_golden.json``: every golden case raises the pinned
  ``(rule, cycle, message)`` — its first offender — from the columnar
  checker and from the ``Command``-list adapter, with
  ``ColumnarStream.to_commands`` patched to raise;
* a Hypothesis property: small corruptions of real scheduled traces
  are rejected exactly when the oracle rejects them;
* valid traces spanning more issue cycles than any fixed value band,
  and valid traces that leave several banks open.
"""

import pytest
from hypothesis import given, strategies as st

from oracle import settings, validate_trace_thorough
from repro.dram.columnar import ColumnarStream
from repro.dram.commands import CommandType
from repro.dram.validator import validate_trace, validate_trace_columnar
from repro.errors import TimingViolation
from repro.system.design import DesignPoint
from violation_cases import (
    CASES,
    GEOM,
    PORTS,
    SINGLE_RULE_TRACES,
    T,
    corrupted,
    issued,
    legal_pair,
    load_golden,
    scheduled,
    verdict,
)

#: The production checker and the oracle, checked side by side.
VALIDATORS = (validate_trace, validate_trace_thorough)


def _refuse(*args, **kwargs):
    raise AssertionError("ColumnarStream.to_commands was called")


def test_legal_trace_passes():
    for validate in VALIDATORS:
        validate(legal_pair(), T, GEOM, PORTS)


@pytest.mark.parametrize("rule", list(SINGLE_RULE_TRACES))
def test_single_rule_violation(rule):
    """Both checkers flag the one rule each hand-built trace breaks."""
    for validate in VALIDATORS:
        with pytest.raises(TimingViolation) as exc:
            validate(SINGLE_RULE_TRACES[rule](), T, GEOM, PORTS)
        assert exc.value.rule == rule, validate.__name__


@pytest.mark.parametrize("name", list(CASES))
def test_golden_first_offender(name, monkeypatch):
    """Same (rule, cycle, message) as the golden from both entry
    points, and no failure path materializes ``Command`` objects."""
    case = CASES[name]()
    commands = case.schedule.to_commands()
    monkeypatch.setattr(ColumnarStream, "to_commands", _refuse)
    expected = load_golden()[name]
    assert verdict(validate_trace_columnar, case) == expected
    assert verdict(validate_trace, case, commands=commands) == expected


@settings(max_examples=60, deadline=None)
@given(
    design=st.sampled_from(list(DesignPoint)),
    scope=st.sampled_from(["channel", "dimm"]),
    shifts=st.lists(
        st.tuples(
            st.integers(0, 1 << 20),
            st.sampled_from([-3, -2, -1, 1, 2, 3]),
        ),
        min_size=1,
        max_size=3,
    ),
)
def test_rejects_iff_oracle_rejects(design, scope, shifts):
    base = scheduled(design, columns=8)
    n = base.schedule.stream.n
    case = corrupted(
        base, {i % n: shift for i, shift in shifts}, data_bus_scope=scope
    )
    oracle = verdict(
        validate_trace_thorough, case, commands=case.schedule.to_commands()
    )
    columnar = verdict(validate_trace_columnar, case)
    assert (columnar is None) == (oracle is None), (columnar, oracle)


@pytest.mark.parametrize("design", list(DesignPoint))
def test_trace_spanning_beyond_any_fixed_band_accepted(design):
    """Two copies of a legal trace, the second 2^42 cycles later (deps
    shifted into its own block), stay legal: segmented running maxima
    must not leak across resources however far apart the cycles are."""
    case = scheduled(design, columns=8)
    first = case.schedule.to_commands()
    n = len(first)
    second = case.schedule.to_commands()
    for cmd in second:
        cmd.issue_cycle += 1 << 42
        cmd.deps = tuple(d + n for d in cmd.deps)
    for validate in VALIDATORS:
        validate(
            first + second, T, case.geometry, case.port_of_rank,
            **case.kwargs,
        )


def test_banks_left_open_accepted():
    """A bank left open must not read as open to the next bank in the
    checker's resource order."""
    trace = [
        issued(CommandType.ACT, 0, row=0, bank=0),
        issued(CommandType.ACT, T.tRRD_L, row=0, bank=1),
        issued(CommandType.SCALED_READ, 40, row=0, bank=0),
        issued(CommandType.SCALED_READ, 40 + T.tCCD_L, row=0, bank=1),
    ]
    for validate in VALIDATORS:
        validate(trace, T, GEOM, PORTS)


class TestModeEquivalence:
    """The checker and the oracle agree on real traces."""

    @pytest.mark.parametrize("design", list(DesignPoint))
    def test_all_design_traces_pass_both(self, design):
        case = scheduled(design, columns=8)
        validate_trace_columnar(
            case.schedule, T, case.geometry, case.port_of_rank,
            **case.kwargs,
        )
        for validate in VALIDATORS:
            validate(
                case.schedule.to_commands(), T, case.geometry,
                case.port_of_rank, **case.kwargs,
            )

    def test_corrupted_trace_fails_both(self):
        # Pull one mid-trace command several cycles earlier: some rule
        # (which one depends on the command) must fire in both.
        base = scheduled(DesignPoint.GRADPIM_BUFFERED, columns=8)
        case = corrupted(base, {base.schedule.stream.n // 2: -3})
        for validate in VALIDATORS:
            assert verdict(
                validate, case, commands=case.schedule.to_commands()
            ) is not None

    def test_bad_scope_rejected_by_both(self):
        for validate in VALIDATORS:
            with pytest.raises(TimingViolation):
                validate(
                    legal_pair(), T, GEOM, PORTS,
                    data_bus_scope="hyperbus",
                )
