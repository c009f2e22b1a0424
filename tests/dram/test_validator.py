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
  and valid traces that leave several banks open;
* a raise-iff differential harness: on replayed traces, validation
  given the replay outcome (most images cut out) and full validation
  accept together or raise the same first offender, under splices,
  dependency drops, reorders, stale or misaligned outcome metadata
  and channel mixes, with breaches injected in simulated spans, at
  the seams and inside the cut.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracle import settings, validate_trace_thorough
from repro.dram.columnar import ColumnarSchedule, ColumnarStream
from repro.dram.commands import CommandType
from repro.dram.period import PeriodicOutcome, Replay
from repro.dram.validator import validate_trace, validate_trace_columnar
from repro.errors import TimingViolation
from repro.system.design import DesignPoint
from violation_cases import (
    CASES,
    GEOM,
    GEOM2,
    PORTS,
    SINGLE_RULE_TRACES,
    T,
    corrupted,
    issued,
    legal_pair,
    load_golden,
    replayed,
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


# ----------------------------------------------------------------------
# Compressed validation of replayed traces == full validation
# ----------------------------------------------------------------------
#: Replayed 64-column traces: every design has images to cut.
REPLAYED = [
    (design, optimizer)
    for design in DesignPoint
    for optimizer in ("sgd", "momentum_sgd")
]


def _checked(case, periodic):
    """``(verdict, rows the families ran over)`` of the columnar
    checker given ``periodic``."""
    try:
        rows = validate_trace_columnar(
            case.schedule, T, case.geometry, case.port_of_rank,
            periodic=periodic, **case.kwargs,
        )
    except TimingViolation as exc:
        return [exc.rule, exc.cycle, str(exc)], None
    return None, rows


def _with_stream(case, stream, issue):
    return case._replace(schedule=ColumnarSchedule(stream, issue))


def _image(case, outcome, data):
    """``(replay, event, u)``: image ``u`` (0 = the event itself) of
    one event of one replay. The event is often the replay's earliest
    or latest issued, and ``u`` is drawn from the events, both seams,
    the middle of the cut and the last images alike."""
    replay = data.draw(st.sampled_from(outcome.replays))
    events = np.array(replay.events)
    cycles = case.schedule.issue_cycle[events]
    e = data.draw(st.sampled_from([
        int(events[np.argmin(cycles)]), int(events[np.argmax(cycles)]),
        *replay.events,
    ]))
    m = replay.copies
    u = data.draw(st.sampled_from([
        0, 1, 2, 3, 4, m // 2, m - 4, m - 3, m - 2, m - 1, m,
    ]) | st.integers(0, m))
    return replay, e, min(max(u, 0), m)


def _structural(case, outcome, kind, data):
    """``case`` with one structural perturbation applied."""
    stream = case.schedule.stream
    issue = np.array(case.schedule.issue_cycle, dtype=np.int64)
    if kind == "gap":
        # Everything from a replay's earliest event on issues 1000
        # cycles later: still legal, and nothing simulated before the
        # events repeats their pattern any more.
        replay = data.draw(st.sampled_from(outcome.replays))
        start = issue[list(replay.events)].min()
        return _with_stream(case, stream, issue + 1000 * (issue >= start))
    n = stream.n
    ptr, deps = stream.dep_indptr, stream.dep_indices
    if data.draw(st.booleans()):
        replay, e, u = _image(case, outcome, data)
        x = e + u * replay.period
    else:
        x = data.draw(st.integers(0, n - 1))
    if kind == "splice-append":
        # A copy of command x, issued with it (or next to it), at the
        # end of the stream: no replay's indices move.
        extra = np.concatenate([deps, deps[ptr[x]:ptr[x + 1]]])
        spliced = stream.select(np.append(np.arange(n), x), extra)
        at = issue[x] + data.draw(st.integers(-2, 2))
        return _with_stream(case, spliced, np.append(issue, max(at, 0)))
    if kind == "splice-insert":
        # A copy of command x inserted at p: every later index moves.
        p = data.draw(st.integers(0, n))
        order = np.concatenate([np.arange(p), [x], np.arange(p, n)])
        moved = np.concatenate(
            [deps[:ptr[p]], deps[ptr[x]:ptr[x + 1]], deps[ptr[p]:]]
        )
        spliced = stream.select(order, moved + (moved >= p))
        return _with_stream(case, spliced, issue[order])
    if kind == "dependency-drop":
        fields = {
            name: getattr(stream, name) for name in ColumnarStream.COLUMNS
        }
        indptr = np.array(ptr)
        indptr[x + 1:] -= ptr[x + 1] - ptr[x]
        dropped = ColumnarStream(
            **fields, dep_indptr=indptr,
            dep_indices=np.concatenate([deps[:ptr[x]], deps[ptr[x + 1]:]]),
        )
        return _with_stream(case, dropped, issue)
    if kind == "reorder":
        y = data.draw(st.integers(0, n - 1))
        issue[[x, y]] = issue[[y, x]]
        return _with_stream(case, stream, issue)
    # channel-mix: move a random subset, or one whole rank, to channel 1
    if data.draw(st.booleans()):
        channel = np.zeros(n, dtype=np.int64)
        channel[data.draw(st.lists(st.integers(0, n - 1), max_size=8))] = 1
    else:
        channel = (stream.rank == data.draw(st.integers(0, 3))).astype(
            np.int64
        )
    mixed = stream.select(np.arange(n), deps, channel=channel)
    return case._replace(
        schedule=ColumnarSchedule(mixed, issue), geometry=GEOM2
    )


def _metadata(outcome, kind, data):
    """``outcome`` with its replays made stale or misaligned."""
    if kind == "stale":
        other = data.draw(st.sampled_from(REPLAYED))
        return replayed(*other)[1]
    replays = list(outcome.replays)
    k = data.draw(st.integers(0, len(replays) - 1))
    r = replays[k]
    events = np.array(r.events)
    variant = data.draw(st.sampled_from(
        ["delta", "copies", "period", "events", "image"]
    ))
    if variant == "delta":
        r = Replay(r.events, r.period, r.delta + data.draw(
            st.sampled_from([-1, 1])), r.copies)
    elif variant == "copies":
        r = Replay(r.events, r.period, r.delta, max(1, r.copies + data.draw(
            st.sampled_from([-2, -1, 1, 2]))))
    elif variant == "period":
        r = Replay(r.events[:-1], r.period - 1, r.delta, r.copies)
    elif variant == "events":
        shift = data.draw(st.sampled_from([-1, 1]))
        r = Replay(tuple((events + shift).tolist()), r.period, r.delta,
                   r.copies)
    else:  # the first images posing as the events
        r = Replay(tuple((events + r.period).tolist()), r.period, r.delta,
                   r.copies)
    replays[k] = r
    return PeriodicOutcome(replays=replays)


@settings(max_examples=80, deadline=None)
@given(
    base=st.sampled_from(REPLAYED),
    plain=st.booleans(),
    metadata=st.sampled_from([None, None, "stale", "misaligned"]),
    structural=st.sampled_from([
        None, None, "gap", "splice-append", "splice-insert",
        "dependency-drop", "reorder", "channel-mix",
    ]),
    injection=st.sampled_from([None, "shift", "periodic"]),
    data=st.data(),
)
def test_compressed_raises_iff_full_raises(
    base, plain, metadata, structural, injection, data
):
    """Validation given the replay outcome (images cut out) and
    without it (every command) accept together, or raise the same
    ``(rule, cycle, message)``, on replayed and plain schedules of the
    same streams under every perturbation; an untouched trace is
    really compressed."""
    case, outcome = replayed(*base, plain=plain)
    if injection is not None:
        replay, e, u = _image(case, outcome, data)
        shift = data.draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
        if injection == "shift":
            # One command: an image, an event or anything else.
            if data.draw(st.booleans()):
                target = [e + u * replay.period]
            else:
                target = [data.draw(
                    st.integers(0, case.schedule.stream.n - 1)
                )]
        else:
            # An event and all its images alike: the translation holds
            # and the breach recurs every super-period.
            target = [
                e + v * replay.period for v in range(replay.copies + 1)
            ]
        case = corrupted(case, {i: shift for i in target})
    if structural is not None:
        case = _structural(case, outcome, structural, data)
        if structural == "gap" and data.draw(st.booleans()):
            case = _structural(case, outcome, "splice-append", data)
    if metadata is not None:
        outcome = _metadata(outcome, metadata, data)
    full, n = _checked(case, None)
    compressed, rows = _checked(case, outcome)
    assert compressed == full
    if (injection, structural, metadata) == (None, None, None):
        assert rows < n


def test_compressed_validation_engages_on_every_design():
    """Every replayed 64-column trace validates fewer rows than it has
    commands when given its outcome, and all of them without it."""
    for base in REPLAYED:
        case, outcome = replayed(*base)
        n = case.schedule.stream.n
        assert _checked(case, None) == (None, n)
        verdict_, rows = _checked(case, outcome)
        assert verdict_ is None and rows < n, base


@pytest.mark.parametrize("base", REPLAYED[::3])
def test_breach_inside_the_cut_is_named_by_the_full_check(base):
    """A breach at an image the compressed trace cuts out, and one
    repeated in every super-period, raise exactly the full check's
    first offender."""
    case, outcome = replayed(*base)
    replay = max(outcome.replays, key=lambda r: r.copies)
    e = replay.events[len(replay.events) // 2]
    middle = e + (replay.copies // 2) * replay.period
    everywhere = [e + u * replay.period for u in range(replay.copies + 1)]
    for target in ([middle], everywhere):
        broken = corrupted(case, {i: -2 for i in target})
        full, _ = _checked(broken, None)
        assert full is not None
        assert _checked(broken, outcome) == (full, None)


@pytest.mark.parametrize("base", REPLAYED[::3])
def test_breach_between_replayed_super_periods_only(base):
    """Everything from a replay's earliest event on issues 1000 cycles
    later, so nothing simulated before the events repeats their
    pattern; then one event and all its images move alike. A breach
    that recurs between replayed super-periods and nowhere else must
    still be named exactly: the compressed trace keeps whole
    super-periods on both sides of the cut."""
    case, outcome = replayed(*base)
    replay = max(outcome.replays, key=lambda r: r.copies)
    issue = case.schedule.issue_cycle
    events = np.array(replay.events)
    cycles = issue[events]
    gapped = corrupted(case, {
        i: 1000 for i in np.flatnonzero(issue >= cycles.min()).tolist()
    })
    assert _checked(gapped, outcome)[0] is None
    caught = 0
    for e in (events[np.argmin(cycles)], events[np.argmax(cycles)],
              events[len(events) // 2]):
        for shift in (-3, -2, -1, 1, 2, 3):
            copies = {
                int(e) + u * replay.period: shift
                for u in range(replay.copies + 1)
            }
            broken = corrupted(gapped, copies)
            full, _ = _checked(broken, None)
            assert _checked(broken, outcome)[0] == full
            caught += full is not None
    assert caught
