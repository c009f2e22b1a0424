"""Steady-state replay == the reference greedy loop, byte for byte.

A run given period metadata (``CommandScheduler.run(..., period=...)``,
:mod:`repro.dram.steady`) promises *exact*
equivalence with the reference loop kept in ``tests/oracle.py``:
identical issue cycles and
identical :class:`TraceStats` on every stream — locked steady-state
sweeps are replayed arithmetically, everything else (and everything
that never locks) simulates for real. These tests enforce the contract:

* golden checks over every design point x optimizer x precision at
  several windows and sample widths, asserting both equivalence and
  that the fast path actually engages where the streams are periodic;
* period-metadata honesty: every segment a generator reports really is
  shape-periodic, and a wider sample is the same stream with extra
  body sweeps (the property the profile-level extrapolation rests on);
* perturbation: streams edited to *break* the advertised periodicity
  (spliced commands, stripped dependencies, stale metadata) must fall
  back to plain simulation and still match the reference loop;
* Hypothesis sweeps over (design, optimizer, precision, window,
  columns_per_stripe);
* the numpy replay against the per-command replay oracle: from the
  same locked state, both leave the loop in the same state.
"""

import copy
from collections import deque
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

from oracle import (
    ReferenceScheduler,
    _fresh_copy,
    replay_reference,
    settings,
)
from repro.dram.commands import Command, CommandType
from repro.dram.scheduler import CommandScheduler
from repro.dram.period import PeriodSegment, SegmentRecorder, StreamPeriod
from repro.dram.steady import SteadyTracker, stale_floor
from repro.dram.timing import DDR4_2133, PRESETS
from repro.errors import ConfigError
from repro.optim.precision import PRECISIONS
from repro.optim.registry import build_optimizer
from repro.system.design import (
    DESIGNS,
    DesignPoint,
    UPDATE_PIM_KERNEL,
)
from repro.system.update_model import UpdatePhaseModel

T = DDR4_2133
GEOM = UpdatePhaseModel().geometry

OPTIMIZER_PARAMS = {
    "momentum_sgd": {"eta": 0.01, "alpha": 0.9, "weight_decay": 1e-4},
    "sgd": {},
    "rmsprop": {},
}


def _built(design, optimizer_name="momentum_sgd", precision="8/32",
           columns=16):
    model = UpdatePhaseModel(
        columns_per_stripe=columns, extended_alu=True
    )
    optimizer = build_optimizer(
        optimizer_name, OPTIMIZER_PARAMS.get(optimizer_name, {})
    )
    config = DESIGNS[design]
    _, _, period, art = model._build_stream(
        config, optimizer, PRECISIONS[precision]
    )
    return config, art.commands, art.dependents, period


def _run_both(config, commands, dependents, period, window=16):
    """Schedule with replay and on the oracle; they must
    agree exactly. Returns the periodic result."""
    kwargs = dict(
        per_bank_pim=config.per_bank_pim,
        window=window,
        data_bus_scope=config.data_bus_scope,
    )
    issue_model = config.issue_model(GEOM)
    ref = ReferenceScheduler(T, GEOM, issue_model, **kwargs).run(commands)
    per = CommandScheduler(T, GEOM, issue_model, **kwargs).run(
        commands, period=period
    )
    assert ref.issue_cycles() == per.issue_cycles()
    assert ref.stats == per.stats
    return per


class TestGoldenEquivalence:
    @pytest.mark.parametrize("design", list(DesignPoint))
    @pytest.mark.parametrize("window", [4, 16])
    def test_identical_per_design(self, design, window):
        config, commands, dependents, period = _built(
            design, columns=16
        )
        _run_both(config, commands, dependents, period, window=window)

    @pytest.mark.parametrize(
        "optimizer_name", ["sgd", "momentum_sgd", "rmsprop"]
    )
    @pytest.mark.parametrize("precision", ["8/32", "16/32", "32/32"])
    def test_identical_per_workload(self, optimizer_name, precision):
        for design in (
            DesignPoint.GRADPIM_DIRECT,
            DesignPoint.GRADPIM_BUFFERED,
        ):
            config, commands, dependents, period = _built(
                design, optimizer_name, precision, columns=16
            )
            _run_both(config, commands, dependents, period)

    def test_fast_path_engages_on_periodic_streams(self):
        """The point of the engine: on the real PIM kernels at a full
        row sample, locked sweeps are replayed, not simulated."""
        config, commands, dependents, period = _built(
            DesignPoint.GRADPIM_BUFFERED, columns=64
        )
        result = _run_both(config, commands, dependents, period)
        assert result.periodic is not None
        assert result.periodic.engaged
        assert result.periodic.skipped > len(commands) // 4
        assert any(lock is not None for lock in result.periodic.locks)

    def test_without_metadata_degrades_to_columnar(self):
        """No ``period`` runs the plain loop and reports nothing;
        metadata without segments is reported as never engaging."""
        config, commands, dependents, period = _built(
            DesignPoint.GRADPIM_DIRECT
        )
        plain = _run_both(config, commands, dependents, period=None)
        assert plain.periodic is None
        empty = StreamPeriod(segments=(), columns=period.columns)
        result = _run_both(config, commands, dependents, period=empty)
        assert not result.periodic.engaged
        assert result.periodic.reason == "no-period-metadata"


# ----------------------------------------------------------------------
# Period-metadata honesty
# ----------------------------------------------------------------------
def _static_shape(cmd: Command):
    return (cmd.kind, cmd.rank, cmd.bankgroup, cmd.bank, cmd.row,
            cmd.channel)


class TestMetadataHonesty:
    @pytest.mark.parametrize("design", list(DesignPoint))
    def test_segments_are_shape_periodic(self, design):
        _, commands, _, period = _built(design, columns=16)
        assert period is not None and period.segments
        for seg in period.segments:
            assert (seg.end - seg.start) % seg.period == 0
            template = [
                _static_shape(c)
                for c in commands[seg.start : seg.start + seg.period]
            ]
            for s in range(1, seg.sweeps):
                lo = seg.start + s * seg.period
                sweep = [
                    _static_shape(c)
                    for c in commands[lo : lo + seg.period]
                ]
                assert sweep == template

    @pytest.mark.parametrize("design", list(DesignPoint))
    def test_wider_sample_adds_whole_sweeps(self, design):
        """A wider sample is the same stream with more body sweeps —
        the structural basis of profile-level extrapolation."""
        _, small_cmds, _, small = _built(design, columns=12)
        _, big_cmds, _, big = _built(design, columns=20)
        assert len(small.segments) == len(big.segments)
        for a, b in zip(small.segments, big.segments):
            assert a.period == b.period
            assert a.columns_per_sweep == b.columns_per_sweep
            extra = (20 - 12) // a.columns_per_sweep
            assert b.sweeps - a.sweeps == extra
            # Sweep bodies are shape-identical across widths.
            assert [
                _static_shape(c)
                for c in small_cmds[a.start : a.start + a.period]
            ] == [
                _static_shape(c)
                for c in big_cmds[b.start : b.start + b.period]
            ]

    def test_full_array_streams_carry_no_metadata(self):
        from repro.kernels.compiler import UpdateKernelCompiler

        optimizer = build_optimizer("momentum_sgd",
                                    OPTIMIZER_PARAMS["momentum_sgd"])
        kernel = UpdateKernelCompiler(GEOM).compile(
            optimizer, PRECISIONS["8/32"], n_params=4096
        )
        assert kernel.period is None


class TestSegmentRecorder:
    def test_uniform_suffix_detection(self):
        rec = SegmentRecorder(columns=8)
        rec.begin(1, 0)
        for pos in (0, 12, 20, 28, 36):  # first sweep longer (12)
            rec.sweep(pos)
        period = rec.finish(44)
        (seg,) = period.segments
        assert (seg.start, seg.end, seg.period) == (12, 44, 8)
        assert seg.sweeps == 4

    def test_short_segments_dropped(self):
        rec = SegmentRecorder(columns=4)
        rec.begin(1, 0)
        rec.sweep(0)
        rec.sweep(10)  # only one uniform sweep at the tail
        period = rec.finish(14)
        assert period.segments == ()

    def test_validation(self):
        with pytest.raises(ConfigError):
            PeriodSegment(start=0, end=10, period=3)
        with pytest.raises(ConfigError):
            StreamPeriod(
                segments=(
                    PeriodSegment(start=10, end=20, period=5),
                    PeriodSegment(start=15, end=25, period=5),
                ),
                columns=4,
            )


# ----------------------------------------------------------------------
# Perturbations: broken periodicity must fall back, exactly.
# ----------------------------------------------------------------------
def _splice(commands, position, extra: Command):
    """Insert ``extra`` at ``position`` with dependency indices of all
    later commands remapped — a legal stream whose advertised period
    metadata is now stale."""
    out = []
    for i, cmd in enumerate(commands):
        copy = _fresh_copy(cmd)
        if cmd.deps:
            copy.deps = tuple(
                d + 1 if d >= position else d for d in cmd.deps
            )
        out.append(copy)
    out.insert(position, extra)
    return out


class TestPerturbedStreams:
    def _pim_stream(self):
        return _built(DesignPoint.GRADPIM_DIRECT, columns=16)

    def test_spliced_command_breaks_lock_not_exactness(self):
        config, commands, dependents, period = self._pim_stream()
        seg = max(period.segments, key=lambda s: s.end - s.start)
        middle = seg.start + (seg.sweeps // 2) * seg.period
        extra = Command(CommandType.MRW, rank=0, scale_id=1,
                        tag="perturb")
        perturbed = _splice(commands, middle, extra)
        result = _run_both(config, perturbed, None, period)
        # The spliced segment must not have been extrapolated across
        # the perturbation point (shape check or fingerprints refuse).
        assert result.issue_cycles()[middle] >= 0

    def test_stripped_dependencies_stay_exact(self):
        config, commands, dependents, period = self._pim_stream()
        seg = period.segments[-1]
        target = seg.start + seg.period + 1
        stripped = [_fresh_copy(c) for c in commands]
        stripped[target].deps = ()
        _run_both(config, stripped, None, period)

    def test_wrong_period_metadata_stays_exact(self):
        config, commands, dependents, period = self._pim_stream()
        # Claim a period that is off by one command: shape checks and
        # state fingerprints must refuse to lock, falling back to
        # plain simulation.
        bad = StreamPeriod(
            segments=tuple(
                PeriodSegment(
                    start=s.start,
                    end=s.start
                    + ((s.end - s.start) // (s.period + 1))
                    * (s.period + 1),
                    period=s.period + 1,
                    columns_per_sweep=s.columns_per_sweep,
                )
                for s in period.segments
            ),
            columns=period.columns,
        )
        result = _run_both(config, commands, dependents, bad)
        assert not result.periodic.engaged or result.periodic.skipped

    @pytest.mark.parametrize("position", [1597, 1603, 1604])
    def test_splice_seen_by_replayed_lookahead_stays_exact(self, position):
        """Regression: a splice in a segment's last sweeps lies past the
        last command a replay issues, yet inside what the replayed
        sweeps' lookahead windows see. The shape check must run through
        the segment end and refuse that replay."""
        config, commands, _, period = _built(
            DesignPoint.GRADPIM_BUFFERED, "sgd", "8/32", columns=16
        )
        seg = period.segments[1]
        assert (seg.start, seg.end, seg.period) == (708, 1668, 64)
        extra = Command(CommandType.MRW, rank=0, scale_id=1,
                        tag="perturb")
        _run_both(config, _splice(commands, position, extra), None, period)


# ----------------------------------------------------------------------
# Hypothesis sweeps
# ----------------------------------------------------------------------
@st.composite
def _workload(draw):
    design = draw(st.sampled_from(list(DesignPoint)))
    optimizer = draw(
        st.sampled_from(["sgd", "momentum_sgd", "rmsprop"])
    )
    precision = draw(st.sampled_from(["8/32", "16/32", "32/32"]))
    window = draw(st.sampled_from([2, 8, 16, 32]))
    columns = draw(st.sampled_from([4, 8, 12, 16, 24]))
    return design, optimizer, precision, window, columns


class TestHypothesisEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(_workload())
    def test_periodic_matches_reference(self, workload):
        design, optimizer, precision, window, columns = workload
        config, commands, dependents, period = _built(
            design, optimizer, precision, columns
        )
        _run_both(config, commands, dependents, period, window=window)

    @settings(max_examples=10, deadline=None)
    @given(
        _workload(),
        st.integers(min_value=0, max_value=10_000),
    )
    @example((DesignPoint.GRADPIM_BUFFERED, "sgd", "8/32", 16, 16), 3942)
    @example((DesignPoint.GRADPIM_BUFFERED, "rmsprop", "32/32", 32, 24), 43)
    def test_perturbed_streams_match(self, workload, seed):
        design, optimizer, precision, window, columns = workload
        config, commands, dependents, period = _built(
            design, optimizer, precision, columns
        )
        position = seed % len(commands)
        extra = Command(
            CommandType.MRW, rank=seed % GEOM.ranks,
            scale_id=1 + seed % 3, tag="fuzz",
        )
        perturbed = _splice(commands, position, extra)
        _run_both(config, perturbed, None, period, window=window)


# ----------------------------------------------------------------------
# Numpy replay == the per-command replay oracle
# ----------------------------------------------------------------------
def _twin(tracker):
    """``tracker`` bound to a private copy of its loop state (the
    read-only latency and CSR lists stay shared)."""
    prep = tracker.prep
    twin = copy.copy(tracker)
    twin.prep = SimpleNamespace(
        lat=prep.lat, optr=prep.optr, oidx=prep.oidx,
        ndeps=list(prep.ndeps), nxt=list(prep.nxt), prv=list(prep.prv),
        heads=list(prep.heads), tails=list(prep.tails),
    )
    twin.issue = list(tracker.issue)
    twin.completion = list(tracker.completion)
    twin.dep_ready = list(tracker.dep_ready)
    twin.timers = [list(values) for values in tracker.timers]
    twin.act_windows = [
        deque(window, maxlen=window.maxlen)
        for window in tracker.act_windows
    ]
    cached, stale, *dirty = tracker.caches
    twin.caches = (
        list(cached), bytearray(stale),
        *([list(values) for values in lists] for lists in dirty),
    )
    return twin


def _walk(start, links):
    nodes = []
    while start >= 0:
        assert len(nodes) < len(links), "queue links form a cycle"
        nodes.append(start)
        start = links[start]
    return nodes


def _loop_state(tracker):
    """Everything a replay writes, each port's pending queue walked
    forward from its head and backward from its tail."""
    prep = tracker.prep
    return {
        "issue": list(tracker.issue),
        "completion": list(tracker.completion),
        "ndeps": list(prep.ndeps),
        "dep_ready": list(tracker.dep_ready),
        "heads": list(prep.heads),
        "tails": list(prep.tails),
        "queues": [
            (_walk(head, prep.nxt), _walk(tail, prep.prv)[::-1])
            for head, tail in zip(prep.heads, prep.tails)
        ],
        "timers": [list(values) for values in tracker.timers],
        "act_windows": [list(window) for window in tracker.act_windows],
        "frontier": tracker.frontier,
    }


def _replays(design, optimizer="momentum_sgd", precision="8/32",
             columns=16, window=16, chunk=SteadyTracker.REPLAY_CHUNK):
    """Schedule with replay (``chunk`` replayed commands per numpy
    chunk); at every replay, also run the oracle on a twin of the
    locked state. The schedule must still match the reference loop.
    Returns ``(numpy state, oracle state, out-edges past the replayed
    block)`` per replay."""
    config, commands, _, period = _built(
        design, optimizer, precision, columns
    )
    replays = []
    numpy_replay = SteadyTracker._replay

    def both(tracker, events, m, P, delta, anchor):
        images = [i + t * P for i, _, _ in events for t in range(1, m + 1)]
        assert all(tracker.issue[x] < 0 for x in images)
        twin = _twin(tracker)
        replay_reference(twin, events, m, P, delta, anchor)
        numpy_replay(tracker, events, m, P, delta, anchor)
        optr, oidx = tracker.prep.optr, tracker.prep.oidx
        last = max(images)
        past = sum(
            j > last for x in images for j in oidx[optr[x]:optr[x + 1]]
        )
        replays.append((_loop_state(tracker), _loop_state(twin), past))
        # No pending command keeps a cycle cached before the shift.
        cached = tracker.caches[0]
        assert all(
            cached[j] is None
            for j, cycle in enumerate(tracker.issue) if cycle < 0
        )

    with mock.patch.object(SteadyTracker, "_replay", both), \
            mock.patch.object(SteadyTracker, "REPLAY_CHUNK", chunk):
        _run_both(config, commands, None, period, window=window)
    return replays


class TestReplayOracle:
    @pytest.mark.parametrize(
        "design",
        [DesignPoint.GRADPIM_DIRECT, DesignPoint.GRADPIM_BUFFERED],
    )
    @pytest.mark.parametrize("chunk", [SteadyTracker.REPLAY_CHUNK, 1])
    def test_same_state_as_oracle(self, design, chunk):
        """One port (GradPIM-DR) and four buffered ports (GradPIM-BD),
        one chunk per replay and one super-period per chunk."""
        replays = _replays(design, chunk=chunk)
        assert replays
        for state, expected, _ in replays:
            assert state == expected

    def test_out_edges_past_the_replayed_block(self):
        """Images whose dependents lie beyond the last image: those
        dependents stay pending and take the replayed completions."""
        replays = _replays(DesignPoint.GRADPIM_BUFFERED, "sgd", "32/32")
        assert any(past for _, _, past in replays)
        for state, expected, _ in replays:
            assert state == expected

    @settings(max_examples=10, deadline=None)
    @given(_workload(), st.sampled_from([1, 64, 1 << 14]))
    def test_matches_oracle(self, workload, chunk):
        design, optimizer, precision, window, columns = workload
        for state, expected, _ in _replays(
            design, optimizer, precision, columns, window, chunk
        ):
            assert state == expected


def test_stale_floor_positive():
    for timing in PRESETS.values():
        assert stale_floor(timing) > 0
