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
  columns_per_stripe).
"""

import pytest
from hypothesis import example, given, strategies as st

from oracle import ReferenceScheduler, _fresh_copy, settings
from repro.dram.commands import Command, CommandType
from repro.dram.scheduler import CommandScheduler
from repro.dram.period import PeriodSegment, SegmentRecorder, StreamPeriod
from repro.dram.steady import stale_floor
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


def test_stale_floor_positive():
    for timing in PRESETS.values():
        assert stale_floor(timing) > 0
