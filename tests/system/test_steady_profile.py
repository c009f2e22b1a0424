"""Profile-level steady-state extrapolation == full simulation.

``UpdatePhaseModel(engine="periodic")`` promises *byte-identical*
``UpdateProfile`` objects: every integer statistic extended exactly and
every derived float computed from the same integers by the same
expressions. These tests pin that contract across the design x
optimizer x precision x sample-width grid, the fallback behaviour, and
the refresh-derate guard satellite.
"""

import dataclasses
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.dram.scheduler import CommandScheduler
from repro.dram.timing import DDR4_2133, HBM_LIKE
from repro.errors import ConfigError
from repro.optim.precision import PRECISIONS
from repro.optim.registry import build_optimizer
from repro.system.design import DesignPoint
from repro.system.update_model import UpdatePhaseModel

MOMENTUM = {"eta": 0.01, "alpha": 0.9, "weight_decay": 1e-4}


def _models(columns, **kwargs):
    inc = UpdatePhaseModel(
        columns_per_stripe=columns, engine="columnar", **kwargs
    )
    per = UpdatePhaseModel(
        columns_per_stripe=columns, engine="periodic", **kwargs
    )
    return inc, per


class TestProfileIdentity:
    @pytest.mark.parametrize("design", list(DesignPoint))
    @pytest.mark.parametrize("columns", [32, 64])
    def test_momentum_identity_per_design(self, design, columns):
        inc, per = _models(columns)
        optimizer = build_optimizer("momentum_sgd", MOMENTUM)
        assert inc.profile(design, optimizer) == per.profile(
            design, optimizer
        )

    @pytest.mark.parametrize(
        "optimizer_name", ["sgd", "momentum_sgd", "adagrad"]
    )
    @pytest.mark.parametrize("precision", ["8/32", "16/32", "32/32"])
    def test_identity_per_workload(self, optimizer_name, precision):
        inc, per = _models(48, extended_alu=True)
        optimizer = build_optimizer(optimizer_name)
        for design in (
            DesignPoint.GRADPIM_BUFFERED,
            DesignPoint.AOS,
        ):
            assert inc.profile(
                design, optimizer, PRECISIONS[precision]
            ) == per.profile(design, optimizer, PRECISIONS[precision])

    def test_fast_path_engages_at_wide_samples(self):
        _, per = _models(128)
        optimizer = build_optimizer("momentum_sgd", MOMENTUM)
        per.profile(DesignPoint.GRADPIM_BUFFERED, optimizer)
        assert per.report.fast_path == 1
        assert per.report.fallback == 0

    def test_narrow_samples_fall_back(self):
        """A sample narrower than any warm rung has nothing to
        extrapolate; the model must simulate it fully — and still
        match."""
        inc, per = _models(8)
        optimizer = build_optimizer("momentum_sgd", MOMENTUM)
        for design in DesignPoint:
            assert inc.profile(design, optimizer) == per.profile(
                design, optimizer
            )
        assert per.report.fast_path == 0

    def test_pinned_warm_width(self):
        inc, per_auto = _models(96)
        per_pinned = UpdatePhaseModel(
            columns_per_stripe=96,
            engine="periodic",
            periodic_warm_columns=36,
        )
        optimizer = build_optimizer("momentum_sgd", MOMENTUM)
        expected = inc.profile(DesignPoint.GRADPIM_BUFFERED, optimizer)
        assert expected == per_auto.profile(
            DesignPoint.GRADPIM_BUFFERED, optimizer
        )
        assert expected == per_pinned.profile(
            DesignPoint.GRADPIM_BUFFERED, optimizer
        )

    def test_multi_channel_serial_path_identity(self):
        geometry = dataclasses.replace(
            UpdatePhaseModel().geometry, channels=4
        )
        inc, per = _models(64, geometry=geometry, timing=HBM_LIKE)
        optimizer = build_optimizer("momentum_sgd", MOMENTUM)
        for design in (
            DesignPoint.BASELINE, DesignPoint.GRADPIM_BUFFERED,
        ):
            assert inc.profile(design, optimizer) == per.profile(
                design, optimizer
            )

    @pytest.mark.parametrize(
        "design", [DesignPoint.AOS, DesignPoint.AOS_PB]
    )
    @pytest.mark.parametrize("columns", [30, 126])
    def test_aos_non_ratio_multiple_widths(self, design, columns):
        """Regression: AoS kernels build exactly the requested width
        (no packing rounding) — extrapolation must profile the same
        kernel full simulation runs, not a ratio-rounded one."""
        inc, per = _models(columns)
        optimizer = build_optimizer("momentum_sgd", MOMENTUM)
        assert inc.profile(design, optimizer) == per.profile(
            design, optimizer
        )

    @settings(max_examples=8, deadline=None)
    @given(
        design=st.sampled_from(list(DesignPoint)),
        columns=st.sampled_from([16, 28, 30, 44, 60, 96, 126, 128]),
        window=st.sampled_from([8, 16]),
        precision=st.sampled_from(["8/32", "32/32"]),
    )
    def test_identity_hypothesis(self, design, columns, window,
                                 precision):
        inc, per = _models(columns, window=window)
        optimizer = build_optimizer("momentum_sgd", MOMENTUM)
        assert inc.profile(
            design, optimizer, PRECISIONS[precision]
        ) == per.profile(design, optimizer, PRECISIONS[precision])


class TestDefaultEngineReplay:
    def test_full_stream_profiles_replay_exactly(self):
        """The default engine schedules every full stream with replay:
        the flight recorder counts what was replayed, and every
        design's statistics equal the plain loop's."""
        model = UpdatePhaseModel(columns_per_stripe=128)
        runs = []
        plain_run = CommandScheduler.run

        def run(scheduler, stream, period=None):
            result = plain_run(scheduler, stream, period=period)
            runs.append((scheduler, stream, period, result))
            return result

        with mock.patch.object(CommandScheduler, "run", run):
            model.profiles(build_optimizer("momentum_sgd", MOMENTUM))
        report = model.report
        assert len(runs) == len(DesignPoint)
        assert report.commands_replayed > 0
        assert report.commands_replayed + report.commands_simulated == sum(
            stream.n for _, stream, _, _ in runs
        )
        assert report.locks_confirmed > 0
        for scheduler, stream, period, result in runs:
            assert period is not None
            assert result.stats == plain_run(scheduler, stream).stats


class TestRefreshDerateGuard:
    def test_degenerate_refresh_raises(self):
        bad = dataclasses.replace(
            DDR4_2133, name="degenerate", tRFC=DDR4_2133.tREFI
        )
        model = UpdatePhaseModel(timing=bad, columns_per_stripe=8)
        with pytest.raises(ConfigError, match="tREFI"):
            _ = model.refresh_derate
        optimizer = build_optimizer("momentum_sgd", MOMENTUM)
        with pytest.raises(ConfigError, match="tREFI"):
            model.profile(DesignPoint.GRADPIM_BUFFERED, optimizer)

    def test_negative_derate_also_rejected(self):
        bad = dataclasses.replace(
            DDR4_2133, name="degenerate2", tRFC=DDR4_2133.tREFI + 100
        )
        model = UpdatePhaseModel(timing=bad)
        with pytest.raises(ConfigError, match="degenerate refresh"):
            _ = model.refresh_derate

    def test_healthy_timing_unchanged(self):
        model = UpdatePhaseModel()
        t = DDR4_2133
        assert model.refresh_derate == t.tREFI / (t.tREFI - t.tRFC)
