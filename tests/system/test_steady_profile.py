"""Profile-level steady-state extrapolation == full simulation.

``UpdatePhaseModel(engine="periodic")`` promises *byte-identical*
``UpdateProfile`` objects: every integer statistic extended exactly and
every derived float computed from the same integers by the same
expressions. These tests pin that contract across the design x
optimizer x precision x sample-width grid, the fallback behaviour, and
the refresh-derate guard satellite; and they pin the default engine's
deterministic work counters on two full-row configs.
"""

import dataclasses
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from oracle import settings
from repro.dram.scheduler import CommandScheduler
from repro.dram.timing import DDR4_2133, HBM_LIKE, PRESETS
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
        """A sample no wider than the warm sample has nothing to
        extrapolate; the model must simulate it fully — and still
        match."""
        inc, per = _models(8)
        optimizer = build_optimizer("momentum_sgd", MOMENTUM)
        for design in DesignPoint:
            assert inc.profile(design, optimizer) == per.profile(
                design, optimizer
            )
        assert per.report.fast_path == 0

    def test_auto_warm_width(self):
        inc, per = _models(96)
        optimizer = build_optimizer("momentum_sgd", MOMENTUM)
        assert inc.profile(
            DesignPoint.GRADPIM_BUFFERED, optimizer
        ) == per.profile(DesignPoint.GRADPIM_BUFFERED, optimizer)

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
        optimizer_name=st.sampled_from(["sgd", "momentum_sgd", "nag"]),
        timing=st.sampled_from(["DDR4-2133", "DDR4-3200"]),
    )
    def test_identity_hypothesis(self, design, columns, window,
                                 precision, optimizer_name, timing):
        inc, per = _models(columns, window=window, timing=PRESETS[timing])
        optimizer = build_optimizer(
            optimizer_name, {"momentum_sgd": MOMENTUM}.get(optimizer_name)
        )
        assert inc.profile(
            design, optimizer, PRECISIONS[precision]
        ) == per.profile(design, optimizer, PRECISIONS[precision])


class TestOneWarmRun:
    @pytest.mark.parametrize(
        "design, columns",
        [
            (DesignPoint.GRADPIM_DIRECT, 32),
            (DesignPoint.GRADPIM_DIRECT, 128),
            (DesignPoint.GRADPIM_BUFFERED, 32),
            (DesignPoint.GRADPIM_BUFFERED, 128),
            (DesignPoint.AOS, 128),
        ],
        ids=lambda v: str(getattr(v, "value", v)),
    )
    def test_long_cycles_spend_one_warm_run(self, design, columns):
        """``sgd`` 32/32 streams that do not lock in their first warm
        sample (GradPIM-DR's machine cycle alone spans 21 sweeps): the
        periodic engine schedules that one warm run, then falls back
        to the full stream."""
        inc, per = _models(columns)
        optimizer = build_optimizer("sgd")
        precision = PRECISIONS["32/32"]
        assert inc.profile(design, optimizer, precision) == per.profile(
            design, optimizer, precision
        )
        assert per.report.warm_runs == 1

    def test_serve_cold_spec_work(self):
        """The profiles behind perfbench ``serve``'s cold spec
        (ResNet-18 under the periodic engine, ``momentum_sgd`` 8/32,
        DDR4-2133, 128 columns), over the six designs. Their
        deterministic work is pinned: warm runs (one of them a
        realigned retry) and the commands simulated and replayed."""
        _, per = _models(128, timing=PRESETS["DDR4-2133"])
        per.profiles(
            build_optimizer("momentum_sgd", MOMENTUM), PRECISIONS["8/32"]
        )
        report = per.report
        assert (
            report.warm_runs, report.fast_path, report.fallback,
            report.commands_simulated, report.commands_replayed,
        ) == (7, 6, 0, 16616, 13920)


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


    @pytest.mark.parametrize(
        "workload, counts",
        [
            (("momentum_sgd", "8/32", "DDR4-2133"),
             (20224, 119856, 24880, 46832)),
            (("sgd", "32/32", "DDR4-3200"),
             (8712, 71584, 10664, 23400)),
        ],
        ids=lambda v: "-".join(map(str, v)),
    )
    def test_full_row_work_counters(self, workload, counts):
        """Deterministic work of a full-row config over the six
        designs: commands simulated and replayed, commands whose
        per-command loop lists were built, and rows the validator's
        rule families ran over. More work fails this whatever the host
        noise; a change that does less updates the pins."""
        optimizer, precision, timing = workload
        model = UpdatePhaseModel(
            timing=PRESETS[timing], columns_per_stripe=128
        )
        model.profiles(build_optimizer(optimizer), PRECISIONS[precision])
        report = model.report
        assert (
            report.commands_simulated, report.commands_replayed,
            report.commands_prepared, report.commands_validated,
        ) == counts


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
