"""Baseline-stream tests: the no-PIM update's access structure."""

import pytest

from repro.dram.commands import CommandType
from repro.errors import CompileError
from repro.kernels.compiler import UpdateKernelCompiler
from repro.kernels.streams import BaselineStreamGenerator
from repro.optim import Adam, MomentumSGD, SGD
from repro.optim.precision import PRECISION_8_32, PRECISION_FULL

GEN = BaselineStreamGenerator()
MOMENTUM = MomentumSGD(eta=0.01, alpha=0.9, weight_decay=1e-4)


class TestThreePhaseBaseline:
    def test_momentum_mixed_bytes_per_param(self):
        """The paper-style baseline mirrors GradPIM's phases over the
        bus: dequantize (1+4 B), update (3x4 read + 2x4 write),
        quantize (4+1 B) = 30 B/param for 8/32 momentum."""
        stream = GEN.generate(
            MOMENTUM, PRECISION_8_32, columns_per_stripe=8
        )
        params = stream.n_hp_columns * 16
        assert stream.offchip_bytes(GEN.geometry) / params == (
            pytest.approx(30.0, rel=0.01)
        )

    def test_full_precision_bytes_per_param(self):
        """Full precision: read g/theta/v, write theta/v = 20 B."""
        stream = GEN.generate(
            MOMENTUM, PRECISION_FULL, columns_per_stripe=8
        )
        params = stream.n_hp_columns * 16
        assert stream.offchip_bytes(GEN.geometry) / params == (
            pytest.approx(20.0, rel=0.01)
        )

    def test_fused_baseline_bytes_per_param(self):
        """The idealized fused baseline: 18 B/param (ablation)."""
        stream = GEN.generate(
            MOMENTUM, PRECISION_8_32, columns_per_stripe=8, fused=True
        )
        params = stream.n_hp_columns * 16
        assert stream.offchip_bytes(GEN.geometry) / params == (
            pytest.approx(18.0, rel=0.01)
        )

    def test_plain_sgd_is_leaner(self):
        sgd = GEN.generate(
            SGD(eta=0.01), PRECISION_8_32, columns_per_stripe=8
        )
        mom = GEN.generate(
            MOMENTUM, PRECISION_8_32, columns_per_stripe=8
        )
        assert sgd.offchip_bytes(GEN.geometry) < mom.offchip_bytes(
            GEN.geometry
        )

    def test_adam_has_more_state_traffic(self):
        adam = GEN.generate(
            Adam(eta=0.001), PRECISION_8_32, columns_per_stripe=8
        )
        mom = GEN.generate(
            MOMENTUM, PRECISION_8_32, columns_per_stripe=8
        )
        assert adam.offchip_bytes(GEN.geometry) > mom.offchip_bytes(
            GEN.geometry
        )


class TestStreamStructure:
    def test_only_ddr_commands(self):
        stream = GEN.generate(
            MOMENTUM, PRECISION_8_32, columns_per_stripe=4
        )
        allowed = {
            CommandType.ACT, CommandType.PRE, CommandType.RD,
            CommandType.WR,
        }
        assert {c.kind for c in stream.commands} <= allowed

    def test_reads_and_writes_counted(self):
        stream = GEN.generate(
            MOMENTUM, PRECISION_8_32, columns_per_stripe=4
        )
        rd = sum(
            1 for c in stream.commands if c.kind is CommandType.RD
        )
        wr = sum(
            1 for c in stream.commands if c.kind is CommandType.WR
        )
        assert (rd, wr) == (stream.reads, stream.writes)

    def test_writes_depend_on_reads(self):
        stream = GEN.generate(
            MOMENTUM, PRECISION_8_32, columns_per_stripe=4
        )
        for cmd in stream.commands:
            if cmd.kind is CommandType.WR and "theta" in (cmd.tag or ""):
                assert cmd.deps  # the NPU computed from fetched data

    def test_deps_point_backwards(self):
        stream = GEN.generate(
            MOMENTUM, PRECISION_8_32, columns_per_stripe=4
        )
        for i, cmd in enumerate(stream.commands):
            assert all(0 <= d < i for d in cmd.deps)

    def test_full_precision_has_no_quantized_arrays(self):
        stream = GEN.generate(
            MOMENTUM, PRECISION_FULL, columns_per_stripe=4
        )
        for cmd in stream.commands:
            assert "q_" not in (cmd.tag or "")

    def test_requires_exactly_one_size(self):
        with pytest.raises(CompileError):
            GEN.generate(MOMENTUM, PRECISION_8_32)
        with pytest.raises(CompileError):
            GEN.generate(
                MOMENTUM, PRECISION_8_32, n_params=5,
                columns_per_stripe=5,
            )

    @pytest.mark.parametrize(
        "generate",
        [UpdateKernelCompiler().compile, GEN.generate],
        ids=["compiler", "baseline"],
    )
    @pytest.mark.parametrize(
        "size",
        [
            {"columns_per_stripe": 0},
            {"columns_per_stripe": -3},
            {"n_params": 0},
            {"n_params": -5},
        ],
        ids=["cps=0", "cps=-3", "n_params=0", "n_params=-5"],
    )
    def test_empty_plans_rejected_by_every_generator(self, generate, size):
        # One column plan serves both generators, so a size that would
        # plan no column is a CompileError everywhere, never an empty
        # stream.
        with pytest.raises(CompileError):
            generate(MOMENTUM, PRECISION_8_32, **size)

    def test_adam_working_set_shares_a_bank(self):
        """Adam's baseline has 6 arrays > 4 banks: the layout falls
        back to sharing between the quantized copies."""
        stream = GEN.generate(
            Adam(eta=0.001), PRECISION_8_32, columns_per_stripe=4
        )
        banks = {
            name: stream.layout.placement(name).bank
            for name in stream.layout.arrays()
        }
        assert len(banks) == 6
        assert len(set(banks.values())) == 4
