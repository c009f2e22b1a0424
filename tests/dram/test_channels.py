"""Multi-channel scheduling: partitioning, aggregation, identity.

The contract under test: a multi-channel geometry gives every channel a
full private replica of the DRAM state machines, so

* partitions schedule exactly as the same stream would on a
  single-channel device (per-channel issue cycles are unchanged);
* statistics aggregate across channels with elapsed time set by the
  slowest channel;
* ``channels=1`` bypasses the partitioning entirely and stays
  bit-identical to the single-channel scheduler;
* dependencies may not cross channels.

Plus the regression for ``DataBusState.earliest`` returning negative
issue cycles (clamped to 0 so no earliest-cycle cache ever stores a
negative value).
"""

import pytest
from hypothesis import given, settings, strategies as st

from oracle import validate_trace_thorough
from repro.dram.channel import DataBusState
from repro.dram.commands import Command, CommandType
from repro.dram.geometry import DeviceGeometry
from repro.dram.scheduler import (
    CommandScheduler,
    IssueModel,
    replicate_across_channels,
    split_channels,
)
from repro.dram.timing import DDR4_2133, HBM_LIKE
from repro.dram.validator import validate_trace
from repro.errors import SimulationError, TimingViolation
from repro.optim.precision import PRECISIONS
from repro.optim.registry import build_optimizer
from repro.system.design import DESIGNS, DesignPoint
from repro.system.update_model import UpdatePhaseModel

T = DDR4_2133
GEOM1 = DeviceGeometry()


def _stream(design=DesignPoint.GRADPIM_BUFFERED, columns=4):
    model = UpdatePhaseModel(columns_per_stripe=columns)
    optimizer = build_optimizer(
        "momentum_sgd", {"eta": 0.01, "alpha": 0.9, "weight_decay": 1e-4}
    )
    config = DESIGNS[design]
    commands, _, _, _period, _art = model._build_stream(
        config, optimizer, PRECISIONS["8/32"]
    )
    return config, commands


# ----------------------------------------------------------------------
# DataBusState.earliest regression
# ----------------------------------------------------------------------
class TestDataBusEarliestClamp:
    def test_fresh_bus_never_reports_negative_issue_cycle(self):
        """Seed bug: ``busy_until + gap - data_offset`` went below zero
        on a fresh bus (busy_until=0, tCL=16), leaking negative
        earliest cycles into whatever cached them."""
        bus = DataBusState(T)
        rd = Command(CommandType.RD, rank=0, bankgroup=0, bank=0)
        assert bus.earliest(rd) == 0

    def test_partially_busy_bus_clamps_to_zero(self):
        bus = DataBusState(T)
        wr = Command(CommandType.WR, rank=1)
        bus.apply(wr, 0)  # busy until tCWL + tBURST = 18
        rd = Command(CommandType.RD, rank=0)
        # 18 + gap(2, turnaround; 2, rank switch) - tCL(16) = 4 >= 0,
        # but shrink tCL headroom via a later reader to hit the clamp.
        probe = DataBusState(T)
        assert probe.earliest(rd) == 0  # fresh: 0 + 0 - 16 clamps to 0

    @given(
        busy=st.integers(min_value=0, max_value=40),
        kind=st.sampled_from([CommandType.RD, CommandType.WR]),
        last=st.sampled_from(
            [None, CommandType.RD, CommandType.WR]
        ),
        last_rank=st.integers(min_value=-1, max_value=3),
        rank=st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=200)
    def test_earliest_is_never_negative(
        self, busy, kind, last, last_rank, rank
    ):
        bus = DataBusState(T)
        bus.busy_until = busy
        bus.last_kind = last
        bus.last_rank = last_rank
        cmd = Command(kind, rank=rank)
        assert bus.earliest(cmd) >= 0


# ----------------------------------------------------------------------
# Stream partitioning
# ----------------------------------------------------------------------
class TestSplitChannels:
    def test_partitions_preserve_stream_order_and_deps(self):
        _, commands = _stream(columns=2)
        replicated = replicate_across_channels(commands, 2)
        parts = split_channels(replicated, 2)
        assert [p.channel for p in parts] == [0, 1]
        for part in parts:
            assert len(part.commands) == len(commands)
            # Local deps match the original single-channel stream.
            assert [c.deps for c in part.commands] == [
                c.deps for c in commands
            ]

    def test_empty_channels_get_empty_partitions(self):
        cmds = [Command(CommandType.ACT, channel=2, row=1)]
        parts = split_channels(cmds, 4)
        assert [len(p.commands) for p in parts] == [0, 0, 1, 0]

    def test_cross_channel_dependency_rejected(self):
        cmds = [
            Command(CommandType.ACT, channel=0, row=1),
            Command(CommandType.ACT, channel=1, row=1, deps=(0,)),
        ]
        with pytest.raises(SimulationError, match="cross"):
            split_channels(cmds, 2)

    def test_out_of_range_channel_rejected(self):
        cmds = [Command(CommandType.ACT, channel=5, row=1)]
        with pytest.raises(SimulationError, match="channel"):
            split_channels(cmds, 2)


# ----------------------------------------------------------------------
# Scheduling semantics
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", ["columnar", "periodic"])
class TestMultiChannelScheduling:
    def test_per_channel_schedule_matches_single_channel(self, engine):
        config, commands = _stream()
        channels = 4
        geom = DeviceGeometry(channels=channels)
        im = config.issue_model(GEOM1)
        single = CommandScheduler(
            T, GEOM1, im, engine=engine,
            data_bus_scope=config.data_bus_scope,
        ).run(commands)
        replicated = replicate_across_channels(commands, channels)
        multi = CommandScheduler(
            T, geom, im, engine=engine,
            data_bus_scope=config.data_bus_scope,
        ).run(replicated)
        n = len(commands)
        for c in range(channels):
            assert [
                x.issue_cycle for x in multi.commands[c * n:(c + 1) * n]
            ] == single.issue_cycles()

    def test_stats_aggregate_across_channels(self, engine):
        config, commands = _stream()
        channels = 4
        geom = DeviceGeometry(channels=channels)
        im = config.issue_model(GEOM1)
        single = CommandScheduler(
            T, GEOM1, im, engine=engine,
            data_bus_scope=config.data_bus_scope,
        ).run(commands)
        replicated = replicate_across_channels(commands, channels)
        multi = CommandScheduler(
            T, geom, im, engine=engine,
            data_bus_scope=config.data_bus_scope,
        ).run(replicated)
        s1, sm = single.stats, multi.stats
        assert sm.issued_commands == channels * s1.issued_commands
        assert sm.counts == {
            k: channels * v for k, v in s1.counts.items()
        }
        assert sm.total_cycles == s1.total_cycles  # slowest channel
        assert sm.channel_cycles == [s1.total_cycles] * channels
        assert sm.port_issued == [
            channels * n for n in s1.port_issued
        ]

    def test_multi_channel_trace_validates(self, engine):
        config, commands = _stream(columns=2)
        geom = DeviceGeometry(channels=2)
        im = config.issue_model(GEOM1)
        replicated = replicate_across_channels(commands, 2)
        result = CommandScheduler(
            T, geom, im, engine=engine,
            data_bus_scope=config.data_bus_scope,
        ).run(replicated)
        for validate in (validate_trace, validate_trace_thorough):
            validate(
                result.commands, T, geom, im.port_of_rank,
                data_bus_scope=config.data_bus_scope,
            )

    def test_channel_out_of_range_rejected_by_run(self, engine):
        geom = DeviceGeometry(channels=2)
        sched = CommandScheduler(T, geom, engine=engine)
        with pytest.raises(SimulationError, match="channel"):
            sched.run([Command(CommandType.ACT, channel=2, row=1)])

    def test_heterogeneous_channels_time_by_slowest(self, engine):
        """Channels with different amounts of work finish at different
        cycles; the device-level elapsed time is the slowest one."""
        def acts(channel, rows):
            out = []
            for r in range(rows):
                out.append(
                    Command(
                        CommandType.ACT, channel=channel, bank=0,
                        row=r, deps=(),
                    )
                )
                out.append(
                    Command(
                        CommandType.PRE, channel=channel, bank=0,
                        row=r, deps=(len(out) - 1,),
                    )
                )
            return out

        light = acts(0, 1)
        heavy = acts(1, 6)
        # Interleave, fixing deps to global indices per channel.
        cmds = []
        for c, block in ((0, light), (1, heavy)):
            offset = len(cmds)
            for cmd in block:
                cmds.append(
                    Command(
                        cmd.kind, channel=c, bank=0, row=cmd.row,
                        deps=tuple(d + offset for d in cmd.deps),
                    )
                )
        geom = DeviceGeometry(channels=2)
        result = CommandScheduler(T, geom, engine=engine).run(cmds)
        stats = result.stats
        assert len(stats.channel_cycles) == 2
        assert stats.channel_cycles[1] > stats.channel_cycles[0]
        assert stats.total_cycles == stats.channel_cycles[1]


class TestChannelsOneIdentity:
    """An explicit ``channels=1`` geometry schedules exactly like the
    default one."""

    @pytest.mark.parametrize("design", list(DesignPoint))
    def test_explicit_channels_one_schedule_identical(self, design):
        config, commands = _stream(design)
        im = config.issue_model(GEOM1)
        kwargs = dict(
            per_bank_pim=config.per_bank_pim,
            data_bus_scope=config.data_bus_scope,
        )
        default = CommandScheduler(T, GEOM1, im, **kwargs).run(commands)
        explicit = CommandScheduler(
            T, DeviceGeometry(channels=1), im, **kwargs
        ).run(commands)
        assert default.issue_cycles() == explicit.issue_cycles()
        assert default.stats == explicit.stats
        assert explicit.stats.channel_cycles == []

    def test_profile_identical_across_channel_spellings(self):
        optimizer = build_optimizer(
            "momentum_sgd",
            {"eta": 0.01, "alpha": 0.9, "weight_decay": 1e-4},
        )
        a = UpdatePhaseModel(columns_per_stripe=8)
        b = UpdatePhaseModel(
            columns_per_stripe=8,
            geometry=DeviceGeometry(channels=1),
        )
        for design in DesignPoint:
            assert a.profile(design, optimizer) == b.profile(
                design, optimizer
            )


class TestHBMSubstrate:
    def test_hbm2_profile_uses_real_per_channel_buses(self):
        """The 8-channel HBM2 substrate beats its own single-channel
        ablation by the channel count — impossible under the old
        aggregated tBURST=1 fake, which had no channel dimension at
        all."""
        optimizer = build_optimizer("sgd", {"eta": 0.01})
        one = UpdatePhaseModel(
            timing=HBM_LIKE,
            geometry=DeviceGeometry(channels=1),
            columns_per_stripe=4,
        ).profile(DesignPoint.GRADPIM_BUFFERED, optimizer)
        eight = UpdatePhaseModel(
            timing=HBM_LIKE,
            geometry=DeviceGeometry(channels=8),
            columns_per_stripe=4,
        ).profile(DesignPoint.GRADPIM_BUFFERED, optimizer)
        assert eight.seconds_per_param == pytest.approx(
            one.seconds_per_param / 8
        )
        assert eight.internal_bandwidth == pytest.approx(
            8 * one.internal_bandwidth
        )

    def test_design_pinned_channels_override_geometry(self):
        """A DesignConfig channel pin beats the geometry: the
        single-channel ablation of a multi-channel device."""
        import dataclasses

        optimizer = build_optimizer("sgd", {"eta": 0.01})
        geom8 = DeviceGeometry(channels=8)
        model = UpdatePhaseModel(
            timing=HBM_LIKE, geometry=geom8, columns_per_stripe=4
        )
        pinned = dataclasses.replace(
            DESIGNS[DesignPoint.GRADPIM_BUFFERED], channels=1
        )
        assert pinned.effective_channels(geom8) == 1
        assert (
            DESIGNS[DesignPoint.GRADPIM_BUFFERED].effective_channels(
                geom8
            )
            == 8
        )


class TestValidatorChannels:
    def test_rejects_out_of_range_channel(self):
        geom = DeviceGeometry(channels=2)
        cmd = Command(CommandType.ACT, channel=3, row=1)
        cmd.issue_cycle = 0
        with pytest.raises(TimingViolation, match="channel"):
            validate_trace([cmd], T, geom, (0,) * geom.ranks)

    def test_same_cycle_same_port_ok_across_channels(self):
        """Two channels issuing on 'port 0' in the same cycle is legal:
        every channel owns its own command bus."""
        geom = DeviceGeometry(channels=2)
        a = Command(CommandType.ACT, channel=0, row=1)
        b = Command(CommandType.ACT, channel=1, row=1)
        a.issue_cycle = 0
        b.issue_cycle = 0
        for validate in (validate_trace, validate_trace_thorough):
            validate([a, b], T, geom, (0,) * geom.ranks)

    def test_same_cycle_same_port_within_channel_rejected(self):
        geom = DeviceGeometry(channels=2)
        a = Command(CommandType.ACT, channel=1, bank=0, row=1)
        b = Command(CommandType.ACT, channel=1, bank=1, row=1)
        a.issue_cycle = 0
        b.issue_cycle = 0
        with pytest.raises(TimingViolation, match="command-bus"):
            validate_trace([a, b], T, geom, (0,) * geom.ranks)
