"""Columnar and periodic engines == the reference greedy loop.

Both scheduler engines promise *exact* equivalence with the reference
greedy loop kept in ``tests/oracle.py``: identical issue cycles and
identical :class:`TraceStats` on every stream, and the identical
``SimulationError`` on every stream that deadlocks or breaks a
structural precondition. These tests enforce the contract four ways:

* golden checks over every design point's real update stream (with its
  period metadata, so the periodic engine really locks);
* Hypothesis property tests sweeping windows, issue models, data-bus
  scopes, per-bank PIM, channel counts and all four update-kind stream
  generators;
* Hypothesis property tests over random synthetic (but structurally
  legal) command streams with random backward dependencies, single-
  and multi-channel — window-limited deadlocks included;
* a hand-built deadlock.

They also pin the ``run()`` API contract the engines share: caller
commands are never mutated, re-scheduling is deterministic, and a
supplied dependents adjacency changes nothing.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from oracle import ReferenceScheduler, oracle_profile
from repro.dram.commands import Command, CommandType
from repro.dram.scheduler import (
    CommandScheduler,
    IssueModel,
    _fresh_copy,
    replicate_across_channels,
)
from repro.dram.steady import build_dependents
from repro.dram.timing import DDR4_2133, PRESETS
from repro.errors import ConfigError, SimulationError
from repro.optim.precision import PRECISIONS
from repro.optim.registry import build_optimizer
from repro.system.design import DESIGNS, DesignPoint
from repro.system.update_model import UpdatePhaseModel

T = DDR4_2133
GEOM = UpdatePhaseModel().geometry  # the paper's default geometry
ENGINES = ("columnar", "periodic")


def _assert_equivalent(commands, issue_model=None, period=None,
                       timing=T, geometry=GEOM, **kwargs):
    """Both engines reproduce the oracle's schedule — or its error.

    A window-limited scheduler can legitimately deadlock on streams
    whose cross-port dependencies point beyond every port's lookahead;
    equivalence then means every engine refuses identically.
    """
    oracle = ReferenceScheduler(timing, geometry, issue_model, **kwargs)
    engines = {
        engine: CommandScheduler(
            timing, geometry, issue_model, engine=engine, **kwargs
        )
        for engine in ENGINES
    }
    try:
        ref = oracle.run(commands)
    except SimulationError as exc:
        for engine, sched in engines.items():
            with pytest.raises(SimulationError) as caught:
                sched.run(commands, period=period)
            assert str(caught.value) == str(exc), engine
        return None
    for engine, sched in engines.items():
        got = sched.run(commands, period=period)
        assert got.issue_cycles() == ref.issue_cycles(), engine
        assert got.stats == ref.stats, engine
    return ref


def _optimizer():
    return build_optimizer(
        "momentum_sgd", {"eta": 0.01, "alpha": 0.9, "weight_decay": 1e-4}
    )


def _design_stream(design, model=None):
    model = model or UpdatePhaseModel(columns_per_stripe=8)
    config = DESIGNS[design]
    commands, _, _, period, _art = model._build_stream(
        config, _optimizer(), PRECISIONS["8/32"]
    )
    return config, commands, period


class TestGoldenDesignPoints:
    @pytest.mark.parametrize("design", list(DesignPoint))
    def test_identical_schedule_per_design(self, design):
        config, commands, period = _design_stream(design)
        _assert_equivalent(
            commands,
            issue_model=config.issue_model(GEOM),
            period=period,
            per_bank_pim=config.per_bank_pim,
            data_bus_scope=config.data_bus_scope,
        )

    def test_profile_matches_oracle_schedule(self):
        """Every engine spelling profiles exactly what the oracle's
        schedule of the same stream implies."""
        optimizer = _optimizer()
        models = {
            engine: UpdatePhaseModel(columns_per_stripe=8, engine=engine)
            for engine in ("incremental", "reference", "columnar",
                           "periodic")
        }
        for design in DesignPoint:
            expected = oracle_profile(models["columnar"], design, optimizer)
            for engine, model in models.items():
                assert model.profile(design, optimizer) == expected, (
                    design, engine,
                )


class TestRunContract:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_caller_commands_never_mutated(self, engine):
        config, commands, period = _design_stream(
            DesignPoint.GRADPIM_BUFFERED
        )
        sched = CommandScheduler(
            T, GEOM, config.issue_model(GEOM), engine=engine,
            data_bus_scope=config.data_bus_scope,
        )
        result = sched.run(commands, period=period)
        assert all(c.issue_cycle == -1 for c in commands)
        assert all(c.issue_cycle >= 0 for c in result.commands)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_rescheduling_same_stream_is_identical(self, engine):
        # Regression: the seed scheduler annotated the caller's Command
        # objects in place, so a second run of the same stream saw
        # stale issue cycles as "already issued" dependencies.
        config, commands, period = _design_stream(
            DesignPoint.GRADPIM_DIRECT
        )
        sched = CommandScheduler(
            T, GEOM, config.issue_model(GEOM), engine=engine,
            data_bus_scope=config.data_bus_scope,
        )
        first = sched.run(commands, period=period)
        second = sched.run(commands, period=period)
        assert first.issue_cycles() == second.issue_cycles()
        assert first.stats == second.stats

    def test_supplied_dependents_change_nothing(self):
        config, commands, period = _design_stream(
            DesignPoint.GRADPIM_DIRECT
        )
        periodic = CommandScheduler(
            T, GEOM, config.issue_model(GEOM), engine="periodic",
            data_bus_scope=config.data_bus_scope,
        )
        with_deps = periodic.run(
            commands, dependents=build_dependents(commands), period=period
        )
        without = periodic.run(commands, period=period)
        assert with_deps.issue_cycles() == without.issue_cycles()

    def test_build_dependents_matches_deps(self):
        model = UpdatePhaseModel(columns_per_stripe=8)
        commands, _, _, _, art = model._build_stream(
            DESIGNS[DesignPoint.AOS], _optimizer(), PRECISIONS["8/32"]
        )
        rebuilt = build_dependents(commands)
        assert rebuilt == art.dependents
        for i, cmd in enumerate(commands):
            for d in cmd.deps:
                assert i in rebuilt[d]

    def test_fresh_copy_covers_every_field(self):
        cmd = Command(
            CommandType.SCALED_READ, rank=1, bankgroup=2, bank=3, row=7,
            col=9, scale_id=1, dst_reg=1, src_reg=0, position=2,
            deps=(1, 4), tag="x", scaler=object(),
        )
        cmd.issue_cycle = 123
        copy = _fresh_copy(cmd)
        assert copy.issue_cycle == -1
        for field in dataclasses.fields(Command):
            if field.name == "issue_cycle":
                continue
            assert getattr(copy, field.name) == getattr(cmd, field.name)

    @pytest.mark.parametrize(
        "engine", ["warp-speed", "incremental", "reference"]
    )
    def test_unknown_engine_rejected(self, engine):
        """The scheduler knows two engines; the older spellings live
        only on the job surface."""
        with pytest.raises(ConfigError):
            CommandScheduler(T, GEOM, engine=engine)


class TestDeadlock:
    def test_structurally_blocked_stream_deadlocks_identically(self):
        """A column access to a row nothing ever opens can never
        issue: every engine names the same deadlock."""
        commands = [
            Command(CommandType.ACT, row=0),
            Command(CommandType.SCALED_READ, row=1, deps=(0,)),
        ]
        with pytest.raises(SimulationError, match="deadlock"):
            ReferenceScheduler(T, GEOM).run(commands)
        assert _assert_equivalent(commands) is None


# ----------------------------------------------------------------------
# Property tests: generator streams under random configurations
# ----------------------------------------------------------------------
_UPDATE_KINDS = st.sampled_from(
    [
        DesignPoint.BASELINE,  # baseline-stream
        DesignPoint.TENSORDIMM,  # nmp-stream
        DesignPoint.GRADPIM_BUFFERED,  # pim-kernel
        DesignPoint.AOS_PB,  # aos-kernel, per-bank PIM
    ]
)


class TestGeneratorStreamProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        design=_UPDATE_KINDS,
        window=st.integers(min_value=1, max_value=40),
        buffered=st.booleans(),
        scope=st.sampled_from(["channel", "dimm", "rank"]),
        timing_name=st.sampled_from(sorted(PRESETS)),
        optimizer_name=st.sampled_from(["sgd", "momentum_sgd"]),
        channels=st.sampled_from([1, 2, 4]),
    )
    def test_equivalent_under_random_configuration(
        self, design, window, buffered, scope, timing_name,
        optimizer_name, channels,
    ):
        optimizer = build_optimizer(optimizer_name, {"eta": 0.01})
        config = DESIGNS[design]
        timing = PRESETS[timing_name]
        model = UpdatePhaseModel(timing=timing, columns_per_stripe=4)
        commands, _, _, period, _art = model._build_stream(
            config, optimizer, PRECISIONS["8/32"]
        )
        issue_model = (
            IssueModel.buffered(GEOM.ranks)
            if buffered
            else IssueModel.direct(GEOM.ranks)
        )
        geometry = GEOM
        if channels > 1:
            geometry = dataclasses.replace(GEOM, channels=channels)
            commands = replicate_across_channels(commands, channels)
        _assert_equivalent(
            commands,
            issue_model=issue_model,
            period=period,
            timing=timing,
            geometry=geometry,
            per_bank_pim=config.per_bank_pim,
            window=window,
            data_bus_scope=scope,
        )


# ----------------------------------------------------------------------
# Property tests: synthetic random legal streams
# ----------------------------------------------------------------------
@st.composite
def synthetic_streams(draw):
    """Structurally legal random streams with random backward deps.

    Per bank: ACT -> column accesses -> PRE bracketing, interleaved
    across a random bank set; every command may additionally depend on
    any earlier command (the scheduler only requires deps to point
    backwards).
    """
    n_banks = draw(st.integers(min_value=1, max_value=6))
    bank_coords = draw(
        st.lists(
            st.tuples(
                st.integers(0, GEOM.ranks - 1),
                st.integers(0, GEOM.bankgroups - 1),
                st.integers(0, GEOM.banks_per_group - 1),
            ),
            min_size=n_banks,
            max_size=n_banks,
            unique=True,
        )
    )
    commands: list[Command] = []
    open_act: dict[tuple, int] = {}  # bank -> ACT index
    accesses: dict[tuple, list[int]] = {}

    def extra_dep():
        if commands and draw(st.booleans()):
            return (draw(st.integers(0, len(commands) - 1)),)
        return ()

    n_ops = draw(st.integers(min_value=3, max_value=40))
    kinds = st.sampled_from(
        [
            CommandType.RD,
            CommandType.WR,
            CommandType.SCALED_READ,
            CommandType.WRITEBACK,
            CommandType.QREG_LOAD,
            CommandType.QREG_STORE,
            CommandType.PIM_ADD,
            CommandType.PIM_QUANT,
        ]
    )
    for _ in range(n_ops):
        bank = draw(st.sampled_from(bank_coords))
        rank, bg, b = bank
        kind = draw(kinds)
        if kind in (CommandType.PIM_ADD, CommandType.PIM_QUANT):
            # ALU ops need no open row.
            commands.append(
                Command(kind, rank=rank, bankgroup=bg, deps=extra_dep())
            )
            continue
        row = draw(st.integers(0, 2))
        act = open_act.get(bank)
        if act is not None and commands[act].row != row:
            # Close and reopen on a different row.
            pre = Command(
                CommandType.PRE, rank=rank, bankgroup=bg, bank=b,
                row=commands[act].row,
                deps=tuple(accesses[bank]) or (act,),
            )
            commands.append(pre)
            open_act[bank] = None
            act = None
        if act is None:
            commands.append(
                Command(
                    CommandType.ACT, rank=rank, bankgroup=bg, bank=b,
                    row=row,
                    deps=(len(commands) - 1,) if commands else (),
                )
            )
            act = len(commands) - 1
            open_act[bank] = act
            accesses[bank] = []
        commands.append(
            Command(
                kind, rank=rank, bankgroup=bg, bank=b,
                row=commands[act].row, col=draw(st.integers(0, 7)),
                deps=(act,) + extra_dep(),
            )
        )
        accesses[bank].append(len(commands) - 1)
    return commands


class TestSyntheticStreamProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        commands=synthetic_streams(),
        window=st.integers(min_value=1, max_value=24),
        buffered=st.booleans(),
        scope=st.sampled_from(["channel", "dimm", "rank"]),
        per_bank=st.booleans(),
    )
    def test_equivalent_on_random_streams(
        self, commands, window, buffered, scope, per_bank
    ):
        issue_model = (
            IssueModel.buffered(GEOM.ranks)
            if buffered
            else IssueModel.direct(GEOM.ranks)
        )
        _assert_equivalent(
            commands,
            issue_model=issue_model,
            window=window,
            data_bus_scope=scope,
            per_bank_pim=per_bank,
        )

    @settings(max_examples=30, deadline=None)
    @given(
        commands=synthetic_streams(),
        window=st.integers(min_value=1, max_value=24),
        channels=st.sampled_from([2, 4]),
        per_bank=st.booleans(),
    )
    def test_equivalent_on_random_multi_channel_streams(
        self, commands, window, channels, per_bank
    ):
        """Both engines agree with the oracle on random streams tiled
        across channels — the same contract as single-channel, along
        the channel axis."""
        _assert_equivalent(
            replicate_across_channels(commands, channels),
            geometry=dataclasses.replace(GEOM, channels=channels),
            window=window,
            per_bank_pim=per_bank,
        )
