"""The columnar command-stream core: round-trip, memo, validator.

:class:`repro.dram.columnar.ColumnarStream` is the struct-of-arrays
twin of a ``list[Command]``; the contract is *lossless* conversion in
both directions. These tests enforce:

* Hypothesis round-trip over arbitrary synthetic streams — including
  cross-bank dependencies, duplicate dep entries, tags, scaler
  payloads, and dependency shapes that would deadlock a scheduler
  (round-tripping never schedules) — rebuilding every ``Command``
  field byte-identically, and rebuilding the columns identically from
  the rebuilt commands;
* the CSR dependency transpose matches :func:`build_dependents`;
* structural precondition errors (illegal dep, rank/channel out of
  range) match the reference loop's scalar messages exactly;
* issue-cycle memoization: re-scheduling the same stream object is
  byte-identical and hits the memo (no second cold pass);
* the frozen columns refuse in-place mutation;
* ``validate_trace_columnar`` accepts exactly what ``validate_trace``
  and the family-by-family oracle accept, and rejects seeded
  corruptions with the *same* exception text as ``validate_trace``
  (the scalar fallback re-raise) — and the oracle rejects them too.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracle import ReferenceScheduler, validate_trace_thorough
from repro.dram.columnar import ColumnarStream
from repro.dram.commands import Command, CommandType
from repro.dram.scheduler import CommandScheduler
from repro.dram.steady import build_dependents
from repro.dram.timing import DDR4_2133
from repro.dram.validator import validate_trace, validate_trace_columnar
from repro.errors import SimulationError, TimingViolation
from repro.optim.precision import PRECISIONS
from repro.optim.registry import build_optimizer
from repro.system.design import DESIGNS, DesignPoint
from repro.system.update_model import UpdatePhaseModel

T = DDR4_2133
GEOM = UpdatePhaseModel().geometry

_KINDS = st.sampled_from(list(CommandType))


class _Scaler:
    """Opaque payload standing in for a ScalerValue."""


@st.composite
def arbitrary_commands(draw):
    """Arbitrary command lists: every field exercised, deps random
    backward sets with duplicates allowed, no schedulability
    requirement (deadlock shapes included by construction)."""
    n = draw(st.integers(min_value=0, max_value=30))
    commands = []
    for i in range(n):
        deps = ()
        if i and draw(st.booleans()):
            deps = tuple(
                draw(
                    st.lists(
                        st.integers(0, i - 1), min_size=1, max_size=4
                    )
                )
            )  # duplicates allowed
        commands.append(
            Command(
                draw(_KINDS),
                rank=draw(st.integers(0, 3)),
                bankgroup=draw(st.integers(0, 3)),
                bank=draw(st.integers(0, 3)),
                row=draw(st.integers(0, 1 << 20)),
                col=draw(st.integers(0, 127)),
                channel=draw(st.integers(0, 3)),
                scale_id=draw(st.integers(0, 3)),
                dst_reg=draw(st.integers(0, 2)),
                src_reg=draw(st.integers(0, 2)),
                position=draw(st.integers(0, 3)),
                deps=deps,
                tag=draw(st.one_of(st.none(), st.text(max_size=8))),
                scaler=draw(
                    st.one_of(st.none(), st.builds(_Scaler))
                ),
            )
        )
    return commands


def _design_stream(design):
    model = UpdatePhaseModel(columns_per_stripe=8)
    optimizer = build_optimizer(
        "momentum_sgd", {"eta": 0.01, "alpha": 0.9, "weight_decay": 1e-4}
    )
    config = DESIGNS[design]
    commands, _, _, _period, art = model._build_stream(
        config, optimizer, PRECISIONS["8/32"]
    )
    return config, commands, art


class TestRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(commands=arbitrary_commands())
    def test_commands_columnar_commands_is_identity(self, commands):
        stream = ColumnarStream.from_commands(commands)
        rebuilt = stream.to_commands()
        assert rebuilt == commands
        # And the columns rebuild identically from the rebuilt list.
        again = ColumnarStream.from_commands(rebuilt)
        for name in (
            "kind", "rank", "bankgroup", "bank", "channel", "row",
            "col", "scale_id", "dst_reg", "src_reg", "position",
            "dep_indptr", "dep_indices", "out_indptr", "out_indices",
        ):
            assert np.array_equal(
                getattr(stream, name), getattr(again, name)
            ), name

    @settings(max_examples=50, deadline=None)
    @given(commands=arbitrary_commands())
    def test_dependents_transpose_matches_reference(self, commands):
        stream = ColumnarStream.from_commands(commands)
        indptr = stream.out_indptr.tolist()
        indices = stream.out_indices.tolist()
        lists = [
            indices[indptr[i]:indptr[i + 1]] for i in range(len(commands))
        ]
        assert lists == build_dependents(commands)

    @pytest.mark.parametrize("design", list(DesignPoint))
    def test_design_streams_round_trip(self, design):
        _, commands, art = _design_stream(design)
        stream = ColumnarStream.from_commands(commands)
        assert stream.to_commands() == commands
        # The artifact's cached stream is the same content.
        assert art.columnar.to_commands() == commands

    def test_columns_are_frozen(self):
        _, commands, art = _design_stream(DesignPoint.GRADPIM_DIRECT)
        with pytest.raises(ValueError):
            art.columnar.kind[0] = 0
        with pytest.raises(ValueError):
            art.columnar.dep_indices[0] = 0


class TestStructureChecks:
    @pytest.mark.parametrize(
        "mutate",
        [
            lambda c: setattr(c[1], "deps", (1,)),  # self-dependency
            lambda c: setattr(c[0], "rank", 99),
            lambda c: setattr(c[0], "channel", 7),
        ],
        ids=["illegal-dep", "rank-range", "channel-range"],
    )
    def test_structural_errors_match_scalar_messages(self, mutate):
        commands = [
            Command(CommandType.ACT, rank=0, bankgroup=0, bank=0),
            Command(
                CommandType.RD, rank=0, bankgroup=0, bank=0, deps=(0,)
            ),
        ]
        mutate(commands)
        with pytest.raises(SimulationError) as scalar:
            ReferenceScheduler(T, GEOM).run(commands)
        for engine in ("columnar", "periodic"):
            with pytest.raises(SimulationError) as checked:
                CommandScheduler(T, GEOM, engine=engine).run(commands)
            assert str(checked.value) == str(scalar.value), engine


class TestMemoization:
    def test_rescheduling_shared_stream_is_identical(self):
        config, commands, art = _design_stream(
            DesignPoint.GRADPIM_BUFFERED
        )
        sched = CommandScheduler(
            T, GEOM, config.issue_model(GEOM), engine="columnar",
            per_bank_pim=config.per_bank_pim,
            data_bus_scope=config.data_bus_scope,
        )
        first = sched.run(commands, columnar=art.columnar)
        second = sched.run(commands, columnar=art.columnar)
        assert first.issue_cycles() == second.issue_cycles()
        assert first.stats == second.stats
        # The memoized cycle vector is shared between replays, so it
        # must be frozen: corrupting one result cannot poison the next.
        with pytest.raises(ValueError):
            second.columnar.issue_cycle[0] = 0

    def test_memo_distinguishes_substrates(self):
        config, commands, art = _design_stream(
            DesignPoint.GRADPIM_DIRECT
        )
        base = CommandScheduler(
            T, GEOM, config.issue_model(GEOM), engine="columnar",
            data_bus_scope=config.data_bus_scope,
        )
        narrow = CommandScheduler(
            T, GEOM, config.issue_model(GEOM), engine="columnar",
            data_bus_scope=config.data_bus_scope, window=1,
        )
        wide = base.run(commands, columnar=art.columnar)
        small = narrow.run(commands, columnar=art.columnar)
        reference = ReferenceScheduler(
            T, GEOM, config.issue_model(GEOM),
            data_bus_scope=config.data_bus_scope, window=1,
        )
        assert small.issue_cycles() == reference.run(
            commands
        ).issue_cycles()
        assert wide.issue_cycles() != small.issue_cycles()

    def test_streams_keep_only_the_memo(self):
        """Memory contract: a cold run's per-command Python lists die
        with the run, and a stream only the columnar loop schedules
        never builds the list-of-lists dependents adjacency."""
        config, commands, art = _design_stream(DesignPoint.AOS_PB)
        sched = CommandScheduler(
            T, GEOM, config.issue_model(GEOM),
            per_bank_pim=config.per_bank_pim,
            data_bus_scope=config.data_bus_scope,
        )
        result = sched.run(commands, columnar=art.columnar)
        (entry,) = art.columnar._memo.values()
        issue, total_cycles, counts, port_issued = entry
        assert issue is result.columnar.issue_cycle
        assert total_cycles == result.stats.total_cycles
        assert counts == result.stats.counts
        assert port_issued == result.stats.port_issued
        assert "dependents" not in vars(art)

    @pytest.mark.parametrize("engine", ["columnar", "periodic"])
    def test_profiles_build_one_adjacency_form_per_stream(self, engine):
        """No stream the update model profiles carries both the CSR
        (``columnar``) and the list (``dependents``) adjacency — the
        periodic engine's full-stream fallbacks included."""
        model = UpdatePhaseModel(columns_per_stripe=32, engine=engine)
        optimizer = build_optimizer("momentum_sgd", {"eta": 0.01})
        for design in DesignPoint:
            model.profile(design, optimizer)
        assert model._streams
        for art in model._streams.values():
            built = {"columnar", "dependents"} & set(vars(art))
            assert len(built) == 1, built


class TestColumnarValidator:
    @pytest.mark.parametrize("design", list(DesignPoint))
    def test_valid_traces_accepted_by_both(self, design):
        config, commands, art = _design_stream(design)
        issue_model = config.issue_model(GEOM)
        sched = CommandScheduler(
            T, GEOM, issue_model, engine="columnar",
            per_bank_pim=config.per_bank_pim,
            data_bus_scope=config.data_bus_scope,
        )
        result = sched.run(commands, columnar=art.columnar)
        validate_trace_columnar(
            result.columnar, T, GEOM, issue_model.port_of_rank,
            per_bank_pim=config.per_bank_pim,
            data_bus_scope=config.data_bus_scope,
        )
        for validate in (validate_trace, validate_trace_thorough):
            validate(
                result.commands, T, GEOM, issue_model.port_of_rank,
                per_bank_pim=config.per_bank_pim,
                data_bus_scope=config.data_bus_scope,
            )

    @pytest.mark.parametrize("design", list(DesignPoint))
    @pytest.mark.parametrize("shift", [-500, -3, 1 << 40])
    def test_seeded_corruptions_rejected_identically(
        self, design, shift
    ):
        """Corrupting one issue cycle must raise the same
        TimingViolation from both validators (the columnar one falls
        back to the scalar sweep to name the first offender), and the
        oracle must reject the trace too."""
        config, commands, art = _design_stream(design)
        issue_model = config.issue_model(GEOM)
        sched = CommandScheduler(
            T, GEOM, issue_model, engine="columnar",
            per_bank_pim=config.per_bank_pim,
            data_bus_scope=config.data_bus_scope,
        )
        result = sched.run(commands, columnar=art.columnar)
        corrupted = result.columnar.issue_cycle.copy()
        corrupted.setflags(write=True)
        victim = len(corrupted) // 2
        corrupted[victim] = max(0, corrupted[victim] + shift)
        bad = type(result.columnar)(result.columnar.stream, corrupted)
        kwargs = dict(
            per_bank_pim=config.per_bank_pim,
            data_bus_scope=config.data_bus_scope,
        )
        with pytest.raises(TimingViolation) as vectorized:
            validate_trace_columnar(
                bad, T, GEOM, issue_model.port_of_rank, **kwargs
            )
        with pytest.raises(TimingViolation) as scalar:
            validate_trace(
                bad.to_commands(), T, GEOM, issue_model.port_of_rank,
                **kwargs
            )
        assert str(vectorized.value) == str(scalar.value)
        with pytest.raises(TimingViolation):
            validate_trace_thorough(
                bad.to_commands(), T, GEOM, issue_model.port_of_rank,
                **kwargs
            )

    def test_unissued_command_rejected(self):
        config, commands, art = _design_stream(DesignPoint.BASELINE)
        issue_model = config.issue_model(GEOM)
        sched = CommandScheduler(
            T, GEOM, issue_model, engine="columnar",
            data_bus_scope=config.data_bus_scope,
        )
        result = sched.run(commands, columnar=art.columnar)
        corrupted = result.columnar.issue_cycle.copy()
        corrupted.setflags(write=True)
        corrupted[0] = -1
        bad = type(result.columnar)(result.columnar.stream, corrupted)
        with pytest.raises(TimingViolation):
            validate_trace_columnar(
                bad, T, GEOM, issue_model.port_of_rank,
                data_bus_scope=config.data_bus_scope,
            )
