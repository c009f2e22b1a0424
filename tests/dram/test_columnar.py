"""The columnar command-stream core: round-trip, rescheduling, validator.

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
* re-scheduling the same stream object is byte-identical, and the
  returned issue-cycle vector is read-only;
* the loop's static per-command lists, built on demand, change no
  schedule: a replayed full-row stream builds under a quarter of them
  and still matches a plain run and the reference loop, and streams
  whose unbuilt chunks are first visited at a REF or MRW schedule
  exactly;
* the queue links, also linked chunk by chunk, keep every link the
  loop or a replay wrote into a chunk not linked yet: an unlink's
  successor, a replay's relinked survivors and end nodes, on one- and
  multi-port streams at several chunk sizes;
* the frozen columns refuse in-place mutation;
* ``validate_trace_columnar`` accepts what the family-by-family
  oracle accepts, and rejects seeded corruptions with the exception
  text pinned in ``violation_golden.json`` — and the oracle rejects
  them too.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracle import (
    ReferenceScheduler,
    build_dependents,
    validate_trace_thorough,
)
from repro.dram.columnar import ColumnarStream, _Prepared, _UNLINKED
from repro.dram.commands import Command, CommandType
from repro.dram.period import StreamPeriod
from repro.dram.scheduler import CommandScheduler, IssueModel
from repro.dram.steady import SteadyTracker
from repro.dram.timing import DDR4_2133
from repro.dram.validator import validate_trace, validate_trace_columnar
from repro.errors import SimulationError, TimingViolation
from repro.optim.precision import PRECISIONS
from repro.optim.registry import build_optimizer
from repro.system.design import DESIGNS, DesignPoint
from repro.system.update_model import UpdatePhaseModel
from violation_cases import CASES, load_golden, verdict

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
    _, _, _period, art = model._build_stream(
        config, optimizer, PRECISIONS["8/32"]
    )
    return config, art.commands, art


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
        for period in (None, StreamPeriod(segments=(), columns=1)):
            with pytest.raises(SimulationError) as checked:
                CommandScheduler(T, GEOM).run(commands, period=period)
            assert str(checked.value) == str(scalar.value), period


class TestRescheduling:
    def test_rescheduling_shared_stream_is_identical(self):
        config, commands, art = _design_stream(
            DesignPoint.GRADPIM_BUFFERED
        )
        sched = CommandScheduler(
            T, GEOM, config.issue_model(GEOM),
            per_bank_pim=config.per_bank_pim,
            data_bus_scope=config.data_bus_scope,
        )
        first = sched.run(art.columnar)
        second = sched.run(art.columnar)
        assert first.issue_cycles() == second.issue_cycles()
        assert first.stats == second.stats
        # Results share their stream with the artifact; the cycle
        # vector is frozen like the stream's own columns.
        with pytest.raises(ValueError):
            second.columnar.issue_cycle[0] = 0

    def test_substrates_schedule_differently(self):
        config, commands, art = _design_stream(
            DesignPoint.GRADPIM_DIRECT
        )
        base = CommandScheduler(
            T, GEOM, config.issue_model(GEOM),
            data_bus_scope=config.data_bus_scope,
        )
        narrow = CommandScheduler(
            T, GEOM, config.issue_model(GEOM),
            data_bus_scope=config.data_bus_scope, window=1,
        )
        wide = base.run(art.columnar)
        small = narrow.run(art.columnar)
        reference = ReferenceScheduler(
            T, GEOM, config.issue_model(GEOM),
            data_bus_scope=config.data_bus_scope, window=1,
        )
        assert small.issue_cycles() == reference.run(
            commands
        ).issue_cycles()
        assert wide.issue_cycles() != small.issue_cycles()

    @pytest.mark.parametrize("engine", ["columnar", "periodic"])
    def test_profiles_build_one_adjacency_form_per_stream(self, engine):
        """Every stream the update model profiles — warm samples and
        full-stream fallbacks alike — is scheduled from its ``columnar``
        form; no profile builds the list adjacency ``dependents``."""
        model = UpdatePhaseModel(columns_per_stripe=32, engine=engine)
        optimizer = build_optimizer("momentum_sgd", {"eta": 0.01})
        for design in DesignPoint:
            model.profile(design, optimizer)
        assert model._streams
        for art in model._streams.values():
            built = {"columnar", "dependents"} & set(vars(art))
            assert len(built) == 1, built


class TestLazyLists:
    """The cold loop builds its static per-command lists on demand
    (``_Prepared.build``): a replayed stream builds few of them, and
    the schedule never changes."""

    def test_locked_full_row_stream_matches_plain_and_reference(self):
        model = UpdatePhaseModel(columns_per_stripe=128)
        config = DESIGNS[DesignPoint.GRADPIM_BUFFERED]
        _, _, period, art = model._build_stream(
            config, build_optimizer("sgd"), PRECISIONS["32/32"]
        )
        kwargs = dict(
            per_bank_pim=config.per_bank_pim,
            data_bus_scope=config.data_bus_scope,
        )
        issue_model = config.issue_model(GEOM)
        scheduler = CommandScheduler(T, GEOM, issue_model, **kwargs)
        replayed = scheduler.run(art.columnar, period=period)
        plain = scheduler.run(art.columnar)
        reference = ReferenceScheduler(T, GEOM, issue_model, **kwargs).run(
            art.commands
        )
        assert replayed.periodic.engaged
        assert replayed.issue_cycles() == plain.issue_cycles()
        assert replayed.issue_cycles() == reference.issue_cycles()
        assert replayed.stats == plain.stats == reference.stats
        n = art.columnar.n
        assert plain.commands_prepared == n
        assert replayed.commands_prepared < n // 4

    @pytest.mark.parametrize("chunk", [1, 3, 4])
    def test_first_visit_to_a_chunk_at_an_other_kind_command(
        self, chunk, monkeypatch
    ):
        """REF and MRW (the loop's ``_OTHER`` kinds) open every chunk:
        the scan's first visit to each unbuilt chunk lands on one."""
        monkeypatch.setattr(_Prepared, "CHUNK", chunk)
        commands = []
        for k in range(12):
            bank = k % 4
            commands += [
                Command(CommandType.REF if k % 3 else CommandType.MRW,
                        rank=k % 2),
                Command(CommandType.ACT, rank=k % 2, bank=bank, row=k),
                Command(CommandType.SCALED_READ, rank=k % 2, bank=bank,
                        row=k, deps=(len(commands) + 1,)),
                Command(CommandType.PRE, rank=k % 2, bank=bank,
                        deps=(len(commands) + 2,)),
            ]
        stream = ColumnarStream.from_commands(commands)
        for ports in ((0, 0, 0, 0), (0, 1, 2, 3)):
            issue_model = IssueModel("test", ports)
            result = CommandScheduler(T, GEOM, issue_model).run(stream)
            reference = ReferenceScheduler(T, GEOM, issue_model).run(
                commands
            )
            assert result.issue_cycles() == reference.issue_cycles()
            assert result.stats == reference.stats
            assert result.commands_prepared == len(commands)

    @pytest.mark.parametrize("chunk", [1, 7])
    def test_replayed_kernel_with_mrw_at_any_chunk_size(
        self, chunk, monkeypatch
    ):
        monkeypatch.setattr(_Prepared, "CHUNK", chunk)
        model = UpdatePhaseModel(columns_per_stripe=32)
        config = DESIGNS[DesignPoint.GRADPIM_DIRECT]
        _, _, period, art = model._build_stream(
            config, build_optimizer("momentum_sgd"), PRECISIONS["8/32"]
        )
        assert CommandType.MRW in {cmd.kind for cmd in art.commands}
        kwargs = dict(data_bus_scope=config.data_bus_scope)
        issue_model = config.issue_model(GEOM)
        result = CommandScheduler(T, GEOM, issue_model, **kwargs).run(
            art.columnar, period=period
        )
        reference = ReferenceScheduler(T, GEOM, issue_model, **kwargs).run(
            art.commands
        )
        assert result.periodic.engaged
        assert result.issue_cycles() == reference.issue_cycles()
        assert result.stats == reference.stats


    @pytest.mark.parametrize("chunk", [1, 3, 4])
    @pytest.mark.parametrize("ports", [(0, 0, 0, 0), (0, 1, 0, 1)])
    def test_unlink_into_an_unlinked_chunk(self, chunk, ports, monkeypatch):
        """REF commands issue at their port's free cycle, so each scan
        stops at its port's head and never reads its successor's link.
        Issuing a chunk's last command then writes the successor's
        ``prv`` into a chunk not linked yet, which the chunk's link must
        keep (the merge is observed)."""
        monkeypatch.setattr(_Prepared, "CHUNK", chunk)
        merged = _spy_merges(monkeypatch)
        commands = [
            Command(CommandType.REF, rank=k % 4) for k in range(24)
        ]
        issue_model = IssueModel("test", ports)
        result = CommandScheduler(T, GEOM, issue_model).run(commands)
        reference = ReferenceScheduler(T, GEOM, issue_model).run(commands)
        assert result.issue_cycles() == reference.issue_cycles()
        assert result.stats == reference.stats
        assert merged

    @pytest.mark.parametrize("chunk", [1, 3, 7])
    def test_replay_relinks_into_unlinked_chunks(self, chunk, monkeypatch):
        """A buffered design's four ports, replayed: each relink writes
        links of survivors and of the command after the last image into
        chunks no scan has reached; the schedule matches the reference
        loop and a plain run."""
        monkeypatch.setattr(_Prepared, "CHUNK", chunk)
        merged = _spy_merges(monkeypatch)
        relinked = []
        replay = SteadyTracker._replay

        def spied(tracker, *args):
            prep = tracker.prep
            before = [
                (prep.nxt[j], prep.prv[j]) for j in range(prep.n)
            ]
            replay(tracker, *args)
            # Slots written by the replay in chunks it left unlinked.
            relinked.extend(
                j for j in range(prep.n)
                if (prep.nxt[j], prep.prv[j]) != before[j]
                and _UNLINKED in _chunk_links(prep, j)
            )

        monkeypatch.setattr(SteadyTracker, "_replay", spied)
        model = UpdatePhaseModel(columns_per_stripe=32)
        config = DESIGNS[DesignPoint.GRADPIM_BUFFERED]
        _, _, period, art = model._build_stream(
            config, build_optimizer("momentum_sgd"), PRECISIONS["8/32"]
        )
        issue_model = config.issue_model(GEOM)
        assert issue_model.n_ports > 1
        kwargs = dict(
            per_bank_pim=config.per_bank_pim,
            data_bus_scope=config.data_bus_scope,
        )
        scheduler = CommandScheduler(T, GEOM, issue_model, **kwargs)
        result = scheduler.run(art.columnar, period=period)
        reference = ReferenceScheduler(T, GEOM, issue_model, **kwargs).run(
            art.commands
        )
        assert result.periodic.replays
        assert relinked and merged
        assert result.issue_cycles() == reference.issue_cycles()
        assert result.stats == reference.stats
        assert scheduler.run(art.columnar).issue_cycles() == (
            reference.issue_cycles()
        )

    @pytest.mark.parametrize("chunk", [1, 3, 7])
    @pytest.mark.parametrize("ports", [(0, 1, 2, 3), (0, 0, 1, 1)])
    def test_multi_port_streams_at_any_chunk_size(
        self, chunk, ports, monkeypatch
    ):
        """Row cycles on four ranks, each rank's commands interleaved
        with the others' and depending across ranks, so every port's
        queue runs through chunks the other ports link."""
        monkeypatch.setattr(_Prepared, "CHUNK", chunk)
        commands = []
        for k in range(10):
            for rank in range(4):
                bank = k % 4
                base = len(commands)
                deps = (base - 3,) if base >= 3 else ()
                commands += [
                    Command(CommandType.ACT, rank=rank, bank=bank, row=k,
                            deps=deps),
                    Command(CommandType.SCALED_READ, rank=rank, bank=bank,
                            row=k, deps=(base,)),
                    Command(CommandType.PRE, rank=rank, bank=bank,
                            deps=(base + 1,)),
                ]
        issue_model = IssueModel("test", ports)
        for window in (2, 16):
            result = CommandScheduler(
                T, GEOM, issue_model, window=window
            ).run(commands)
            reference = ReferenceScheduler(
                T, GEOM, issue_model, window=window
            ).run(commands)
            assert result.issue_cycles() == reference.issue_cycles()
            assert result.stats == reference.stats


def _chunk_links(prep, i):
    """The ``nxt`` and ``prv`` slots of the chunk holding ``i``."""
    a = i - i % prep.CHUNK
    b = min(a + prep.CHUNK, prep.n)
    return prep.nxt[a:b] + prep.prv[a:b]


def _spy_merges(monkeypatch):
    """Record every chunk linked over a slot already written; returns
    the list it fills."""
    merged = []
    link = _Prepared.link

    def spied(prep, i):
        slots = _chunk_links(prep, i)
        if any(v != _UNLINKED for v in slots):
            merged.append(i)
        link(prep, i)

    monkeypatch.setattr(_Prepared, "link", spied)
    return merged


class TestColumnarValidator:
    @pytest.mark.parametrize("design", list(DesignPoint))
    def test_valid_traces_accepted_by_both(self, design):
        config, commands, art = _design_stream(design)
        issue_model = config.issue_model(GEOM)
        sched = CommandScheduler(
            T, GEOM, issue_model,
            per_bank_pim=config.per_bank_pim,
            data_bus_scope=config.data_bus_scope,
        )
        result = sched.run(art.columnar)
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
        """Corrupting one issue cycle of a 32-column trace raises the
        golden TimingViolation from the columnar checker and from the
        ``Command``-list entry point, and the oracle rejects the trace
        too."""
        name = f"seeded/{design.value}/0.5/{shift}"
        case = CASES[name]()
        expected = load_golden()[name]
        commands = case.schedule.to_commands()
        assert verdict(validate_trace_columnar, case) == expected
        assert verdict(validate_trace, case, commands=commands) == expected
        assert verdict(
            validate_trace_thorough, case, commands=commands
        ) is not None

    def test_unissued_command_rejected(self):
        config, commands, art = _design_stream(DesignPoint.BASELINE)
        issue_model = config.issue_model(GEOM)
        sched = CommandScheduler(
            T, GEOM, issue_model,
            data_bus_scope=config.data_bus_scope,
        )
        result = sched.run(art.columnar)
        corrupted = result.columnar.issue_cycle.copy()
        corrupted.setflags(write=True)
        corrupted[0] = -1
        bad = type(result.columnar)(result.columnar.stream, corrupted)
        with pytest.raises(TimingViolation):
            validate_trace_columnar(
                bad, T, GEOM, issue_model.port_of_rank,
                data_bus_scope=config.data_bus_scope,
            )
