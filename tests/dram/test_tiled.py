"""The tiled form of a generated stream against its eager expansion.

Kernel generators build a stream as tiled runs
(:class:`repro.dram.columnar.TiledRun`: one block, many copies; an
explicit stretch is a run of one copy). For every generator (baseline,
PIM kernel compiler, AoS) at widths 8, 32 and 128, these tests hold
the tiled stream to an eager copy built from its full columns:

* every per-range accessor — rows (whole and shape-only), gathered
  rows, the dependency CSR by range and by index, out-edges (ordered,
  unordered, from consumers past a bound) and shape columns — over
  random spans straddling run boundaries equals the eager copy's;
* ``to_commands()`` is identical, so the stream goldens hold;
* a block dependency corrupted to point forward raises the same
  ``check_structure`` message from the tiled form as from the eager one;
* every design's tiled stream, scheduled with and without steady-state
  replay, issues every command on the reference scheduler's cycle
  (multi-port designs included) without expanding a run;
* a cold default-engine profile expands no run
  (``EngineReport.commands_materialized`` is 0), while a whole-stream
  read is counted;
* the stream cache of a cold 128-column ``simulate("ResNet18")`` holds
  at most 2 MB (``ColumnarStream.nbytes``);
* a one-copy run (an explicit stretch) proves no translation, however
  much longer than the shift it is, and an explicit-only stream
  schedules and validates exactly as its ``to_commands()`` rebuild.
"""

import random

import numpy as np
import pytest

from oracle import ReferenceScheduler
from repro import TrainingSimulator, UpdatePhaseModel
from repro.dram.columnar import (
    _AFFINE,
    FIELDS,
    ColumnarStream,
    TiledRun,
)
from repro.dram.scheduler import CommandScheduler
from repro.dram.steady import _repeats
from repro.dram.validator import validate_trace_columnar
from repro.errors import SimulationError
from repro.kernels.aos import AoSKernelGenerator
from repro.kernels.compiler import UpdateKernelCompiler
from repro.kernels.streams import BaselineStreamGenerator
from repro.optim.precision import PRECISION_8_32
from repro.optim.registry import build_optimizer
from repro.system.design import DESIGNS, DesignPoint

MOMENTUM = build_optimizer("momentum_sgd", {"eta": 0.01})
GEOM = UpdatePhaseModel().geometry

GENERATORS = {
    "baseline": lambda w: BaselineStreamGenerator().generate(
        MOMENTUM, PRECISION_8_32, columns_per_stripe=w
    ),
    "pim": lambda w: UpdateKernelCompiler().compile(
        MOMENTUM, PRECISION_8_32, columns_per_stripe=w
    ),
    "aos": lambda w: AoSKernelGenerator().generate(
        MOMENTUM, PRECISION_8_32, columns_per_unit=w
    ),
}
CASES = [(g, w) for g in GENERATORS for w in (8, 32, 128)]
IDS = [f"{g}-w{w}" for g, w in CASES]
#: The row-matrix columns a full column stands for.
COLUMN_AT = [FIELDS.index(name) for name in ColumnarStream.COLUMNS]


def _eager(stream: ColumnarStream) -> ColumnarStream:
    """The same stream as one explicit stretch of full columns."""
    return ColumnarStream(
        **{name: getattr(stream, name) for name in ColumnarStream.COLUMNS},
        dep_indptr=stream.dep_indptr,
        dep_indices=stream.dep_indices,
        tags=stream.tags,
        scalers={
            i: value for i, value in enumerate(stream.scalers or ())
            if value is not None
        },
    )


def _spans(stream, rng, count=40):
    """Random ``[a, b)`` spans, most of them across a run's start, its
    end or the boundary between two of its copies."""
    edges = [0, stream.n]
    for run in stream.runs:
        edges += [run.start, run.end, run.start + run.span,
                  run.end - run.span]
    out = []
    for _ in range(count):
        mid = rng.choice(edges)
        a = min(max(mid - rng.randint(0, 300), 0), stream.n)
        b = min(max(mid + rng.randint(1, 300), a), stream.n)
        out.append((a, b))
    return out


@pytest.fixture(scope="module", params=CASES, ids=IDS)
def pair(request):
    generator, width = request.param
    tiled = GENERATORS[generator](width).stream
    expanded = GENERATORS[generator](width).stream
    return tiled, _eager(expanded)


class TestAccessors:
    def test_generators_tile(self, pair):
        tiled, eager = pair
        assert tiled.n == eager.n
        assert not eager.runs
        if tiled.n > 2000:  # full-row widths are mostly tiled
            assert sum(r.end - r.start for r in tiled.runs) > tiled.n // 2

    def test_rows_and_dependencies_by_range(self, pair):
        tiled, eager = pair
        for a, b in _spans(tiled, random.Random(1)):
            assert np.array_equal(
                tiled.rows(a, b)[:, COLUMN_AT], eager.rows(a, b)[:, COLUMN_AT]
            ), (a, b)
            assert np.array_equal(
                tiled.rows(a, b, shape=True), eager.rows(a, b, shape=True)
            ), (a, b)
            for got, want in zip(tiled.deps(a, b), eager.deps(a, b)):
                assert np.array_equal(got, want), (a, b)

    def test_out_edges_by_range(self, pair):
        tiled, eager = pair
        for a, b in _spans(tiled, random.Random(2)):
            for got, want in zip(tiled.edges(a, b), eager.edges(a, b)):
                assert np.array_equal(got, want), (a, b)
            above = min(b + 40, tiled.n)
            got = tiled.edges(a, b, ordered=False, above=above)
            want = eager.edges(a, b)
            keep = want[1] >= above
            assert sorted(zip(*map(np.ndarray.tolist, got))) == sorted(
                zip(want[0][keep].tolist(), want[1][keep].tolist())
            ), (a, b)

    def test_out_edges_of_long_ranges(self, pair):
        """Ranges as long as a loop's out-edge window and longer, from
        around each run's start."""
        tiled, eager = pair
        rng = random.Random(4)
        for run in tiled.runs:
            for length in (4096, rng.randint(300, 20000)):
                a = rng.randint(max(run.start - 100, 0), run.end)
                b = min(a + length, tiled.n)
                for got, want in zip(tiled.edges(a, b), eager.edges(a, b)):
                    assert np.array_equal(got, want), (a, b)

    def test_gathers_by_index(self, pair):
        tiled, eager = pair
        rng = np.random.default_rng(3)
        for size in (1, 17, 500):
            idx = rng.integers(0, tiled.n, size)
            assert np.array_equal(
                tiled.take(idx)[:, COLUMN_AT], eager.take(idx)[:, COLUMN_AT]
            )
            assert np.array_equal(
                tiled.take(idx, shape=True), eager.take(idx, shape=True)
            )
            idx = np.unique(idx)
            assert np.array_equal(
                tiled.shape_columns(idx), eager.shape_columns(idx)
            )
            for got, want in zip(tiled.deps_at(idx), eager.deps_at(idx)):
                assert np.array_equal(got, want)

    def test_commands_identical(self, pair):
        tiled, eager = pair
        assert tiled.to_commands() == eager.to_commands()
        assert tiled.materialized == sum(r.end - r.start for r in tiled.runs)


def _corrupted(stream: ColumnarStream, moving: bool):
    """``stream`` with one dependency of its first run's block pointing
    at the command after its consumer: a moving one, or a kept one (in
    a run where nothing moves)."""
    run = stream.runs[0]
    entry = int(np.flatnonzero(run.moves == moving)[0])
    row = int(np.searchsorted(run.dep_ptr, entry, side="right")) - 1
    deps = run.dep_indices.copy()
    deps[entry] = run.start + row + 1
    full_step = np.zeros_like(run.block)
    full_step[:, _AFFINE] = run.step
    bad = TiledRun(
        run.start, run.block, run.dep_counts, deps, run.copies, full_step,
        run.moving_from if moving else None,
    )
    return ColumnarStream.from_runs(
        [bad if piece is run else piece for piece in stream.pieces]
    )


class TestStructureChecks:
    @pytest.mark.parametrize("moving", [True, False],
                             ids=["moving", "fixed"])
    @pytest.mark.parametrize("generator", list(GENERATORS))
    def test_forward_dependency_in_a_block(self, generator, moving):
        stream = _corrupted(GENERATORS[generator](32).stream, moving)
        with pytest.raises(SimulationError) as tiled:
            stream.check_structure(GEOM)
        with pytest.raises(SimulationError) as eager:
            _eager(stream).check_structure(GEOM)
        assert str(tiled.value) == str(eager.value)
        assert "illegal dependency" in str(tiled.value)


class TestScheduling:
    @pytest.mark.parametrize("width", [8, 32, 128])
    @pytest.mark.parametrize("design", list(DesignPoint))
    def test_tiled_stream_schedules_as_the_oracle(self, design, width):
        """The tiled stream itself, not its expansion, is scheduled: the
        cold loop's per-chunk builds and the steady tracker's replays
        read runs only through their accessors."""
        config = DESIGNS[design]

        def built():
            model = UpdatePhaseModel(columns_per_stripe=width)
            _, _, period, art = model._build_stream(
                config, MOMENTUM, PRECISION_8_32
            )
            return model, period, art.columnar

        model, period, stream = built()
        geometry = model._one_channel()
        issue_model = config.issue_model(geometry)
        kwargs = dict(
            per_bank_pim=config.per_bank_pim,
            data_bus_scope=config.data_bus_scope,
            window=model.window,
        )
        ref = ReferenceScheduler(
            model.timing, geometry, issue_model, **kwargs
        ).run(built()[2].to_commands())
        scheduler = CommandScheduler(
            model.timing, geometry, issue_model, **kwargs
        )
        for p in (None, period):
            got = scheduler.run(stream, period=p)
            assert got.issue_cycles() == ref.issue_cycles(), p
            assert got.stats == ref.stats, p
        assert stream.materialized == 0


class TestMaterialization:
    def test_cold_profile_expands_no_run(self):
        model = UpdatePhaseModel(columns_per_stripe=128)
        for design in DesignPoint:
            model.profile(design, MOMENTUM)
        assert model.report.commands_materialized == 0
        streams = [art.columnar for art in model._streams.values()]
        assert all(s.runs and s.materialized == 0 for s in streams)
        artifact = next(iter(model._streams.values()))
        artifact.commands[0]  # a whole-stream read
        stream = artifact.columnar
        assert stream.materialized == sum(
            r.end - r.start for r in stream.runs
        )

    def test_stream_cache_bytes(self):
        model = UpdatePhaseModel(columns_per_stripe=128)
        TrainingSimulator(update_model=model).simulate("ResNet18")
        held = sum(art.columnar.nbytes for art in model._streams.values())
        assert 0 < held <= 2_000_000


class TestOneCopyRuns:
    @pytest.mark.parametrize("generator", list(GENERATORS))
    def test_prologue_longer_than_the_shift_proves_nothing(self, generator):
        """A one-copy piece holds both ``x`` and ``x - shift`` here, but
        its block is not periodic: every check gathers."""
        stream = GENERATORS[generator](128).stream
        prologue = stream.pieces[0]
        assert prologue.copies == 1 and prologue not in stream.runs
        for shift in (1, prologue.span // 3, prologue.span - 1):
            lo, hi = prologue.start + shift, prologue.end
            assert stream.translated(lo, hi, shift) == [(lo, hi, None)]
            gathered = np.array_equal(
                stream.rows(lo, hi, shape=True),
                stream.rows(lo - shift, hi - shift, shape=True),
            )
            assert stream.shape_repeats(lo, hi, shift) == gathered
            counts, deps = stream.deps(lo, hi)
            back, before = stream.deps(lo - shift, hi - shift)
            assert _repeats(stream, lo, hi, shift, lo) == (
                gathered and np.array_equal(counts, back)
                and np.array_equal(deps, before + shift * (before >= lo))
            )

    @pytest.mark.parametrize("design", [
        DesignPoint.BASELINE, DesignPoint.GRADPIM_BUFFERED, DesignPoint.AOS,
    ])
    def test_explicit_stream_schedules_as_its_rebuild(self, design):
        config = DESIGNS[design]
        model = UpdatePhaseModel(columns_per_stripe=32)
        _, _, period, art = model._build_stream(
            config, MOMENTUM, PRECISION_8_32
        )
        explicit = _eager(art.columnar)
        rebuilt = ColumnarStream.from_commands(explicit.to_commands())
        assert len(explicit.pieces) == len(rebuilt.pieces) == 1
        geometry = model._one_channel()
        issue_model = config.issue_model(geometry)
        scheduler = CommandScheduler(
            model.timing, geometry, issue_model,
            per_bank_pim=config.per_bank_pim,
            data_bus_scope=config.data_bus_scope, window=model.window,
        )
        outcomes = []
        for stream in (explicit, rebuilt):
            result = scheduler.run(stream, period=period)
            validated = validate_trace_columnar(
                result.columnar, model.timing, geometry,
                issue_model.port_of_rank, per_bank_pim=config.per_bank_pim,
                data_bus_scope=config.data_bus_scope,
                periodic=result.periodic,
            )
            outcomes.append((
                result.issue_cycles(), result.stats,
                result.periodic.simulated, result.periodic.skipped,
                result.commands_prepared, validated,
            ))
        assert outcomes[0] == outcomes[1]
