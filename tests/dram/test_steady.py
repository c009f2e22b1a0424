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
  same locked state, both leave the loop in the same state, every
  image's cycles reach the scheduled vector through the replay
  records, and the tracker's frontier is the first unissued command
  after every report and every replay;
* the stale-floor guard: matching fingerprints do not lock when an
  issue between them dipped to the stale zone;
* the keyed lock lookup against a linear scan over every earlier
  boundary, on streams whose machine cycle spans up to 21 sweeps.
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
    lock_scan_reference,
    replay_reference,
    settings,
)
from repro.dram.columnar import ColumnarStream, _UNLINKED, _latency_table
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
        """Also checks every boundary's keyed lock lookup against the
        linear scan."""
        design, optimizer, precision, window, columns = workload
        config, commands, dependents, period = _built(
            design, optimizer, precision, columns
        )
        _scan_checked(
            lambda: _run_both(
                config, commands, dependents, period, window=window
            )
        )

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
def _initial_links(ports):
    """Every command's first queue links: the previous and next command
    of its port, in stream order (``-1`` at either end)."""
    nxt, prv = [-1] * len(ports), [-1] * len(ports)
    last = {}
    for i, port in enumerate(ports):
        j = last.get(port, -1)
        prv[i] = j
        if j >= 0:
            nxt[j] = i
        last[port] = i
    return nxt, prv


def _links(prep):
    """The loop's queue links with every slot not linked yet read as
    its initial link (``_Prepared.link`` would fill it so)."""
    return tuple(
        [v if v != _UNLINKED else first for v, first in zip(values, initial)]
        for values, initial in zip(
            (prep.nxt, prep.prv), _initial_links(prep.port)
        )
    )


def _twin(tracker, record):
    """``tracker`` bound to a private copy of its loop state, made
    whole: ``record``'s issue and completion cycles of every command
    issued so far, and every queue link resolved (the read-only
    latency list stays shared; out-edges are read from the stream)."""
    prep = tracker.prep
    twin = copy.copy(tracker)
    nxt, prv = _links(prep)
    twin.prep = SimpleNamespace(
        lat=prep.lat, ndeps=list(prep.ndeps), nxt=nxt, prv=prv,
        heads=list(prep.heads),
    )
    twin.issue, twin.completion = (list(values) for values in record)
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


def _loop_state(tracker, links, issue, completion):
    """Everything a replay writes, each port's pending queue walked
    forward from its head over ``links`` and back from its last node:
    both walks must agree."""
    prep = tracker.prep
    nxt, prv = links
    queues = [_walk(head, nxt) for head in prep.heads]
    for queue in queues:
        assert _walk(queue[-1] if queue else -1, prv)[::-1] == queue
    return {
        "issue": issue,
        "completion": completion,
        "ndeps": list(prep.ndeps),
        "dep_ready": list(tracker.dep_ready),
        "heads": list(prep.heads),
        "queues": queues,
        "timers": [list(values) for values in tracker.timers],
        "act_windows": [list(window) for window in tracker.act_windows],
        "frontier": tracker.frontier,
    }


def _first_unissued(issue, start=0):
    f = start
    while f < len(issue) and issue[f] >= 0:
        f += 1
    return f


def _replays(design, optimizer="momentum_sgd", precision="8/32",
             columns=16, window=16, chunk=SteadyTracker.REPLAY_CHUNK):
    """Schedule with replay (``chunk`` commands per numpy chunk); at
    every replay, also run the oracle on a whole twin of the locked
    state. The schedule must still match the reference loop.

    A record of every command's issue and completion cycle is kept
    beside the loop: each reported issue, then each replay's images as
    the oracle writes them. After every report and every replay the
    tracker's frontier must be the record's first unissued command.
    Only the last copy's images past the new frontier may be written
    into the loop's lists; every image's cycle must reach the
    scheduled vector through the run's ``Replay`` records, and its
    completion through the latency.

    Returns ``(numpy state, oracle state, out-edges past the replayed
    block)`` per replay."""
    config, commands, _, period = _built(
        design, optimizer, precision, columns
    )
    n = len(commands)
    record = ([-1] * n, [0] * n)
    unwritten = set()  # images the loop's lists must not hold
    replays = []
    frontier = [0]
    numpy_replay, report = SteadyTracker._replay, SteadyTracker.issued

    def issued(tracker, i, cycle, port):
        record[0][i], record[1][i] = cycle, tracker.completion[i]
        replayed = report(tracker, i, cycle, port)
        frontier[0] = _first_unissued(record[0], frontier[0])
        assert tracker.frontier == frontier[0]
        return replayed

    def both(tracker, events, m, P, delta, anchor):
        ev_i = events[0].tolist()
        images = [i + t * P for i in ev_i for t in range(1, m + 1)]
        assert all(record[0][x] < 0 for x in images)
        twin = _twin(tracker, record)
        replay_reference(twin, events, m, P, delta, anchor)
        numpy_replay(tracker, events, m, P, delta, anchor)
        record[0][:], record[1][:] = twin.issue, twin.completion
        # The last copy's images past the frontier are written; no
        # other image is.
        last = {i + m * P for i in ev_i}
        unwritten.update(
            x for x in images if x not in last or x <= twin.frontier
        )
        for x in unwritten:
            assert tracker.issue[x] == -1 and tracker.completion[x] == 0

        def masked(values):
            return [
                None if k in unwritten else v for k, v in enumerate(values)
            ]

        optr = tracker.stream.out_indptr.tolist()
        oidx = tracker.stream.out_indices.tolist()
        past = sum(
            j > max(images) for x in images
            for j in oidx[optr[x]:optr[x + 1]]
        )
        replays.append((
            _loop_state(
                tracker, _links(tracker.prep), masked(tracker.issue),
                masked(tracker.completion),
            ),
            _loop_state(
                twin, (twin.prep.nxt, twin.prep.prv), masked(twin.issue),
                masked(twin.completion),
            ),
            past,
        ))
        # No pending command keeps a cycle cached before the shift.
        cached = tracker.caches[0]
        assert all(
            cached[j] is None
            for j, cycle in enumerate(record[0]) if cycle < 0
        )

    with mock.patch.object(SteadyTracker, "_replay", both), \
            mock.patch.object(SteadyTracker, "issued", issued), \
            mock.patch.object(SteadyTracker, "REPLAY_CHUNK", chunk):
        result = _run_both(config, commands, None, period, window=window)
    # Every image, from the assembled vector and the replay records.
    issue = result.columnar.issue_cycle
    latency = _latency_table(T)[result.columnar.stream.kind]
    assert len(result.periodic.replays) == len(replays)
    for replay in result.periodic.replays:
        for t in range(1, replay.copies + 1):
            for i in replay.events:
                x = i + t * replay.period
                assert issue[x] == record[0][x]
                assert issue[x] + latency[x] == record[1][x]
    return replays


class TestReplayOracle:
    @pytest.mark.parametrize(
        "design",
        [DesignPoint.GRADPIM_DIRECT, DesignPoint.GRADPIM_BUFFERED],
    )
    @pytest.mark.parametrize("chunk", [SteadyTracker.REPLAY_CHUNK, 1])
    def test_same_state_as_oracle(self, design, chunk):
        """One port (GradPIM-DR) and four buffered ports (GradPIM-BD),
        one out-edge chunk per replay and one command per chunk."""
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


def _guard_tracker(dip):
    """A tracker over a 2-command-per-sweep segment, driven by hand
    through two boundaries whose fingerprints match: commands 0 and 1
    cross boundaries 0 and 1 at cycles 100 and 110, and command 2 is
    issued ahead of the frontier, between them, at cycle ``dip``.

    The one port's queue is kept as the loop keeps it (the frontier is
    its head); dependency-ready cycles rise 5 per command, so the
    windows the two snapshots see shift with their anchors."""
    n = 16
    stream = ColumnarStream.from_commands(
        [Command(CommandType.PIM_ADD) for _ in range(n)]
    )
    period = StreamPeriod(
        segments=(PeriodSegment(start=0, end=n, period=2),), columns=8
    )
    tracker = SteadyTracker(period, stream, T, window=4)
    issue = [-1] * n
    prep = SimpleNamespace(
        heads=[0], nxt=[*range(1, n), -1], prv=list(range(-1, n - 1)),
        ndeps=[0] * n, n_ports=1,
    )
    tracker.attach(
        prep, timers=(), shape=(), act_windows=[], issue=issue,
        completion=[0] * n, dep_ready=[95 + 5 * i for i in range(n)],
        caches=(),
    )
    for i, cycle in ((0, 100), (2, dip), (1, 110)):
        issue[i] = cycle
        p, q = prep.prv[i], prep.nxt[i]
        if p >= 0:
            prep.nxt[p] = q
        else:
            prep.heads[0] = q
        if q >= 0:
            prep.prv[q] = p
        assert tracker.issued(i, cycle, 0) == 0
    return tracker


def test_stale_floor_guard_refuses_a_dipping_match():
    """Two boundaries with equal fingerprints lock only if no matched
    issue dipped to ``anchor - floor // 2`` or below: such an issue
    could be bound by a timer the fingerprint compared as stale, so
    the match proves nothing (``SteadyTracker.issued``'s guard)."""
    floor = stale_floor(T)
    assert _guard_tracker(100 - floor // 2 + 1).outcome.locks[0] is not None
    assert _guard_tracker(100 - floor // 2).outcome.locks == [None]


# ----------------------------------------------------------------------
# Keyed lock lookup == a linear scan; long machine cycles lock
# ----------------------------------------------------------------------
def _scan_checked(run):
    """Call ``run()`` while every boundary's keyed lookup is checked
    against :func:`lock_scan_reference`; returns ``(run's result,
    boundaries seen)``."""
    snapshot, locked = SteadyTracker._snapshot, SteadyTracker._locked
    expected, picked = [], []

    def scanned(tracker, b, anchor):
        snap = snapshot(tracker, b, anchor)
        log = tracker.__dict__.setdefault("boundaries", [])
        j = tracker.boundary_j
        # The run: this segment's boundaries since the last restart.
        earlier = [
            (pj, pa, ps) for si, pj, pa, ps in log
            if si == tracker.seg_i and pj in tracker.marks
        ]
        expected.append(
            lock_scan_reference(tracker, earlier, j, anchor, snap)
        )
        picked.append(None)
        log.append((tracker.seg_i, j, anchor, snap))
        return snap

    def picking(tracker, seg, j, b, anchor, q, delta, events):
        picked[-1] = (j, q, delta)
        return locked(tracker, seg, j, b, anchor, q, delta, events)

    with mock.patch.object(SteadyTracker, "_snapshot", scanned), \
            mock.patch.object(SteadyTracker, "_locked", picking):
        result = run()
    assert picked == expected
    return result, len(picked)


#: Full-row streams whose greedy schedule repeats only every 13-21
#: sweeps: (design, optimizer, precision, timing grade) and the
#: ``sweeps_per_period`` every segment locks with.
LONG_CYCLES = [
    ((DesignPoint.AOS_PB, "momentum_sgd", "8/32", "DDR4-3200"), (13,)),
    ((DesignPoint.GRADPIM_DIRECT, "sgd", "16/32", "DDR4-2133"),
     (15, 3, 3)),
    ((DesignPoint.GRADPIM_BUFFERED, "sgd", "16/32", "DDR4-3200"),
     (1, 1, 17)),
    ((DesignPoint.GRADPIM_DIRECT, "sgd", "32/32", "DDR4-2133"), (21,)),
    ((DesignPoint.GRADPIM_DIRECT, "sgd", "8/32", "DDR4-2133"),
     (1, 21, 1)),
]


class TestLockLookup:
    @pytest.mark.parametrize(
        "workload, cycles", LONG_CYCLES,
        ids=lambda v: "-".join(str(getattr(x, "value", x)) for x in v),
    )
    def test_long_cycles_lock_exactly(self, workload, cycles):
        design, optimizer, precision, timing = workload
        model = UpdatePhaseModel(
            timing=PRESETS[timing], columns_per_stripe=128
        )
        config = DESIGNS[design]
        _, _, period, art = model._build_stream(
            config, build_optimizer(optimizer), PRECISIONS[precision]
        )
        geometry = model._one_channel()
        scheduler = model._scheduler(
            config, geometry, config.issue_model(geometry)
        )
        plain = scheduler.run(art.columnar)
        replayed, boundaries = _scan_checked(
            lambda: scheduler.run(art.columnar, period=period)
        )
        outcome = replayed.periodic
        assert boundaries
        assert tuple(
            lock.sweeps_per_period for lock in outcome.locks
        ) == cycles
        assert outcome.engaged
        assert replayed.issue_cycles() == plain.issue_cycles()
        assert replayed.stats == plain.stats
