"""Periodic steady-state replay (``CommandScheduler.run(..., period=...)``).

GradPIM update-phase streams are stripe-periodic by construction: after
a short prologue, every *sweep* (one round-robin pass over the stripes)
issues the same command pattern against the same machine-state shape,
so the greedy schedule settles into a cycle of equal-length sweeps.

Given a stream's :class:`~repro.dram.period.StreamPeriod`, the one exact
loop (:func:`repro.dram.columnar.schedule_columnar`) reports every issue
to a :class:`SteadyTracker`. It follows the *frontier* (lowest unissued
index: the lowest head of the loop's per-port queues) and, at each
sweep boundary, fingerprints the loop's flat state:
bank / bank-group / rank timers, the rank/bus floor table, port free
cycles, the commands issued ahead of the frontier, and everything the
lookahead windows can see with its dependency state. Timers compare
*relative to the boundary's cycle* when recent and absolutely when
stale (older than :func:`stale_floor`: too old to bind a decision).

Every boundary's snapshot is kept, keyed by its structure and its
relative timers with each stale one folded to the floor: snapshots
that can match share a key, so one lookup finds every candidate
whatever the cycle length. When one ``q`` boundaries back matches
(newest first: the smallest ``q``) and the stream shows the rest of
the segment body repeats the matched sweeps shifted (:func:`_repeats`:
inside a tiled run, from its block alone), the tracker *replays* all but the last few sweeps in place — dependents,
queues, live timers shifted, the loop's caches marked stale — and the
loop simulates the tail for real. No replayed command is written to a
Python list: ``schedule_columnar`` assembles their issue cycles with
numpy from the outcome's :class:`~repro.dram.period.Replay` records,
which the trace validator also proves.
Snapshots stop only when fewer than two sweeps of the segment are
left. The schedule is byte-identical to the plain loop's
(``tests/dram/test_steady.py``); streams that never lock simulate
every command.

Soundness: the next decision depends only on the visible candidates and
their dependency state, the timers (both fingerprinted) and the static
shape of the not-yet-visible stream (the shape check). Stale timers
compare for identity, not shift; the anchor delta must be positive, and
no matched issue may dip near the stale floor (monotonicity guard).
"""

from __future__ import annotations

import numpy as np

from repro.dram.columnar import (
    KIND,
    KIND_ORDER,
    TURNAROUND_GAP,
    _UNLINKED,
    _ragged,
)
from repro.dram.period import (
    PeriodicOutcome,
    Replay,
    SegmentLock,
    StreamPeriod,
)


def stale_floor(timing) -> int:
    """Cycles after which an untouched timer cannot bind any decision.

    Every timing constraint reaches at most one of the spans below past
    the cycle that set it; twice their maximum is a safe horizon. The
    monotonicity guard keeps every matched issue above ``anchor -
    floor // 2``, so a stale value can never bind a future issue, which
    makes comparing stale values for identity (not shift) sound.
    """
    t = timing
    span = max(
        t.tRCD + t.tRAS + t.tRP,
        t.tCL + t.tCWL + 2 * t.tBURST + t.tWR + t.tWTR_L,
        t.tFAW,
        t.tCCD_L,
        t.tPIM,
        t.rank_switch_penalty + TURNAROUND_GAP,
        t.tMOD,
    )
    return 2 * span


def _repeats(stream, lo: int, hi: int, shift: int, moving: int) -> bool:
    """Whether commands ``[lo, hi)`` repeat ``[lo - shift, hi - shift)``:
    the same shape (:meth:`ColumnarStream.shape_repeats
    <repro.dram.columnar.ColumnarStream.shape_repeats>`), and each
    dependency moved by ``shift`` if it points at or past ``moving``
    (into a periodic body), else unchanged (into what precedes it).

    Where a run holds a whole block of both sides the dependencies
    follow from its block (:func:`_run_deps_repeat`); elsewhere they are
    gathered and compared.
    """
    if hi > stream.n or not stream.shape_repeats(lo, hi, shift):
        return False
    for a, b, run in stream.translated(lo, hi, shift):
        verdict = None
        if run is not None and b - a >= run.span:
            verdict = _run_deps_repeat(run, a, shift, moving)
        if verdict is None:
            counts, deps = stream.deps(a, b)
            back, before = stream.deps(a - shift, b - shift)
            verdict = np.array_equal(counts, back) and np.array_equal(
                deps, before + shift * (before >= moving)
            )
        if not verdict:
            return False
    return True


def _run_deps_repeat(run, a: int, shift: int, moving: int):
    """:func:`_repeats`' dependency check over commands from ``a`` on
    whose block positions all occur, ``x`` and ``x - shift`` in ``run``,
    decided from the block: ``x`` at position ``p`` and copy ``k`` sits
    against position ``back[p]`` of copy ``k - shift // span -
    carry[p]``. The dependency counts must match position by position;
    a moving dependency of ``x - shift`` must point at or past
    ``moving`` from its lowest copy on and a kept one below it, and
    then each of ``x``'s must be its partner moved by ``shift``
    (moving) or the same (kept), whatever the copy. ``None`` when a
    dependency's status or kind changes across the pair, which only a
    gather settles."""
    back, carry = run.translation(shift)
    counts = run.dep_counts
    if not np.array_equal(counts, counts[back]):
        return False
    _, partner = _ragged(run.dep_ptr, back)
    moves = run.moves
    if not np.array_equal(moves, moves[partner]):
        return None
    deps, theirs = run.dep_indices, run.dep_indices[partner]
    # Lowest copy of x - shift at each position, per dependency.
    p = np.arange(run.span)
    lowest = -((run.start + p - a) // run.span) - shift // run.span - carry
    low = theirs + np.repeat(lowest, counts) * run.span
    if not np.array_equal(np.where(moves, low, theirs) >= moving, moves):
        return None
    drop = np.repeat(carry, counts) * run.span
    return np.array_equal(
        deps, np.where(moves, theirs + shift % run.span - drop, theirs)
    )


class SteadyTracker:
    """The lock logic for one run of the columnar loop.

    Built from a stream and its :class:`StreamPeriod`; the loop hands
    it its flat state (:meth:`attach`) and reports every issue
    (:meth:`issued`), which returns how many commands a replay just
    scheduled, until the tracker is :attr:`idle`. :meth:`finish`
    returns the :class:`PeriodicOutcome`. Snapshots are kept keyed
    (:meth:`_restart`) until fewer than two sweeps of a segment are left.
    """

    #: Failed shape checks tolerated per segment: dependency patterns
    #: can take a couple of sweeps to settle (register alternation
    #: creates edges two sweeps back).
    MAX_SHAPE_FAILURES = 4

    def __init__(self, period: StreamPeriod, stream, timing,
                 window: int) -> None:
        self.segments = tuple(period.segments)
        self.stream = stream
        self.window = window
        self.floor = stale_floor(timing)
        self.outcome = PeriodicOutcome(locks=[None] * len(self.segments))
        self.frontier = 0
        self.ahead: set[int] = set()  # issued indices past the frontier
        self.seg_i = -1
        self._next_segment()

    def _next_segment(self) -> None:
        self.seg_i += 1
        self.seg = (
            self.segments[self.seg_i]
            if self.seg_i < len(self.segments) else None
        )
        self.boundary_j = -1  # boundary index of the last snapshot
        self._restart()
        self.done = self.seg is None  # replayed, abandoned or past the end
        self.shape_failures = 0

    def _restart(self) -> None:
        """Start a run of contiguous boundaries: ``history`` maps a
        fingerprint key to its ``(j, anchor, timers)``, oldest first;
        the run's issues are the flat ``ev_i`` / ``ev_c`` / ``ev_p``
        (index, cycle, port), ``marks[j]`` their length at boundary j."""
        self.history: dict[tuple, list] = {}
        self.ev_i, self.ev_c, self.ev_p = [], [], []
        self.marks: dict[int, int] = {}

    @property
    def done(self) -> bool:
        """The open segment is replayed, abandoned or past the end."""
        return self._done

    @done.setter
    def done(self, value: bool) -> None:
        self._done = value
        #: Nothing left to do: past the last segment, or the last
        #: segment replayed or abandoned. The loop stops reporting.
        self.idle = value and self.seg_i >= len(self.segments) - 1

    def attach(self, prep, *, timers, shape, act_windows, issue,
               completion, dep_ready, caches) -> None:
        """Bind the loop's live state: ``timers`` (flat cycle lists),
        ``shape`` (open rows, last ACT groups), the rank ACT-window
        deques, the issue / completion / dependency-ready vectors and
        ``caches`` (cached cycles, port-memo stale flags, dirty lists)."""
        self.prep, self.timers, self.shape = prep, timers, shape
        self.act_windows, self.caches = act_windows, caches
        self.issue, self.completion = issue, completion
        self.dep_ready = dep_ready

    def finish(self) -> PeriodicOutcome:
        outcome = self.outcome
        outcome.simulated = self.stream.n - outcome.skipped
        if not outcome.engaged:
            outcome.reason = "no-lock"
        return outcome

    def issued(self, i: int, cycle: int, port: int) -> int:
        """Record one issue, already unlinked; when it moves the frontier
        into a new sweep, fingerprint the state, look for a steady cycle
        and replay it if the stream allows. Returns the commands
        replayed (or 0)."""
        if not self._done:
            self.ev_i.append(i)
            self.ev_c.append(cycle)
            self.ev_p.append(port)
        if i != self.frontier:
            self.ahead.add(i)
            return 0
        f = self._lowest_pending()
        if self.ahead:
            self.ahead.difference_update(range(i + 1, f))
        self.frontier = f
        while self.seg is not None and f >= self.seg.end:
            self._next_segment()
        seg = self.seg
        if seg is None or f < seg.start:
            return 0
        j = (f - seg.start) // seg.period
        if j == self.boundary_j or self._done:
            return 0
        if j != self.boundary_j + 1:
            self._restart()  # a skipped boundary ends the run
        self.boundary_j = j
        self.marks[j] = end = len(self.ev_i)
        b = seg.start + j * seg.period
        struct, timers = self._snapshot(b, cycle)
        key = (struct, np.maximum(timers, -self.floor).tobytes())
        entries = self.history.setdefault(key, [])
        entries.append((j, cycle, timers))
        # Newest first: the smallest super-period q whose fingerprint
        # q boundaries ago matches this one.
        for prev_j, prev_anchor, prev_timers in entries[-2::-1]:
            delta = cycle - prev_anchor
            if delta <= 0 or not self._matches(prev_timers, timers, delta):
                continue
            q = j - prev_j
            start = self.marks[prev_j]
            if end - start != q * seg.period:
                continue
            if min(self.ev_c[start:end]) <= prev_anchor - self.floor // 2:
                continue  # an issue dipped towards the stale zone
            events = tuple(np.array(values[start:end], dtype=np.int64)
                           for values in (self.ev_i, self.ev_c, self.ev_p))
            return self._locked(seg, j, b, cycle, q, delta, events)
        if seg.sweeps - j < 2:
            self.done = True  # too few sweeps left to replay
            self._restart()
        return 0

    def _lowest_pending(self) -> int:
        """The lowest head: every pending command is on its queue."""
        heads = self.prep.heads
        f = min(heads)
        if f < 0:  # an empty queue
            f = min((h for h in heads if h >= 0), default=self.stream.n)
        return f

    def _snapshot(self, b: int, anchor: int):
        """``(structure, timers - anchor)`` of the loop state at
        boundary index ``b``: the structure holds everything
        shape-like (open rows, ACT-window lengths, commands issued
        ahead, the visible window with dependency counters)."""
        timers: list[int] = []
        for values in self.timers:
            timers += values
        for window in self.act_windows:
            timers += window
        struct = [tuple(values) for values in self.shape]
        struct.append(tuple(len(w) for w in self.act_windows))
        issue, completion = self.issue, self.completion
        struct.append(tuple(sorted(
            (i - b, issue[i] - anchor, completion[i] - anchor)
            for i in self.ahead
        )))
        prep, dep_ready = self.prep, self.dep_ready
        nxt, ndeps = prep.nxt, prep.ndeps
        self.reach = 0  # deepest visible index, relative to ``b``
        for node in prep.heads:
            seen = []
            steps = self.window
            while node >= 0 and steps:
                seen.append((node - b, ndeps[node]))
                timers.append(dep_ready[node])
                steps -= 1
                after = nxt[node]
                if after == _UNLINKED and steps:
                    after = prep.linked(nxt, node)
                node = after
            if seen:
                self.reach = max(self.reach, seen[-1][0])
            struct.append(tuple(seen))
        return tuple(struct), np.array(timers, dtype=np.int64) - anchor

    def _matches(self, x, y, gap: int) -> bool:
        """Every timer either shifted identically (same relative value)
        or stale-identical (both below the floor, same absolute cycle:
        untouched since before the periodic window). The structures are
        equal: they are part of the history key."""
        x, y = x[x != y], y[x != y]
        # x == y + gap > y, so x stale implies y stale.
        return bool(((x <= -self.floor) & (x == y + gap)).all())

    def _locked(self, seg, j, b, anchor, q, delta, events) -> int:
        """Record the lock and, if there is room, replay the matched
        super-period across the segment middle."""
        ev_i, _, ev_port = events
        per_port = np.bincount(ev_port, minlength=self.prep.n_ports).tolist()
        ordered = np.sort(ev_i)
        kinds = np.bincount(
            self.stream.shape_columns(ordered)[KIND],
            minlength=len(KIND_ORDER),
        )
        # Contamination horizon: a port's head advances by its
        # per-period count c_p while its scan looks ``window`` entries
        # ahead, so the last ``1 + ceil(window * q / c_p)`` sweeps may
        # see the next phase and are simulated for real (without the
        # +1 an epilogue PRE can slip into a port gap a period early).
        tail = 1 + max(
            (-(-(self.window * q) // c) for c in per_port if c > 0),
            default=1,
        )
        lock = self.outcome.locks[self.seg_i]
        if lock is None:
            self.outcome.locks[self.seg_i] = lock = SegmentLock(
                delta=delta,
                counts={
                    KIND_ORDER[k]: int(c)
                    for k, c in enumerate(kinds.tolist()) if c
                },
                port_counts=tuple(per_port),
                sweeps_per_period=q,
                margin_ok=j <= seg.sweeps - tail,
            )
        P = q * seg.period
        # Windows only slide forward, so no port sees past ``b + m * P
        # + reach`` in the m-th replayed super-period; a port running
        # ahead of the frontier sees further than the tail estimate.
        m = min(
            (seg.sweeps - tail - j) // q,
            (seg.end - 1 - b - self.reach) // P,
        )
        if m < 1 or j - q < 1:
            # Nothing to replay (or the match leans on the prologue's
            # dependency alignment). Still corroborate the shape from
            # two periods in (edges may reach one period back) to the
            # segment end, so profile extrapolation may trust the lock.
            lo = seg.start + 2 * P
            if not lock.shape_ok and j - q >= 1 and lo < seg.end:
                lock.shape_ok = _repeats(
                    self.stream, lo, seg.end, P, seg.start
                )
            return 0
        # The replayed sweeps' windows see into the tail, so the shape
        # must hold through the segment end, not just the last image.
        last = int(ev_i.max()) + 1
        if not _repeats(
            self.stream, b, max(seg.end, last + m * P), P, seg.start
        ):
            self.shape_failures += 1
            if self.shape_failures >= self.MAX_SHAPE_FAILURES:
                self.done = True
            return 0
        self._replay(events, m, P, delta, anchor)
        self.outcome.replays.append(
            Replay(tuple(ordered.tolist()), P, delta, m)
        )
        self.boundary_j = j + m * q
        self.done = True
        self._restart()
        lock.shape_ok = True
        self.outcome.skipped += m * P
        return m * P

    #: Sources per call of a replay's out-edge pass.
    REPLAY_CHUNK = 1 << 14

    def _replay(self, events, m: int, P: int, delta: int,
                anchor: int) -> None:
        """Schedule ``m`` copies of ``events`` in place, then advance
        the machine by ``m * delta`` cycles.

        ``events`` holds the index, cycle and port arrays of the matched
        super-period. Image ``t`` of event ``(i, cycle, port)`` is
        command ``i + t * P``, issued at ``cycle + t * delta``. The
        images are handled with numpy; the loop's lists are read and
        written only at the few commands of their span that are not
        images:

        * no image's issue or completion slot is written (the
          :class:`~repro.dram.period.Replay` record stands for them),
          but for the last copy's images issued ahead of the new
          frontier, whose cycles the next snapshots read;
        * an image's dependents that are not images are still pending:
          the span's pending commands, whose dependencies the stream's
          accessors give, and commands past the span, which the span's
          out-edges that leave it reach
          (:meth:`~repro.dram.columnar.ColumnarStream.edges` with
          ``above``); those edges are folded per target (edge count,
          latest completion) and applied in Python;
        * each port's queue is relinked through the commands of the
          span that stay pending, so no queue reaches an image (whose
          own links are left as they were).

        ``tests/oracle.py`` keeps the per-command loop this must match
        (``replay_reference``).
        """
        prep = self.prep
        issue = self.issue
        ev_i, ev_c, ev_port = events
        ev_done = ev_c + np.array([prep.lat[i] for i in ev_i.tolist()])
        # Every image lies in [lo, hi): a mask marks which, with its
        # completion cycle. The mask's extra last slot stands for every
        # command past the span.
        first_i, last_i = int(ev_i.min()), int(ev_i.max())
        lo, hi = first_i + P, last_i + m * P + 1
        image = np.zeros(hi - lo + 1, dtype=bool)
        done_at = np.zeros(hi - lo, dtype=np.int64)
        t = np.arange(1, m + 1)[:, None]
        x = (ev_i + t * P).ravel() - lo
        image[x] = True
        done_at[x] = (ev_done + t * delta).ravel()
        # The span's other commands (the events are P distinct commands,
        # so at most last_i - first_i + 1 - P): those still pending.
        free = ~image
        kept = [
            j for j in (np.flatnonzero(free[:-1]) + lo).tolist()
            if issue[j] < 0
        ]
        # Each port's first and last image, with the pending commands
        # linked before and after them.
        nxt, prv, linked = prep.nxt, prep.prv, prep.linked
        bounds = {}
        for port in set(ev_port.tolist()):
            mine = ev_i[ev_port == port]
            u, w = int(mine.min()) + P, int(mine.max()) + m * P
            bounds[port] = (u, linked(prv, u), w, linked(nxt, w))
        # A command issued before the replay has no unissued
        # dependency, so an image's dependents that are not images are
        # still pending: the span's pending commands and commands past
        # it. Their edges are the former's dependencies and the span's
        # out-edges that leave it; most edges join two images and are
        # never read.
        stream = self.stream
        sources, targets = [], []
        if kept:
            at = np.array(kept, dtype=np.int64)
            counts, deps = stream.deps_at(at)
            inside = (deps >= lo) & (deps < hi)
            sources.append(deps[inside])
            targets.append(np.repeat(at, counts)[inside])
        for a in range(lo, hi, self.REPLAY_CHUNK):
            source, target = stream.edges(
                a, min(a + self.REPLAY_CHUNK, hi), ordered=False, above=hi
            )
            sources.append(source)
            targets.append(target)
        source = np.concatenate(sources) - lo
        target = np.concatenate(targets)
        from_image = image[source]
        ndeps, dep_ready = prep.ndeps, self.dep_ready
        if from_image.any():
            target = target[from_image]
            done = done_at[source[from_image]]
            # Many images feed the same few pending commands.
            base = int(target.min())
            slot = target - base
            edges = np.bincount(slot)
            latest = np.zeros(len(edges), dtype=np.int64)
            np.maximum.at(latest, slot, done)
            hit = np.flatnonzero(edges)
            for j, c, comp in zip((hit + base).tolist(),
                                  edges[hit].tolist(),
                                  latest[hit].tolist()):
                ndeps[j] -= c
                if comp > dep_ready[j]:
                    dep_ready[j] = comp
        # Relink each port's queue: the pending command before its
        # first command in the span, its survivors, the pending command
        # after its last command in the span.
        heads, port_of = prep.heads, prep.port
        for port, (u, before, w, after) in bounds.items():
            chain = [j for j in kept if port_of[j] == port]
            if chain and chain[0] < u:
                before = linked(prv, chain[0])
            if chain and chain[-1] > w:
                after = linked(nxt, chain[-1])
            chain = [before, *chain, after]
            for p, q in zip(chain, chain[1:]):
                if p >= 0:
                    nxt[p] = q
                else:
                    heads[port] = q
                if q >= 0:
                    prv[q] = p
        # Live timers advance; stale ones (untouched throughout) stay.
        live = anchor - self.floor
        shift = m * delta
        for values in self.timers:
            for k, v in enumerate(values):
                if v > live:
                    values[k] = v + shift
        for window in self.act_windows:
            shifted = [v + shift if v > live else v for v in window]
            window.clear()
            window.extend(shifted)
        # Every cached cycle that can go stale sits on a dirty list
        # (REF / MRW cache their final dependency-ready cycle, which
        # no replay changes).
        cached, stale, *dirty = self.caches
        stale[:] = b"\x01" * len(stale)
        for lists in dirty:
            for values in lists:
                for j in values:
                    cached[j] = None
                values.clear()
        # The last copy's images past the new frontier are issued
        # ahead of it.
        self.frontier = self._lowest_pending()
        x = ev_i + m * P
        ahead = x > self.frontier
        self.ahead = set(x[ahead].tolist())
        completion = self.completion
        for j, c, d in zip(x[ahead].tolist(),
                           (ev_c[ahead] + shift).tolist(),
                           (ev_done[ahead] + shift).tolist()):
            issue[j] = c
            completion[j] = d
