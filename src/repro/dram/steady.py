"""Periodic steady-state replay (``CommandScheduler.run(..., period=...)``).

GradPIM update-phase streams are stripe-periodic by construction: after
a short prologue, every *sweep* (one round-robin pass over the stripes)
issues the same command pattern against the same machine-state shape,
so the greedy schedule settles into a cycle of equal-length sweeps.

Given a stream's :class:`~repro.dram.period.StreamPeriod`, the one exact
loop (:func:`repro.dram.columnar.schedule_columnar`) reports every issue
to a :class:`SteadyTracker`. It follows the *frontier* (lowest unissued
index) and, at each sweep boundary, fingerprints the loop's flat state:
bank / bank-group / rank timers, the rank/bus floor table, port free
cycles, the commands issued ahead of the frontier, and everything the
lookahead windows can see with its dependency state. Timers compare
*relative to the boundary's cycle* when recent and absolutely when
stale (older than :func:`stale_floor`: too old to bind a decision).

Every boundary's snapshot is kept, keyed by its structure and its
relative timers with each stale one folded to the floor: snapshots
that can match share a key, so one lookup finds every candidate
whatever the cycle length. When one ``q`` boundaries back matches
(newest first: the smallest ``q``) and one numpy compare shows the
rest of the segment body repeats the matched sweeps shifted, the
tracker *replays* all but the last few sweeps in place — issue cycles,
dependents, live timers shifted, the loop's caches marked stale — and
the loop simulates the tail for real; the outcome records each replay
(:class:`~repro.dram.period.Replay`) for the trace validator.
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

from repro.dram.columnar import KIND_ORDER, TURNAROUND_GAP
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
        ``marks[j]`` is ``len(events)`` when boundary ``j`` was reached."""
        self.history: dict[tuple, list] = {}
        self.events: list[tuple[int, int, int]] = []
        self.marks: dict[int, int] = {}

    @property
    def idle(self) -> bool:
        """Nothing left to do: past the last segment, or the last
        segment replayed or abandoned. The loop stops reporting."""
        return self.done and self.seg_i >= len(self.segments) - 1

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
        """Record one issue; when it moves the frontier into a new
        sweep, fingerprint the state, look for a steady cycle and replay
        it if the stream allows. Returns the commands replayed (or 0)."""
        if not self.done:
            self.events.append((i, cycle, port))
        if i != self.frontier:
            self.ahead.add(i)
            return 0
        issue = self.issue
        f = i + 1
        while f < len(issue) and issue[f] >= 0:
            self.ahead.discard(f)
            f += 1
        self.frontier = f
        while self.seg is not None and f >= self.seg.end:
            self._next_segment()
        seg = self.seg
        if seg is None or f < seg.start:
            return 0
        j = (f - seg.start) // seg.period
        if j == self.boundary_j or self.done:
            return 0
        if j != self.boundary_j + 1:
            self._restart()  # a skipped boundary ends the run
        self.boundary_j = j
        self.marks[j] = end = len(self.events)
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
            events = self.events[self.marks[prev_j]:end]
            if len(events) != q * seg.period:
                continue
            if min(e[1] for e in events) <= prev_anchor - self.floor // 2:
                continue  # an issue dipped towards the stale zone
            return self._locked(seg, j, b, cycle, q, delta, events)
        if seg.sweeps - j < 2:
            self.done = True  # too few sweeps left to replay
            self._restart()
        return 0

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
        nxt, ndeps, dep_ready = self.prep.nxt, self.prep.ndeps, self.dep_ready
        self.reach = 0  # deepest visible index, relative to ``b``
        for node in self.prep.heads:
            seen = []
            steps = self.window
            while node >= 0 and steps:
                seen.append((node - b, ndeps[node]))
                timers.append(dep_ready[node])
                node = nxt[node]
                steps -= 1
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
        per_port = [0] * self.prep.n_ports
        for _i, _c, port in events:
            per_port[port] += 1
        kinds = np.bincount(
            self.stream.kind[[e[0] for e in events]],
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
                lock.shape_ok = self.stream.repeats(
                    lo, seg.end, P, seg.start
                )
            return 0
        # The replayed sweeps' windows see into the tail, so the shape
        # must hold through the segment end, not just the last image.
        last = max(e[0] for e in events) + 1
        if not self.stream.repeats(
            b, max(seg.end, last + m * P), P, seg.start
        ):
            self.shape_failures += 1
            if self.shape_failures >= self.MAX_SHAPE_FAILURES:
                self.done = True
            return 0
        self._replay(events, m, P, delta, anchor)
        self.outcome.replays.append(
            Replay(tuple(sorted(e[0] for e in events)), P, delta, m)
        )
        self.ahead = {
            e[0] + m * P for e in events if e[0] + m * P > self.frontier
        }
        self.boundary_j = j + m * q
        self.done = True
        self._restart()
        lock.shape_ok = True
        self.outcome.skipped += m * P
        return m * P

    #: Replayed commands per numpy chunk: bounds the index, cycle and
    #: out-edge temporaries whatever the length of the segment.
    REPLAY_CHUNK = 1 << 14

    def _replay(self, events, m: int, P: int, delta: int,
                anchor: int) -> None:
        """Schedule ``m`` copies of ``events`` in place, then advance
        the machine by ``m * delta`` cycles.

        Image ``t`` of event ``(i, cycle, port)`` is command ``i + t *
        P``, issued at ``cycle + t * delta``. The images are handled
        with numpy, a chunk of whole super-periods at a time, and the
        loop's lists are read and written only over the index span the
        images cover, never over the whole stream:

        * their issue and completion cycles are written slice by slice;
        * their out-edges are gathered from the stream's CSR, and those
          reaching a command still pending are folded per target (edge
          count, latest completion) and applied in Python;
        * the images leave their ports' pending queues: each queue is
          relinked through the commands of the span that stay pending,
          so no queue reaches an image and the images' own links are
          left as they were.

        ``tests/oracle.py`` keeps the per-command loop this must match
        (``replay_reference``).
        """
        prep = self.prep
        issue, completion = self.issue, self.completion
        ev_i, ev_c, ev_port = (
            np.array(column, dtype=np.int64) for column in zip(*events)
        )
        ev_done = ev_c + np.array(
            [prep.lat[i] for i in ev_i.tolist()], dtype=np.int64
        )
        # Every image lies in [lo, hi); a mask marks which.
        first_i, last_i = int(ev_i.min()), int(ev_i.max())
        lo, hi = first_i + P, last_i + m * P + 1
        step = max(1, self.REPLAY_CHUNK // P)
        chunks = [
            np.arange(t, min(t + step, m + 1))[:, None]
            for t in range(1, m + 1, step)
        ]
        image = np.zeros(hi - lo, dtype=bool)
        for t in chunks:
            image[(ev_i + t * P).ravel() - lo] = True
        # Each port's first and last image, with the pending commands
        # linked before and after them (read before the images' own
        # links are cleared).
        nxt, prv = prep.nxt, prep.prv
        bounds = {}
        for port in set(ev_port.tolist()):
            mine = ev_i[ev_port == port]
            u, w = int(mine.min()) + P, int(mine.max()) + m * P
            bounds[port] = (u, prv[u], w, nxt[w])
        optr, oidx = self.stream.out_indptr, self.stream.out_indices
        ndeps, dep_ready = prep.ndeps, self.dep_ready
        survivors = []  # commands of the span left pending
        for k, t in enumerate(chunks):
            x = (ev_i + t * P).ravel()
            done = (ev_done + t * delta).ravel()
            # The chunk's images lie in [a, b). The events are P
            # distinct commands, so last_i - first_i >= P - 1: the
            # next chunk starts at or before b, and the ranges [a, end)
            # tile the span.
            a = first_i + int(t[0, 0]) * P
            b = last_i + int(t[-1, 0]) * P + 1
            end = b if k == len(chunks) - 1 else a + len(t) * P
            held = np.ones(b - a, dtype=bool)  # slots the chunk keeps
            held[x - a] = False
            held = np.flatnonzero(held)
            for values, image_values in (
                (completion, done),
                (issue, (ev_c + t * delta).ravel()),
            ):
                block = np.empty(b - a, dtype=np.int64)
                block[x - a] = image_values
                block[held] = [values[j] for j in (held + a).tolist()]
                values[a:b] = block.tolist()
            # ``block`` holds issue cycles now: -1 marks pending.
            pending = held[(block[held] < 0) & (held < end - a)]
            survivors.append(pending + a)
            # A command issued before the replay has no unissued
            # dependency, so every out-edge target that is not an
            # image is still pending.
            begin = optr[x]
            count = optr[x + 1] - begin
            edge = np.arange(int(count.sum())) + np.repeat(
                begin - (np.cumsum(count) - count), count
            )
            target = oidx[edge]
            inside = target < hi
            keep = ~inside
            keep[inside] = ~image[target[inside] - lo]
            target = target[keep]
            if not target.size:
                continue
            # Many images feed the same few pending commands.
            base = int(target.min())
            slot = target - base
            edges = np.bincount(slot)
            latest = np.zeros(len(edges), dtype=np.int64)
            np.maximum.at(latest, slot, np.repeat(done, count)[keep])
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
        heads, tails, port_of = prep.heads, prep.tails, prep.port
        kept = np.concatenate(survivors).tolist()
        for port, (u, before, w, after) in bounds.items():
            chain = [j for j in kept if port_of[j] == port]
            if chain and chain[0] < u:
                before = prv[chain[0]]
            if chain and chain[-1] > w:
                after = nxt[chain[-1]]
            chain = [before, *chain, after]
            for p, q in zip(chain, chain[1:]):
                if p >= 0:
                    nxt[p] = q
                else:
                    heads[port] = q
                if q >= 0:
                    prv[q] = p
                else:
                    tails[port] = p
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
        try:
            self.frontier = issue.index(-1, self.frontier)
        except ValueError:
            self.frontier = len(issue)
