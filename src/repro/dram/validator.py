"""Independent timing-rule checker for scheduled command traces.

This module deliberately re-implements the JEDEC rules from scratch,
sharing no logic with the scheduler's loop. Every scheduled trace runs
through it; a disagreement between the two implementations surfaces as
a :class:`~repro.errors.TimingViolation`.

There is one checker, :func:`validate_trace_columnar`, over a scheduled
:class:`~repro.dram.columnar.ColumnarSchedule`. The whole-trace checks
(channel range, unissued commands, dependencies) are single array
compares over every command (the dependency check per tiled run, by
index arithmetic). Every rule family (command-bus slots,
bank row-state, bank-group tCCD_L/tWTR_L/tPIM, rank
tRRD/tFAW/tCCD_S/tWTR_S, data-bus occupancy) is a handful of
whole-array numpy operations — segmented sorts, adjacent differences,
exclusive running maxima — fused across channels through global
resource ids. No path does per-command Python work or builds a
``Command``.

When a family flags a problem, the checker names the *first offender*
of a sort-and-sweep over the trace: bad bus scope, then (multi-channel
only) a channel out of range, an unissued command, the first late
dependency in stream order, and then each channel in ascending id —
its first command in (issue cycle, stream index) order that any family
flags, the families taken in the order :data:`_RULES` lists them, and
only then its first data-bus overlap (buses in the order their first
burst appears, overlaps in burst-start order).

:func:`validate_trace` is the same check over a ``Command`` list.

Replayed traces
---------------

Given the run's :class:`~repro.dram.period.PeriodicOutcome`
(``periodic=``), the family checks — the part that sorts — run on a
*compressed* trace that leaves most replayed images out, so their cost
follows the simulated commands rather than the stream. The outcome is
not trusted. For each :class:`~repro.dram.period.Replay` (events ``E``;
``P`` commands and ``delta`` cycles per super-period; ``m`` copies) the
checker establishes on the trace itself, with ``R`` the rule reach
(:func:`_reach`, at least :func:`~repro.dram.steady.stale_floor`):

1. *Translation.* ``E`` holds one command per residue modulo ``P``, and
   every image ``y = e + u * P`` (``1 <= u <= m``) has the kind, rank,
   bank group, bank, row and channel of ``y - P`` and issues ``delta``
   cycles after it (slice compares over the span where every index is
   an image, a gather for the few images at its ends). So the images
   are distinct commands and image ``(e, u)`` issues at
   ``c_e + u * delta``.
2. *Neighbourhood.* The cut is ``[S, S + k * delta)`` with ``S = max
   c_e + delta + R``. In ``Q = [max c_e, S + (k + 1) * delta + R)``
   only images of this replay issue: as many commands issue there as
   images ``u = 0..m`` fall there. ``k`` is the largest that keeps
   ``Q`` below the earliest event's last image.

The compressed trace drops every command issued in a cut and moves
every command issued above it down by ``k * delta`` cycles; cuts of
different replays may not overlap. If any check fails, or the families
flag anything on the compressed trace, the families run on the full
trace, so every message and first offender is the full check's; the
compressed trace only ever *accepts*.

Why that is sound. Whether a family flags a command depends on the
kinds, coordinates and cycles of the commands sharing one of its
resources, never on stream indices (commands sharing a bank, bank group
or rank share a port, so two at one cycle are themselves a command-bus
breach, and bursts that start together overlap). Every rule but one
reaches less than ``R`` cycles: the adjacent gaps (command-bus slots,
tCCD, tRRD, tPIM, data-bus gaps, whose burst-start order may look a few
cycles past a command), tFAW's four-ACT window, tRCD/tRAS/tRP from the
last ACT or PRE, and tRTP/tWR/tWTR from the running maxima of read
cycles and write-data ends — an older ACT, PRE, RD or WR cannot bind.
The exception is the open-row state (is the bank open, and on which
row), read from the bank's last ACT or PRE however old. Inside ``Q``,
the commands at ``c`` and at ``c + delta`` correspond one to one
(image ``(e, u)`` to ``(e, u + 1)``) with equal kinds and coordinates.

* A command kept below ``S`` sees, within ``R``, the same commands in
  both traces, except that the compressed trace shows in ``[S, S +
  R)`` the moved commands of ``[S + k * delta, S + k * delta + R)``,
  images of ``Q`` that translate onto the cut ones. Its open-row state
  reads only commands below it, which nothing changed.
* A moved command sees the same commands above ``S + k * delta``
  (they moved with it), and ``[S - R, S)`` in place of ``[S + k *
  delta - R, S + k * delta)``: images of ``Q``, one translate of the
  other. Its bank's open-row state is the same at ``S`` and at ``S + k
  * delta``: if the bank's last ACT or PRE before ``S + k * delta``
  lies in the cut, its twin a super-period later would lie beyond
  it, so it lies in the cut's last ``delta`` and its translate by ``-k
  * delta`` is the bank's last ACT or PRE before ``S`` (a later one in
  ``[S - delta, S)`` would have a twin past it); if none lies in the
  cut, the state does not change across it.
* A cut command at ``c`` is the translate of a moved command ``j``
  super-periods later, at ``c + j * delta`` in ``[S + k * delta, S +
  (k + 1) * delta)``. Within ``R`` of either, only images of ``Q``
  issue, and they correspond one to one. Their banks' open-row states
  agree too: from ``S`` on, a bank's last ACT or PRE before ``y +
  delta`` is the twin of its last one before ``y`` (or none falls in
  ``[y, y + delta)`` and the state holds). A breach at the cut command
  is a breach at the moved one, which the compressed trace checks.

So a compressed trace with no breach is a full trace with none.
Dependencies are checked on every edge of the full trace either way.
The translation check reads the shape of a span inside a tiled run
from the run's block; only the rest is gathered.

The test suite keeps a family-by-family formulation of the same rules
as the oracle this checker is held to, pins its exception text with a
golden, and holds compressed and full validation to raise-iff on
perturbed replayed traces (``tests/dram/test_validator.py``).

Production sweeps that trust the (property-tested) scheduler can skip
validation entirely via ``SimJobSpec(validate=False)`` /
``--no-validate``; see :mod:`repro.service`.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.dram.columnar import (
    CHANNEL,
    KIND,
    KIND_INDEX,
    KIND_ORDER,
    TURNAROUND_GAP,
    ColumnarSchedule,
    ColumnarStream,
    _latency_table,
)
from repro.dram.commands import (
    COLUMN_COMMANDS,
    Command,
    CommandType,
    EXTERNAL_COLUMN_COMMANDS,
    INTERNAL_COLUMN_COMMANDS,
    PIM_ALU_COMMANDS,
    READ_COMMANDS,
    WRITE_COMMANDS,
)
from repro.dram.geometry import DeviceGeometry
from repro.dram.period import PeriodicOutcome
from repro.dram.steady import stale_floor
from repro.dram.timing import TimingParams
from repro.errors import TimingViolation


def validate_trace(
    commands: Sequence[Command],
    timing: TimingParams,
    geometry: DeviceGeometry,
    port_of_rank: Sequence[int],
    per_bank_pim: bool = False,
    data_bus_scope: str = "channel",
) -> None:
    """Raise :class:`TimingViolation` on the first rule breach of a
    ``Command`` list (its ``issue_cycle`` fields are the schedule)."""
    stream = ColumnarStream.from_commands(commands)
    validate_trace_columnar(
        ColumnarSchedule(stream, stream.issue_cycle), timing, geometry,
        port_of_rank, per_bank_pim=per_bank_pim,
        data_bus_scope=data_bus_scope,
    )


def _kind_mask(members) -> np.ndarray:
    return np.array([k in members for k in KIND_ORDER], dtype=bool)


_IS_COL = _kind_mask(COLUMN_COMMANDS)
_IS_INT = _kind_mask(INTERNAL_COLUMN_COMMANDS)
_IS_EXT = _kind_mask(EXTERNAL_COLUMN_COMMANDS)
_IS_ALU = _kind_mask(PIM_ALU_COMMANDS)
_IS_RD = _kind_mask(READ_COMMANDS)
_IS_WR = _kind_mask(WRITE_COMMANDS)
_IS_ACT = _kind_mask({CommandType.ACT})
_IS_PRE = _kind_mask({CommandType.PRE})
_RD = KIND_INDEX[CommandType.RD]
_WR = KIND_INDEX[CommandType.WR]

#: Every rule one command can break, in the order they are checked on
#: it: command bus, bank row state, bank group, rank. A command breaks
#: rules of one kind only (ACT, PRE, column or ALU), so this one order
#: is each kind's check order.
_RULES = (
    "command-bus",
    "ACT-open", "tRP",
    "PRE-closed", "tRAS", "tRTP", "tWR",
    "row-match", "tRCD",
    "tCCD_L", "tWTR_L", "tPIM",
    "tRRD", "tFAW", "tCCD_S", "tWTR_S",
)
_NO_RULE = len(_RULES)


def _seg_excl_cummax(
    values: np.ndarray, mask: np.ndarray, seg: np.ndarray
) -> np.ndarray:
    """Exclusive segmented running maximum.

    ``out[i]`` is the max of ``values[j]`` over ``j < i`` in the same
    segment with ``mask[j]`` set, or a negative number when no such
    ``j`` exists. Non-negative inputs only. Works by offsetting each
    segment into its own value band, wider than any input, so one
    global ``np.maximum.accumulate`` never lets a previous segment's
    maximum leak forward as anything but a negative. (Two results that
    are both negative do not compare meaningfully.)
    """
    band = seg * (values.max() + 2)
    run = np.maximum.accumulate(np.where(mask, values, -1) + band)
    excl = np.empty_like(run)
    excl[0] = -1
    excl[1:] = run[:-1]
    return excl - band


def _sorted_family(idx, res, t):
    """Sort one family's rows by (resource, cycle, stream index) and
    return (ordered stream indices, resources, cycles, segment ids,
    same-segment adjacency mask)."""
    order = np.lexsort((idx, t[idx], res))
    o = idx[order]
    r = res[order]
    c = t[o]
    same = r[1:] == r[:-1]
    seg = np.zeros(len(o), dtype=np.int64)
    if len(o) > 1:
        np.cumsum(~same, out=seg[1:])
    return o, r, c, seg, same


def _on_later(pairs: np.ndarray) -> np.ndarray:
    """Per-row mask from an adjacent-pair mask (pair ``j`` flags row
    ``j + 1``)."""
    out = np.zeros(len(pairs) + 1, dtype=bool)
    out[1:] = pairs
    return out


class _Offenders:
    """The rows each per-command family flags.

    Nothing is kept until a family fires; then each command remembers
    the first rule it breaks in :data:`_RULES` order, and each rule its
    family's sorted stream indices and message builder.
    """

    def __init__(self, n: int) -> None:
        self.n = n
        self.code = None
        self.describe = {}

    def flag(self, o, conds, rules, describe) -> None:
        """``conds`` are the family's per-row masks over its sorted
        rows ``o``, in check order, one per rule in ``rules``;
        ``describe(rule, position)`` builds the message."""
        bad = conds[0]
        for cond in conds[1:]:
            bad = bad | cond
        if not bad.any():
            return
        if self.code is None:
            self.code = np.full(self.n, _NO_RULE, dtype=np.int64)
        codes = np.select(
            conds, [_RULES.index(rule) for rule in rules], _NO_RULE
        )
        self.code[o] = np.minimum(self.code[o], codes)
        for rule in rules:
            self.describe[rule] = (o, describe)

    def first(self, t, ch):
        """(channel, violation) of the first flagged command in
        (channel, cycle, stream index, check order), or ``None``."""
        if self.code is None:
            return None
        rows = np.flatnonzero(self.code < _NO_RULE)
        i = rows[np.lexsort((rows, t[rows], ch[rows]))[0]]
        rule = _RULES[self.code[i]]
        o, describe = self.describe[rule]
        p = int(np.flatnonzero(o == i)[0])
        return int(ch[i]), TimingViolation(rule, int(t[i]), describe(rule, p))


def validate_trace_columnar(
    schedule: ColumnarSchedule,
    timing: TimingParams,
    geometry: DeviceGeometry,
    port_of_rank: Sequence[int],
    per_bank_pim: bool = False,
    data_bus_scope: str = "channel",
    periodic: Optional[PeriodicOutcome] = None,
) -> int:
    """Raise :class:`TimingViolation` on the first rule breach of a
    :class:`~repro.dram.columnar.ColumnarSchedule` (see the module
    docstring for which breach is first).

    ``periodic`` is the :class:`~repro.dram.period.PeriodicOutcome` of
    the run that produced the schedule, if any: the family checks then
    run on the trace with most replayed images cut out when the trace
    proves that sound (module docstring). Returns the rows the family
    checks ran over.
    """
    if data_bus_scope not in ("channel", "dimm", "rank"):
        raise TimingViolation(
            "config", 0, f"unknown data_bus_scope {data_bus_scope!r}"
        )
    stream = schedule.stream
    n = stream.n
    if n == 0:
        return 0
    t = schedule.issue_cycle.astype(np.int64)
    channels = geometry.channels
    if channels > 1:
        # A run's first offender lies in its first copy.
        for run in stream.pieces:
            start, ch = run.start, run.block[:, CHANNEL]
            out = (ch < 0) | (ch >= channels)
            if bool(out.any()):
                i = start + int(np.argmax(out))
                raise TimingViolation(
                    "channel", max(int(t[i]), 0),
                    f"command {i} channel {int(ch[i - start])} out of "
                    "range",
                )
    if bool((t < 0).any()):
        raise TimingViolation(
            "unissued", 0, "command without an issue cycle in trace"
        )
    _check_dependencies(stream, t, timing)

    args = (timing, geometry, port_of_rank, per_bank_pim, data_bus_scope)
    validated = 0
    if periodic is not None and periodic.replays:
        keep = _compressed(stream, t, periodic.replays, timing)
        if keep is not None:
            rows, cycles = keep
            validated = len(rows)
            if _families(
                cycles, *_columns(stream, channels, rows), *args
            ) is None:
                return validated
    first = _families(t, *_columns(stream, channels), *args)
    if first is not None:
        raise first
    return validated + n


def _check_dependencies(stream, t, timing) -> None:
    """Every consumer must issue at or after each dependency's
    completion; raises on the first late one in stream (CSR) order.
    The dependency CSR is read piece by piece (a run's by index
    arithmetic from its block)."""
    latency = _latency_table(timing)
    done = t + np.concatenate([
        np.tile(latency[run.block[:, KIND]], run.copies)
        for run in stream.pieces
    ] or [np.zeros(0, dtype=np.int64)])
    counts, deps = stream.deps(0, stream.n)
    consumer = np.repeat(np.arange(stream.n), counts)
    late = t[consumer] < done[deps]
    if bool(late.any()):
        k = int(np.argmax(late))
        i, d = int(consumer[k]), int(deps[k])
        raise TimingViolation(
            "dependency", int(t[i]),
            f"command {i} issued before dependency {d} "
            f"completed at {int(done[d])}",
        )


def _columns(stream, channels, rows=None):
    """(kind, rank, bankgroup, bank, row, channel) of ``rows`` (every
    command when ``None``), as int64 arrays; the channel is 0 on a
    one-channel geometry."""
    columns = (
        stream.rows(0, stream.n, shape=True).T.copy() if rows is None
        else stream.shape_columns(rows)
    )
    if channels == 1:
        columns[-1] = 0
    return tuple(columns)


def _families(t, kind, rank, bg, bank, row, ch, timing, geometry,
              port_of_rank, per_bank_pim, data_bus_scope):
    """The first breach of a per-command rule family (command bus, bank
    row state, bank group, rank, data bus), or ``None``. Indices into
    the arrays are the stream indices the messages name."""
    n = len(t)
    channels = geometry.channels
    t_ = timing
    is_col = _IS_COL[kind]
    is_int = _IS_INT[kind]
    is_ext = _IS_EXT[kind]
    is_alu = _IS_ALU[kind]
    is_rd = _IS_RD[kind]
    is_wr = _IS_WR[kind]
    is_act = _IS_ACT[kind]
    is_pre = _IS_PRE[kind]
    idx_all = np.arange(n, dtype=np.int64)
    # Cycle at which each write-type command's data has fully arrived.
    wr_end = t + np.where(kind == _WR, t_.tCWL + t_.tBURST, t_.tBURST)
    offenders = _Offenders(n)

    def group_key(i: int) -> tuple:
        return (int(rank[i]), int(bg[i]))

    def bank_key(i: int) -> tuple:
        return (int(rank[i]), int(bg[i]), int(bank[i]))

    def rank_message(o: np.ndarray):
        return lambda rule, q: f"rank {int(rank[o[q]])}"

    # Global (channel-fused) resource ids.
    n_ranks = geometry.ranks
    rank_g = ch * n_ranks + rank
    group_g = rank_g * geometry.bankgroups + bg
    bank_g = group_g * geometry.banks_per_group + bank
    port_arr = np.asarray(port_of_rank, dtype=np.int64)
    n_ports = int(port_arr.max()) + 1
    port_g = ch * n_ports + port_arr[rank]

    # Command-bus slots: within a port, cycles must be unique.
    o, _, c, _, same = _sorted_family(idx_all, port_g, t)
    offenders.flag(
        o, [_on_later(same & (c[1:] == c[:-1]))], ["command-bus"],
        lambda rule, q, o=o: (
            f"port {int(port_arr[rank[o[q]]])} "
            "issued two commands in one cycle"
        ),
    )

    # Bank row-state rules.
    bmask = is_act | is_pre | is_col
    bidx = idx_all[bmask]
    if len(bidx):
        o, _, c, seg, _ = _sorted_family(bidx, bank_g[bmask], t)
        p = np.arange(len(o), dtype=np.int64)
        k_act = is_act[o]
        k_pre = is_pre[o]
        k_col = is_col[o]
        la = _seg_excl_cummax(p, k_act, seg)  # last ACT position
        lp = _seg_excl_cummax(p, k_pre, seg)  # last PRE position
        open_before = (la >= 0) & (la > lp)
        la_c = np.maximum(la, 0)
        act_t = c[la_c]  # cycle of the last ACT (where la >= 0)
        # Running read cycles / write data-ends (never reset; in
        # cycle-sorted order "last read" is the max).
        lr = _seg_excl_cummax(c, k_col & is_rd[o], seg)
        we = _seg_excl_cummax(wr_end[o], k_col & is_wr[o], seg)
        rows_s = row[o]

        def bank_message(rule, q, o=o):
            key = bank_key(o[q])
            if rule == "ACT-open":
                return f"bank {key} already open"
            if rule == "row-match":
                row = int(rows_s[la_c[q]]) if open_before[q] else None
                return (
                    f"bank {key}: access to row {int(rows_s[q])}, "
                    f"open {row}"
                )
            return f"bank {key}"

        offenders.flag(
            o,
            [
                k_act & open_before,
                k_act & (lp >= 0) & (c < c[np.maximum(lp, 0)] + t_.tRP),
                k_pre & ~open_before,
                k_pre & (la >= 0) & (c < act_t + t_.tRAS),
                k_pre & (lr >= 0) & (c < lr + t_.tRTP),
                k_pre & (we >= 0) & (c < we + t_.tWR),
                k_col & (~open_before | (rows_s[la_c] != rows_s)),
                k_col & (c < act_t + t_.tRCD),
            ],
            ["ACT-open", "tRP", "PRE-closed", "tRAS", "tRTP", "tWR",
             "row-match", "tRCD"],
            bank_message,
        )

    # Bank-group rules: tCCD_L and tWTR_L over columns, tPIM over ALU.
    cidx = idx_all[is_col]
    if len(cidx):
        per_bank = is_int & per_bank_pim
        n_groups = channels * n_ranks * geometry.bankgroups
        ckey = np.where(per_bank, n_groups + bank_g, group_g)
        o, _, c, _, same = _sorted_family(cidx, ckey[is_col], t)

        def column_message(rule, q, o=o, c=c):
            i = o[q]
            key = bank_key(i) + ("pb",) if per_bank[i] else group_key(i)
            return f"bank group {key}, prev at {int(c[q - 1])}"

        offenders.flag(
            o, [_on_later(same & (c[1:] < c[:-1] + t_.tCCD_L))],
            ["tCCD_L"], column_message,
        )
        o, _, c, seg, _ = _sorted_family(cidx, group_g[is_col], t)
        ready = _seg_excl_cummax(wr_end[o] + t_.tWTR_L, is_wr[o], seg)
        offenders.flag(
            o, [is_rd[o] & (ready >= 0) & (c < ready)], ["tWTR_L"],
            lambda rule, q, o=o, ready=ready: (
                f"bank group {group_key(o[q])}, "
                f"ready at {int(ready[q])}"
            ),
        )
    aidx = idx_all[is_alu]
    if len(aidx):
        akey = bank_g if per_bank_pim else group_g
        unit = bank_key if per_bank_pim else group_key
        o, _, c, _, same = _sorted_family(aidx, akey[is_alu], t)
        offenders.flag(
            o, [_on_later(same & (c[1:] < c[:-1] + t_.tPIM))], ["tPIM"],
            lambda rule, q, o=o, c=c: (
                f"PIM unit {unit(o[q])}, prev at {int(c[q - 1])}"
            ),
        )

    # Rank rules: tRRD/tFAW over ACTs, tCCD_S/tWTR_S over externals.
    actidx = idx_all[is_act]
    if len(actidx):
        o, r, c, _, same = _sorted_family(actidx, rank_g[is_act], t)
        bg_s = bg[o]
        spacing = np.where(bg_s[1:] == bg_s[:-1], t_.tRRD_L, t_.tRRD_S)
        faw = np.zeros(len(o), dtype=bool)
        faw[4:] = (r[4:] == r[:-4]) & (c[4:] < c[:-4] + t_.tFAW)
        offenders.flag(
            o, [_on_later(same & (c[1:] < c[:-1] + spacing)), faw],
            ["tRRD", "tFAW"],
            rank_message(o),
        )
    extidx = idx_all[is_ext]
    bus = None
    if len(extidx):
        o, _, c, seg, same = _sorted_family(extidx, rank_g[is_ext], t)
        ready = _seg_excl_cummax(
            c + t_.tCWL + t_.tBURST + t_.tWTR_S, kind[o] == _WR, seg
        )
        offenders.flag(
            o,
            [
                _on_later(same & (c[1:] < c[:-1] + t_.tCCD_S)),
                is_rd[o] & (ready >= 0) & (c < ready),
            ],
            ["tCCD_S", "tWTR_S"],
            rank_message(o),
        )
        bus = _data_bus(
            t, kind, rank, rank_g, ch, extidx, is_ext, timing, geometry,
            data_bus_scope,
        )

    first = offenders.first(t, ch)
    if first is not None and (bus is None or first[0] <= bus[0]):
        return first[1]
    return None if bus is None else bus[1]




def _reach(timing: TimingParams) -> int:
    """Cycles past a command within which any bounded rule can tie it
    to another command (every rule but the open-row state): the cut
    margins below are at least this wide."""
    t = timing
    data = t.tCL + t.tCWL + t.tBURST + max(TURNAROUND_GAP,
                                           t.rank_switch_penalty)
    return max(
        stale_floor(t), data, t.tRP, t.tRAS, t.tRCD, t.tRTP,
        t.tCWL + t.tBURST + max(t.tWR, t.tWTR_L, t.tWTR_S),
        t.tCCD_L, t.tCCD_S, t.tPIM, t.tRRD_L, t.tRRD_S, t.tFAW,
    )


def _compressed(stream, t, replays, timing):
    """``(rows, cycles)`` of the trace with every replay's cut taken
    out and the commands above each cut moved down by it, or ``None``
    when a replay's translation or neighbourhood check fails (or its
    cut would touch another's). Replays too short to cut are left
    whole."""
    reach = _reach(timing)
    cuts = []
    for replay in replays:
        cut = _cut(stream, t, replay, reach)
        if cut is False:
            return None
        if cut is not None:
            cuts.append(cut)
    if not cuts:
        return None
    cuts.sort()
    # Each cut's checked neighbourhood must lie clear of the next's.
    for (_, _, _, hi), (lo, _, _, _) in zip(cuts, cuts[1:]):
        if hi > lo:
            return None
    starts = np.array([c[1] for c in cuts], dtype=np.int64)
    ends = np.array([c[2] for c in cuts], dtype=np.int64)
    # Shift of a command: the lengths of the cuts that end at or below
    # its cycle.
    shift = np.concatenate([[0], np.cumsum(ends - starts)])
    below = np.searchsorted(ends, t, side="right")
    inside = np.searchsorted(starts, t, side="right") > below
    rows = np.flatnonzero(~inside)
    return rows, t[rows] - shift[below[rows]]


def _cut(stream, t, replay, reach):
    """``(lo, start, end, hi)`` for one replay: the images issued in
    cycles ``[start, end)`` are cut, and only images of this replay
    issue in ``[lo, hi)`` (the module docstring's ``Q``). ``None``
    when the replay is too short to cut anything, ``False`` when a
    check fails."""
    P, delta, m = replay.period, replay.delta, replay.copies
    events = np.asarray(replay.events, dtype=np.int64)
    if (P < 1 or delta < 1 or m < 1 or len(events) != P
            or int(events[0]) < 0 or int(events[-1]) + m * P >= stream.n
            or bool((np.diff(events) <= 0).any())
            # One event per residue: the images are distinct commands.
            or int(np.bincount(events % P, minlength=P).max()) != 1):
        return False
    c = t[events]
    c_min, c_max = int(c.min()), int(c.max())
    # The cut starts a super-period plus the reach above every event
    # and ends at least as far below the earliest event's last image.
    start = c_max + delta + reach
    k = (c_min + (m - 1) * delta + 1 - reach - start) // delta
    if k < 1:
        return None
    end = start + k * delta
    lo, hi = c_max, end + delta + reach
    if not _translates(stream, t, events, P, delta, m):
        return False
    # Only this replay's images issue in [lo, hi): as many commands
    # issue there as images u = 0..m of the events fall there.
    first = np.clip(-((c - lo) // delta), 0, m + 1)
    stop = np.clip(-((c - hi) // delta), 0, m + 1)
    issued = np.count_nonzero((t >= lo) & (t < hi))
    if issued != int((stop - first).sum()):
        return False
    return lo, start, end, hi


def _translates(stream, t, events, P, delta, m) -> bool:
    """Whether every image ``y = e + u * P`` (``1 <= u <= m``) repeats
    command ``y - P``'s kind and coordinates ``delta`` cycles later.

    Every index in ``(events[-1], events[0] + m * P]`` is an image, so
    that span is compared slice against slice
    (:meth:`~repro.dram.columnar.ColumnarStream.shape_repeats`: inside a
    run of two copies or more a block decides, and only the rest of it
    is gathered). The few images outside it are gathered too."""
    a, b = int(events[-1]) + 1, int(events[0]) + m * P + 1
    u = np.arange(1, m + 1, dtype=np.int64)
    if a < b:
        # Images below ``a`` have u <= w, images from ``b`` on u >= m - w.
        w = (a - 1 - int(events[0])) // P
        u = u[(u <= w) | (u >= m - w)]
    images = (events[None, :] + P * u[:, None]).ravel()
    if a < b:
        images = images[(images < a) | (images >= b)]
        if not ((t[a:b] - t[a - P:b - P] == delta).all()
                and stream.shape_repeats(a, b, P)):
            return False
    back = images - P
    return bool(
        (t[images] - t[back] == delta).all()
        and np.array_equal(
            stream.take(images, shape=True), stream.take(back, shape=True)
        )
    )


def _data_bus(
    t, kind, rank, rank_g, ch, extidx, is_ext, timing, geometry,
    data_bus_scope,
):
    """Data-bus occupancy: adjacent-burst gaps per bus scope. Returns
    the (channel, violation) of the first overlap, or ``None``."""
    n_ranks = geometry.ranks
    if data_bus_scope == "channel":
        bus_of_rank = np.zeros(n_ranks, dtype=np.int64)
        n_buses = 1
    elif data_bus_scope == "dimm":
        bus_of_rank = np.array(
            [geometry.dimm_of_rank(r) for r in range(n_ranks)],
            dtype=np.int64,
        )
        n_buses = geometry.dimms
    else:  # rank
        bus_of_rank = np.arange(n_ranks, dtype=np.int64)
        n_buses = n_ranks
    bus_g = (ch * n_buses + bus_of_rank[rank])[is_ext]
    te = t[extidx]
    k_e = kind[extidx]
    start = te + np.where(k_e == _RD, timing.tCL, timing.tCWL)
    # Bursts in (bus, start, cycle, stream index) order.
    order = np.lexsort((extidx, te, start, bus_g))
    b = bus_g[order]
    s = start[order]
    e = s + timing.tBURST
    k_s = k_e[order]
    r_s = rank_g[is_ext][order]
    gap = np.where(k_s[1:] != k_s[:-1], 2, 0)
    gap = np.where(
        (r_s[1:] != r_s[:-1]) & (timing.rank_switch_penalty > gap),
        timing.rank_switch_penalty,
        gap,
    )
    overlap = (b[1:] == b[:-1]) & (s[1:] < e[:-1] + gap)
    if not bool(overlap.any()):
        return None
    # First overlap by channel, then by when its bus first carries a
    # burst (in (cycle, stream index) order), then by burst order.
    pairs = np.flatnonzero(overlap)
    buses, first_seen = np.unique(
        bus_g[np.lexsort((extidx, te))], return_index=True
    )
    seen = first_seen[np.searchsorted(buses, b[pairs + 1])]
    j = pairs[np.lexsort((pairs, seen, b[pairs + 1] // n_buses))[0]]
    return int(b[j + 1]) // n_buses, TimingViolation(
        "data-bus", int(s[j + 1]),
        f"burst at {int(s[j + 1])} overlaps previous ending "
        f"{int(e[j])} (required gap {int(gap[j])})",
    )
