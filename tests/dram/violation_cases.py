"""Golden first-offender cases for the JEDEC trace validator.

Every case is a trace that the validator must reject (or, where the
golden records ``null``, accept) with one exact
:class:`~repro.errors.TimingViolation`: the rule, the cycle and the
message text that names the first offender. The cases span

* seeded single-command corruptions of every design's scheduled
  32-column stream (victims at fixed fractions of the stream, shifted
  by a fixed set of offsets);
* two-victim corruptions;
* the hand-built single-rule traces (:data:`SINGLE_RULE_TRACES`);
* 2-channel replicated traces, including a channel-1 fault that is
  earlier in cycles than a channel-0 fault (channel 0's is named);
* unissued, out-of-range channel, dependency and bad-scope traces.

``violation_golden.json`` pins ``[rule, cycle, message]`` per case.
Regenerate it only for an intended change to violation messages::

    PYTHONPATH=src python tests/dram/violation_cases.py --write
"""

from __future__ import annotations

import functools
import json
import subprocess
import sys
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import numpy as np

from repro.dram.columnar import ColumnarSchedule, ColumnarStream
from repro.dram.commands import Command, CommandType
from repro.dram.geometry import DeviceGeometry
from repro.dram.scheduler import CommandScheduler, replicate_across_channels
from repro.dram.timing import DDR4_2133
from repro.errors import TimingViolation
from repro.optim.precision import PRECISIONS
from repro.optim.registry import build_optimizer
from repro.system.design import DESIGNS, DesignPoint
from repro.system.update_model import UpdatePhaseModel

GOLDEN = Path(__file__).with_name("violation_golden.json")

T = DDR4_2133
GEOM = DeviceGeometry()
GEOM2 = DeviceGeometry(channels=2)
PORTS = (0, 0, 0, 0)

FRACTIONS = (0.1, 0.25, 0.5, 0.75, 0.9)
SHIFTS = (-500, -7, -3, -1, 1, 3, 7, 1 << 40)


class Case(NamedTuple):
    schedule: ColumnarSchedule
    geometry: DeviceGeometry
    port_of_rank: tuple
    kwargs: dict


# ----------------------------------------------------------------------
# Hand-built single-rule traces
# ----------------------------------------------------------------------
def issued(kind, cycle, **kwargs) -> Command:
    cmd = Command(kind, **kwargs)
    cmd.issue_cycle = cycle
    return cmd


def legal_pair(row=0) -> list[Command]:
    """ACT then a legal read."""
    return [
        issued(CommandType.ACT, 0, row=row),
        issued(CommandType.SCALED_READ, T.tRCD, row=row),
    ]


def _tfaw() -> list[Command]:
    trace = [
        issued(CommandType.ACT, i * T.tRRD_S, row=0, bankgroup=i)
        for i in range(4)
    ]
    trace.append(
        issued(CommandType.ACT, T.tFAW - 1, row=0, bankgroup=0, bank=1)
    )
    return trace


def _data_bus() -> list[Command]:
    # tCCD_S is satisfied, but the rank switch needs a gap the second
    # burst does not leave.
    return [
        issued(CommandType.ACT, 0, row=0, bankgroup=0),
        issued(CommandType.ACT, T.tRRD_S, row=0, bankgroup=1),
        issued(CommandType.ACT, 2 * T.tRRD_S, row=0, rank=1),
        issued(CommandType.RD, 40, row=0, bankgroup=0),
        issued(CommandType.RD, 40 + T.tBURST, row=0, rank=1, bankgroup=0),
    ]


def _bus_order() -> list[Command]:
    """Rank-scope overlaps on two buses: rank 1's bus carries the first
    burst but overlaps later in cycles than rank 0's bus."""
    trace = []
    for rank, act, rd in ((1, 0, (20, 100)), (0, 1, (40,))):
        trace.append(issued(CommandType.ACT, act, rank=rank, row=0))
        trace.append(
            issued(CommandType.ACT, act + 4, rank=rank, bankgroup=1, row=0)
        )
        trace += [issued(CommandType.RD, t, rank=rank, row=0) for t in rd]
        trace.append(
            issued(CommandType.WR, rd[-1] + 4, rank=rank, bankgroup=1, row=0)
        )
    return trace


def _dependency() -> list[Command]:
    # Fires on the ACT's completion, independent of tRCD.
    a = issued(CommandType.ACT, 0, row=0)
    b = issued(CommandType.SCALED_READ, T.tRCD - 2, row=0)
    b.deps = (0,)
    return [a, b]


#: Rule name -> builder of a trace that breaks exactly that rule.
SINGLE_RULE_TRACES: dict[str, Callable[[], list[Command]]] = {
    "tRCD": lambda: [
        issued(CommandType.ACT, 0, row=0),
        issued(CommandType.SCALED_READ, T.tRCD - 1, row=0),
    ],
    "tRAS": lambda: [
        issued(CommandType.ACT, 0, row=0),
        issued(CommandType.PRE, T.tRAS - 1, row=0),
    ],
    "tRP": lambda: [
        issued(CommandType.ACT, 0, row=0),
        issued(CommandType.PRE, T.tRAS, row=0),
        issued(CommandType.ACT, T.tRAS + T.tRP - 1, row=1),
    ],
    "tRTP": lambda: [  # the read is late enough to satisfy tRAS
        issued(CommandType.ACT, 0, row=0),
        issued(CommandType.SCALED_READ, T.tRAS, row=0),
        issued(CommandType.PRE, T.tRAS + T.tRTP - 1, row=0),
    ],
    "tWR": lambda: [  # tRAS satisfied, so only tWR can fire
        issued(CommandType.ACT, 0, row=0),
        issued(CommandType.WRITEBACK, T.tRAS, row=0),
        issued(CommandType.PRE, T.tRAS + T.tBURST + T.tWR - 1, row=0),
    ],
    "row-match": lambda: [
        issued(CommandType.ACT, 0, row=0),
        issued(CommandType.SCALED_READ, T.tRCD, row=5),
    ],
    "ACT-open": lambda: [
        issued(CommandType.ACT, 0, row=0),
        issued(CommandType.ACT, T.tRRD_L, row=1),
    ],
    "PRE-closed": lambda: [issued(CommandType.PRE, 0, row=0)],
    "tCCD_L": lambda: [
        issued(CommandType.ACT, 0, row=0, bank=0),
        issued(CommandType.ACT, T.tRRD_L, row=0, bank=1),
        issued(CommandType.SCALED_READ, 40, row=0, bank=0),
        issued(CommandType.SCALED_READ, 40 + T.tCCD_L - 1, row=0, bank=1),
    ],
    "tPIM": lambda: [
        issued(CommandType.PIM_ADD, 0),
        issued(CommandType.PIM_SUB, T.tPIM - 1),
    ],
    "tRRD": lambda: [
        issued(CommandType.ACT, 0, row=0, bankgroup=0),
        issued(CommandType.ACT, T.tRRD_S - 1, row=0, bankgroup=1),
    ],
    "tFAW": _tfaw,
    "tCCD_S": lambda: [
        issued(CommandType.ACT, 0, row=0, bankgroup=0),
        issued(CommandType.ACT, T.tRRD_S, row=0, bankgroup=1),
        issued(CommandType.RD, 40, row=0, bankgroup=0),
        issued(CommandType.RD, 40 + T.tCCD_S - 1, row=0, bankgroup=1),
    ],
    "tWTR_L": lambda: [  # the read satisfies tCCD_L but not tWTR_L
        issued(CommandType.ACT, 0, row=0, bank=0),
        issued(CommandType.ACT, T.tRRD_L, row=0, bank=1),
        issued(CommandType.WRITEBACK, T.tRCD, row=0, bank=0),
        issued(CommandType.SCALED_READ, T.tRCD + T.tCCD_L, row=0, bank=1),
    ],
    "command-bus": lambda: [
        issued(CommandType.ACT, 0, row=0, rank=0, bankgroup=0),
        issued(CommandType.ACT, 0, row=0, rank=1, bankgroup=0),
    ],
    "dependency": _dependency,
    "data-bus": _data_bus,
    "unissued": lambda: [Command(CommandType.ACT, row=0)],
}


# ----------------------------------------------------------------------
# Scheduled traces and their corruptions
# ----------------------------------------------------------------------
def _listed(commands, geometry=GEOM, ports=PORTS, **kwargs) -> Case:
    stream = ColumnarStream.from_commands(commands)
    return Case(
        ColumnarSchedule(stream, stream.issue_cycle), geometry, ports,
        kwargs,
    )


def _design_stream(design, columns) -> ColumnarStream:
    model = UpdatePhaseModel(columns_per_stripe=columns)
    optimizer = build_optimizer(
        "momentum_sgd", {"eta": 0.01, "alpha": 0.9, "weight_decay": 1e-4}
    )
    *_, artifact = model._build_stream(
        DESIGNS[design], optimizer, PRECISIONS["8/32"]
    )
    return artifact.columnar


@functools.lru_cache(maxsize=None)
def scheduled(design, columns=32, channels=1) -> Case:
    """A design's legal scheduled momentum-SGD trace (``channels`` > 1
    replicates the stream across a multi-channel device)."""
    config = DESIGNS[design]
    stream = _design_stream(design, columns)
    geometry = DeviceGeometry(channels=channels)
    issue_model = config.issue_model(GEOM)
    if channels > 1:
        stream = replicate_across_channels(stream, channels)
    result = CommandScheduler(
        T, geometry, issue_model,
        per_bank_pim=config.per_bank_pim,
        data_bus_scope=config.data_bus_scope,
    ).run(stream)
    return Case(
        result.columnar, geometry, tuple(issue_model.port_of_rank),
        dict(
            per_bank_pim=config.per_bank_pim,
            data_bus_scope=config.data_bus_scope,
        ),
    )


@functools.lru_cache(maxsize=None)
def replayed(design, optimizer="momentum_sgd", columns=64, plain=False):
    """``(case, outcome)``: a design's 8/32 trace scheduled with
    steady-state replay, and the run's
    :class:`~repro.dram.period.PeriodicOutcome`. ``plain`` schedules
    the same stream without period metadata (the trace is the same;
    the outcome still comes from the replayed run)."""
    config = DESIGNS[design]
    model = UpdatePhaseModel(columns_per_stripe=columns)
    *_, period, artifact = model._build_stream(
        config, build_optimizer(optimizer), PRECISIONS["8/32"]
    )
    issue_model = config.issue_model(GEOM)
    scheduler = CommandScheduler(
        T, GEOM, issue_model,
        per_bank_pim=config.per_bank_pim,
        data_bus_scope=config.data_bus_scope,
    )
    result = scheduler.run(artifact.columnar, period=period)
    outcome = result.periodic
    if plain:
        result = scheduler.run(artifact.columnar)
    return Case(
        result.columnar, GEOM, tuple(issue_model.port_of_rank),
        dict(
            per_bank_pim=config.per_bank_pim,
            data_bus_scope=config.data_bus_scope,
        ),
    ), outcome


def corrupted(case: Case, shifts: dict, unissued=(), **kwargs) -> Case:
    """``case`` with ``issue[i] = max(0, issue[i] + shift)`` for every
    ``i: shift`` in ``shifts`` and ``issue[i] = -1`` for every ``i`` in
    ``unissued`` (``kwargs`` override the validator's keyword
    arguments)."""
    issue = np.array(case.schedule.issue_cycle, dtype=np.int64)
    for i, shift in shifts.items():
        issue[i] = max(0, issue[i] + shift)
    issue[list(unissued)] = -1
    schedule = ColumnarSchedule(case.schedule.stream, issue)
    return case._replace(schedule=schedule, kwargs={**case.kwargs, **kwargs})


def _in_channel(case: Case, channel: int, fraction: float) -> int:
    """Stream index of the command at ``fraction`` of a channel."""
    rows = np.flatnonzero(case.schedule.stream.channel == channel)
    return int(rows[int(fraction * len(rows))])


def _with_fields(case: Case, **fields) -> Case:
    """``case`` rebuilt from commands with per-index field overrides
    (``field={index: value}``)."""
    commands = case.schedule.to_commands()
    for name, values in fields.items():
        for i, value in values.items():
            setattr(commands[i], name, value)
    return _listed(commands, case.geometry, case.port_of_rank, **case.kwargs)


def _cases() -> dict[str, Callable[[], Case]]:
    cases: dict[str, Callable[[], Case]] = {}
    for design in DesignPoint:
        for fraction in FRACTIONS:
            for shift in SHIFTS:
                def seeded(d=design, f=fraction, s=shift):
                    base = scheduled(d)
                    victim = int(f * base.schedule.stream.n)
                    return corrupted(base, {victim: s})
                cases[f"seeded/{design.value}/{fraction}/{shift}"] = seeded
        for a, b, sa, sb in (
            (0.25, 0.75, -3, -3),
            (0.75, 0.25, -3, 7),
            (0.5, 0.5001, -1, -1),
            (0.1, 0.9, 1, -500),
        ):
            def two(d=design, a=a, b=b, sa=sa, sb=sb):
                base = scheduled(d)
                n = base.schedule.stream.n
                return corrupted(base, {int(a * n): sa, int(b * n): sb})
            cases[f"two-victim/{design.value}/{a}:{sa}/{b}:{sb}"] = two
        cases[f"scope/{design.value}/hyperbus"] = (
            lambda d=design: corrupted(
                scheduled(d), {}, data_bus_scope="hyperbus"
            )
        )
        cases[f"unissued/{design.value}"] = (
            lambda d=design: corrupted(scheduled(d), {}, unissued=[7])
        )
    for name, build in SINGLE_RULE_TRACES.items():
        cases[f"hand/{name}"] = lambda b=build: _listed(b())
    cases["hand/data-bus-order"] = lambda: _listed(
        _bus_order(), data_bus_scope="rank"
    )
    cases["hand/bad-scope"] = lambda: _listed(
        legal_pair(), data_bus_scope="hyperbus"
    )
    for fraction in (0.25, 0.5):
        for shift in (-7, -3, 1):
            def rank_scope(f=fraction, s=shift):
                base = scheduled(DesignPoint.BASELINE)
                victim = int(f * base.schedule.stream.n)
                return corrupted(base, {victim: s}, data_bus_scope="rank")
            cases[f"rank-scope/Baseline/{fraction}/{shift}"] = rank_scope

    two_ch = (
        DesignPoint.BASELINE, DesignPoint.TENSORDIMM,
        DesignPoint.GRADPIM_BUFFERED, DesignPoint.AOS_PB,
    )
    for design in two_ch:
        def base(d=design):
            return scheduled(d, columns=8, channels=2)
        tag = f"2ch/{design.value}"
        cases[f"{tag}/valid"] = base
        for shift in (-500, -3, 3):
            cases[f"{tag}/ch1-only/{shift}"] = lambda b=base, s=shift: (
                corrupted(b(), {_in_channel(b(), 1, 0.5): s})
            )
        # Channel 1's fault is earlier in cycles; channel 0's is named.
        cases[f"{tag}/ch1-earlier"] = lambda b=base: corrupted(b(), {
            _in_channel(b(), 0, 0.75): -3,
            _in_channel(b(), 1, 0.25): -3,
        })
        cases[f"{tag}/ch0-bus-ch1-earlier"] = lambda b=base: corrupted(b(), {
            _in_channel(b(), 0, 0.5): -3,
            _in_channel(b(), 1, 0.25): 3,
        })
        cases[f"{tag}/dependency"] = lambda b=base: corrupted(
            b(), {_in_channel(b(), 1, 0.5): -(1 << 20)}
        )
        cases[f"{tag}/unissued"] = lambda b=base: corrupted(
            b(), {}, unissued=[_in_channel(b(), 1, 0.5)]
        )
        cases[f"{tag}/channel-range"] = lambda b=base: _with_fields(
            b(), channel={
                _in_channel(b(), 1, 0.5): 5, _in_channel(b(), 0, 0.75): 2,
            },
        )
        cases[f"{tag}/channel-range-unissued"] = lambda b=base: _with_fields(
            corrupted(b(), {}, unissued=[0]),
            channel={_in_channel(b(), 1, 0.9): 3},
        )
    cases["2ch/hand/channel-range"] = lambda: _listed(
        [issued(CommandType.ACT, 7, channel=3, row=1)], GEOM2, PORTS
    )
    cases["2ch/hand/command-bus"] = lambda: _listed(
        [
            issued(CommandType.ACT, 0, channel=1, bank=0, row=1),
            issued(CommandType.ACT, 0, channel=1, bank=1, row=1),
        ],
        GEOM2, PORTS,
    )
    cases["2ch/hand/dependency"] = lambda: _listed(
        _dependency() + [issued(CommandType.PRE, 0, channel=1, row=0)],
        GEOM2, PORTS,
    )
    return cases


#: Case name -> builder, in a fixed order.
CASES = _cases()


def verdict(validate, case: Case, commands=None) -> Optional[list]:
    """``[rule, cycle, message]`` of the violation ``validate`` raises
    on ``case`` (a columnar validator; pass ``commands`` to call a
    list validator on them instead), or ``None`` if it accepts."""
    target = case.schedule if commands is None else commands
    try:
        validate(target, T, case.geometry, case.port_of_rank, **case.kwargs)
    except TimingViolation as exc:
        return [exc.rule, exc.cycle, str(exc)]
    return None


@functools.lru_cache(maxsize=None)
def load_golden() -> dict:
    return json.loads(GOLDEN.read_text())["cases"]


def _write() -> None:
    from repro.dram.validator import validate_trace

    golden = {
        name: verdict(
            validate_trace, case, commands=case.schedule.to_commands()
        )
        for name, build in CASES.items()
        for case in (build(),)
    }
    commit = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"],
        capture_output=True, text=True, cwd=Path(__file__).parent,
    ).stdout.strip()
    GOLDEN.write_text(
        json.dumps(
            {"captured_at_commit": commit, "cases": golden}, indent=1
        ) + "\n"
    )
    print(f"wrote {len(golden)} cases to {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    _write()
