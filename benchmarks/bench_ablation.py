"""Ablation benches: four design choices, each switched off in turn.

1. **Command ports** — the single knob separating GradPIM-Direct from
   GradPIM-Buffered; sweeping port counts shows the command-bus wall.
2. **Bank-group decoupling** — re-run the PIM kernel with scaled reads
   forced onto the global I/O (tCCD_S across groups), the constraint
   GradPIM's placement at the bank-group I/O gating removes.
3. **Fused quantization** — the beyond-paper optimization that
   quantizes theta straight from the update register.
4. **Fused baseline** — the idealized 18 B/param baseline vs the
   paper's three-phase 30 B/param structure.
"""

import copy

import pytest

from benchmarks.conftest import once
from repro.dram.scheduler import CommandScheduler, IssueModel
from repro.dram.timing import DDR4_2133
from repro.dram.geometry import DeviceGeometry
from repro.kernels.compiler import UpdateKernelCompiler
from repro.optim import MomentumSGD
from repro.optim.precision import PRECISION_8_32
from repro.system.design import DesignPoint
from repro.system.update_model import UpdatePhaseModel

GEOM = DeviceGeometry()
OPT = MomentumSGD(eta=0.01, alpha=0.9, weight_decay=1e-4)


def _schedule(commands, issue_model, **kwargs):
    return CommandScheduler(
        DDR4_2133, GEOM, issue_model, **kwargs
    ).run(copy.deepcopy(commands))


def test_command_ports(benchmark, capsys):
    """Throughput vs number of command generators (1 = Direct,
    4 = Buffered): the gap IS the command-bus bottleneck."""
    kernel = UpdateKernelCompiler(GEOM).compile(
        OPT, PRECISION_8_32, columns_per_stripe=32
    )

    def sweep():
        out = {}
        for name, im in (
            ("direct-1port", IssueModel.direct(GEOM.ranks)),
            ("dimm-2ports", IssueModel(
                name="dimm", port_of_rank=(0, 0, 1, 1)
            )),
            ("buffered-4ports", IssueModel.buffered(GEOM.ranks)),
        ):
            out[name] = _schedule(kernel.commands, im).total_cycles
        return out

    cycles = once(benchmark, sweep)
    with capsys.disabled():
        print()
        for name, c in cycles.items():
            print(f"  {name}: {c} cycles "
                  f"({cycles['direct-1port'] / c:.2f}x vs direct)")
    assert cycles["buffered-4ports"] < cycles["dimm-2ports"]
    assert cycles["dimm-2ports"] < cycles["direct-1port"]
    # Buffered commands unlock ~3-4x (paper: "almost 4.0x").
    ratio = cycles["direct-1port"] / cycles["buffered-4ports"]
    assert 2.0 <= ratio <= 4.5


def test_bankgroup_decoupling(benchmark, capsys):
    """Force PIM accesses through the global I/O gating (how a naive
    non-decoupled design would behave): the speedup collapses."""
    kernel = UpdateKernelCompiler(GEOM).compile(
        OPT, PRECISION_8_32, columns_per_stripe=16
    )
    coupled_cmds = copy.deepcopy(kernel.commands)
    # Model coupling by reclassifying internal accesses as external
    # RD/WR (they then contend for tCCD_S and the shared data bus).
    from repro.dram.commands import CommandType

    for cmd in coupled_cmds:
        if cmd.kind in (CommandType.SCALED_READ, CommandType.QREG_LOAD):
            cmd.kind = CommandType.RD
        elif cmd.kind in (
            CommandType.WRITEBACK, CommandType.QREG_STORE,
        ):
            cmd.kind = CommandType.WR

    def run_both():
        im = IssueModel.buffered(GEOM.ranks)
        decoupled = _schedule(kernel.commands, im).total_cycles
        coupled = _schedule(coupled_cmds, im).total_cycles
        return decoupled, coupled

    decoupled, coupled = once(benchmark, run_both)
    with capsys.disabled():
        print(f"\n  decoupled={decoupled} coupled={coupled} "
              f"(decoupling gains {coupled / decoupled:.2f}x)")
    assert coupled > 1.5 * decoupled


def test_fused_quantize(benchmark, capsys):
    """Quantizing theta straight from the update's register removes the
    quantize phase's re-reads (~9 % fewer commands) — but it chains the
    single quantization register into every column's update dataflow,
    which *lengthens* the per-unit critical path. The measurement shows
    the paper's Fig. 5 phase-separated structure is the right call:
    the command saving does not buy cycles in either interface."""
    compiler = UpdateKernelCompiler(GEOM)
    plain = compiler.compile(
        OPT, PRECISION_8_32, columns_per_stripe=32
    )
    fused = compiler.compile(
        OPT, PRECISION_8_32, columns_per_stripe=32, fuse_quantize=True
    )

    def run_all():
        out = {}
        for name, im in (
            ("direct", IssueModel.direct(GEOM.ranks)),
            ("buffered", IssueModel.buffered(GEOM.ranks)),
        ):
            out[name] = (
                _schedule(plain.commands, im).total_cycles,
                _schedule(fused.commands, im).total_cycles,
            )
        return out

    cycles = once(benchmark, run_all)
    with capsys.disabled():
        print()
        print(f"  commands: faithful={plain.total_commands} "
              f"fused={fused.total_commands}")
        for name, (t_plain, t_fused) in cycles.items():
            print(f"  {name}: faithful={t_plain} fused={t_fused} "
                  f"cycles ({t_plain / t_fused:.2f}x)")
    # Fusion removes the quantize phase's scaled reads outright...
    assert fused.total_commands < plain.total_commands
    # ...but the serialized quantization register costs cycles: the
    # faithful phase-separated kernel is at least as fast (within a
    # small tolerance) on both interfaces — the paper's design wins.
    for name, (t_plain, t_fused) in cycles.items():
        assert t_plain <= t_fused * 1.05, name


def test_controller_window(benchmark, capsys):
    """Reorder-window sensitivity of the GradPIM-Direct bottleneck.

    A wider FR-FCFS window lets the single command bus stay busy:
    utilization climbs from ~50 % (window 8) to ~100 % (window 32+),
    with internal bandwidth following. The paper's Fig. 11 point
    (~28 GB/s at ~100 % utilization) sits between our window-16 and
    window-32 operating points; the default (16) is chosen to match
    the bandwidth axis.
    """
    kernel = UpdateKernelCompiler(GEOM).compile(
        OPT, PRECISION_8_32, columns_per_stripe=32
    )

    def sweep():
        out = {}
        for window in (8, 16, 32, 64):
            res = _schedule(
                kernel.commands,
                IssueModel.direct(GEOM.ranks),
                window=window,
            )
            out[window] = (
                res.stats.command_bus_utilization(),
                res.stats.internal_bandwidth(DDR4_2133, GEOM) / 1e9,
            )
        return out

    results = once(benchmark, sweep)
    with capsys.disabled():
        print()
        for window, (util, bw) in results.items():
            print(f"  window={window:3d}: cmd util {util * 100:5.1f}%  "
                  f"internal {bw:5.1f} GB/s")
    utils = [u for u, _ in results.values()]
    assert utils == sorted(utils)  # wider window, busier bus
    assert results[64][0] > 0.95  # saturation, the paper's regime
    assert results[64][1] <= 64.0  # but nowhere near the internal peak


def test_fused_baseline(benchmark, capsys):
    """The idealized on-the-fly-conversion baseline vs the paper's
    three-phase baseline: how much of GradPIM's win depends on the
    baseline's structure."""
    model_3phase = UpdatePhaseModel(columns_per_stripe=32)
    model_fused = UpdatePhaseModel(
        columns_per_stripe=32, fused_baseline=True
    )

    def run_both():
        p3 = model_3phase.profile(
            DesignPoint.BASELINE, OPT, PRECISION_8_32
        )
        pf = model_fused.profile(
            DesignPoint.BASELINE, OPT, PRECISION_8_32
        )
        pim = model_3phase.profile(
            DesignPoint.GRADPIM_BUFFERED, OPT, PRECISION_8_32
        )
        return p3, pf, pim

    p3, pf, pim = once(benchmark, run_both)
    with capsys.disabled():
        print(
            f"\n  3-phase baseline: {p3.seconds_per_param * 1e9:.2f} "
            f"ns/param ({p3.offchip_bytes_per_param:.0f} B)\n"
            f"  fused baseline:   {pf.seconds_per_param * 1e9:.2f} "
            f"ns/param ({pf.offchip_bytes_per_param:.0f} B)\n"
            f"  GP-BD update speedup: {p3.seconds_per_param / pim.seconds_per_param:.2f}x "
            f"(3-phase) / {pf.seconds_per_param / pim.seconds_per_param:.2f}x (fused)"
        )
    assert pf.seconds_per_param < p3.seconds_per_param
    assert pf.offchip_bytes_per_param == pytest.approx(18.0, rel=0.02)
    # Even against the idealized baseline GradPIM-Buffered still wins.
    assert pim.seconds_per_param < pf.seconds_per_param
