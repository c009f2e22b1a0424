"""Baseline (no-PIM) update-phase DDR streams (paper §VI-B "Baseline").

The baseline NPU owns the update: per high-precision column it reads the
quantized gradient, the master weights and every optimizer-state array
over the off-chip bus, computes on its dedicated 32-bit update units,
and writes the master copies plus the re-quantized weights back. This
module generates that RD/WR command stream so the same cycle-level
scheduler measures baseline effective bandwidth — including read/write
turnaround and row behaviour — instead of assuming a constant.

The identical stream also models TensorDIMM's buffer-chip update
(§VI-B): same accesses, but scheduled with per-rank command generation
and per-DIMM private data buses (rank-level parallelism), which is
exactly how the comparator differs architecturally.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dram.columnar import BUILD_FIELDS, KIND_INDEX, ColumnarStream
from repro.dram.commands import CommandType
from repro.dram.geometry import DeviceGeometry, DEFAULT_GEOMETRY
from repro.dram.period import SegmentRecorder, StreamPeriod
from repro.errors import CompileError
from repro.kernels.artifact import (
    CommandStreamArtifact,
    SweepEmitter,
    round_robin,
)
from repro.kernels.layout import UpdateLayout, column_plan
from repro.optim.precision import PrecisionConfig, PRECISION_8_32


@dataclass
class BaselineStream(CommandStreamArtifact):
    """A generated baseline update stream.

    ``commands``, ``dependents`` and ``columnar`` (the views of
    ``stream``) come from
    :class:`~repro.kernels.artifact.CommandStreamArtifact`."""

    stream: ColumnarStream
    layout: UpdateLayout
    precision: PrecisionConfig
    n_hp_columns: int
    reads: int
    writes: int
    #: Stripe-period metadata (steady-state sample streams only),
    #: consumed by the ``"periodic"`` scheduler engine. ``None`` for
    #: full-array (``n_params``) streams.
    period: "StreamPeriod | None" = None

    def offchip_bytes(self, geometry: DeviceGeometry) -> int:
        """Bytes this update moves over the off-chip bus."""
        return (self.reads + self.writes) * geometry.column_bytes


class BaselineStreamGenerator:
    """Generates the no-PIM update stream for an optimizer + precision."""

    def __init__(self, geometry: DeviceGeometry = DEFAULT_GEOMETRY) -> None:
        self.geometry = geometry

    # ------------------------------------------------------------------
    def arrays(
        self, optimizer, precision: PrecisionConfig, fused: bool
    ) -> tuple[str, ...]:
        """Names of every DRAM-resident array the baseline touches."""
        states = tuple(optimizer.state_arrays())
        if precision.is_full:
            return ("grad", "theta") + states
        if fused:
            return ("q_grad", "theta") + states + ("q_theta",)
        return ("q_grad", "grad", "theta") + states + ("q_theta",)

    def generate(
        self,
        optimizer,
        precision: PrecisionConfig = PRECISION_8_32,
        n_params: int | None = None,
        columns_per_stripe: int | None = None,
        fused: bool = False,
    ) -> BaselineStream:
        """Build the command stream (sampled or full-array).

        The default (``fused=False``) mirrors the paper's baseline NPU,
        whose "dedicated 32 bit modules ... including adders and
        quantize/dequantize units" execute the same three memory-resident
        phases GradPIM does, only over the off-chip bus: dequantize
        (read q_grad, write grad), update (read grad/theta/state, write
        theta/state), quantize (read theta, write q_theta).

        ``fused=True`` is the ablation variant: an idealized NPU that
        converts precision on the fly and never materializes the
        high-precision gradient in DRAM, saving 8 bytes/parameter.
        """
        all_arrays = self.arrays(optimizer, precision, fused)
        hp_arrays = [a for a in all_arrays if not a.startswith("q_")]
        q_arrays = [a for a in all_arrays if a.startswith("q_")]
        columns = column_plan(
            self.geometry, precision, n_params, columns_per_stripe
        )
        layout = self._build_layout(
            hp_arrays, q_arrays, precision, columns, fused
        )

        ratio = precision.ratio if not precision.is_full else 1
        states = tuple(optimizer.state_arrays())
        recorder = None
        if columns_per_stripe is not None and columns and columns[0]:
            recorder = SegmentRecorder(columns=len(columns[0]))
        emitter = _StreamEmitter(self.geometry, layout, recorder)
        stride = len(columns)

        if not precision.is_full and not fused:
            # Phase 1 — dequantize: q_grad -> grad over the bus.
            emitter.begin_segment(ratio)
            for sweep in emitter.sweeps(round_robin(columns, ratio), stride):
                for stripe, hp_cols in sweep:
                    lp_col = hp_cols[0] // ratio
                    rd = emitter.access(
                        CommandType.RD, "q_grad", lp_col, packed=True
                    )
                    for j in hp_cols:
                        emitter.access(
                            CommandType.WR, "grad", j, deps=[rd]
                        )

        # Phase 2 — update: read operands, write master copies.
        grad_name = (
            "q_grad" if (fused and not precision.is_full) else "grad"
        )
        emitter.begin_segment(ratio)
        for sweep in emitter.sweeps(round_robin(columns, ratio), stride):
            for stripe, hp_cols in sweep:
                lp_col = hp_cols[0] // ratio
                shared: list[int] = []
                if grad_name == "q_grad":
                    shared.append(
                        emitter.access(
                            CommandType.RD, "q_grad", lp_col, packed=True
                        )
                    )
                for j in hp_cols:
                    reads = list(shared)
                    if grad_name == "grad":
                        reads.append(
                            emitter.access(CommandType.RD, "grad", j)
                        )
                    reads.append(emitter.access(CommandType.RD, "theta", j))
                    for name in states:
                        reads.append(emitter.access(CommandType.RD, name, j))
                    emitter.access(CommandType.WR, "theta", j, deps=reads)
                    for name in states:
                        emitter.access(CommandType.WR, name, j, deps=reads)
                    if fused and not precision.is_full:
                        # Fused quantize: q_theta produced on the fly.
                        if j == hp_cols[-1]:
                            emitter.access(
                                CommandType.WR,
                                "q_theta",
                                lp_col,
                                packed=True,
                                deps=reads,
                            )

        if not precision.is_full and not fused:
            # Phase 3 — quantize: theta -> q_theta over the bus.
            emitter.begin_segment(ratio)
            for sweep in emitter.sweeps(round_robin(columns, ratio), stride):
                for stripe, hp_cols in sweep:
                    lp_col = hp_cols[0] // ratio
                    reads = [
                        emitter.access(CommandType.RD, "theta", j)
                        for j in hp_cols
                    ]
                    emitter.access(
                        CommandType.WR, "q_theta", lp_col, packed=True,
                        deps=reads,
                    )

        emitter.close_all_rows()
        stream, period = emitter.finish()
        return BaselineStream(
            stream=stream,
            layout=layout,
            precision=precision,
            n_hp_columns=sum(len(c) for c in columns),
            reads=emitter.reads,
            writes=emitter.writes,
            period=period,
        )

    # ------------------------------------------------------------------
    def _build_layout(
        self,
        hp_arrays: list[str],
        q_arrays: list[str],
        precision: PrecisionConfig,
        columns: list[list[int]],
        fused: bool,
    ) -> UpdateLayout:
        n_hp_columns = max((max(c) + 1 for c in columns if c), default=1)
        ratios = {name: precision.ratio for name in q_arrays}
        all_arrays = frozenset(hp_arrays + q_arrays)
        try:
            # Prefer every array in its own bank when the set fits.
            return UpdateLayout(
                [all_arrays], ratios, n_hp_columns, self.geometry
            )
        except CompileError:
            # Otherwise arrays only conflict within their phase: the
            # dequantize / update / quantize structure of the baseline
            # (or the whole fused loop, minus the quantized pair that
            # can share a bank because their accesses never alternate
            # within a row).
            hp = frozenset(hp_arrays)
            if fused or precision.is_full:
                groups = [hp | {q} for q in q_arrays] or [hp]
            else:
                groups = [
                    frozenset({"q_grad", "grad"}),
                    hp,
                    frozenset({"theta", "q_theta"}),
                ]
            return UpdateLayout(groups, ratios, n_hp_columns, self.geometry)


# ----------------------------------------------------------------------
_KIND = BUILD_FIELDS.index("kind")
_RD = KIND_INDEX[CommandType.RD]
_WR = KIND_INDEX[CommandType.WR]


class _StreamEmitter(SweepEmitter):
    """Row-aware RD/WR emitter over an :class:`UpdateLayout`."""

    def __init__(
        self,
        geometry: DeviceGeometry,
        layout: UpdateLayout,
        recorder: SegmentRecorder | None = None,
    ):
        super().__init__(geometry, recorder)
        self.layout = layout
        self.reads = 0
        self.writes = 0
        self._tags: dict[tuple[CommandType, str], int] = {}

    def access(
        self,
        kind: CommandType,
        array: str,
        index: int,
        packed: bool = False,
        deps: list[int] | None = None,
    ) -> int:
        coords = (
            self.layout.lp_coords(array, index)
            if packed
            else self.layout.hp_coords(array, index)
        )
        key = (coords.rank, coords.bankgroup, coords.bank)
        all_deps = list(deps or ())
        all_deps.extend(self._open_row(*key, coords.row))
        tag = self._tags.get((kind, array))
        if tag is None:
            tag = self._tags[(kind, array)] = self.out.template(
                f"{kind.value.lower()}:{array}:", 1
            )
        i = self.out.append(
            (KIND_INDEX[kind], coords.rank, coords.bankgroup, coords.bank,
             coords.row, coords.col, 0, 0, 0, 0, tag, index, 0),
            tuple(dict.fromkeys(all_deps)),
        )
        self._record_access(key, i)
        if kind is CommandType.RD:
            self.reads += 1
        else:
            self.writes += 1
        return i

    def _count_tiled(self, start: int, end: int) -> None:
        kinds = self.out.columns(start, end)[:, _KIND]
        self.reads += int(np.count_nonzero(kinds == _RD))
        self.writes += int(np.count_nonzero(kinds == _WR))
