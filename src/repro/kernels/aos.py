"""AoS (array-of-structures) update kernels (paper §V-B, §VI-B).

In the AoS placement the per-parameter working set — theta, state,
gradient and the quantized copies — is packed into one structure stored
contiguously, so a single open row in a single bank holds everything an
update needs. That removes the multi-bank requirement (the reason the
per-bank ``AoS-PB`` variant is only possible with AoS) at two costs the
paper quantifies:

* every Fwd/Bwd burst that wants one field drags the whole structure
  through the bus — the 4x effective-bandwidth loss applied by
  :class:`repro.models.traffic.TrafficModel`;
* the update kernel operates on structure columns with lane-local ALU
  operations (this is a timing model only: the lane-shuffling ALU is
  hypothetical hardware the paper posits for the comparison, so there
  is no functional semantics to verify here).

Kernel shape per structure column: one scaled read, the recipe's ALU
operations plus two lane-marshalling operations, one writeback.
Consecutive columns alternate temporary registers so the ALU pipeline
overlaps the bank accesses.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dram.columnar import KIND_INDEX, ColumnarStream
from repro.dram.commands import CommandType
from repro.dram.geometry import DeviceGeometry, DEFAULT_GEOMETRY
from repro.dram.period import SegmentRecorder, StreamPeriod
from repro.errors import CompileError
from repro.kernels.artifact import CommandStreamArtifact, SweepEmitter
from repro.optim.base import Lincomb, Mul, RsqrtMul, UpdateRecipe
from repro.optim.precision import PrecisionConfig, PRECISION_8_32

#: Extra ALU operations per column for gathering/scattering lanes of a
#: structure into operand positions.
LANE_MARSHALLING_OPS = 2


@dataclass
class AoSKernel(CommandStreamArtifact):
    """A generated AoS update stream.

    ``commands``, ``dependents`` and ``columnar`` (the views of
    ``stream``) come from
    :class:`~repro.kernels.artifact.CommandStreamArtifact`."""

    stream: ColumnarStream
    params_per_column: int
    n_columns: int  # per unit
    n_units: int
    structure_bytes: int
    #: Stripe-period metadata (one segment: the per-column sweep over
    #: all units), consumed by the ``"periodic"`` scheduler engine.
    period: "StreamPeriod | None" = None

    @property
    def total_params(self) -> int:
        return self.params_per_column * self.n_columns * self.n_units


def structure_bytes(optimizer, precision: PrecisionConfig) -> int:
    """Bytes of one parameter's structure, padded to a power-of-two
    stride so structures never straddle columns."""
    n_hp = 2 + len(optimizer.state_arrays())  # theta + grad + state
    raw = n_hp * precision.hp_bytes
    if not precision.is_full:
        raw += 2 * precision.lp_bytes  # q_theta + q_grad
    stride = 1
    while stride < raw:
        stride *= 2
    return stride


def alu_ops_per_column(recipe: UpdateRecipe) -> int:
    """ALU operations one structure column needs."""
    ops = LANE_MARSHALLING_OPS
    for op in recipe.all_ops():
        if isinstance(op, Lincomb):
            ops += len(op.terms) - 1
        elif isinstance(op, Mul):
            ops += 1
        elif isinstance(op, RsqrtMul):
            ops += 2
        else:  # pragma: no cover - closed union
            raise CompileError(f"unknown op {op!r}")
    return ops


class AoSKernelGenerator:
    """Generates the AoS / AoS-PB update command streams."""

    def __init__(
        self,
        geometry: DeviceGeometry = DEFAULT_GEOMETRY,
        per_bank: bool = False,
    ) -> None:
        self.geometry = geometry
        self.per_bank = per_bank

    def generate(
        self,
        optimizer,
        precision: PrecisionConfig = PRECISION_8_32,
        columns_per_unit: int = 32,
    ) -> AoSKernel:
        """Build a steady-state sample: every unit streams one row."""
        geom = self.geometry
        if not 1 <= columns_per_unit <= geom.columns_per_row:
            raise CompileError(
                f"columns_per_unit must be in [1, {geom.columns_per_row}]"
            )
        recipe = optimizer.recipe()
        n_alu = alu_ops_per_column(recipe)
        struct = structure_bytes(optimizer, precision)
        params_per_col = geom.column_bytes // struct
        if params_per_col < 1:
            raise CompileError(
                f"structure of {struct} B exceeds a {geom.column_bytes} B "
                "column"
            )

        banks = range(geom.banks_per_group) if self.per_bank else (0,)
        units = [
            (rank, bg, bank)
            for rank in range(geom.ranks)
            for bg in range(geom.bankgroups)
            for bank in banks
        ]

        emitter = _AoSEmitter(
            geom, SegmentRecorder(columns=columns_per_unit), n_alu
        )
        for unit in units:
            emitter.open_unit(unit)
        emitter.begin_segment(1)
        for (col,) in emitter.sweeps(list(range(columns_per_unit)), 1):
            for unit in units:
                emitter.column(unit, col)
        emitter.close_all_rows()
        stream, period = emitter.finish()

        return AoSKernel(
            stream=stream,
            params_per_column=params_per_col,
            n_columns=columns_per_unit,
            n_units=len(units),
            structure_bytes=struct,
            period=period,
        )


_SCALED_READ = KIND_INDEX[CommandType.SCALED_READ]
_PIM_ADD = KIND_INDEX[CommandType.PIM_ADD]
_WRITEBACK = KIND_INDEX[CommandType.WRITEBACK]


class _AoSEmitter(SweepEmitter):
    """Per-unit structure-column kernels; one sweep is one column on
    every unit. Consecutive columns alternate temporary registers."""

    def __init__(self, geometry, recorder, n_alu: int) -> None:
        super().__init__(geometry, recorder)
        self.n_alu = n_alu
        # Last writeback per (unit, reg): the WAR edge for reloading.
        self._reg_last: dict[tuple[tuple[int, int, int], int], int] = {}
        self._tag_sr = self.out.template("sr:", 1)
        self._tag_alu = self.out.template("alu:", 2)
        self._tag_wb = self.out.template("wb:", 1)

    def open_unit(self, unit: tuple[int, int, int]) -> None:
        """Activate the unit's row (every unit streams row 0)."""
        self._open_row(*unit, 0)

    def column(self, unit: tuple[int, int, int], col: int) -> None:
        rank, bg, bank = unit
        reg = col % 2
        act = self._rows[unit][2]
        deps = [act]
        if (unit, reg) in self._reg_last:
            deps.append(self._reg_last[(unit, reg)])
        out = self.out
        prev = out.append(
            (_SCALED_READ, rank, bg, bank, 0, col, 0, reg, 0, 0,
             self._tag_sr, col, 0),
            tuple(deps),
        )
        self._record_access(unit, prev)
        for a in range(self.n_alu):
            prev = out.append(
                (_PIM_ADD, rank, bg, bank, 0, 0, 0, reg, reg, 0,
                 self._tag_alu, col, a),
                (prev,),
            )
        wb = out.append(
            (_WRITEBACK, rank, bg, bank, 0, col, 0, 0, reg, 0,
             self._tag_wb, col, 0),
            (prev, act),
        )
        self._record_access(unit, wb)
        self._reg_last[(unit, reg)] = wb

    def _fingerprint(self, column_base: int) -> tuple[tuple, list[int]]:
        rows, indices = super()._fingerprint(column_base)
        keys = sorted(self._reg_last)
        indices.extend(self._reg_last[k] for k in keys)
        # The register the next column loads is part of the state.
        return (rows, tuple(keys), column_base % 2), indices

    def _shift(self, move, columns: int) -> None:
        super()._shift(move, columns)
        for k in self._reg_last:
            self._reg_last[k] = move(self._reg_last[k])
