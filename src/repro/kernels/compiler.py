"""Optimizer-recipe -> GradPIM command-stream compiler (paper §IV-D).

The compiler lowers an :class:`~repro.optim.base.UpdateRecipe` plus a
precision mix into the three phases of Fig. 5:

1. **dequantization** — ``q_grad`` columns stream through the
   quantization register into full-precision ``grad`` rows;
2. **update** — one command group per high-precision column per recipe
   pass, with register allocation over the two temporary registers
   (reusing in-register values exactly as Fig. 5's step 6 does);
3. **quantization** — updated ``theta`` columns quantize into
   ``q_theta`` with quarter-row packing.

Command groups are emitted round-robin across the (bank group, rank)
stripes, modelling a memory controller with per-bank-group queues: work
for all GradPIM units is always in flight, which is what the data
placement of Fig. 7 exists to enable.

Every command carries dependency edges (data flow through registers,
the quantization register, and rows), so one stream drives both the
cycle-level scheduler and the byte-level functional executor — and the
two must agree, which the test suite verifies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.dram.columnar import KIND_INDEX, ColumnarStream
from repro.dram.commands import CommandType, QUANT_REG
from repro.dram.geometry import DeviceGeometry, DEFAULT_GEOMETRY
from repro.dram.period import SegmentRecorder, StreamPeriod
from repro.errors import CompileError
from repro.kernels.artifact import (
    CommandStreamArtifact,
    SweepEmitter,
    round_robin,
)
from repro.kernels.layout import ColumnCoords, UpdateLayout, column_plan
from repro.optim.base import (
    Lincomb,
    Mul,
    RsqrtMul,
    Term,
    UpdatePass,
    UpdateRecipe,
)
from repro.optim.precision import PrecisionConfig, PRECISION_8_32
from repro.pim.scaler import ScalerValue

#: Programmable scaler slots available to coefficients (slot 0 = identity).
_COEF_SLOTS = 3

#: Phases of a compiled kernel, in execution order.
PHASES = ("dequantize", "update", "quantize")


class _GradAccumulateRecipe:
    """Pseudo-optimizer for distributed gradient accumulation (§V-D).

    All-reduce maps "accumulate the incoming gradient shard into the
    local array" onto GradPIM with a single linear combination.
    """

    name = "grad_accumulate"

    def state_arrays(self) -> tuple[str, ...]:
        return ("incoming",)

    def recipe(self) -> UpdateRecipe:
        accumulate = UpdatePass(
            ops=(
                Lincomb(
                    "theta",
                    (Term(1.0, "theta"), Term(1.0, "incoming")),
                ),
            ),
            inputs=frozenset({"theta", "incoming"}),
            outputs=frozenset({"theta"}),
        )
        return UpdateRecipe(passes=(accumulate,))


GRAD_ACCUMULATE = _GradAccumulateRecipe()


@dataclass
class CompiledKernel(CommandStreamArtifact):
    """A lowered update kernel plus metadata for analytical scaling.

    ``commands``, ``dependents`` and ``columnar`` (the views of
    ``stream``) come from
    :class:`~repro.kernels.artifact.CommandStreamArtifact`."""

    stream: ColumnarStream
    layout: UpdateLayout
    pass_slots: tuple[dict[float, int], ...]  # per-pass coef -> slot
    precision: PrecisionConfig
    n_hp_columns: int  # columns actually compiled
    phase_counts: dict[str, int]  # commands per phase (incl. row cmds)
    #: Stripe-period metadata (steady-state sample kernels only): the
    #: index range and commands-per-sweep of every periodic phase body,
    #: consumed by the ``"periodic"`` scheduler engine. ``None`` for
    #: full-array (``n_params``) compilations.
    period: Optional[StreamPeriod] = None

    def commands_per_hp_column(self) -> float:
        """Average commands per high-precision column."""
        if self.n_hp_columns == 0:
            return 0.0
        return self.total_commands / self.n_hp_columns

    def scaler_programs(self) -> tuple[dict[int, ScalerValue], ...]:
        """Per-pass slot programs. Informational: the stream itself
        carries the MRW commands that install them."""
        out = []
        for slots in self.pass_slots:
            out.append(
                {
                    slot: ScalerValue.approximate(coef)
                    for coef, slot in slots.items()
                    if slot != 0
                }
            )
        return tuple(out)


class _RegAllocator:
    """Tracks the two temporary registers of one GradPIM unit.

    Contents are tagged tuples: ``('val', array, col)`` for a current
    array value, ``('scaled', array, col, coef)`` for a scaled load, or
    ``('tmp', token)`` for intermediate data.
    """

    def __init__(self) -> None:
        self.content: list[Optional[tuple]] = [None, None]
        self.last_writer: list[int] = [-1, -1]
        self.last_readers: list[list[int]] = [[], []]

    def find(self, want: tuple) -> Optional[int]:
        """Register currently holding ``want``, if any."""
        for r in (0, 1):
            if self.content[r] == want:
                return r
        return None

    def pick_free(self, protect: set[int]) -> int:
        """Choose a register to overwrite, avoiding ``protect``."""
        for r in (0, 1):
            if r not in protect:
                return r
        raise CompileError("both registers protected: op needs 3 operands")

    def write(self, reg: int, content: tuple, cmd_index: int) -> list[int]:
        """Record a write; returns dependency edges (WAW + WAR).

        A command that both reads and writes the same register (every
        ALU op) must not depend on itself, so its own index is filtered.
        """
        deps = []
        if 0 <= self.last_writer[reg] != cmd_index:
            deps.append(self.last_writer[reg])
        deps.extend(r for r in self.last_readers[reg] if r != cmd_index)
        self.content[reg] = content
        self.last_writer[reg] = cmd_index
        self.last_readers[reg] = []
        return deps

    def read(self, reg: int, cmd_index: int) -> list[int]:
        """Record a read; returns the RAW dependency edge."""
        self.last_readers[reg].append(cmd_index)
        if self.last_writer[reg] >= 0:
            return [self.last_writer[reg]]
        return []


class UpdateKernelCompiler:
    """Lowers optimizer recipes to GradPIM command streams."""

    def __init__(
        self,
        geometry: DeviceGeometry = DEFAULT_GEOMETRY,
        extended_alu: bool = False,
    ) -> None:
        self.geometry = geometry
        self.extended_alu = extended_alu

    # ------------------------------------------------------------------
    def compile(
        self,
        optimizer,
        precision: PrecisionConfig = PRECISION_8_32,
        n_params: Optional[int] = None,
        columns_per_stripe: Optional[int] = None,
        close_rows: bool = True,
        fuse_quantize: bool = False,
    ) -> CompiledKernel:
        """Compile an update kernel.

        Exactly one of ``n_params`` (functional use: every column of a
        real array) or ``columns_per_stripe`` (timing use: a steady-state
        sample engaging all stripes) must be given.

        ``fuse_quantize`` is an optimization beyond the paper's Fig. 5:
        quantize each theta column straight from the register that just
        computed it, instead of re-reading theta in a separate phase.
        Off by default for faithfulness; measured by an ablation bench.
        """
        recipe: UpdateRecipe = optimizer.recipe()
        if recipe.needs_extended_alu and not self.extended_alu:
            raise CompileError(
                f"{optimizer.name} needs the extended ALU (PIM_MUL / "
                "PIM_RSQRT, paper SVIII); construct the compiler with "
                "extended_alu=True to opt in"
            )
        recipe.validate_bank_budget(self.geometry.banks_per_group)

        columns = column_plan(
            self.geometry, precision, n_params, columns_per_stripe
        )
        layout = self._build_layout(recipe, precision, columns)
        pass_slots = self._assign_pass_slots(recipe)

        # Steady-state samples (uniform per-stripe plans) carry period
        # metadata; full-array compilations have ragged stripes and
        # none of the periodic structure the metadata promises.
        recorder = None
        if columns_per_stripe is not None and columns and columns[0]:
            recorder = SegmentRecorder(columns=len(columns[0]))
        state = _EmitState(
            geometry=self.geometry, layout=layout, recorder=recorder
        )
        fuse = fuse_quantize and not precision.is_full
        if not precision.is_full:
            state.set_phase("dequantize")
            self._emit_dequantize(state, precision, columns)
        state.set_phase("update")
        self._emit_update(
            state, recipe, columns, pass_slots,
            precision if fuse else None,
        )
        if not precision.is_full and not fuse:
            state.set_phase("quantize")
            state.end_segment()
            state.set_slots({1.0: 0})
            self._emit_quantize(state, precision, columns)
        if close_rows:
            state.close_all_rows()

        stream, period = state.finish()
        return CompiledKernel(
            stream=stream,
            layout=layout,
            pass_slots=pass_slots,
            precision=precision,
            n_hp_columns=sum(len(c) for c in columns),
            phase_counts=state.phase_counts,
            period=period,
        )

    # ------------------------------------------------------------------
    def _build_layout(
        self,
        recipe: UpdateRecipe,
        precision: PrecisionConfig,
        columns: list[list[int]],
    ) -> UpdateLayout:
        liveness: list[frozenset[str]] = []
        ratios: dict[str, int] = {}
        if not precision.is_full:
            liveness.append(frozenset({"q_grad", "grad"}))
            liveness.append(frozenset({"theta", "q_theta"}))
            ratios["q_grad"] = precision.ratio
            ratios["q_theta"] = precision.ratio
        for p in recipe.passes:
            liveness.append(p.dram_arrays())
        n_hp_columns = max((max(c) + 1 for c in columns if c), default=1)
        return UpdateLayout(
            liveness_groups=liveness,
            packed_ratios=ratios,
            n_hp_columns=n_hp_columns,
            geometry=self.geometry,
        )

    def _assign_pass_slots(
        self, recipe: UpdateRecipe
    ) -> tuple[dict[float, int], ...]:
        """Per-pass coefficient -> slot assignment.

        Slots are reprogrammed between passes through MRW commands
        (paper §IV-B), so each *pass* — not the whole recipe — must fit
        the three programmable slots.
        """
        out = []
        for i, p in enumerate(recipe.passes):
            slots: dict[float, int] = {1.0: 0}
            next_slot = 1
            for op in p.ops:
                for coef in op.coefficients():
                    if coef in slots:
                        continue
                    if next_slot > _COEF_SLOTS:
                        raise CompileError(
                            f"pass {i} needs more than {_COEF_SLOTS} "
                            "distinct coefficients; split the pass "
                            "(slots are reprogrammable only between "
                            "passes)"
                        )
                    slots[coef] = next_slot
                    next_slot += 1
            out.append(slots)
        return tuple(out)

    # ------------------------------------------------------------------
    # Phase emitters
    # ------------------------------------------------------------------
    def _emit_dequantize(
        self,
        state: "_EmitState",
        precision: PrecisionConfig,
        columns: list[list[int]],
    ) -> None:
        """Fig. 5 (top): q_grad -> grad through the quantization register."""
        ratio = precision.ratio
        stride = len(columns)
        state.begin_segment(ratio)
        for sweep in state.sweeps(round_robin(columns, ratio), stride):
            for stripe, hp_cols in sweep:
                lp_col = hp_cols[0] // ratio
                load = state.emit_qreg_load("q_grad", lp_col)
                for pos, j in enumerate(hp_cols):
                    reg = pos % 2
                    state.emit_dequant(
                        "grad", j, position=pos, dst_reg=reg, qreg_dep=load
                    )
                    state.emit_writeback("grad", j, reg)

    def _emit_update(
        self,
        state: "_EmitState",
        recipe: UpdateRecipe,
        columns: list[list[int]],
        pass_slots: tuple[dict[float, int], ...],
        fused_precision: Optional[PrecisionConfig] = None,
    ) -> None:
        """Fig. 5 (middle): one command group per column per pass."""
        for pass_index, p in enumerate(recipe.passes):
            final = pass_index == len(recipe.passes) - 1
            state.end_segment()
            state.set_slots(pass_slots[pass_index])
            # With a fused quantize the final pass emits the packed
            # q_theta store only every ``ratio`` columns, so the
            # uniform repeating unit spans that many stripe rounds.
            group = (
                fused_precision.ratio
                if final and fused_precision is not None
                else 1
            )
            stride = len(columns) * group
            state.begin_segment(group)
            for sweep in state.sweeps(round_robin(columns, 1), stride):
                for stripe, hp_cols in sweep:
                    j = hp_cols[0]
                    theta_reg = self._lower_pass_column(state, p, stripe, j)
                    if final and fused_precision is not None:
                        if theta_reg is None:
                            raise CompileError(
                                "fuse_quantize requires the final pass "
                                "to compute theta"
                            )
                        ratio = fused_precision.ratio
                        pos = j % ratio
                        state.emit_quant(
                            stripe, src_reg=theta_reg, position=pos, col=j
                        )
                        if pos == ratio - 1:
                            state.emit_qreg_store("q_theta", j // ratio)

    def _lower_pass_column(
        self, state: "_EmitState", p: UpdatePass, stripe: int, j: int
    ) -> Optional[int]:
        """Lower one pass for one column; returns theta's register."""
        theta_reg: Optional[int] = None
        for op in p.ops:
            if isinstance(op, Lincomb):
                acc = self._lower_lincomb(state, stripe, j, op)
            elif isinstance(op, Mul):
                acc = self._lower_mul(state, stripe, j, op)
            elif isinstance(op, RsqrtMul):
                acc = self._lower_rsqrt_mul(state, stripe, j, op)
            else:  # pragma: no cover - closed union
                raise CompileError(f"unknown op {op!r}")
            state.regs(stripe).content[acc] = ("val", op.target, j)
            if op.target == "theta":
                theta_reg = acc
            if op.target in p.outputs:
                state.emit_writeback(op.target, j, acc)
        return theta_reg

    def _lower_lincomb(
        self, state: "_EmitState", stripe: int, j: int, op: Lincomb
    ) -> int:
        regs = state.regs(stripe)
        wanted = {
            ("val", t.source, j)
            for t in op.terms[1:]
            if t.coef in (1.0, -1.0)
        }
        first = op.terms[0]
        acc = regs.pick_free(
            {r for r in (0, 1) if regs.content[r] in wanted}
        )
        state.emit_scaled_read(first.source, j, first.coef, acc)
        for t in op.terms[1:]:
            in_reg = regs.find(("val", t.source, j))
            if in_reg is not None and in_reg != acc and t.coef in (1.0, -1.0):
                operand = in_reg
                subtract = t.coef == -1.0
            else:
                operand = 1 - acc
                state.emit_scaled_read(t.source, j, t.coef, operand)
                subtract = False
            kind = CommandType.PIM_SUB if subtract else CommandType.PIM_ADD
            state.emit_alu(kind, stripe, dst=acc, other=operand, col=j)
        return acc

    def _lower_mul(
        self, state: "_EmitState", stripe: int, j: int, op: Mul
    ) -> int:
        regs = state.regs(stripe)
        b_reg = regs.find(("val", op.b, j))
        if b_reg is None:
            protect = {
                r
                for r in (0, 1)
                if regs.content[r] == ("val", op.a.source, j)
            }
            b_reg = regs.pick_free(protect)
            state.emit_scaled_read(op.b, j, 1.0, b_reg)
        a_reg = 1 - b_reg
        state.emit_scaled_read(op.a.source, j, op.a.coef, a_reg)
        state.emit_alu(
            CommandType.PIM_MUL, stripe, dst=a_reg, other=b_reg, col=j
        )
        return a_reg

    def _lower_rsqrt_mul(
        self, state: "_EmitState", stripe: int, j: int, op: RsqrtMul
    ) -> int:
        regs = state.regs(stripe)
        b_reg = regs.find(("val", op.b, j))
        if b_reg is None:
            protect = {
                r for r in (0, 1) if regs.content[r] == ("val", op.a, j)
            }
            b_reg = regs.pick_free(protect)
            state.emit_scaled_read(op.b, j, 1.0, b_reg)
        state.emit_alu(
            CommandType.PIM_RSQRT, stripe, dst=b_reg, other=b_reg, col=j
        )
        a_reg = regs.find(("val", op.a, j))
        if a_reg is None or a_reg == b_reg:
            a_reg = 1 - b_reg
            state.emit_scaled_read(op.a, j, 1.0, a_reg)
        state.emit_alu(
            CommandType.PIM_MUL, stripe, dst=b_reg, other=a_reg, col=j
        )
        return b_reg

    def _emit_quantize(
        self,
        state: "_EmitState",
        precision: PrecisionConfig,
        columns: list[list[int]],
    ) -> None:
        """Fig. 5 (bottom): theta -> q_theta, a quarter at a time."""
        ratio = precision.ratio
        stride = len(columns)
        state.begin_segment(ratio)
        for sweep in state.sweeps(round_robin(columns, ratio), stride):
            for stripe, hp_cols in sweep:
                lp_col = hp_cols[0] // ratio
                for pos, j in enumerate(hp_cols):
                    reg = pos % 2
                    state.emit_scaled_read("theta", j, 1.0, reg)
                    state.emit_quant(
                        stripe, src_reg=reg, position=pos, col=j
                    )
                state.emit_qreg_store("q_theta", lp_col)


# ----------------------------------------------------------------------
_MRW = KIND_INDEX[CommandType.MRW]
_SCALED_READ = KIND_INDEX[CommandType.SCALED_READ]
_WRITEBACK = KIND_INDEX[CommandType.WRITEBACK]
_QREG_LOAD = KIND_INDEX[CommandType.QREG_LOAD]
_QREG_STORE = KIND_INDEX[CommandType.QREG_STORE]
_PIM_QUANT = KIND_INDEX[CommandType.PIM_QUANT]
_PIM_DEQUANT = KIND_INDEX[CommandType.PIM_DEQUANT]
_ALU_LABEL = {kind: kind.value.lower() for kind in CommandType}


def _shift_content(content: Optional[tuple], columns: int):
    """A register content tag with its column value moved by
    ``columns``."""
    if content is None:
        return None
    if content[0] == "tmp":
        label, col = content[1]
        return ("tmp", (label, col + columns))
    return content[:2] + (content[2] + columns,) + content[3:]


class _EmitState(SweepEmitter):
    """Mutable emission context shared by the phase emitters."""

    def __init__(
        self,
        geometry: DeviceGeometry,
        layout: UpdateLayout,
        recorder: Optional[SegmentRecorder] = None,
    ) -> None:
        super().__init__(geometry, recorder)
        self.layout = layout
        self.slots: dict[float, int] = {1.0: 0}
        # (phase, first command index) in emission order.
        self._phases: list[tuple[str, int]] = [("setup", 0)]
        self._regs: dict[int, _RegAllocator] = {}
        # Quantization-register hazard tracking, per stripe: the last
        # whole-register barrier (load/store) and commands touching the
        # register since.
        self._qreg_barrier: dict[int, int] = {}
        self._qreg_users: dict[int, list[int]] = {}
        # MRW tracking: programmed (rank, slot) -> coefficient, the MRW
        # barrier per rank, and the last scaled read per rank (the MRW
        # must not overtake reads using the previous program).
        self._programmed: dict[tuple[int, int], float] = {}
        self._mrw_dep: dict[int, int] = {}
        self._last_sr: dict[int, int] = {}
        self._tags: dict[tuple[str, str], int] = {}

    def set_phase(self, phase: str) -> None:
        """Attribute the commands emitted from here on to ``phase``."""
        self._phases.append((phase, self.out.n))

    @property
    def phase_counts(self) -> dict[str, int]:
        """Commands per phase (phases that emitted none are absent)."""
        counts: dict[str, int] = {}
        marks = self._phases + [("", self.out.n)]
        for (phase, start), (_, end) in zip(marks, marks[1:]):
            if end > start:
                counts[phase] = counts.get(phase, 0) + end - start
        return counts

    def _tag(self, label: str, array: str = "") -> int:
        """Template id of the tag ``label:array:<arg>`` (``label:<arg>``
        without an array); formatted once per stream."""
        tag = self._tags.get((label, array))
        if tag is None:
            prefix = f"{label}:{array}:" if array else f"{label}:"
            tag = self._tags[(label, array)] = self.out.template(prefix, 1)
        return tag

    def set_slots(self, slot_map: dict[float, int]) -> None:
        """Install a pass's scaler program, emitting MRW commands for
        every slot whose value changes on each rank."""
        for rank in range(self.geometry.ranks):
            for coef, slot in sorted(
                slot_map.items(), key=lambda kv: kv[1]
            ):
                if slot == 0:
                    continue
                if self._programmed.get((rank, slot)) == coef:
                    continue
                deps = []
                if rank in self._last_sr:
                    deps.append(self._last_sr[rank])
                index = self.out.append(
                    (_MRW, rank, 0, 0, 0, 0, slot, 0, 0, 0,
                     self._tag("mrw"), slot, 0),
                    tuple(deps),
                )
                self.out.set_scaler(index, ScalerValue.approximate(coef))
                self._programmed[(rank, slot)] = coef
                self._mrw_dep[rank] = index
        self.slots = slot_map

    # -- sweep tiling ------------------------------------------------------
    def _fingerprint(self, column_base: int) -> tuple[tuple, list[int]]:
        rows, indices = super()._fingerprint(column_base)
        structure = [rows]
        for stripe in sorted(self._regs):
            regs = self._regs[stripe]
            structure.append((
                stripe,
                tuple(_shift_content(c, -column_base) for c in regs.content),
                tuple(len(r) for r in regs.last_readers),
            ))
            indices.extend(regs.last_writer)
            for readers in regs.last_readers:
                indices.extend(readers)
        for table in (self._qreg_barrier, self._mrw_dep, self._last_sr):
            keys = sorted(table)
            structure.append(tuple(keys))
            indices.extend(table[k] for k in keys)
        users = sorted(self._qreg_users)
        structure.append(tuple((k, len(self._qreg_users[k])) for k in users))
        for k in users:
            indices.extend(self._qreg_users[k])
        structure.append(tuple(sorted(self.slots.items())))
        structure.append(tuple(sorted(self._programmed.items())))
        return tuple(structure), indices

    def _shift(self, move, columns: int) -> None:
        super()._shift(move, columns)
        for regs in self._regs.values():
            regs.content = [_shift_content(c, columns) for c in regs.content]
            regs.last_writer = [move(v) for v in regs.last_writer]
            regs.last_readers = [
                [move(v) for v in readers] for readers in regs.last_readers
            ]
        for table in (self._qreg_barrier, self._mrw_dep, self._last_sr):
            for k in table:
                table[k] = move(table[k])
        for k, users in self._qreg_users.items():
            self._qreg_users[k] = [move(v) for v in users]

    # -- helpers ---------------------------------------------------------
    def regs(self, stripe: int) -> _RegAllocator:
        allocator = self._regs.get(stripe)
        if allocator is None:
            allocator = _RegAllocator()
            self._regs[stripe] = allocator
        return allocator

    def _stripe_of(self, coords: ColumnCoords) -> int:
        return coords.rank * self.geometry.bankgroups + coords.bankgroup

    def _access(self, kind: int, coords: ColumnCoords, deps: list[int],
                tag: int, arg: int, scale_id: int = 0, dst_reg: int = 0,
                src_reg: int = 0) -> int:
        """Append a column access on ``coords``; records it on its row."""
        index = self.out.append(
            (kind, coords.rank, coords.bankgroup, coords.bank, coords.row,
             coords.col, scale_id, dst_reg, src_reg, 0, tag, arg, 0),
            tuple(dict.fromkeys(deps)),
        )
        self._record_access(
            (coords.rank, coords.bankgroup, coords.bank), index
        )
        return index

    def _open(self, coords: ColumnCoords) -> list[int]:
        return self._open_row(
            coords.rank, coords.bankgroup, coords.bank, coords.row
        )

    def _qreg_touch(self, stripe: int, index: int) -> list[int]:
        """Deps for a command reading/writing part of the qreg."""
        self._qreg_users.setdefault(stripe, []).append(index)
        barrier = self._qreg_barrier.get(stripe)
        return [barrier] if barrier is not None else []

    def _qreg_barrier_deps(self, stripe: int, index: int) -> list[int]:
        """Deps for a whole-register load/store; resets the user set."""
        deps = self._qreg_users.pop(stripe, [])
        barrier = self._qreg_barrier.get(stripe)
        if barrier is not None:
            deps = deps + [barrier]
        self._qreg_barrier[stripe] = index
        return deps

    # -- command emitters --------------------------------------------------
    def emit_scaled_read(
        self, array: str, j: int, coef: float, dst_reg: int
    ) -> int:
        coords = self.layout.hp_coords(array, j)
        stripe = self._stripe_of(coords)
        slot = self._slot_for(coef)
        deps = self._open(coords)
        if slot != 0 and coords.rank in self._mrw_dep:
            deps.append(self._mrw_dep[coords.rank])
        regs = self.regs(stripe)
        index = self.out.n
        content = (
            ("val", array, j) if coef == 1.0 else ("scaled", array, j, coef)
        )
        deps.extend(regs.write(dst_reg, content, index))
        self._last_sr[coords.rank] = index
        return self._access(
            _SCALED_READ, coords, deps, self._tag("sr", array), j,
            scale_id=slot, dst_reg=dst_reg,
        )

    def _slot_for(self, coef: float) -> int:
        slot = self.slots.get(coef)
        if slot is None:
            raise CompileError(
                f"coefficient {coef} was not assigned a scaler slot"
            )
        return slot

    def emit_alu(
        self,
        kind: CommandType,
        stripe: int,
        dst: int,
        other: int,
        col: int,
    ) -> int:
        """Emit an add/sub/mul/rsqrt over the temporary registers."""
        regs = self.regs(stripe)
        index = self.out.n
        deps = list(regs.read(dst, index))
        if other != dst:
            deps.extend(regs.read(other, index))
        deps.extend(regs.write(dst, ("tmp", (kind.value, col)), index))
        rank, bg = divmod(stripe, self.geometry.bankgroups)
        return self.out.append(
            (KIND_INDEX[kind], rank, bg, 0, 0, 0, 0, dst, other, 0,
             self._tag(_ALU_LABEL[kind]), col, 0),
            tuple(dict.fromkeys(deps)),
        )

    def emit_quant(
        self, stripe: int, src_reg: int, position: int, col: int
    ) -> int:
        """PIM_QUANT: read a temp register, fill one qreg position."""
        regs = self.regs(stripe)
        index = self.out.n
        deps = list(regs.read(src_reg, index))
        deps.extend(self._qreg_touch(stripe, index))
        rank, bg = divmod(stripe, self.geometry.bankgroups)
        return self.out.append(
            (_PIM_QUANT, rank, bg, 0, 0, 0, 0, 0, src_reg, position,
             self._tag("quant"), col, 0),
            tuple(dict.fromkeys(deps)),
        )

    def emit_dequant(
        self, array: str, j: int, position: int, dst_reg: int, qreg_dep: int
    ) -> int:
        """PIM_DEQUANT: read one qreg position into a temp register."""
        coords = self.layout.hp_coords(array, j)
        stripe = self._stripe_of(coords)
        regs = self.regs(stripe)
        index = self.out.n
        deps = [qreg_dep]
        deps.extend(self._qreg_touch(stripe, index))
        deps.extend(regs.write(dst_reg, ("tmp", ("deq", j)), index))
        return self.out.append(
            (_PIM_DEQUANT, coords.rank, coords.bankgroup, 0, 0, 0, 0,
             dst_reg, 0, position, self._tag("deq"), j, 0),
            tuple(dict.fromkeys(deps)),
        )

    def emit_writeback(self, array: str, j: int, src_reg: int) -> int:
        coords = self.layout.hp_coords(array, j)
        stripe = self._stripe_of(coords)
        regs = self.regs(stripe)
        deps = self._open(coords)
        index = self.out.n
        deps.extend(regs.read(src_reg, index))
        return self._access(
            _WRITEBACK, coords, deps, self._tag("wb", array), j,
            src_reg=src_reg,
        )

    def emit_qreg_load(self, array: str, lp_col: int) -> int:
        coords = self.layout.lp_coords(array, lp_col)
        stripe = self._stripe_of(coords)
        deps = self._open(coords)
        index = self.out.n
        deps.extend(self._qreg_barrier_deps(stripe, index))
        return self._access(
            _QREG_LOAD, coords, deps, self._tag("ql", array), lp_col,
            dst_reg=QUANT_REG,
        )

    def emit_qreg_store(self, array: str, lp_col: int) -> int:
        coords = self.layout.lp_coords(array, lp_col)
        stripe = self._stripe_of(coords)
        deps = self._open(coords)
        index = self.out.n
        deps.extend(self._qreg_barrier_deps(stripe, index))
        return self._access(
            _QREG_STORE, coords, deps, self._tag("qs", array), lp_col,
            src_reg=QUANT_REG,
        )

    # -- finalization ------------------------------------------------------
    def close_all_rows(self) -> None:
        """Close every open row (pairing each ACT with a PRE)."""
        self.set_phase("row-close")
        super().close_all_rows()
