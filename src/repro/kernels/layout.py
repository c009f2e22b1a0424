"""Parameter-array placement for update kernels (paper §V-B, Fig. 7).

The update working set — master weights ``theta``, optimizer state,
high-precision gradients, and the quantized copies ``q_theta`` /
``q_grad`` — must satisfy one invariant: arrays that are live in the
same pass sit in the *same bank group but different banks*, so a
GradPIM unit can hold several rows open at once without inter-group
traffic or bank conflicts.

Placement mechanics implemented here:

* **bank coloring** — arrays co-live if they appear in the same recipe
  pass (or in the dequantize/quantize phases); a greedy coloring assigns
  banks, failing loudly if the working set exceeds the group's banks;
* **stripe addressing** — arrays stream across bank groups and ranks in
  row-sized chunks (the Fig. 7 interleave): high-precision column ``j``
  lives in stripe ``j // columns_per_row``, which round-robins over
  (bank group, rank);
* **quarter-row packing** — quantized arrays use only the first
  ``1/ratio`` of each row (paper: "utilize only the first quarter of the
  row for the quantized weights"), keeping low-precision column
  ``j // ratio`` in the same stripe as high-precision column ``j``;
* **column plan** — :func:`column_plan` picks which high-precision
  columns a kernel touches, per stripe, for every stream generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.dram.geometry import DeviceGeometry, DEFAULT_GEOMETRY
from repro.errors import CompileError
from repro.optim.precision import PrecisionConfig
from repro.units import ceil_div


def column_plan(
    geometry: DeviceGeometry,
    precision: PrecisionConfig,
    n_params: int | None = None,
    columns_per_stripe: int | None = None,
) -> list[list[int]]:
    """Per-stripe lists of hp column indices, round-robin ready.

    Exactly one of ``n_params`` (functional use: every column of a real
    array, striped across stripes in row-sized chunks) or
    ``columns_per_stripe`` (timing use: a steady-state sample engaging
    every stripe) must be given. Column counts round up to whole
    quantization groups of ``precision.ratio`` columns.
    """
    stripes = geometry.bankgroups * geometry.ranks
    cpr = geometry.columns_per_row
    if (n_params is None) == (columns_per_stripe is None):
        raise CompileError(
            "give exactly one of n_params / columns_per_stripe"
        )
    if columns_per_stripe is not None:
        if not 1 <= columns_per_stripe <= cpr:
            raise CompileError(f"columns_per_stripe must be in [1, {cpr}]")
        k = columns_per_stripe
        if not precision.is_full:
            k = ceil_div(k, precision.ratio) * precision.ratio
        return [list(range(s * cpr, s * cpr + k)) for s in range(stripes)]
    if n_params < 1:
        raise CompileError(f"n_params must be positive, got {n_params}")
    lanes = geometry.column_bytes // precision.hp_bytes
    n_cols = ceil_div(n_params, lanes)
    if not precision.is_full:
        n_cols = ceil_div(n_cols, precision.ratio) * precision.ratio
    plan: list[list[int]] = [[] for _ in range(stripes)]
    for j in range(n_cols):
        plan[(j // cpr) % stripes].append(j)
    return plan


@dataclass(frozen=True)
class ArrayPlacement:
    """Where one parameter array lives."""

    name: str
    bank: int
    row_base: int  # first row index used in every (rank, group) stripe
    rows: int  # rows reserved per stripe
    packed_ratio: int = 1  # 1 for hp arrays; hp/lp ratio for quantized


@dataclass(frozen=True)
class ColumnCoords:
    """Physical coordinates of one column access."""

    rank: int
    bankgroup: int
    bank: int
    row: int
    col: int


class UpdateLayout:
    """Bank/row assignment plus column addressing for one kernel."""

    def __init__(
        self,
        liveness_groups: Sequence[frozenset[str]],
        packed_ratios: Mapping[str, int],
        n_hp_columns: int,
        geometry: DeviceGeometry = DEFAULT_GEOMETRY,
    ) -> None:
        """Build a layout.

        ``liveness_groups`` — sets of array names that are simultaneously
        live (one per pass/phase); arrays within a set get distinct banks.
        ``packed_ratios`` — ratio for every array (1 = full rows).
        ``n_hp_columns`` — kernel length in high-precision columns, which
        sizes each array's row reservation.
        """
        self.geometry = geometry
        self.n_hp_columns = n_hp_columns
        self._stripes = geometry.bankgroups * geometry.ranks
        self._placements = self._place(
            liveness_groups, packed_ratios, n_hp_columns
        )
        self._coord_cache: dict[tuple, ColumnCoords] = {}

    # ------------------------------------------------------------------
    def _place(
        self,
        liveness_groups: Sequence[frozenset[str]],
        packed_ratios: Mapping[str, int],
        n_hp_columns: int,
    ) -> dict[str, ArrayPlacement]:
        geom = self.geometry
        conflicts: dict[str, set[str]] = {}
        order: list[str] = []
        for group in liveness_groups:
            for name in sorted(group):
                if name not in conflicts:
                    conflicts[name] = set()
                    order.append(name)
                conflicts[name].update(group - {name})

        bank_of: dict[str, int] = {}
        for name in order:
            taken = {
                bank_of[other]
                for other in conflicts[name]
                if other in bank_of
            }
            bank = next(
                (
                    b
                    for b in range(geom.banks_per_group)
                    if b not in taken
                ),
                None,
            )
            if bank is None:
                raise CompileError(
                    f"array {name!r} cannot be placed: all "
                    f"{geom.banks_per_group} banks conflict; the recipe "
                    "needs more passes (paper SVIII)"
                )
            bank_of[name] = bank

        # Row reservation per bank: arrays sharing a bank stack rows.
        next_row = [0] * geom.banks_per_group
        placements: dict[str, ArrayPlacement] = {}
        for name in order:
            ratio = packed_ratios.get(name, 1)
            cols = ceil_div(n_hp_columns, ratio) if ratio > 1 else n_hp_columns
            # Columns per stripe-row for this array (quarter packing).
            cols_per_row = geom.columns_per_row // ratio
            rows = ceil_div(ceil_div(cols, self._stripes), cols_per_row)
            rows = max(rows, 1)
            bank = bank_of[name]
            placements[name] = ArrayPlacement(
                name=name,
                bank=bank,
                row_base=next_row[bank],
                rows=rows,
                packed_ratio=ratio,
            )
            next_row[bank] += rows
            if next_row[bank] > geom.rows:
                raise CompileError(
                    f"bank {bank} overflows: {next_row[bank]} rows needed"
                )
        return placements

    # ------------------------------------------------------------------
    def placement(self, name: str) -> ArrayPlacement:
        """Placement record of one array."""
        try:
            return self._placements[name]
        except KeyError:
            raise CompileError(f"array {name!r} is not in this layout")

    def arrays(self) -> tuple[str, ...]:
        """All placed array names."""
        return tuple(self._placements)

    def hp_coords(self, name: str, col_index: int) -> ColumnCoords:
        """Coordinates of high-precision column ``col_index``.

        Memoized: kernels revisit the same (array, column) across
        passes/phases, and ``ColumnCoords`` is frozen so instances are
        safely shared.
        """
        key = (name, col_index, False)
        out = self._coord_cache.get(key)
        if out is None:
            out = self._coords(
                self.placement(name), col_index, packed=False
            )
            self._coord_cache[key] = out
        return out

    def lp_coords(self, name: str, lp_col_index: int) -> ColumnCoords:
        """Coordinates of low-precision (packed) column ``lp_col_index``."""
        key = (name, lp_col_index, True)
        out = self._coord_cache.get(key)
        if out is None:
            out = self._coords(
                self.placement(name), lp_col_index, packed=True
            )
            self._coord_cache[key] = out
        return out

    def _coords(
        self, placement: ArrayPlacement, index: int, packed: bool
    ) -> ColumnCoords:
        geom = self.geometry
        ratio = placement.packed_ratio if packed else 1
        cols_per_row = geom.columns_per_row // ratio
        stripe = index // cols_per_row
        col = index % cols_per_row
        bankgroup = stripe % geom.bankgroups
        rank = (stripe // geom.bankgroups) % geom.ranks
        row_offset = stripe // self._stripes
        if row_offset >= placement.rows:
            raise CompileError(
                f"column {index} exceeds reservation of "
                f"{placement.name!r} ({placement.rows} rows/stripe)"
            )
        return ColumnCoords(
            rank=rank,
            bankgroup=bankgroup,
            bank=placement.bank,
            row=placement.row_base + row_offset,
            col=col,
        )

    # ------------------------------------------------------------------
    # Functional store/load through the layout
    # ------------------------------------------------------------------
    def store_hp_array(self, dram, name: str, values: np.ndarray) -> None:
        """Scatter a high-precision array into the functional DRAM."""
        self._store(dram, name, values, packed=False)

    def store_lp_array(self, dram, name: str, values: np.ndarray) -> None:
        """Scatter a low-precision (packed) array into functional DRAM."""
        self._store(dram, name, values, packed=True)

    def load_hp_array(
        self, dram, name: str, dtype: np.dtype, count: int
    ) -> np.ndarray:
        """Gather a high-precision array back out of functional DRAM."""
        return self._load(dram, name, dtype, count, packed=False)

    def load_lp_array(
        self, dram, name: str, dtype: np.dtype, count: int
    ) -> np.ndarray:
        """Gather a low-precision array back out of functional DRAM."""
        return self._load(dram, name, dtype, count, packed=True)

    def _store(
        self, dram, name: str, values: np.ndarray, packed: bool
    ) -> None:
        cb = self.geometry.column_bytes
        raw = np.ascontiguousarray(values).view(np.uint8).ravel()
        n_cols = ceil_div(len(raw), cb)
        padded = np.zeros(n_cols * cb, dtype=np.uint8)
        padded[: len(raw)] = raw
        placement = self.placement(name)
        for c in range(n_cols):
            coords = self._coords(placement, c, packed=packed)
            dram.write_column(
                coords.rank,
                coords.bankgroup,
                coords.bank,
                coords.row,
                coords.col,
                padded[c * cb : (c + 1) * cb],
            )

    def _load(
        self, dram, name: str, dtype: np.dtype, count: int, packed: bool
    ) -> np.ndarray:
        cb = self.geometry.column_bytes
        nbytes = count * np.dtype(dtype).itemsize
        n_cols = ceil_div(nbytes, cb)
        out = np.zeros(n_cols * cb, dtype=np.uint8)
        placement = self.placement(name)
        for c in range(n_cols):
            coords = self._coords(placement, c, packed=packed)
            out[c * cb : (c + 1) * cb] = dram.read_column(
                coords.rank,
                coords.bankgroup,
                coords.bank,
                coords.row,
                coords.col,
            )
        return out[:nbytes].view(dtype).copy()
