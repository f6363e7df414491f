"""Measure-theoretic core: Schwarz and Steiner rearrangement on cell grids.

A rearrangement here is a permutation of cell values: the k-th largest
value goes to the k-th cell of the ball grid in |x| order, so source and
result are exactly equimeasurable.  The mass functions U(s) of the
rearranged slices are built in ``mass_ode``, which owns their format.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import CellGrid, SliceStack, symmetrized_grid


@dataclass(eq=False)
class ScalarField:
    """Cell values on a CellGrid; rearrangement inputs must be nonnegative."""

    grid: CellGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.num_cells,):
            raise ValueError("values must hold one entry per cell")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field values must be finite")

    def require_nonneg(self):
        if np.any(self.values < 0.0):
            raise ValueError("operation requires a nonnegative field")


def schwarz_rearrangement(field, target):
    """Radially non-increasing field on a ball grid, equimeasurable with u.

    Assigns the k-th largest value to the k-th cell in the |x|-ordering --
    a permutation, so the target must hold as many cells as the source, of
    the same measure, as ``symmetrized_grid`` of any interval, square or
    disk does.  The result is then exactly equimeasurable.
    """
    field.require_nonneg()
    if target.num_cells != field.grid.num_cells:
        raise ValueError(
            f"rank rearrangement needs equal cell counts, got target "
            f"{target.num_cells} and source {field.grid.num_cells}")
    if abs(target.cell_measure - field.grid.cell_measure) > 1e-12 * field.grid.cell_measure:
        raise ValueError(
            f"rank rearrangement needs equal cell measures, got target "
            f"{target.cell_measure:.17g} and source {field.grid.cell_measure:.17g}")
    order = np.argsort(np.sqrt((target.centers ** 2).sum(axis=1)), kind="stable")
    out = np.empty(target.num_cells)
    out[order] = np.sort(field.values)[::-1]
    return ScalarField(target, out)


def steiner_rearrangement(stack, target=None):
    """Slice-wise Schwarz rearrangement of a stack onto the ball grid."""
    if target is None:
        target = symmetrized_grid(stack.grid)
    rows = np.zeros((stack.values.shape[0], target.num_cells))
    for j in range(1, stack.values.shape[0] - 1):
        rows[j] = schwarz_rearrangement(ScalarField(stack.grid, stack.values[j]), target).values
    return SliceStack(target, rows)
