"""Measure-theoretic core: rearrangements and mass functions.

The exact carrier of a rearrangement here is the sorted-cell step function
(``StepData``): cell values in decreasing order with their accumulated
measures.  Mass functions are integrated exactly from the steps, so
equimeasurability identities hold to rounding error rather than to
quadrature error.  Grid sampling onto a ``RadialGrid`` is layered on top.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import CellGrid, RadialGrid, SliceStack, symmetrized_grid


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

@dataclass(eq=False)
class StepData:
    """Right-continuous decreasing step function on (0, total_measure).

    ``values`` are sorted decreasingly; ``cum`` holds accumulated measures,
    so the function equals values[k] on [cum[k-1], cum[k]).
    """

    values: np.ndarray
    cum: np.ndarray

    @classmethod
    def from_field(cls, field):
        field.require_nonneg()
        order = np.argsort(-field.values, kind="stable")
        vals = field.values[order]
        cum = np.cumsum(np.full(len(vals), field.grid.cell_measure))
        return cls(vals, cum)

    @property
    def total(self):
        return float(self.cum[-1])

    def value_at(self, s):
        """Right-continuous evaluation; zero at and beyond the total measure."""
        s = np.asarray(s, dtype=float)
        idx = np.searchsorted(self.cum, s, side="right")
        padded = np.concatenate([self.values, [0.0]])
        out = padded[np.minimum(idx, len(self.values))]
        return float(out) if out.ndim == 0 else out

    def integral_to(self, s):
        """Exact integral of the step function over (0, s)."""
        s = np.asarray(s, dtype=float)
        cum0 = np.concatenate([[0.0], self.cum])
        mass0 = np.concatenate([[0.0], np.cumsum(self.values * np.diff(cum0))])
        idx = np.searchsorted(self.cum, s, side="right")
        idx = np.minimum(idx, len(self.values) - 1)
        out = mass0[idx] + self.values[idx] * np.clip(s - cum0[idx], 0.0, None)
        out = np.where(s >= self.total, mass0[-1], out)
        return float(out) if out.ndim == 0 else out

@dataclass(eq=False)
class Profile:
    """Decreasing rearrangement sampled on a radial grid.

    The values are right-continuous samples of the exact step function
    ``steps``, which rides along.
    """

    s_grid: RadialGrid
    values: np.ndarray
    steps: StepData

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.s_grid.s_nodes.shape:
            raise ValueError("profile must hold one value per s-node")
        if np.any(np.diff(self.values) > 1e-12 * max(1.0, np.abs(self.values).max())):
            raise ValueError("profile values must be non-increasing")


@dataclass(eq=False)
class MassFunction:
    """Running integral U(s) of a decreasing profile; concave, U(0) = 0."""

    s_grid: RadialGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.s_grid.s_nodes.shape:
            raise ValueError("mass function must hold one value per s-node")
        if self.values[0] != 0.0:
            raise ValueError("mass function must vanish at s = 0")


def decreasing_rearrangement(field, s_grid):
    """Sort cells by value, accumulate measures, sample onto the s-grid."""
    steps = StepData.from_field(field)
    return Profile(s_grid, steps.value_at(s_grid.s_nodes), steps)


def mass_function(profile):
    """Cumulative integral of the profile, exact from its step data."""
    vals = profile.steps.integral_to(profile.s_grid.s_nodes)
    vals = np.asarray(vals, dtype=float)
    vals[0] = 0.0
    return MassFunction(profile.s_grid, vals)


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
