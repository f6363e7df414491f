"""Measure-theoretic core: distribution function, rearrangements, masses.

The exact carrier of a rearrangement here is the sorted-cell step function
(``StepData``): cell values in decreasing order with their accumulated
measures.  All integrals against it (mass functions, L^q norms, L^1
distances between profiles) are evaluated exactly from the steps, so
equimeasurability identities hold to rounding error rather than to
quadrature error.  Grid sampling onto a ``RadialGrid`` is layered on top.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from .grids import CellGrid, RadialGrid, SliceStack, BALL_MEASURE, gradient_functional, symmetrized_grid


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

    def integral(self):
        return float(self.values.sum() * self.grid.cell_measure)


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

    def integral_power(self, q):
        """Exact integral of value^q over (0, total)."""
        widths = np.diff(np.concatenate([[0.0], self.cum]))
        return float(np.sum(self.values ** q * widths))

    def distribution(self, t):
        """Measure of the super-level set {value > t}."""
        t = np.asarray(t, dtype=float)
        counts = np.searchsorted(-self.values, -t, side="left")
        cum0 = np.concatenate([[0.0], self.cum])
        out = cum0[counts]
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

    @property
    def total(self):
        return float(self.values[-1])

    def at(self, s):
        return np.interp(s, self.s_grid.s_nodes, self.values)


def distribution_function(field, t):
    """Measure of {x : u(x) > t}; non-increasing in t."""
    field.require_nonneg()
    return StepData.from_field(field).distribution(t)


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


def schwarz_rearrangement(field, target, method="rank"):
    """Radially non-increasing field on a ball grid, equimeasurable with u.

    ``method="rank"`` assigns the k-th largest value to the k-th cell in the
    |x|-ordering -- a permutation, so the target must hold as many cells as
    the source, as ``symmetrized_grid`` of any interval, square or disk does.
    The result is exactly equimeasurable (the right choice for measure-side
    work: data stacks, mass functions, norms).
    ``method="sample"`` evaluates the exact step function at each cell's
    own measure coordinate, giving a true function of the radius:
    equimeasurable only up to grid error, but free of the lattice-ordering
    noise that pollutes gradient functionals of the rank assignment.
    """
    field.require_nonneg()
    mismatch = abs(target.total_measure - field.grid.total_measure)
    if mismatch > 0.02 * field.grid.total_measure:
        raise ValueError(
            f"target measure {target.total_measure:g} differs from source "
            f"{field.grid.total_measure:g} by more than 2%")
    if method not in ("rank", "sample"):
        raise ValueError(f"unknown method {method!r}")
    if method == "rank" and target.num_cells != field.grid.num_cells:
        raise ValueError(
            f"rank rearrangement needs equal cell counts, got target "
            f"{target.num_cells} and source {field.grid.num_cells}")
    radii = np.sqrt((target.centers ** 2).sum(axis=1))
    out = np.empty(target.num_cells)
    if method == "rank":
        order = np.argsort(radii, kind="stable")
        out[order] = np.sort(field.values)[::-1]
    else:
        steps = StepData.from_field(field)
        s_c = BALL_MEASURE[target.n] * radii ** target.n
        out = np.asarray(steps.value_at(s_c), dtype=float)
    return ScalarField(target, out)


def steiner_rearrangement(stack, target=None):
    """Slice-wise Schwarz rearrangement of a stack onto the ball grid."""
    if target is None:
        target = symmetrized_grid(stack.grid)
    rows = np.zeros((stack.values.shape[0], target.num_cells))
    for j in range(1, stack.values.shape[0] - 1):
        rows[j] = schwarz_rearrangement(ScalarField(stack.grid, stack.values[j]), target).values
    return SliceStack(target, rows)


def hardy_littlewood_gap(field, s, max_exhaustive=200000, trials=2000, rng=None):
    """min over tested subsets A with |A| = s of  int_0^s u* - int_A u.

    The measure s is snapped to the nearest whole number of cells.  All
    subsets are enumerated when their count is small; otherwise the sampled
    family always contains the extremal candidates (top-k and bottom-k
    cells), which realize the minimal and maximal gap.
    """
    field.require_nonneg()
    m = field.grid.num_cells
    mc = field.grid.cell_measure
    k = int(round(s / mc))
    k = min(max(k, 0), m)
    steps = StepData.from_field(field)
    lhs = steps.integral_to(k * mc)
    if k == 0:
        return 0.0
    vals = field.values
    if comb(m, k) <= max_exhaustive:
        sums = [vals[list(idx)].sum() for idx in combinations(range(m), k)]
        best = max(sums)
    else:
        rng = rng or np.random.default_rng(0)
        order = np.argsort(-vals, kind="stable")
        best = vals[order[:k]].sum()
        best = max(best, vals[order[-k:]].sum())
        for _ in range(trials):
            pick = rng.choice(m, size=k, replace=False)
            best = max(best, vals[pick].sum())
    return float(lhs - best * mc)


def l1_profile_distance(a, b):
    """Exact L^1 distance between two step profiles on the same (0, L)."""
    pts = np.union1d(a.steps.cum, b.steps.cum)
    pts = np.concatenate([[0.0], pts])
    mids = 0.5 * (pts[1:] + pts[:-1])
    da = a.steps.value_at(mids) - b.steps.value_at(mids)
    return float(np.sum(np.abs(da) * np.diff(pts)))


def l1_field_distance(a, b):
    if a.grid is not b.grid:
        raise ValueError("fields must share a grid")
    return float(np.abs(a.values - b.values).sum() * a.grid.cell_measure)


def polya_szego_gap(field, nl, target=None):
    """Gap  int A(|grad u|) - int A(|grad u_ball|)  for the discrete fields.

    Nonnegative up to O(dx) for fields vanishing near the wall; returns
    (energy_u, energy_star, gap).  The rearranged field is the sampled
    (function-of-radius) variant, which gradient functionals require.
    """
    if target is None:
        target = symmetrized_grid(field.grid)
    star = schwarz_rearrangement(field, target, method="sample")
    e_u = gradient_functional(field.grid, field.values, nl.A)
    e_s = gradient_functional(target, star.values, nl.A)
    return e_u, e_s, e_u - e_s
