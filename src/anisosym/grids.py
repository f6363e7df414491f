"""Grids: the cross-section domain, its symmetrized image, and the y-slicing.

Three discretizations live here:

* ``CellGrid`` -- a uniform cell-centered grid on an interval, square or
  disk-mask domain in R^n (n = 1 or 2).  Cells all have measure dx^n and
  carry neighbor indices, from which the grid builds its one-sided
  difference operator; the domain wall sits at distance dx/2 from a
  boundary-cell center.  The symmetrized image of an m-cell domain is a
  ball of exactly m cells of the same measure, so the Steiner
  rearrangement of each slice is a permutation of its values.
* ``RadialGrid`` -- a partition of (0, |domain|), the measure axis on which
  decreasing rearrangements and their integrals live.
* ``SliceStack`` -- N interior copies of a scalar field plus two zero
  boundary slices, the y-direction discretization with h = 1/(N+1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp


def perimeter_factor(n, s):
    """Perimeter of the ball in R^n of measure s: n*omega_n^(1/n)*s^(1-1/n).

    For n = 1 this is the constant 2 (a symmetric interval has two
    endpoints); for n = 2 it equals 2*sqrt(pi*s) and vanishes at s = 0.
    """
    if n not in (1, 2):
        raise ValueError(f"dimension must be 1 or 2, got {n}")
    arr = np.asarray(s, dtype=float)
    if np.any(arr < 0.0):
        raise ValueError("s must be nonnegative")
    if n == 1:
        out = np.full_like(arr, 2.0)
    else:
        out = 2.0 * np.sqrt(np.pi * arr)
    return float(out) if out.ndim == 0 else out


@dataclass(eq=False)
class CellGrid:
    """Uniform cell-centered discretization; treated as immutable once built.

    ``neighbors[axis]`` is a pair ``(minus, plus)`` of int arrays holding the
    index of the adjacent cell along that axis, or -1 where the wall is met.
    """

    n: int
    kind: str
    dx: float
    centers: np.ndarray            # (m, n)
    neighbors: tuple               # per axis: (minus_idx, plus_idx)

    def __post_init__(self):
        self.centers = np.asarray(self.centers, dtype=float)
        if self.centers.ndim != 2 or self.centers.shape[1] != self.n:
            raise ValueError("centers must have shape (m, n)")
        self._difference = None

    @property
    def num_cells(self):
        return self.centers.shape[0]

    @property
    def cell_measure(self):
        return self.dx ** self.n

    @property
    def total_measure(self):
        return self.num_cells * self.cell_measure

    def difference_operator(self):
        """One-sided differences in every orientation: a CSR matrix D, built once.

        Row (q n + k) m + i of D, shape (2^n n m, m), is du/dx_k at cell i in
        orientation q, which steps toward -x_k where bit k of q is set and
        toward +x_k otherwise.  A row that meets the wall (zero, at distance
        dx/2) holds only the cell's own entry, at 2/dx.
        """
        if self._difference is None:
            m, own, parts = self.num_cells, np.arange(self.num_cells), []
            for q in range(2 ** self.n):
                for k, (minus, plus) in enumerate(self.neighbors):
                    other, sign = (minus, -1.0) if (q >> k) & 1 else (plus, 1.0)
                    scale = np.where(other >= 0, sign / self.dx, sign * 2.0 / self.dx)
                    nb = np.flatnonzero(other >= 0)
                    parts.append((np.r_[-scale, scale[nb]], (q * self.n + k) * m + np.r_[own, nb],
                                  np.r_[own, other[nb]]))
            vals, rows, cols = (np.concatenate(p) for p in zip(*parts))
            self._difference = sp.csr_matrix((vals, (rows, cols)), shape=(len(parts) * m, m))
        return self._difference


def cell_gradients(grid, values):
    """Sampled gradients per orientation, shape (2^n, ..., m, n) for values (..., m).

    A view of the C-ordered (2^n, n, m, ...) array D @ values.T, D the
    grid's ``difference_operator``.  Averaging isotropic functionals over
    all orientations gives a convex, consistent discretization of integral
    functionals of |grad u|.
    """
    u = np.asarray(values, dtype=float)
    n, m, lead = grid.n, grid.num_cells, u.shape[:-1]
    d = (grid.difference_operator() @ u.reshape(-1, m).T).reshape((2 ** n, n, m) + lead)
    return d.transpose((0, *range(3, 3 + len(lead)), 2, 1))


def gradient_functional(grid, values, func):
    """Integral of func(|grad u|) over the domain, orientation-averaged."""
    g = cell_gradients(grid, values)
    mags = np.sqrt((g ** 2).sum(axis=-1))
    return float(grid.cell_measure * func(mags).mean(axis=0).sum())


def make_interval_grid(length, m, centered=False):
    """Uniform 1-D grid of m cells on (0, length), or centered at 0."""
    if length <= 0:
        raise ValueError("length must be positive")
    if m < 4:
        raise ValueError(f"need at least 4 cells, got {m}")
    dx = length / m
    left = -length / 2.0 if centered else 0.0
    xs = left + (np.arange(m) + 0.5) * dx
    minus = np.arange(-1, m - 1)
    plus = np.concatenate([np.arange(1, m), [-1]])
    return CellGrid(1, "interval", dx, xs[:, None], ((minus, plus),))


def _lattice_grid(keep, coords, dx, kind):
    """Assemble a 2-D CellGrid from a boolean lattice mask."""
    ny, nx = keep.shape
    ids = -np.ones(keep.shape, dtype=int)
    ids[keep] = np.arange(np.count_nonzero(keep))
    ii, jj = np.nonzero(keep)
    centers = np.stack([coords[0][jj], coords[1][ii]], axis=1)

    def shift(di, dj):
        out = -np.ones(len(ii), dtype=int)
        ni, nj = ii + di, jj + dj
        ok = (ni >= 0) & (ni < ny) & (nj >= 0) & (nj < nx)
        out[ok] = ids[ni[ok], nj[ok]]
        return out

    nb_x = (shift(0, -1), shift(0, 1))
    nb_y = (shift(-1, 0), shift(1, 0))
    return CellGrid(2, kind, dx, centers, (nb_x, nb_y))


def make_square_grid(side, m_per_axis):
    """Uniform m x m cell grid on the square (0, side)^2."""
    if side <= 0:
        raise ValueError("side must be positive")
    if m_per_axis < 4:
        raise ValueError(f"need at least 4 cells per axis, got {m_per_axis}")
    dx = side / m_per_axis
    ax = (np.arange(m_per_axis) + 0.5) * dx
    keep = np.ones((m_per_axis, m_per_axis), dtype=bool)
    return _lattice_grid(keep, (ax, ax), dx, "square")


def make_disk_grid(radius, m_per_axis):
    """Cartesian cells whose centers lie inside the disk of given radius.

    The total measure converges to pi*radius^2 as m_per_axis grows; the
    staircase boundary error is part of the discretization error.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if m_per_axis < 8:
        raise ValueError(f"need at least 8 cells per axis, got {m_per_axis}")
    dx = 2.0 * radius / m_per_axis
    ax = -radius + (np.arange(m_per_axis) + 0.5) * dx
    xx, yy = np.meshgrid(ax, ax)
    keep = xx ** 2 + yy ** 2 < radius ** 2
    return _lattice_grid(keep, (ax, ax), dx, "disk")


def make_ball_grid(n, measure, cells):
    """Ball grid of exactly ``cells`` cells and exactly the given measure.

    For n = 1 this is the symmetric interval (-measure/2, measure/2).  For
    n = 2 it is the ``cells`` cells of the lattice of spacing
    sqrt(measure/cells), centered at the origin, whose centers lie nearest
    to 0.  Cells are ranked by the integer (2i+1)^2 + (2j+1)^2; ties go by
    the angle modulo pi/2 and then by the quadrant, so the cells of a
    rotation orbit are taken together and the grid has 4-fold rotational
    symmetry whenever ``cells`` is a multiple of 4.
    """
    if n == 1:
        return make_interval_grid(measure, cells, centered=True)
    if n != 2:
        raise ValueError(f"dimension must be 1 or 2, got {n}")
    if measure <= 0:
        raise ValueError("measure must be positive")
    if cells < 4:
        raise ValueError(f"need at least 4 cells, got {cells}")
    dx = float(np.sqrt(measure / cells))
    half = int(np.ceil(np.sqrt(cells / np.pi))) + 2
    odd = 2 * np.arange(-half, half) + 1           # 2*center/dx per axis
    yy, xx = np.meshgrid(odd, odd, indexing="ij")
    # Rotate each center by quarter turns into the open first quadrant; the
    # image labels its rotation orbit and the turn count its member.
    turns = np.select([(xx > 0) & (yy > 0), (xx < 0) & (yy > 0), (xx < 0) & (yy < 0)],
                      [0, 1, 2], 3)
    rep_y = np.choose(turns, [yy, -xx, -yy, xx])
    order = np.lexsort((turns.ravel(), rep_y.ravel(), (xx ** 2 + yy ** 2).ravel()))
    keep = np.zeros(xx.size, dtype=bool)
    keep[order[:cells]] = True
    ax = odd * (dx / 2.0)
    return _lattice_grid(keep.reshape(xx.shape), (ax, ax), dx, "disk")


def symmetrized_grid(grid):
    """The ball of ``grid``'s cell count and measure (the grid itself for disks)."""
    if grid.kind == "disk":
        return grid
    return make_ball_grid(grid.n, grid.total_measure, grid.num_cells)


@dataclass(eq=False)
class RadialGrid:
    """Partition 0 = s_0 < ... < s_M = L of the measure interval (0, L)."""

    n: int
    s_nodes: np.ndarray

    def __post_init__(self):
        self.s_nodes = np.asarray(self.s_nodes, dtype=float)
        if self.s_nodes[0] != 0.0 or np.any(np.diff(self.s_nodes) <= 0):
            raise ValueError("s_nodes must start at 0 and increase strictly")
        self.kappa = perimeter_factor(self.n, self.s_nodes)

    @property
    def num_intervals(self):
        return len(self.s_nodes) - 1

    @property
    def spacings(self):
        return np.diff(self.s_nodes)


def _resolve_grading(n, grading):
    """``auto`` is uniform for n = 1 and sqrt for n = 2; other names pass."""
    if grading == "auto":
        return "uniform" if n == 1 else "sqrt"
    return grading


def make_radial_grid(n, total_measure, M, grading="uniform"):
    """Radial grid with M intervals; ``sqrt`` grading clusters nodes near 0.

    The graded option places s_i = L*(i/M)^2, useful for n = 2 where the
    perimeter factor vanishes at s = 0 and the rearranged ODE degenerates;
    ``auto`` picks it for n = 2 and ``uniform`` for n = 1.
    """
    if M < 4:
        raise ValueError(f"need at least 4 intervals, got {M}")
    if total_measure <= 0:
        raise ValueError("total_measure must be positive")
    t = np.arange(M + 1) / M
    grading = _resolve_grading(n, grading)
    if grading == "uniform":
        nodes = total_measure * t
    elif grading == "sqrt":
        nodes = total_measure * t ** 2
    else:
        raise ValueError(f"unknown grading {grading!r}")
    return RadialGrid(n, nodes)


@dataclass(eq=False)
class SliceStack:
    """N interior slices plus zero boundary slices; h = 1/(N+1) exactly."""

    grid: CellGrid
    values: np.ndarray             # (N+2, m)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2 or self.values.shape[1] != self.grid.num_cells:
            raise ValueError("values must have shape (N+2, num_cells)")
        if self.values.shape[0] < 3:
            raise ValueError("need at least one interior slice")
        if np.any(self.values[0] != 0.0) or np.any(self.values[-1] != 0.0):
            raise ValueError("boundary slices must be identically zero")

    @property
    def num_interior(self):
        return self.values.shape[0] - 2

    @property
    def h(self):
        return 1.0 / (self.num_interior + 1)

    @property
    def interior(self):
        return self.values[1:-1]


def sample_slices(grid, N, fn):
    """Stack with interior slice j holding fn evaluated at (centers, j*h)."""
    vals = np.zeros((N + 2, grid.num_cells))
    h = 1.0 / (N + 1)
    for j in range(1, N + 1):
        vals[j] = np.asarray(fn(grid.centers, j * h), dtype=float)
    return SliceStack(grid, vals)
