"""Independent oracles for the test suite.

These check the library from outside: the sorted-cell step function that
is the reference for the library's mass functions, its exact measure
identities, the Hardy-Littlewood and Polya-Szego inequalities, the L^1
contraction of rearrangement, the exact C^t C = D2 factorization of the
second-difference matrix, the monotonicity of the flux beta(|g|) g/|g|,
the np.interp / searchsorted reading of a beta table, the slice
functional without its y-coupling, one-sided gradients by a loop over
orientations and axes, slice x-blocks decoded from their entries and
summed densely from the difference stencils, dense Gaussian
mollification, and the mass-system sweep with cold-started resolvents.
Nothing in the pipeline calls them.
"""

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np
import scipy.sparse as sp

from anisosym import SliceStack, gradient_functional, symmetrized_grid
from anisosym.mass_ode import _mass_residual, _newton_correction
from anisosym.nonlinearity import TINY_T

# Measure of the unit ball in R^n.
BALL_MEASURE = {1: 2.0, 2: float(np.pi)}


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


def distribution_function(field, t):
    """Measure of {x : u(x) > t}; non-increasing in t."""
    field.require_nonneg()
    return StepData.from_field(field).distribution(t)


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
    """Exact L^1 distance between two step functions on the same (0, L)."""
    pts = np.union1d(a.cum, b.cum)
    pts = np.concatenate([[0.0], pts])
    mids = 0.5 * (pts[1:] + pts[:-1])
    da = a.value_at(mids) - b.value_at(mids)
    return float(np.sum(np.abs(da) * np.diff(pts)))


def l1_field_distance(a, b):
    if a.grid is not b.grid:
        raise ValueError("fields must share a grid")
    return float(np.abs(a.values - b.values).sum() * a.grid.cell_measure)


def polya_szego_gap(field, nl, target=None):
    """Gap  int A(|grad u|) - int A(|grad u_ball|)  for the discrete fields.

    Nonnegative up to O(dx) for fields vanishing near the wall; returns
    (energy_u, energy_star, gap).  The ball field evaluates the exact step
    function at each cell's own measure coordinate, so it is a true
    function of the radius: equimeasurable only up to grid error, but free
    of the lattice-ordering noise that pollutes gradient functionals of the
    rank permutation the pipeline uses.
    """
    if target is None:
        target = symmetrized_grid(field.grid)
    radii = np.sqrt((target.centers ** 2).sum(axis=1))
    s_c = BALL_MEASURE[target.n] * radii ** target.n
    star = np.asarray(StepData.from_field(field).value_at(s_c), dtype=float)
    e_u = gradient_functional(field.grid, field.values, nl.A)
    e_s = gradient_functional(target, star, nl.A)
    return e_u, e_s, e_u - e_s


def second_difference_matrix(N):
    """The N x N tridiagonal matrix with 2 on the diagonal and -1 off it."""
    D = 2 * np.eye(N, dtype=np.int64)
    idx = np.arange(N - 1)
    D[idx, idx + 1] = -1
    D[idx + 1, idx] = -1
    return D


def difference_factor(N):
    """(N+1) x N zero-padded difference matrix C with C^t C = D2 exactly.

    Row i of C maps x to x_i - x_{i-1} with x_{-1} = x_N = 0 read as zeros,
    so x^t D2 x = |C x|^2; the factorization is exact in integer arithmetic.
    """
    C = np.zeros((N + 1, N), dtype=np.int64)
    idx = np.arange(N)
    C[idx, idx] = 1
    C[idx[1:], idx[:-1]] = -1
    C[N, N - 1] = -1
    return C


def zero_stack(grid, N):
    return SliceStack(grid, np.zeros((N + 2, grid.num_cells)))


def flux(nl, g):
    """Vector field beta(|g|) g/|g| on arrays of shape (..., n); 0 at 0."""
    g = np.asarray(g, dtype=float)
    mag = np.sqrt((g ** 2).sum(axis=-1))
    coef = np.where(mag > 0, nl.beta(np.maximum(mag, TINY_T)) / np.maximum(mag, TINY_T), 0.0)
    return coef[..., None] * g


def uncoupled(func):
    """The slice functional ``func`` with its y-coupling zeroed, in place.

    Its k slices are then independent x-only functionals.  Call it before
    ``func`` assembles a Hessian: the assembly layout is built from Q once.
    """
    func.Q = sp.csr_matrix(func.Q.shape)
    return func


def stencil_gradients(grid, values):
    """Sampled gradients per orientation, shape (2^n, ..., m, n) for values (..., m).

    A loop over orientations and axes: orientation q steps toward -x_k where
    bit k of q is set and toward +x_k otherwise, and the component is
    ``scale * (u[other] - u)`` with ``u[-1]`` read as the zero wall value;
    interior neighbors lie at distance dx and the wall at dx/2.
    """
    u = np.asarray(values, dtype=float)
    out = np.empty((2 ** grid.n,) + u.shape + (grid.n,))
    for q in range(2 ** grid.n):
        for k, (minus, plus) in enumerate(grid.neighbors):
            forward = (q >> k) & 1 == 0
            other = plus if forward else minus
            sign = 1.0 if forward else -1.0
            scale = np.where(other >= 0, sign / grid.dx, sign * 2.0 / grid.dx)
            uo = np.where(other >= 0, u[..., np.maximum(other, 0)], 0.0)
            out[q, ..., k] = scale * (uo - u)
    return out


def entry_blocks(grid, rows, cols, entries):
    """The x-blocks held as block entries, one CSC matrix per column of ``entries``.

    ``entries`` has shape (E + 1, k): entry e of slice j couples cell
    ``rows[e]`` with cell ``cols[e]`` and sits at ``entries[e, j]``; the
    last row must be zero.  The entries must be distinct, in CSC order, and
    couple only cells at most one lattice step apart along each axis.
    """
    m = grid.num_cells
    entries = np.asarray(entries)
    assert len(rows) == len(cols) == entries.shape[0] - 1
    assert not entries[-1].any(), "the trailing row is not zero"
    assert np.all(np.diff(cols.astype(np.int64) * m + rows) > 0), "not distinct in CSC order"
    step = np.abs(grid.centers[rows] - grid.centers[cols])
    assert np.all(step <= 1.000001 * grid.dx), "an entry couples cells more than one step apart"
    return [sp.csc_matrix((block, (rows, cols)), shape=(m, m)) for block in entries[:-1].T]


def dense_x_blocks(grid, nl, z):
    """Each slice's x-block as the dense sum_q sum_{k1,k2} D_{q,k1}^T diag(W) D_{q,k2}.

    D_{q,k} comes from ``stencil_gradients`` of the unit vectors, and W from
    the law at the loop's sampled gradients d of the slices ``z``:
    W = 2^-n mc (a delta_{k1 k2} + (beta' - a) e_{k1} e_{k2}) at |d|, with
    the unit gradient e = d/|d| (0 where |d| < 1e-14).
    """
    n, m = grid.n, grid.num_cells
    D = stencil_gradients(grid, np.eye(m)).transpose(0, 3, 2, 1)      # [q, k, cell, unknown]
    d = stencil_gradients(grid, z)                                      # [q, slice, cell, k]
    mag = np.sqrt((d ** 2).sum(axis=-1))
    a, da = nl.a(mag), nl.dbeta(mag) - nl.a(mag)
    e = np.where(mag[..., None] < 1e-14, 0.0, d / np.maximum(mag, 1e-300)[..., None])
    blocks = np.zeros((z.shape[0], m, m))
    for q in range(2 ** n):
        for k1 in range(n):
            for k2 in range(n):
                W = (a[q] * (k1 == k2) + da[q] * e[q, ..., k1] * e[q, ..., k2]) \
                    * grid.cell_measure / 2 ** n
                blocks += np.einsum("ir,ji,ic->jrc", D[q, k1], W, D[q, k2])
    return blocks


def dense_mollify(stack, delta):
    """Gaussian mollification of a data stack by dense m x m and N x N kernels.

    Every pair of cells is weighted by the Gaussian of their distance; data
    is zero outside the domain and outside the slice range.
    """
    grid = stack.grid
    d2 = ((grid.centers[:, None, :] - grid.centers[None, :, :]) ** 2).sum(axis=2)
    Kx = np.exp(-0.5 * d2 / delta ** 2) * grid.cell_measure \
        / (2.0 * np.pi * delta ** 2) ** (grid.n / 2.0)
    yj = np.arange(1, stack.num_interior + 1) * stack.h
    Ky = np.exp(-0.5 * (yj[:, None] - yj[None, :]) ** 2 / delta ** 2) * stack.h \
        / np.sqrt(2.0 * np.pi * delta ** 2)
    vals = np.zeros_like(stack.values)
    vals[1:-1] = Ky @ (stack.interior @ Kx.T)
    return SliceStack(grid, vals)


def interp_table_law(ts, bs):
    """(beta, a, B, dbeta) of the piecewise-linear beta through (ts, bs) by np.interp and searchsorted.

    Beyond the last node beta continues with the final slope; B is the exact
    antiderivative of the interpolant and dbeta its chord slopes.
    """
    slopes = np.diff(bs) / np.diff(ts)
    cumB = np.concatenate([[0.0], np.cumsum(0.5 * (bs[:-1] + bs[1:]) * np.diff(ts))])
    t_end, last = ts[-1], slopes[-1]

    def beta(t):
        t = np.asarray(t, dtype=float)
        return np.where(t > t_end, bs[-1] + last * (t - t_end), np.interp(t, ts, bs))

    def a(t):
        t = np.maximum(np.asarray(t, dtype=float), TINY_T)
        return beta(t) / t

    def B(t):
        t = np.asarray(t, dtype=float)
        idx = np.clip(np.searchsorted(ts, t, side="right") - 1, 0, len(ts) - 2)
        d = np.clip(t - ts[idx], 0.0, None)
        dd = np.where(t > t_end, t - t_end, 0.0)
        return np.where(t > t_end, cumB[-1] + bs[-1] * dd + 0.5 * last * dd ** 2,
                        cumB[idx] + bs[idx] * d + 0.5 * slopes[idx] * d ** 2)

    def dbeta(t):
        idx = np.searchsorted(ts, np.asarray(t, dtype=float), side="right") - 1
        return slopes[np.clip(idx, 0, len(slopes) - 1)]

    return beta, a, B, dbeta



def cold_mass_sweeps(op, h, F, tol=1e-10):
    """``solve_mass_system``'s loop with every resolvent started from its G.

    Gauss-Seidel sweeps of the resolvent, each followed by the residual test
    and one damped Newton correction on all slices.  Returns the (N+2, M+1)
    solution and the Newton corrections taken inside the resolvents.
    """
    F = np.asarray(F, dtype=float)
    N = F.shape[0]
    lam = h ** 2 / 2.0
    lamF = lam * F[:, 1:]
    V = np.zeros((N + 2, F.shape[1]))
    scale = max(1.0, float(np.max(np.abs(F))))
    ab = np.zeros((3 * N + 1, N * op.M), order="F")
    steps = 0
    for _ in range(50):
        for j in range(1, N + 1):
            V[j] = op.resolvent(lam, lam * F[j - 1] + 0.5 * (V[j - 1] + V[j + 1]),
                                tol=min(tol, 1e-11))
            steps += op.steps
        r = _mass_residual(op, lam, lamF, V)
        if np.max(np.abs(r)) <= tol * scale:
            return V, steps
        corrected = _newton_correction(op, lam, lamF, V, r, ab)
        if corrected is not None:
            V = corrected[0]
    raise AssertionError("cold mass sweeps did not converge")
