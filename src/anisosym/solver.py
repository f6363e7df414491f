"""Solver for the y-sliced quasilinear system by convex energy minimization.

The unknown is a stack u_1..u_N of cell fields (u_0 = u_{N+1} = 0) and the
energy is

    J(u) = sum_j  int B(|grad_x u_j|)
         + 1/(2 h^2) sum_{j=0..N} int (u_{j+1} - u_j)^2
         - sum_j int f_j u_j ,

whose Euler-Lagrange equations are the sliced problem

    -div_x(a(|grad_x u_j|) grad_x u_j) - (u_{j+1} - 2u_j + u_{j-1})/h^2 = f_j.

The x-part uses the orientation-averaged one-sided gradient sampling from
``grids.cell_gradients`` (for n = 1 this is exactly P1 finite elements on
the cell centers plus wall nodes; for n = 2 and p = 2 it reduces to the
5-point scheme).  All slices are evaluated in one pass, and the sparsity
pattern of their x-blocks, the same for every slice and Newton step, is
built once per solve.  Minimization is by damped Newton with Armijo
backtracking; the Hessian is block tridiagonal in the slice index.  Newton
directions come from one sparse LU of the Hessian, or, on 2-D
cross-sections, from CG preconditioned in the sine modes of the y-coupling
(``_newton_direction``).

Nonlinearities must carry two-sided slope bounds on beta (``smooth_eps``);
degenerate laws are solved through their Moreau-Yosida regularization.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .grids import SliceStack, cell_gradients, gradient_functional
from .nonlinearity import make_p_laplacian

_ARMIJO = 1e-4
_CG_MAXITER = 200                 # then the mode-preconditioned CG hands over to LU


class SolverError(RuntimeError):
    pass


@dataclass(eq=False)
class DiscreteProblem:
    """Grid, diffusion law and nonnegative data stack for the sliced system."""

    grid: object
    nl: object
    f: SliceStack

    def __post_init__(self):
        if self.f.grid is not self.grid:
            raise ValueError("data stack must live on the problem grid")
        if np.any(self.f.values < 0.0):
            raise ValueError("data slices must be nonnegative")

    @property
    def h(self):
        return self.f.h

    @property
    def num_interior(self):
        return self.f.num_interior


@dataclass(eq=False)
class DiscreteSolution:
    problem: DiscreteProblem
    stack: SliceStack
    energy: float
    residual_norm: float
    iterations: int
    energies: tuple
    converged: bool
    cg_iterations: int             # preconditioned CG iterations over all linear solves
    fallbacks: int                 # CG solves handed to LU, plus failed LUs

    def __post_init__(self):
        if self.energy > 1e-10:
            raise SolverError(f"minimizer energy {self.energy:g} exceeds the zero-stack energy")


def _require_smooth(nl):
    if getattr(nl, "smooth_eps", None) is None:
        raise ValueError(
            f"{getattr(nl, 'name', 'nonlinearity')} has no two-sided slope bound; "
            "wrap it with moreau_yosida(nl, eps, tau) before solving")


def _y_coupling(N, h):
    """Tridiagonal (2, -1) matrix over slices divided by h^2."""
    main = 2.0 * np.ones(N)
    off = -np.ones(N - 1)
    return sp.diags([off, main, off], [-1, 0, 1], format="csr") / h ** 2


def _y_modes(N, h):
    """Orthonormal DST-I matrix S and the eigenvalues of ``_y_coupling(N, h)``.

    ``S`` is symmetric and its own inverse, and ``S Q S = diag(lam)``.  Dense
    on purpose: N is small, and ``scipy.fft`` would add to the import time.
    """
    jk = np.outer(np.arange(1, N + 1), np.arange(1, N + 1))
    S = np.sqrt(2.0 / (N + 1)) * np.sin(jk * np.pi / (N + 1))
    lam = 4.0 * np.sin(np.arange(1, N + 1) * np.pi / (2 * (N + 1))) ** 2 / h ** 2
    return S, lam


class _StackFunctional:
    """Energy, gradient and Hessian of J on the stacked interior unknowns.

    ``h`` is the slice spacing, or None for the x-only problem.  A slice
    block is held in stencil slots, slot (s, i) coupling cell i with the cell
    at lattice offset s in {-1, 0, 1}^n; ``_perm`` reads them in CSC order.
    """

    def __init__(self, grid, nl, f_rows, h):
        self.grid = grid
        self.nl = nl
        self.f_rows = np.asarray(f_rows, dtype=float)
        self.k = self.f_rows.shape[0]
        self.m = grid.num_cells
        self.mc = grid.cell_measure
        self.h = h
        self.Q = None if h is None else _y_coupling(self.k, h)
        # The y-part of every Hessian: constant, so built once.
        self.YQ = None if h is None else self.mc * sp.kron(self.Q, sp.eye(self.m), format="csc")
        self.weight = 1.0 / 2 ** grid.n
        self.stencils = grid.orientation_stencils()
        # One slice block's CSC pattern, and _perm from the slots to its entries.
        cols = np.full((3 ** grid.n, self.m), -1)
        for *_, kinds in self._terms():
            for rows, s, _, _, col in kinds:
                cols[s, rows] = col
        s_idx, rows = np.nonzero(cols >= 0)
        col = cols[s_idx, rows]
        order = np.lexsort((rows, col))          # CSC: by column, then by row
        self._perm = (s_idx * self.m + rows)[order]
        self._indices = rows[order].astype(np.int32)
        self._indptr = np.searchsorted(col[order], np.arange(self.m + 1)).astype(np.int32)

    def _terms(self):
        """Per (orientation, k1, k2): q, k1, k2, the two scales and the term kinds.

        The kinds add c at (i, i), -c at (i, other2), -c at (other1, i) and c at
        (other1, other2), each given as (rows, slot, cells, sign, columns)."""
        n, m = self.grid.n, self.m
        slot = lambda offset: int(np.dot(offset, 3 ** np.arange(n))) + 3 ** n // 2
        for q, axes in enumerate(self.stencils):
            # Orientation q steps toward -x_k where bit k of q is set.
            step = np.diag(1 - 2 * ((q >> np.arange(n)) & 1))
            for k1, (oth1, sc1) in enumerate(axes):
                for k2, (oth2, sc2) in enumerate(axes):
                    v1, v2 = oth1 >= 0, oth2 >= 0
                    v1, v2, both = np.flatnonzero(v1), np.flatnonzero(v2), np.flatnonzero(v1 & v2)
                    yield q, k1, k2, sc1, sc2, [
                        (slice(None), 3 ** n // 2, slice(None), 1.0, np.arange(m)),
                        (v2, slot(step[k2]), v2, -1.0, oth2[v2]),
                        (oth1[v1], slot(-step[k1]), v1, -1.0, v1),
                        (oth1[both], slot(step[k2] - step[k1]), both, 1.0, oth2[both])]

    def _sample(self, z):
        """Sampled gradients d, shape (2^n, k, m, n), of all slices and |d|."""
        d = cell_gradients(self.grid, z)
        return d, np.sqrt((d ** 2).sum(axis=-1))

    def energy(self, z):
        per_slice = self.mc * self.nl.B(self._sample(z)[1]).mean(axis=0).sum(axis=-1)
        val = float(np.cumsum(per_slice)[-1])          # summed in slice order
        if self.Q is not None:
            val += 0.5 * self.mc * float(np.sum(z * (self.Q @ z)))
        val -= self.mc * float(np.sum(self.f_rows * z))
        return val

    def gradient(self, z):
        d, mag = self._sample(z)
        coef = self.weight * self.mc * self.nl.a(mag)
        g = np.zeros_like(z)
        for q, axes in enumerate(self.stencils):
            for kk, (other, scale) in enumerate(axes):
                t = coef[q] * d[q, ..., kk] * scale
                g -= t
                valid = other >= 0
                # One-sided neighbors are distinct, so no index repeats.
                g[:, other[valid]] += t[:, valid]
        if self.Q is not None:
            g += self.mc * (self.Q @ z)
        g -= self.mc * self.f_rows
        return g

    def _slots(self, z):
        """Every slice's x-block in stencil slots, shape (k, 3^n, m)."""
        d, mag = self._sample(z)
        a, db = self.nl.a(mag), self.nl.dbeta(mag)
        ghat = d / np.maximum(mag, 1e-300)[..., None]
        ghat[mag < 1e-14] = 0.0
        slots = np.zeros((self.k, 3 ** self.grid.n, self.m))
        for q, k1, k2, sc1, sc2, kinds in self._terms():
            c = self.weight * self.mc * ((a[q] if k1 == k2 else 0.0) + (db[q] - a[q])
                                         * ghat[q, ..., k1] * ghat[q, ..., k2]) * sc1 * sc2
            for rows, s, sel, sign, _ in kinds:
                slots[:, s, rows] += sign * c[:, sel]
        return slots

    def hessian(self, z):
        """The assembled CSC Hessian and the mean of the slice x-blocks."""
        # _slots frees its per-cell arrays before H and the mode LUs exist (lower peak
        # RSS).  In C order, data.sum(axis=0) adds the blocks in slice order.
        data = self._slots(z).reshape(self.k, -1).take(self._perm, axis=1)
        j = np.arange(self.k, dtype=np.int32)[:, None]          # slice of each block
        indices = (self._indices + j * self.m).ravel()
        indptr = np.append((self._indptr[:-1] + j * data.shape[1]).ravel(), np.int32(data.size))
        H = sp.csc_matrix((data.ravel(), indices, indptr), shape=(self.k * self.m,) * 2)
        if self.YQ is not None:
            H = H + self.YQ
        mean = sp.csc_matrix((data.sum(axis=0) * (1 / self.k), self._indices, self._indptr),
                             shape=(self.m, self.m))
        return H, mean

    def dual_norm(self, g):
        """Max over slices of the mass-preconditioned l2 residual norm."""
        return float(np.max(np.sqrt(np.sum(g ** 2, axis=1) / self.mc)))


def _mode_pcg(func, H, A, rhs, counters):
    """Solve H d = rhs by CG preconditioned in the DST-I modes of the y-coupling.

    The preconditioner replaces every slice block by their mean A; in the
    sine basis of y it is then block diagonal, one sparse m x m matrix
    ``A + mc*lam_i*I`` per mode, and exact when all blocks agree (p = 2).
    Returns None when CG does not converge within ``_CG_MAXITER``.
    """
    k, m = func.k, func.m
    S, lam = _y_modes(k, func.h)
    eye = sp.eye(m, format="csc")
    lus = [spla.splu(A + (func.mc * li) * eye, permc_spec="MMD_AT_PLUS_A",
                     diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))
           for li in lam]

    def precondition(r):
        R = S @ r.reshape(k, m)
        for i, lu in enumerate(lus):
            R[i] = lu.solve(R[i])
        return (S @ R).ravel()

    def count(_):
        counters["cg_iterations"] += 1

    M = spla.LinearOperator(H.shape, matvec=precondition, dtype=float)
    d, info = spla.cg(H, rhs, rtol=1e-12, atol=0.0, maxiter=_CG_MAXITER, M=M,
                      callback=count)
    return d if info == 0 else None


def _newton_direction(func, z, g, counters):
    """The Newton direction d with H(z) d = -g, or None if the LU fails.

    2-D stacks (n = 2 with a y-coupling) use mode-preconditioned CG: one
    LU of the whole Hessian there has 3-D-like fill.  Everything else, and
    a CG solve that does not converge, uses one sparse LU of the Hessian.
    ``counters`` gains the CG iterations and one fallback per CG-to-LU
    switch and per failed LU.
    """
    H, A = func.hessian(z)
    rhs = -g.ravel()
    if func.Q is not None and func.grid.n == 2:
        d = _mode_pcg(func, H, A, rhs, counters)
        if d is not None:
            return d
        counters["fallbacks"] += 1
    try:
        return spla.splu(H).solve(rhs)
    except RuntimeError:
        counters["fallbacks"] += 1
        return None


def _minimize(func, z0, tol, max_iter, counters):
    """Damped Newton with Armijo backtracking; returns (z, info)."""
    z = z0.copy()
    J = func.energy(z)
    energies = [J]
    g = func.gradient(z)
    res = func.dual_norm(g)
    iterations = 0
    converged = res <= tol
    while not converged and iterations < max_iter:
        gflat = g.ravel()
        d = _newton_direction(func, z, g, counters)
        if d is None:
            d = -gflat / func.mc
        slope = float(d @ gflat)
        # Relative descent test: genuine loss of definiteness sends the
        # direction the wrong way by an O(1) angle, while rounding noise
        # near the minimizer must not kick the iterate off the Newton path.
        floor = 1e-12 * float(np.linalg.norm(d) * np.linalg.norm(gflat))
        if not np.isfinite(slope) or slope >= -floor:
            d = -gflat / func.mc
            slope = float(d @ gflat)
        if -slope <= 64.0 * np.finfo(float).eps * max(abs(J), 1e-30):
            # Predicted decrease is below the energy's floating-point
            # resolution; Armijo can no longer discriminate.  Take the full
            # Newton step if it reduces the residual, else we are at the
            # achievable floor.
            z_try = z + d.reshape(z.shape)
            g_try = func.gradient(z_try)
            res_try = func.dual_norm(g_try)
            if res_try < res:
                z, g = z_try, g_try
                J = func.energy(z)
                energies.append(J)
                iterations += 1
                res = res_try
                converged = res <= tol
                continue
            break
        alpha = 1.0
        for _ in range(60):
            z_try = z + alpha * d.reshape(z.shape)
            J_try = func.energy(z_try)
            if J_try <= J + _ARMIJO * alpha * slope:
                break
            alpha *= 0.5
        else:
            raise SolverError("line search failed; increase regularization tau")
        z, J = z_try, J_try
        energies.append(J)
        iterations += 1
        g = func.gradient(z)
        res = func.dual_norm(g)
        converged = res <= tol
    if not converged:
        raise SolverError(
            f"no convergence after {iterations} iterations (residual {res:.3e}); "
            "the problem may be too stiff -- increase regularization tau")
    if res > 1e-13:
        # One polishing step: quadratic convergence typically lands the
        # residual near machine precision, which the positivity and
        # comparison properties rely on.
        d = _newton_direction(func, z, g, counters)
        if d is not None:
            z_try = z + d.reshape(z.shape)
            res_try = func.dual_norm(func.gradient(z_try))
            if res_try < res:
                z, res = z_try, res_try
                J = func.energy(z)
                energies.append(J)
                iterations += 1
    return z, {"energy": J, "residual": res, "iterations": iterations,
               "energies": tuple(energies), "converged": True}


def _warm_start(func, counters):
    """Initial iterate from the quadratic-law (p = 2) problem.

    A single linear solve; used whenever it lowers the true energy below
    the zero stack's.  The p = 2 functional shares ``func``'s block pattern.
    """
    quad = copy.copy(func)
    quad.nl = make_p_laplacian(2)
    zero = np.zeros((func.k, func.m))
    d = _newton_direction(quad, zero, quad.gradient(zero), counters)
    if d is None:
        return zero
    z = d.reshape(func.k, func.m)
    return z if func.energy(z) < 0.0 else zero


def stack_energy(prob, stack):
    """The discrete energy J of a stack for the given problem."""
    if stack.grid is not prob.grid or stack.num_interior != prob.num_interior:
        raise ValueError("stack does not match the problem discretization")
    func = _StackFunctional(prob.grid, prob.nl, prob.f.interior, prob.h)
    return func.energy(stack.interior)


def residual_norm(prob, stack):
    """Dual norm of the discrete weak-form residual at the given stack."""
    func = _StackFunctional(prob.grid, prob.nl, prob.f.interior, prob.h)
    return func.dual_norm(func.gradient(stack.interior))


def solve_stack(prob, tol=1e-9, max_iter=500, z0=None):
    """Minimize J; the returned stack is nonnegative up to solver precision."""
    _require_smooth(prob.nl)
    func = _StackFunctional(prob.grid, prob.nl, prob.f.interior, prob.h)
    counters = {"cg_iterations": 0, "fallbacks": 0}
    if z0 is None:
        z0 = _warm_start(func, counters)
    z, info = _minimize(func, z0, tol, max_iter, counters)
    vals = np.zeros((prob.num_interior + 2, prob.grid.num_cells))
    vals[1:-1] = z
    return DiscreteSolution(prob, SliceStack(prob.grid, vals), info["energy"],
                            info["residual"], info["iterations"],
                            info["energies"], info["converged"],
                            counters["cg_iterations"], counters["fallbacks"])


def solve_cross_section(grid, nl, f_values, tol=1e-9, max_iter=500):
    """Single Dirichlet solve in x only: -div(a(|grad u|) grad u) = f."""
    _require_smooth(nl)
    func = _StackFunctional(grid, nl, np.asarray(f_values, dtype=float)[None, :], None)
    counters = {"cg_iterations": 0, "fallbacks": 0}
    z0 = _warm_start(func, counters)
    z, info = _minimize(func, z0, tol, max_iter, counters)
    info.update(counters)
    return z[0], info


def radial_order_violation(grid, values):
    """Largest increase of a field along rays away from the grid center.

    Each ray (two for intervals, the four axis rays nearest the center for
    disks) is checked separately: interleaving opposite rays would compare
    cells at equal radius, whose values legitimately differ at the level of
    one rearrangement step.
    """
    worst = 0.0
    if grid.n == 1:
        x = grid.centers[:, 0]
        for sign in (1.0, -1.0):
            ray = sign * x > 0
            v = values[ray][np.argsort(sign * x[ray])]
            if len(v) > 1:
                worst = max(worst, float(np.max(np.diff(v), initial=0.0)))
        return worst
    x, y = grid.centers[:, 0], grid.centers[:, 1]
    for along, across in ((x, y), (y, x)):
        # One lattice row only; taking |across| minimal would interleave the
        # two rows straddling the axis, whose cells tie in radius.
        row = np.min(across[across > 0])
        band = np.abs(across - row) < 1e-12
        for sign in (1.0, -1.0):
            ray = band & (along * sign > 0)
            order = np.argsort(along[ray] * sign)
            v = values[ray][order]
            if len(v) > 1:
                worst = max(worst, float(np.max(np.diff(v), initial=0.0)))
    return worst


def solve_symmetrized(prob, tol=1e-9, max_iter=500, radial_tol=1e-8):
    """Solve on a ball grid with rearranged data; check radial monotonicity.

    The solution slices of the symmetrized problem coincide with their own
    Schwarz rearrangement in the continuum, so each solved slice must be
    radially non-increasing; a violation beyond ``radial_tol`` flags a
    discretization that is too coarse.
    """
    if prob.grid.kind not in ("interval", "disk"):
        raise ValueError("symmetrized problems live on ball grids")
    center = prob.grid.centers.mean(axis=0)
    if np.any(np.abs(center) > prob.grid.dx):
        raise ValueError("ball grid must be centered at the origin")
    for j in range(1, prob.f.values.shape[0] - 1):
        bad = radial_order_violation(prob.grid, prob.f.values[j])
        if bad > 1e-10 * max(1.0, np.abs(prob.f.values[j]).max()):
            raise ValueError("data slices must be Schwarz rearrangements")
    sol = solve_stack(prob, tol, max_iter)
    for j in range(1, sol.stack.values.shape[0] - 1):
        bad = radial_order_violation(prob.grid, sol.stack.values[j])
        if bad > radial_tol:
            raise SolverError(
                f"slice {j} violates radial monotonicity by {bad:.3e} "
                f"(tolerance {radial_tol:.1e}); refine the grid")
    return sol


def solve_tau_extrapolated(grid, base_nl, f, eps, tau, tol=1e-9, max_iter=500):
    """Richardson extrapolation of the ellipticity shift toward tau = 0.

    Solves with shifts tau and tau/2 and returns the stack 2*u_{tau/2} -
    u_tau together with both solutions.  Useful when a single solve must
    approximate the unshifted degenerate problem accurately.
    """
    from .nonlinearity import moreau_yosida
    sol_a = solve_stack(DiscreteProblem(grid, moreau_yosida(base_nl, eps, tau), f),
                        tol, max_iter)
    sol_b = solve_stack(DiscreteProblem(grid, moreau_yosida(base_nl, eps, tau / 2.0), f),
                        tol, max_iter)
    vals = 2.0 * sol_b.stack.values - sol_a.stack.values
    return SliceStack(grid, vals), sol_a, sol_b


class YInterpolant:
    """Piecewise-linear-in-y sampler of a solved stack; exact at y = j*h."""

    def __init__(self, stack):
        self.stack = stack
        self.h = stack.h
        self.nodes = np.arange(stack.values.shape[0]) * stack.h

    def __call__(self, y):
        y = float(y)
        if y < 0.0 or y > 1.0:
            raise ValueError("y must lie in [0, 1]")
        j = min(int(np.floor(y / self.h)), self.stack.values.shape[0] - 2)
        theta = (y - j * self.h) / self.h
        return (1.0 - theta) * self.stack.values[j] + theta * self.stack.values[j + 1]

    def l1_distance(self, other):
        """Exact L^1(domain x (0,1)) distance to another interpolant.

        Both stacks must share the cell grid; the integrand is piecewise
        linear in y on the merged slab subdivision, so each segment
        integrates in closed form (splitting at sign changes).
        """
        if other.stack.grid is not self.stack.grid:
            raise ValueError("interpolants must share the cell grid")
        cuts = np.union1d(self.nodes, other.nodes)
        total = 0.0
        for y0, y1 in zip(cuts[:-1], cuts[1:]):
            d0 = self(y0) - other(y0)
            d1 = self(y1) - other(y1)
            same = d0 * d1 >= 0.0
            seg = np.where(same, 0.5 * (np.abs(d0) + np.abs(d1)),
                           0.5 * (d0 ** 2 + d1 ** 2) / np.maximum(np.abs(d0) + np.abs(d1), 1e-300))
            total += (y1 - y0) * float(seg.sum())
        return total * self.stack.grid.cell_measure

    def h1_norm_sq(self):
        """Discrete H^1 seminorm squared of the interpolated field.

        The x-gradient energy is quadratic in y on each slab (Simpson is
        exact); the y-derivative is constant per slab.
        """
        grid = self.stack.grid
        vals = self.stack.values
        sq = lambda t: t ** 2
        total = 0.0
        for j in range(vals.shape[0] - 1):
            e0 = gradient_functional(grid, vals[j], sq)
            e1 = gradient_functional(grid, vals[j + 1], sq)
            em = gradient_functional(grid, 0.5 * (vals[j] + vals[j + 1]), sq)
            total += self.h / 6.0 * (e0 + 4.0 * em + e1)
            dy = (vals[j + 1] - vals[j]) / self.h
            total += self.h * float((dy ** 2).sum()) * grid.cell_measure
        return total


def y_interpolant(sol):
    """Sampler u^h(x, y), linear in y between the solved slices."""
    return YInterpolant(sol.stack if isinstance(sol, DiscreteSolution) else sol)
