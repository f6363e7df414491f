"""Solver for the y-sliced quasilinear system by convex energy minimization.

The unknown is a stack u_1..u_N of cell fields (u_0 = u_{N+1} = 0) and the
energy is

    J(u) = sum_j  int B(|grad_x u_j|)
         + 1/(2 h^2) sum_{j=0..N} int (u_{j+1} - u_j)^2
         - sum_j int f_j u_j ,

whose Euler-Lagrange equations are the sliced problem

    -div_x(a(|grad_x u_j|) grad_x u_j) - (u_{j+1} - 2u_j + u_{j-1})/h^2 = f_j.

The x-part averages over orientations the one-sided differences of the
grid's difference operator D (for n = 1 exactly P1 finite elements on the
cell centers plus wall nodes; for n = 2 and p = 2 the 5-point scheme).
Sampling is D z (``grids.cell_gradients``), the gradient D^T(a d), and the
x-blocks P @ W (``_block_scatter``).  All slices are evaluated in one pass,
and each iterate is sampled once: the line search's energy, the gradient
and the Hessian share the kept sample.  One functional serves a solve; its
warm start and eps stages only change the law.  So the CSC layout of each
matrix it assembles (``_Layout``), the same for every Newton step, is
built once per solve, and each Hessian is gathered straight into it.
Minimization is by damped Newton with Armijo backtracking; the Hessian is
SPD and block tridiagonal in the slice index.  Newton directions come from
one sparse LU of the Hessian in a fill-reducing order picked once per solve
(``_lu_direction``), or, on 2-D cross-sections, from CG preconditioned in
the sine modes of the y-coupling (``_newton_direction``).  There the mode
LUs are kept across the Newton steps of a stage and rebuilt only when CG
stalls on them (a lagged preconditioner, Knoll & Keyes, J. Comput. Phys.
193 (2004)); a rebuild hands the freed set's heap pages back to the system
first, and each step's CG stops at an Eisenstat-Walker forcing term (SIAM
J. Sci. Comput. 17 (1996)); the warm start and the final polish solve to
1e-12.

Nonlinearities must carry two-sided slope bounds on beta (``smooth_eps``);
degenerate laws are solved through their Moreau-Yosida regularization.  When
the regularized law's base is singular at 0 (p < 2), the solve follows eps
down a short path of coarser regularizations first (``_eps_path``).
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .grids import SliceStack, cell_gradients
from .nonlinearity import RegularizedNonlinearity, make_p_laplacian

_ARMIJO = 1e-4
_CG_MAXITER = 200                 # then the mode-preconditioned CG hands over to LU
_LAGGED_MAXITER = 30              # Newton-step CG on kept mode LUs; then they are rebuilt
#: Regularization eps of the path stages, the largest first; a solve takes
#: those above its own law's eps.
_EPS_PATH = tuple(10.0 ** -k for k in range(2, 13))
#: Dual-norm tolerance of the intermediate path stages, which skip the polish.
_STAGE_TOL = 1e-4
#: Newton iterations a solve may take over all its eps stages.
_MAX_ITER = 500
#: Largest radial increase ``solve_symmetrized`` accepts in a solved slice.
_RADIAL_TOL = 1e-8


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
    fallbacks: int                 # CG solves handed to LU, failed LUs, non-descent steps
    factorizations: int            # sparse LUs: mode LUs plus full-Hessian LUs
    eps_stages: tuple              # (eps, Newton iterations) per stage, the law's own last

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


def _block_scatter(D, n, m):
    """The scatter P of an x-block sum_q sum_{k1,k2} D_{q,k1}^T diag(W) D_{q,k2}.

    D_{q,k} is D's m x m block of rows for axis k in orientation q, and W
    holds one coefficient per (q, pair k1 <= k2, cell), in C order, for
    both (k1, k2) and (k2, k1).  Returns P, the pairs, and the cells (rows,
    cols) of the E block entries in CSC order: row e of P @ W is entry e,
    and P's last row is empty.
    """
    pairs = [(k1, k2) for k1 in range(n) for k2 in range(k1, n)]
    # A row of D holds its cell's own entry and, off the wall, the
    # neighbor's: as two (cell, value) columns, cell -1 where there is none.
    row = D.tocoo().row
    nth = np.arange(D.nnz) - D.indptr[row]
    cell, coef = np.full((D.shape[0], 2), -1), np.zeros((D.shape[0], 2))
    cell[row, nth], coef[row, nth] = D.indices, D.data
    # Axes (q, k1, k2, i, a, b): D's entry a in row (q, k1, i) times entry b in row (q, k2, i).
    c1, c2 = cell.reshape(2 ** n, n, 1, m, 2, 1), cell.reshape(2 ** n, 1, n, m, 1, 2)
    hit = (c1 >= 0) & (c2 >= 0)
    pair = np.array([[pairs.index((min(a, b), max(a, b))) for b in range(n)] for a in range(n)])
    at = (np.arange(2 ** n)[:, None, None] * len(pairs) + pair)[..., None] * m + np.arange(m)
    keys, entry = np.unique((c2 * m + c1)[hit], return_inverse=True)     # CSC order
    P = sp.csr_matrix(((coef.reshape(c1.shape) * coef.reshape(c2.shape))[hit],
                       (entry, np.broadcast_to(at[..., None, None], hit.shape)[hit])),
                      shape=(len(keys) + 1, 2 ** n * len(pairs) * m))
    return P, pairs, (keys % m).astype(np.int32), (keys // m).astype(np.int32)


class _StackFunctional:
    """Energy, gradient and Hessian of J on the stacked interior unknowns.

    ``h`` is the slice spacing.  With D the grid's difference operator,
    sampling is D z, the gradient D^T(a d) and the x-blocks P @ W
    (``_block_scatter``).  One functional serves a whole solve: the warm
    start and the eps stages reassign ``nl``.  It keeps the last iterate's
    sample (``_sample``) and the ``_Layout`` of H in natural order
    (``natural``) and in the order of its LUs (``lu_order``, set by
    ``_lu_direction``).  The mean x-block takes the scatter's CSC order as
    it is, with the column pointers ``mean_indptr``.
    """

    def __init__(self, grid, nl, f_rows, h):
        self.grid = grid
        self.nl = nl
        self.f_rows = np.asarray(f_rows, dtype=float)
        self.k = self.f_rows.shape[0]
        self.m = grid.num_cells
        self.mc = grid.cell_measure
        self.h = h
        self.Q = _y_coupling(self.k, h)
        self.weight = 1.0 / 2 ** grid.n
        D = grid.difference_operator()
        self.DT = D.T                                   # a CSC view, for the gradient
        self.P, self.pairs, *self.entry_cells = _block_scatter(D, grid.n, self.m)
        self.mean_indptr = np.zeros(self.m + 1, dtype=np.int32)
        np.cumsum(np.bincount(self.entry_cells[1], minlength=self.m), out=self.mean_indptr[1:])
        self._kept = self.natural = self.lu_order = None

    def _sample(self, z, with_a=False):
        """Sampled gradients d = D z, shape (2^n, n, m, k), |d|, and a(|d|) if asked.

        The last sample is kept, keyed by the iterate's values and the law,
        so the line search's ``energy``, then ``gradient`` and ``hessian``
        sample an accepted iterate once.  ``hessian`` and the end of
        ``_minimize`` drop it.
        """
        kept = self._kept
        if kept is None or kept[1] is not self.nl or not np.array_equal(kept[0], z):
            self._kept = None                    # free the old sample first
            d = cell_gradients(self.grid, z).transpose(0, 3, 2, 1)
            kept = (np.array(z, dtype=float), self.nl, d, np.sqrt((d ** 2).sum(axis=1)), None)
        if with_a and kept[4] is None:
            kept = kept[:4] + (self.nl.a(kept[3]),)
        self._kept = kept
        return kept[2:] if with_a else kept[2:4]

    def energy(self, z):
        per_cell = self.nl.B(self._sample(z)[1]).mean(axis=0)          # (m, k)
        per_slice = self.mc * np.ascontiguousarray(per_cell.T).sum(axis=-1)
        val = float(np.cumsum(per_slice)[-1])          # summed in slice order
        val += 0.5 * self.mc * float(np.sum(z * (self.Q @ z)))
        val -= self.mc * float(np.sum(self.f_rows * z))
        return val

    def gradient(self, z):
        d, _, a = self._sample(z, with_a=True)
        flux = (self.weight * self.mc * a)[:, None] * d
        g = np.ascontiguousarray((self.DT @ flux.reshape(-1, self.k)).T)
        g += self.mc * (self.Q @ z)
        g -= self.mc * self.f_rows
        return g

    def hessian(self, z):
        """The slices' x-block entries at z, shape (E + 1, k): P @ W, a zero row last.

        ``assemble``, ``mean_block`` and ``lu_order.gather`` build matrices from them."""
        # The kept mode LUs are alive here, so the kept sample is dropped and
        # few per-cell arrays are held at once (lower peak RSS).
        d, mag, a = self._sample(z, with_a=True)
        self._kept = None                # d is normalized in place below
        da = self.nl.dbeta(mag) - a
        d /= np.maximum(mag, 1e-300)[:, None]            # unit gradients, in place
        np.copyto(d, 0.0, where=(mag < 1e-14)[:, None])
        del mag
        W = np.empty((2 ** self.grid.n, len(self.pairs), self.m, self.k))
        for p, (k1, k2) in enumerate(self.pairs):
            np.multiply(da * d[:, k1], d[:, k2], out=W[:, p])
            W[:, p] += a if k1 == k2 else 0.0
        W *= self.weight * self.mc
        del d, da, a
        return self.P @ W.reshape(-1, self.k)

    def assemble(self, entries):
        """The CSC Hessian from ``hessian``'s entries, in natural order."""
        if self.natural is None:              # built on first use, from Q as it is then
            self.natural = _Layout(self)
        return self.natural.gather(entries)

    def mean_block(self, entries):
        """The mean of the slice x-blocks in ``hessian``'s entries, CSC."""
        mean = sum(entries.T[1:], entries[:, 0]) * (1 / self.k)      # summed in slice order
        return sp.csc_matrix((mean[:-1], self.entry_cells[0], self.mean_indptr),
                             shape=(self.m, self.m))

    def dual_norm(self, g):
        """Max over slices of the mass-preconditioned l2 residual norm."""
        return float(np.max(np.sqrt(np.sum(g ** 2, axis=1) / self.mc)))


class _Layout:
    """The CSC pattern of H, the k slice x-blocks plus the y-coupling, with
    rows and columns in order ``q`` (None for the natural order).

    Entry e is ``take[e]`` of the flat (E + 1, k) block entries that
    ``hessian`` returns (their trailing zero where only the y-coupling
    acts); the constant part mc*kron(Q, I) adds ``y`` at entries ``y_at``:
    one take and one add per matrix (``gather``).
    """

    def __init__(self, func, q=None):
        k, m, size = func.k, func.m, func.k * func.m
        r, c = func.entry_cells                  # block entry e couples cell r[e] with c[e]
        E = len(r)
        first = np.arange(k, dtype=np.int32)[:, None] * m       # slice j's first row
        up = np.arange((k - 1) * m, dtype=np.int32)              # cell (j, i) to (j + 1, i)
        rows = np.concatenate([(r + first).ravel(), up, up + m])
        cols = np.concatenate([(c + first).ravel(), up + m, up])
        if q is not None:
            rank = np.empty(size, dtype=np.int32)
            rank[q] = np.arange(size)
            rows, cols = rank[rows], rank[cols]
        # CSC: by column, then by row.  The keys are unique, and the stable
        # sort (timsort) runs faster on the ascending runs each block gives.
        order = np.argsort(cols.astype(np.int64) * size + rows, kind="stable")
        self.indices = rows[order]
        self.indptr = np.zeros(size + 1, dtype=np.int32)
        np.cumsum(np.bincount(cols, minlength=size), out=self.indptr[1:])
        del rows, cols                  # before take and y are built (lower peak memory)
        # intp: numpy converts other index types on every take (churning heap pages)
        at = np.arange(E) * k + np.arange(k)[:, None]             # [j, e]: entry e of slice j
        self.take = np.concatenate([at.ravel(), np.full(2 * len(up), E * k)])[order]
        # y at each cell's own entry and at the two couplings
        Y, own = func.mc * func.Q, np.flatnonzero(r == c)
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        self.y_at = rank[np.r_[(own + E * np.arange(k)[:, None]).ravel(), k * E:len(order)]]
        self.y = np.concatenate([np.repeat(Y.diagonal(), len(own)),
                                 np.repeat(Y.diagonal(1), m), np.repeat(Y.diagonal(-1), m)])
        self.q, self.shape = q, (size, size)

    def gather(self, entries):
        """The CSC matrix from block entries laid out as ``hessian``'s."""
        data = entries.take(self.take)
        data[self.y_at] += self.y
        return sp.csc_matrix((data, self.indices, self.indptr), shape=self.shape)


#: SuperLU options for SPD matrices: symmetric mode, diagonal pivots, and no
#: column panels (this stencil's factors have no wide supernodes to feed them).
_SPD = dict(diag_pivot_thresh=0.0, panel_size=1, options=dict(SymmetricMode=True))


def _lu_direction(func, entries, rhs):
    """Solve H d = rhs, H from ``hessian``'s entries, by one SPD-mode sparse LU.

    The first successful LU of a solve orders H by minimum degree on H + H^T
    and keeps q = argsort(perm_c); later LUs factor H assembled in order q,
    unreordered (order once, factor numerically after: George & Liu,
    *Computer Solution of Large Sparse Positive Definite Systems*, 1981).
    Raises RuntimeError when SuperLU does.
    """
    if func.lu_order is None:
        lu = spla.splu(func.assemble(entries), permc_spec="MMD_AT_PLUS_A", **_SPD)
        func.lu_order = _Layout(func, np.argsort(lu.perm_c))
        return lu.solve(rhs)
    q = func.lu_order.q
    lu = spla.splu(func.lu_order.gather(entries), permc_spec="NATURAL", **_SPD)
    d = np.empty_like(rhs)
    d[q] = lu.solve(rhs[q])
    return d


try:             # glibc: return freed heap pages to the system
    _malloc_trim = ctypes.CDLL(None).malloc_trim
except (AttributeError, OSError, TypeError):
    _malloc_trim = None


class _ModeFactors:
    """The N mode LUs of ``A + mc*lam_i*I`` for a mean block A, kept across steps.

    Empty until ``refactor``; one store serves the Newton steps of one stage.
    """

    S = lam = lus = None

    def refactor(self, func, A, counters):
        if self.S is None:
            self.S, self.lam = _y_modes(func.k, func.h)
        self.lus = None                # free the old set before building the new one
        if _malloc_trim is not None:
            # Each splu of a 1,024-cell block reserves about 3.4 MB of heap
            # and touches about a tenth of it.
            # Freed below a live allocation, those pages stay resident and
            # later temporaries touch more of them; hand them back first.
            _malloc_trim(0)
        eye = sp.eye(func.m, format="csc")
        self.lus = [spla.splu(A + (func.mc * li) * eye, permc_spec="MMD_AT_PLUS_A", **_SPD)
                    for li in self.lam]
        counters["factorizations"] += len(self.lus)


def _mode_pcg(func, H, rhs, modes, rtol, maxiter, counters, x0=None):
    """Solve H d = rhs by CG preconditioned in the DST-I modes of the y-coupling.

    The preconditioner replaces every slice block by a mean A; in the sine
    basis of y it is then block diagonal, one sparse m x m matrix
    ``A + mc*lam_i*I`` per mode (the LUs in ``modes``), and exact when all
    blocks agree with A (p = 2).  CG starts from ``x0`` (zero if None).
    Returns the last iterate and whether it reached ``rtol`` within
    ``maxiter`` iterations.
    """
    k, m = func.k, func.m
    S, lus = modes.S, modes.lus

    def precondition(r):
        R = S @ r.reshape(k, m)
        for i, lu in enumerate(lus):
            R[i] = lu.solve(R[i])
        return (S @ R).ravel()

    def count(_):
        counters["cg_iterations"] += 1

    M = spla.LinearOperator(H.shape, matvec=precondition, dtype=float)
    d, info = spla.cg(H, rhs, x0=x0, rtol=rtol, atol=0.0, maxiter=maxiter, M=M, callback=count)
    return d, info == 0


def _newton_direction(func, z, g, counters, modes=None, rtol=1e-12,
                      kept_maxiter=_LAGGED_MAXITER):
    """The Newton direction d with H(z) d = -g, or None if the LU fails.

    2-D stacks (n = 2) use mode-preconditioned CG to relative residual
    ``rtol``: one LU of the whole Hessian there has 3-D-like fill.  CG first
    runs on the mode LUs kept in ``modes`` for at most ``kept_maxiter``
    iterations; if there are none or CG stalls, they are rebuilt from this
    step's mean block and CG reruns from the stalled iterate.  Without
    ``modes`` the step uses a fresh store.  1-D stacks, and a CG solve that
    does not converge, use one sparse LU of the Hessian (``_lu_direction``).
    ``counters`` gains the CG iterations, the sparse LUs, and one fallback
    per CG-to-LU switch and per failed LU.
    """
    entries = func.hessian(z)
    rhs = -g.ravel()
    if func.grid.n == 2:
        H = func.assemble(entries)
        if modes is None:
            modes = _ModeFactors()
        d, ok = None, False
        if modes.lus is not None:
            d, ok = _mode_pcg(func, H, rhs, modes, rtol, kept_maxiter, counters)
        if not ok:
            modes.refactor(func, func.mean_block(entries), counters)
            d, ok = _mode_pcg(func, H, rhs, modes, rtol, _CG_MAXITER, counters, x0=d)
        if ok:
            return d
        counters["fallbacks"] += 1
    counters["factorizations"] += 1
    try:
        return _lu_direction(func, entries, rhs)
    except RuntimeError:
        counters["fallbacks"] += 1
        return None


def _minimize(func, z0, tol, max_iter, counters, polish=True):
    """Damped Newton with Armijo backtracking; returns (z, info).

    ``polish`` adds one Newton step after convergence; the intermediate
    stages of an eps path skip it.  Newton steps solve to the forcing term
    ``max(1e-12, min(1e-2, 0.1 res))`` relative; the polish solves to 1e-12.
    All share one store of mode LUs.  A direction that is not a descent
    direction is replaced by the scaled gradient step and counted as a
    fallback.
    """
    modes = _ModeFactors()
    z = z0.copy()
    J = func.energy(z)
    energies = [J]
    g = func.gradient(z)
    res = func.dual_norm(g)
    iterations = 0
    converged = res <= tol
    while not converged and iterations < max_iter:
        gflat = g.ravel()
        d = _newton_direction(func, z, g, counters, modes,
                              rtol=max(1e-12, min(1e-2, 0.1 * res)))
        if d is None:
            d = -gflat / func.mc
        slope = float(d @ gflat)
        # Relative descent test: genuine loss of definiteness sends the
        # direction the wrong way by an O(1) angle, while rounding noise
        # near the minimizer must not kick the iterate off the Newton path.
        floor = 1e-12 * float(np.linalg.norm(d) * np.linalg.norm(gflat))
        if not np.isfinite(slope) or slope >= -floor:
            counters["fallbacks"] += 1
            d = -gflat / func.mc
            slope = float(d @ gflat)
        rounding = 64.0 * np.finfo(float).eps * max(abs(J), 1e-30)
        if -slope <= rounding:
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
            raise SolverError(
                f"stalled at the energy's rounding floor 64 eps |J| = {rounding:.3e} after "
                f"{iterations} iterations: the full Newton step does not lower the "
                f"residual {res:.3e} toward tol {tol:.1e}")
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
    if polish and res > 1e-13:
        # One polishing step: quadratic convergence typically lands the
        # residual near machine precision, which the positivity and
        # comparison properties rely on.  Its CG may take the full cap on the
        # kept mode LUs before rebuilding them: LUs built for one last solve
        # do not pay off, and building them beside the freed set raised peak
        # RSS by about 4 MB on a 32 x 32 square.
        d = _newton_direction(func, z, g, counters, modes, kept_maxiter=_CG_MAXITER)
        if d is not None:
            z_try = z + d.reshape(z.shape)
            res_try = func.dual_norm(func.gradient(z_try))
            if res_try < res:
                z, res = z_try, res_try
                J = func.energy(z)
                energies.append(J)
                iterations += 1
    # Drop the kept sample before the mode LUs go: allocated after them, it
    # would keep glibc from returning their freed pages (higher peak RSS).
    func._kept = None
    return z, {"energy": J, "residual": res, "iterations": iterations,
               "energies": tuple(energies), "converged": True}


def _warm_start(func, counters):
    """Initial iterate from the quadratic-law (p = 2) problem.

    A single linear solve on ``func`` with its law set to p = 2, then
    restored; used whenever it lowers the true energy below the zero stack's.
    """
    law, func.nl = func.nl, make_p_laplacian(2)
    zero = np.zeros((func.k, func.m))
    d = _newton_direction(func, zero, func.gradient(zero), counters)
    func.nl = law
    if d is None:
        return zero
    z = d.reshape(func.k, func.m)
    return z if func.energy(z) < 0.0 else zero


def _eps_path(nl):
    """The coarser laws solved before ``nl``, largest eps first.

    A Moreau-Yosida law whose base is singular at 0 (p < 2) caps the slope
    of beta at 1/eps, and damped Newton crawls at small eps.  Following eps
    down, each stage warm-started from the last, keeps every stage near its
    quadratic-convergence region (path following as in Hintermueller &
    Kunisch, SIAM J. Optim. 17 (2006)).  Other laws take no path.
    """
    if not isinstance(nl, RegularizedNonlinearity) or nl.base.p >= 2:
        return []
    return [nl.with_eps(e) for e in _EPS_PATH if e > nl.eps]


def _solve(func, tol, counters):
    """Minimize ``func`` along its eps path; returns (z, info).

    Each stage sets ``func.nl``.  Intermediate stages stop at ``_STAGE_TOL``
    without a polish; the last stage is ``func``'s own law at ``tol``.
    ``info`` is the last stage's, with ``iterations`` summed over all stages
    and ``eps_stages`` holding (eps, iterations) per stage.
    """
    z = None
    stages = []
    own = func.nl
    for law in _eps_path(own) + [own]:
        last = law is own
        func.nl = law
        if z is None:
            z = _warm_start(func, counters)
        z, info = _minimize(func, z, tol if last else _STAGE_TOL,
                            _MAX_ITER - sum(it for _, it in stages), counters, polish=last)
        stages.append((getattr(law, "eps", None), info["iterations"]))
    info["iterations"] = sum(it for _, it in stages)
    info["eps_stages"] = tuple(stages)
    return z, info


def solve_stack(prob, tol=1e-9):
    """Minimize J; the returned stack is nonnegative up to solver precision.

    ``energies`` are those of the last eps stage; ``iterations`` counts
    every stage.
    """
    _require_smooth(prob.nl)
    func = _StackFunctional(prob.grid, prob.nl, prob.f.interior, prob.h)
    counters = {"cg_iterations": 0, "fallbacks": 0, "factorizations": 0}
    z, info = _solve(func, tol, counters)
    vals = np.zeros((prob.num_interior + 2, prob.grid.num_cells))
    vals[1:-1] = z
    return DiscreteSolution(prob, SliceStack(prob.grid, vals), info["energy"],
                            info["residual"], info["iterations"],
                            info["energies"], info["converged"],
                            counters["cg_iterations"], counters["fallbacks"],
                            counters["factorizations"], info["eps_stages"])


def radial_order_violation(grid, values):
    """Largest increase of a field along rays away from the grid center.

    Each ray (two for intervals, the four axis rays nearest the center for
    disks) is checked separately: interleaving opposite rays would compare
    cells at equal radius, whose values legitimately differ at the level of
    one rearrangement step.
    """
    worst = 0.0
    for axis in range(grid.n):
        along, on_line = grid.centers[:, axis], True
        if grid.n == 2:
            # One lattice row only; taking |across| minimal would interleave the
            # two rows straddling the axis, whose cells tie in radius.
            across = grid.centers[:, 1 - axis]
            on_line = np.abs(across - np.min(across[across > 0])) < 1e-12
        for sign in (1.0, -1.0):
            ray = on_line & (along * sign > 0)
            v = values[ray][np.argsort(along[ray] * sign)]
            worst = max(worst, float(np.max(np.diff(v), initial=0.0)))
    return worst


def solve_symmetrized(prob, tol=1e-9):
    """Solve on a ball grid with rearranged data; check radial monotonicity.

    The solution slices of the symmetrized problem coincide with their own
    Schwarz rearrangement in the continuum, so each solved slice must be
    radially non-increasing; a violation beyond ``_RADIAL_TOL`` flags a
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
    sol = solve_stack(prob, tol)
    for j in range(1, sol.stack.values.shape[0] - 1):
        bad = radial_order_violation(prob.grid, sol.stack.values[j])
        if bad > _RADIAL_TOL:
            raise SolverError(
                f"slice {j} violates radial monotonicity by {bad:.3e} "
                f"(tolerance {_RADIAL_TOL:.1e}); refine the grid")
    return sol
