"""Rearranged ODE system in the measure variable s.

The operator acting on mass functions U(s) = int_0^s u*(sigma) dsigma is

    (L U)(s) = kappa(s) * beta(-kappa(s) * U''(s)),

with U(0) = 0 and U'(L) = 0; kappa is the perimeter factor of the ball of
measure s.  Mass functions of the sliced solutions satisfy the coupled
system

    L U_j - (U_{j+1} - 2 U_j + U_{j-1})/h^2  <=  F_j     (subsolutions)

with equality for the symmetrized solutions, and the operator is
T-accretive in the sup norm: resolvents are order preserving and
non-expansive, which closes the slice-wise comparison through the positive
definiteness of the second-difference matrix D2 = C^t C.

A mass function is a row of node values U(s_0..s_M); the slices of a
stack make one (N+2, M+1) array whose boundary rows are zero
(``mass_functions_from_stack``).

``solve_mass_system`` solves the coupled system by Gauss-Seidel sweeps of
the resolvent, each started from the slice it replaces, smoothed by damped
Newton corrections on all N x M interior unknowns.  In node-major order the
Jacobian is banded with half-bandwidth N, an M-matrix for a monotone
stencil and non-decreasing beta, and is factored in place by LAPACK's band
LU (Golub & Van Loan, Matrix Computations, section 4.3).  The resolvent U + lam L U = G is the N = 1 case
of the same system (lam F_1 = G, zero outer slices) and takes the same
Newton step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgbtrf, dgbtrs, dgtsv

from .rearrange import ScalarField


class ResolventError(RuntimeError):
    pass


#: Outer iterations (sweep, residual test, Newton correction) of a mass solve.
_MAX_OUTER = 50
#: Newton steps of one resolvent solve.
_MAX_NEWTON = 80
#: Largest second difference ``MassOperator.apply`` accepts as concave.
_CONCAVITY_TOL = 1e-10
#: Margin below zero that ``t_accretivity_check`` counts as a violation.
_ACCRETIVITY_TOL = 1e-9


def _odd_beta(nl, t):
    """Monotone odd extension of beta, for transient Newton states only."""
    return np.sign(t) * nl.beta(np.abs(t))


class MassOperator:
    """kappa(s) beta(-kappa(s) U'') on a radial grid with U(0)=0, U'(L)=0.

    Second differences use the 3-point stencil on the (possibly graded)
    nodes; the Neumann end is a ghost node mirrored about s = L, matching
    the even extension used to analyze the operator.  Node 0 carries only
    the Dirichlet condition and never an equation (kappa may vanish there).
    """

    #: Newton corrections taken by the last ``resolvent`` call.
    steps = 0

    def __init__(self, s_grid, nl):
        self.s_grid = s_grid
        self.nl = nl
        s = s_grid.s_nodes
        M = s_grid.num_intervals
        cm = np.empty(M)
        cc = np.empty(M)
        cp = np.empty(M)
        dsm = s[1:M] - s[0:M - 1]
        dsp = s[2:M + 1] - s[1:M]
        cm[:M - 1] = 2.0 / (dsm * (dsm + dsp))
        cp[:M - 1] = 2.0 / (dsp * (dsm + dsp))
        cc[:M - 1] = -2.0 / (dsm * dsp)
        dlast = s[M] - s[M - 1]
        cm[M - 1] = 2.0 / dlast ** 2
        cc[M - 1] = -2.0 / dlast ** 2
        cp[M - 1] = 0.0
        # Monotone stencil: with non-decreasing beta every Jacobian built
        # from it is an M-matrix, which the comparison argument rests on.
        bad = (cm < 0) | (cp < 0) | (cm + cc + cp > 1e-12 * np.abs(cc))
        if np.any(bad):
            i = int(np.argmax(bad))
            raise ResolventError(
                f"stencil row {i + 1} is not monotone: cm={cm[i]:.3e}, "
                f"cc={cc[i]:.3e}, cp={cp[i]:.3e}")
        self._cm, self._cc, self._cp = cm, cc, cp
        self.kappa = s_grid.kappa[1:]
        self.M = M

    def second_difference(self, U):
        """D2 U at nodes 1..M; accepts (M+1,) or batched (..., M+1) arrays."""
        U = np.asarray(U, dtype=float)
        M = self.M
        pad = np.concatenate([U, np.zeros(U.shape[:-1] + (1,))], axis=-1)
        return (self._cm * U[..., 0:M] + self._cc * U[..., 1:M + 1]
                + self._cp * pad[..., 2:M + 2])

    def apply(self, U, check_concavity=True):
        """Operator values at nodes 1..M for a concave mass function."""
        d2 = self.second_difference(U)
        if check_concavity and np.max(d2) > _CONCAVITY_TOL:
            raise ValueError(
                f"second difference reaches {np.max(d2):.3e} > {_CONCAVITY_TOL:.1e}; "
                "input is not (discretely) concave")
        t = np.clip(-self.kappa * d2, 0.0, None)
        return self.kappa * self.nl.beta(t)

    def _apply_odd(self, U):
        t = -self.kappa * self.second_difference(U)
        return self.kappa * _odd_beta(self.nl, t)

    def resolvent(self, lam, G, tol=1e-11, start=None):
        """Solve U + lam * (L U) = G with U(0) = 0 and U'(L) = 0.

        The N = 1 mass system, solved by its Newton step from ``start``
        (an (M+1,) finite mass row with start[0] = 0; U = G if None).  The
        law must provide ``dbeta`` with finite values (regularize degenerate
        laws first).  ``steps`` then holds the Newton corrections it took.
        """
        if lam <= 0:
            raise ValueError("lam must be positive")
        if getattr(self.nl, "dbeta", None) is None:
            raise ResolventError("resolvent Newton needs dbeta; regularize the law")
        G = np.asarray(G, dtype=float)
        if start is None:
            start = G
        else:
            start = np.asarray(start, dtype=float)
            if start.shape != (self.M + 1,) or not np.all(np.isfinite(start)) or start[0] != 0:
                raise ValueError(f"start must be a finite ({self.M + 1},) row with start[0] = 0")
        lamF = G[None, 1:]
        V = np.zeros((3, self.M + 1))
        V[1, 1:] = start[1:]
        scale = max(1.0, float(np.max(np.abs(G))))
        ab = np.zeros((4, self.M), order="F")
        r = _mass_residual(self, lam, lamF, V)
        for steps in range(_MAX_NEWTON):
            if np.max(np.abs(r)) <= tol * scale:
                self.steps = steps
                return V[1]
            corrected = _newton_correction(self, lam, lamF, V, r, ab)
            if corrected is None:
                raise ResolventError("resolvent Newton stalled; regularize the law")
            V, r = corrected
        raise ResolventError(f"resolvent Newton did not converge (residual {np.max(np.abs(r)):.3e})")


@dataclass
class AccretivityReport:
    trials: int
    lambdas: tuple
    worst_margin: float
    violations: int
    tolerance: float

    @property
    def passed(self):
        return self.violations == 0

    def to_dict(self):
        return {"trials": self.trials, "lambdas": list(self.lambdas),
                "worst_margin": self.worst_margin, "violations": self.violations,
                "tolerance": self.tolerance, "passed": self.passed}


def random_mass_functions(op, count, rng, scale=1.0):
    """Random members of the operator domain, batched as (count, M+1).

    Profiles are cumulative sums of nonnegative decrements that vanish on
    the last two nodes, so the trapezoid integrals have zero one-sided
    slope at s = L; the integrals are then concave, increasing, and zero
    at the origin.
    """
    s = op.s_grid.s_nodes
    dec = rng.exponential(scale=scale, size=(count, len(s)))
    dec[:, -2:] = 0.0
    w = np.cumsum(dec[:, ::-1], axis=1)[:, ::-1]
    seg = 0.5 * (w[:, 1:] + w[:, :-1]) * np.diff(s)
    return np.concatenate([np.zeros((count, 1)), np.cumsum(seg, axis=1)], axis=1)


def t_accretivity_check(op, trials=1000, lambdas=(0.01, 1.0, 100.0), rng=None):
    """Check the sup-norm accretivity inequality on random domain pairs.

    For mass functions U, V and every lambda > 0 the positive parts must
    satisfy  max (U-V)_+  <=  max (U - V + lambda (L U - L V))_+ ; the
    report carries the worst margin (right side minus left side) seen.
    """
    rng = rng or np.random.default_rng(0)
    U = random_mass_functions(op, trials, rng)
    V = random_mass_functions(op, trials, rng)
    AU = op.apply(U, check_concavity=False)
    AV = op.apply(V, check_concavity=False)
    D = U[:, 1:] - V[:, 1:]
    lhs = np.max(np.clip(D, 0.0, None), axis=1)
    worst = np.inf
    violations = 0
    for lam in lambdas:
        rhs = np.max(np.clip(D + lam * (AU - AV), 0.0, None), axis=1)
        margins = rhs - lhs
        worst = min(worst, float(margins.min()))
        violations += int(np.sum(margins < -_ACCRETIVITY_TOL))
    return AccretivityReport(trials, tuple(lambdas), worst, violations, _ACCRETIVITY_TOL)


def mass_functions_from_stack(stack, s_grid):
    """Mass functions U_j(s) = int_0^s u_j* of a stack, one row per slice.

    Returns the (N+2, M+1) array of U_j at the s-nodes, with zero boundary
    rows.  Each interior slice is sorted decreasingly, and the step
    function that makes (the k-th value on the k-th cell measure) is
    integrated exactly, so equimeasurability holds to rounding error.
    """
    rows = stack.values[1:-1]
    for row in rows:
        ScalarField(stack.grid, row).require_nonneg()
    vals = -np.sort(-rows, axis=1)
    m = rows.shape[1]
    cum = np.cumsum(np.full(m, stack.grid.cell_measure))
    cum0 = np.concatenate([[0.0], cum])
    mass0 = np.zeros((len(rows), m + 1))
    mass0[:, 1:] = np.cumsum(vals * np.diff(cum0), axis=1)
    s = s_grid.s_nodes
    idx = np.minimum(np.searchsorted(cum, s, side="right"), m - 1)
    out = np.zeros((len(rows) + 2, len(s)))
    out[1:-1] = np.where(s >= cum[-1], mass0[:, -1:],
                         mass0[:, idx] + vals[:, idx] * np.clip(s - cum0[idx], 0.0, None))
    return out


def _mass_residual(op, lam, lamF, V):
    """Residuals (N, M) of the interior equations at stacked values V (N+2, M+1).

    Row j is  V_j + lam L V_j - lam F_j - (V_{j-1} + V_{j+1})/2  at nodes 1..M.
    """
    return (V[1:-1, 1:] + lam * op._apply_odd(V[1:-1]) - lamF
            - 0.5 * (V[:-2, 1:] + V[2:, 1:]))


def _fill_jacobian(ab, op, lam, V):
    """Write the Jacobian of ``_mass_residual`` at V into ``ab``, in place.

    Unknown k = i*N + j is slice j+1 at node i+1 (node-major), so the
    Jacobian is banded with kl = ku = N; ``ab`` has shape (3N+1, N*M) in
    LAPACK gbtrf layout, ab[2N + r - c, c] = J[r, c], with N spare rows for
    the pivoting fill.  Row k holds 1 - w cc on the diagonal, -1/2 at the
    neighbouring slices of the same node, -w cp at the next node and -w cm
    at the previous one (none at node 1, the Dirichlet node), where
    w = lam kappa^2 beta'(|t|) at t = -kappa D2 V_j, the slope of the odd
    extension of beta.
    """
    N = V.shape[0] - 2
    t = -op.kappa * op.second_difference(V[1:-1])
    w = lam * op.kappa ** 2 * op.nl.dbeta(np.abs(t))
    bad = ~(np.isfinite(w) & (w >= 0.0))
    if np.any(bad):
        j, i = np.unravel_index(int(np.argmax(bad)), bad.shape)
        raise ResolventError(
            f"beta slope gives w = {w[j, i]:.3e} at slice {j + 1}, node {i + 1}; "
            "the mass Jacobian needs finite w >= 0")
    w = w.T.ravel()
    ab.fill(0.0)
    if N > 1:
        couple = np.where(np.arange(1, w.size) % N == 0, 0.0, -0.5)
        ab[2 * N - 1, 1:] = couple
        ab[2 * N + 1, :-1] = couple
    ab[2 * N] = 1.0 - w * np.repeat(op._cc, N)
    ab[N, N:] = -(w * np.repeat(op._cp, N))[:-N]
    ab[3 * N, :-N] = -(w * np.repeat(op._cm, N))[N:]


def _newton_correction(op, lam, lamF, V, r, ab):
    """One damped Newton step on all interior unknowns; (V, r) after it.

    The band LU overwrites ``ab``, so nothing of it outlives the step; one
    slice makes the band tridiagonal, which LAPACK's gtsv solves directly.
    The step length halves until the residual falls to (1 - alpha/4) of its
    size; returns None when no length does.
    """
    N, M = r.shape
    _fill_jacobian(ab, op, lam, V)
    if N == 1:
        *_, step, info = dgtsv(ab[3, :-1], ab[2], ab[1, 1:], -r[0])
    else:
        lu, piv, info = dgbtrf(ab, N, N, overwrite_ab=1)
        if info == 0:
            step, info = dgbtrs(lu, N, N, -r.T.ravel(), piv)
    if info != 0:
        raise ResolventError(f"mass Jacobian band LU failed (info {info})")
    step = step.reshape(M, N).T
    r_max = np.max(np.abs(r))
    alpha = 1.0
    for _ in range(40):
        V_try = V.copy()
        V_try[1:-1, 1:] += alpha * step
        r_try = _mass_residual(op, lam, lamF, V_try)
        if np.max(np.abs(r_try)) <= (1.0 - 0.25 * alpha) * r_max:
            return V_try, r_try
        alpha *= 0.5
    return None


def solve_mass_system(op, h, F, tol=1e-10, init=None, counters=None):
    """Gauss-Seidel over the slices, smoothed by banded Newton corrections.

    ``F`` holds the (N, M+1) interior data rows F_1..F_N (non-decreasing,
    concave, vanishing at 0).  Each sweep solves
    V_j + (h^2/2) L V_j = (h^2/2) F_j + (V_{j-1}+V_{j+1})/2  for j = 1..N
    with the resolvent; the iteration stops when the full-system residual
    drops below ``tol`` (times the data scale), and otherwise takes one
    damped Newton step on all N x M unknowns before the next sweep.
    Each resolvent starts from the slice's current row.  ``init`` may carry
    (N, M+1) warm-start rows for the interior slices (finite, zero at s_0).
    ``counters``, when given, receives the ``sweeps`` and ``newton_steps``
    taken and the ``resolvent_steps`` (Newton corrections inside the
    resolvents).  Returns the (N+2, M+1) solution, zero boundary rows
    included.
    """
    F = np.asarray(F, dtype=float)
    drop = np.diff(F, axis=1) < -1e-12 * np.maximum(1.0, F.max(axis=1))[:, None]
    bad = (F[:, 0] != 0.0) | np.any(drop, axis=1)
    if np.any(bad):
        raise ValueError(f"F_{int(np.argmax(bad)) + 1} must be non-decreasing with F(0) = 0")
    N = F.shape[0]
    lam = h ** 2 / 2.0
    lamF = lam * F[:, 1:]
    V = np.zeros((N + 2, F.shape[1]))
    if init is not None:
        V[1:-1] = init
    scale = max(1.0, float(np.max(np.abs(F))))
    counters = {} if counters is None else counters
    counters.update(sweeps=0, newton_steps=0, resolvent_steps=0)
    ab = np.zeros((3 * N + 1, N * op.M), order="F")
    for _ in range(_MAX_OUTER):
        counters["sweeps"] += 1
        for j in range(1, N + 1):
            G = lam * F[j - 1] + 0.5 * (V[j - 1] + V[j + 1])
            V[j] = op.resolvent(lam, G, tol=min(tol, 1e-11), start=V[j])
            counters["resolvent_steps"] += op.steps
        r = _mass_residual(op, lam, lamF, V)
        res = float(np.max(np.abs(r)))
        if res <= tol * scale:
            return V
        corrected = _newton_correction(op, lam, lamF, V, r, ab)
        if corrected is not None:
            V = corrected[0]
            counters["newton_steps"] += 1
    raise ResolventError(
        f"mass system did not converge below {tol:g} in {_MAX_OUTER} sweeps "
        f"(residual {res:.3e}); this usually indicates inconsistent data")


def subsolution_slack(U, F, op, h):
    """Per-node slack  F_j - L U_j + (U_{j+1} - 2U_j + U_{j-1})/h^2.

    ``U`` holds the (N+2, M+1) mass functions of a stack, boundary rows
    included, and ``F`` the (N, M+1) interior data rows.  Nonnegative for
    exact subsolutions; mass functions built from solved stacks satisfy it
    up to discretization error.  Rows cover the interior slices, columns
    the nodes s_1..s_M.

    Differencing U twice resolves the kinks of the cell-wise profile, so
    the radial grid should be coarser than the cell measure (two or more
    cells per s-interval); aligned grids alias the interleaved level-set
    branches of unimodal slices into slope oscillations.
    """
    U = np.asarray(U, dtype=float)
    ydiff = (U[2:, 1:] - 2.0 * U[1:-1, 1:] + U[:-2, 1:]) / h ** 2
    return np.asarray(F, dtype=float)[:, 1:] - op.apply(U[1:-1], check_concavity=False) + ydiff
