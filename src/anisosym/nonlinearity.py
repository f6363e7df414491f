"""Diffusion nonlinearities: growth hypotheses, prototypes, regularization.

A diffusion law is described by the non-decreasing function beta with
beta(0) = 0; the coefficient a(t) = beta(t)/t multiplies the gradient in
the operator -div(a(|grad u|) grad u).  Derived quantities:

    A(t) = t*beta(t)        (assumed convex, with p-growth bounds)
    B(t) = integral of beta (the energy density)

``moreau_yosida`` builds an inf-convolution approximation of A together
with an ellipticity shift, producing a law with two-sided slope bounds on
beta that the slice solver's Newton method requires.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

#: Below this threshold a(t) = beta(t)/t is evaluated at the threshold
#: instead, so prototypes with blow-up at 0 (p < 2) stay finite.
TINY_T = 1e-14


def _as_array(t):
    return np.asarray(t, dtype=float)


@dataclass(eq=False)
class Nonlinearity:
    """Diffusion law, treated as immutable once built; its maps are pure and vectorized."""

    name: str
    p: float
    beta: Callable
    antideriv: Callable
    C1: float = 1.0
    C2: float = 1.0
    dbeta: Callable | None = None
    smooth_eps: float | None = None
    #: Regularizations of this law by (eps, tau), filled by ``with_eps``.
    _regularized: dict = field(default_factory=dict, init=False, repr=False)

    def a(self, t):
        """Coefficient beta(t)/t, evaluated no closer to 0 than TINY_T."""
        t = np.maximum(_as_array(t), TINY_T)
        return self.beta(t) / t

    def A(self, t):
        t = _as_array(t)
        return t * self.beta(t)

    def B(self, t):
        return self.antideriv(_as_array(t))


def make_p_laplacian(p):
    """The power law beta(t) = t^(p-1), so A(t) = t^p and B(t) = t^p / p."""
    if p <= 1:
        raise ValueError(f"growth exponent must exceed 1, got {p}")
    return Nonlinearity(
        name=f"p_laplacian({p:g})",
        p=float(p),
        beta=lambda t: _as_array(t) ** (p - 1.0),
        antideriv=lambda t: _as_array(t) ** p / p,
        dbeta=lambda t: (p - 1.0) * np.maximum(_as_array(t), TINY_T) ** (p - 2.0),
        smooth_eps=1.0 if p == 2 else None,
    )


def shifted_p(p, tau):
    """Power law with a linear ellipticity shift: beta(t) = t^(p-1) + tau*t.

    The shift keeps the slope of beta at least tau everywhere; for p > 2 the
    upper growth constant becomes 1 + tau.
    """
    if p <= 1:
        raise ValueError(f"growth exponent must exceed 1, got {p}")
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    # For p < 2 the linear shift dominates at infinity; the (H2)-style
    # bounds then hold with exponent max(p, 2).
    growth = max(p, 2.0) if tau > 0 else float(p)
    return Nonlinearity(
        name=f"shifted_p({p:g},{tau:g})",
        p=growth,
        C2=1.0 + tau,
        beta=lambda t: _as_array(t) ** (p - 1.0) + tau * _as_array(t),
        antideriv=lambda t: _as_array(t) ** p / p + 0.5 * tau * _as_array(t) ** 2,
        dbeta=lambda t: (p - 1.0) * np.maximum(_as_array(t), TINY_T) ** (p - 2.0) + tau,
        smooth_eps=1.0 / (1.0 + tau) if p == 2 else None,
    )


#: Largest input that ``_lookup`` binary-searches on geometric nodes: the
#: log index costs nine numpy calls of fixed overhead, and on the 4,097
#: Moreau-Yosida nodes it overtakes searchsorted between 512 and 1,024
#: points (9.5 vs 8.1 us at 512, 11.7 vs 38.0 us at 1,024; numpy 2.4 on a
#: 2-core Intel Xeon).
_SEARCH_MAX = 512


def _lookup(ts, geometric=False):
    """The interval index of t >= 0 among the nodes ts, as a function of t.

    It is ``min(searchsorted(ts, t, 'right') - 1, len(ts) - 2)``, found by a
    binary search.  With ``geometric`` the nodes are 0 followed by a
    geometric sequence, and inputs of more than ``_SEARCH_MAX`` points read
    the index off log t instead, then move it at most one step down or up
    to absorb rounding.
    """
    last, inner = len(ts) - 2, ts[1:-1]

    def search(t):
        return np.searchsorted(inner, t, side="right")
    if not geometric:
        return search
    t1 = ts[1]
    per_log = last / np.log(ts[-1] / t1)          # intervals per unit of log t
    inv_t0 = np.exp(1.0 / per_log) / t1            # 1 / the node one step below t1
    # Upper end of each interval; NaN past the last, where no t steps up.
    above = np.append(inner, np.nan)

    def index(t):
        if np.size(t) <= _SEARCH_MAX:
            return search(t)
        # One float, one int and one bool array per call, reused in place.
        x = np.maximum(t, t1, out=np.empty(np.shape(t)))
        x *= inv_t0
        np.log(x, out=x)
        x *= per_log
        j = np.fmin(x, last, out=x).astype(np.intp)
        step = np.empty(np.shape(t), dtype=bool)
        j -= np.greater(np.take(ts, j, out=x), t, out=step)
        j += np.less_equal(np.take(above, j, out=x), t, out=step)
        return j
    return index


def _tabulated(ts, bs, index=None):
    """Piecewise-linear beta through (ts, bs): (beta, antideriv, dbeta, slopes).

    ``antideriv`` is the exact (piecewise quadratic) antiderivative of the
    interpolant and ``dbeta`` its exact derivative, the chord slopes, so
    energy, gradient and Hessian describe one and the same convex function
    to rounding error and Newton line searches do not stall.  Beyond the
    last node beta continues with the final slope.  All three find the
    interval of t >= 0 through one ``_lookup`` index of ts, built here
    unless given, and beta gives bitwise what ``np.interp`` gives.
    """
    slopes = np.diff(bs) / np.diff(ts)
    cumB = np.concatenate([[0.0], np.cumsum(0.5 * (bs[:-1] + bs[1:]) * np.diff(ts))])
    t_end, last = ts[-1], slopes[-1]
    index = index or _lookup(ts)

    def beta(t):
        t = _as_array(t)
        j = index(t)
        out = t - ts[j]              # in place from here: few per-point arrays at once
        out *= slopes[j]
        out += bs[j]
        over = t >= t_end
        if np.any(over):
            out = np.where(over, bs[-1] + last * (t - t_end), out)
        return out

    def antideriv(t):
        t = _as_array(t)
        j = index(t)
        d = t - ts[j]                # cumB + bs d + (slopes / 2) d^2, in place
        out = bs[j]
        out *= d
        out += cumB[j]
        half = slopes[j]             # at most four per-point arrays at once
        del j
        half *= 0.5
        d *= d
        d *= half
        out += d
        over = t > t_end
        if np.any(over):
            dd = np.where(over, t - t_end, 0.0)
            out = np.where(over, cumB[-1] + bs[-1] * dd + 0.5 * last * dd ** 2, out)
        return out

    def dbeta(t):
        return slopes[index(_as_array(t))]

    return beta, antideriv, dbeta, slopes


def from_beta_table(table, p=2.0):
    """Law from tabulated (t, beta) pairs, piecewise linear in between.

    ``table`` is an (k, 2) array or a path to a two-column text file; the
    first row must be ``0 0`` and t must increase strictly.  Beyond the last
    node beta continues with its final slope.
    """
    if isinstance(table, (str, bytes)) or hasattr(table, "__fspath__"):
        table = np.loadtxt(table)
    table = np.asarray(table, dtype=float)
    if table.ndim != 2 or table.shape[1] != 2 or table.shape[0] < 2:
        raise ValueError("table must have two columns and at least two rows")
    ts, bs = table[:, 0], table[:, 1]
    if ts[0] != 0.0 or bs[0] != 0.0:
        raise ValueError("first table row must be '0 0'")
    if np.any(np.diff(ts) <= 0):
        raise ValueError("table t values must increase strictly")
    beta, antideriv, dbeta, slopes = _tabulated(ts, bs)
    lo, hi = slopes.min(), slopes.max()
    eps = min(lo, 1.0 / hi) if lo > 0 and hi > 0 else None
    return Nonlinearity("table", float(p), beta, antideriv, dbeta=dbeta, smooth_eps=eps)


# ---------------------------------------------------------------------------
# Hypothesis validation
# ---------------------------------------------------------------------------

@dataclass
class CheckResult:
    name: str
    passed: bool
    first_violation: float | None = None
    detail: str = ""


@dataclass
class ValidationReport:
    """Per-hypothesis verdicts over a documented log-spaced sample set."""

    t_min: float
    t_max: float
    sample_count: int
    checks: list

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def __getitem__(self, name):
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


#: End points of the log-spaced samples of ``validate_hypotheses``.
_T_MIN, _T_MAX = 1e-6, 1e3


def hypothesis_samples(sample_count=256):
    """The log-spaced sample set on (0, 1e3] used by validate_hypotheses."""
    return np.geomspace(_T_MIN, _T_MAX, sample_count)


def validate_hypotheses(nl, sample_count=256):
    """Sampling-based check of monotonicity, growth bounds and convexity.

    The verdict is only about the sampled range; the report records it.
    Slope-band bounds are checked additionally when ``nl.smooth_eps`` is set.
    """
    if sample_count < 3:
        raise ValueError("need at least 3 samples")
    ts = hypothesis_samples(sample_count)
    bvals = nl.beta(ts)
    avals = nl.A(ts)
    slack = 1e-12 * max(1.0, float(np.abs(bvals).max()))
    checks = []

    def first_bad(mask, where):
        idx = np.nonzero(mask)[0]
        return float(where[idx[0]]) if len(idx) else None

    bad = np.diff(bvals) < -slack
    v = first_bad(bad, ts[1:])
    b0 = float(nl.beta(0.0))
    ok = v is None and abs(b0) <= slack
    checks.append(CheckResult(
        "beta-nondecreasing", ok, v if v is not None else (0.0 if abs(b0) > slack else None),
        "beta must not decrease and beta(0) must vanish"))

    bad = avals < nl.C1 * (ts ** nl.p - 1.0) - slack
    v = first_bad(bad, ts)
    checks.append(CheckResult("growth-lower", v is None, v,
                              "C1*(t^p - 1) <= A(t)"))

    bad = bvals > nl.C2 * (ts ** (nl.p - 1.0) + 1.0) + slack
    v = first_bad(bad, ts)
    checks.append(CheckResult("growth-upper", v is None, v,
                              "beta(t) <= C2*(t^(p-1) + 1)"))

    mids = 0.5 * (ts[:-2] + ts[2:])
    bad = nl.A(mids) > 0.5 * (avals[:-2] + avals[2:]) + slack
    v = first_bad(bad, mids)
    checks.append(CheckResult("A-convex", v is None, v,
                              "midpoint convexity of A on sampled triples"))

    if nl.smooth_eps is not None:
        eps = nl.smooth_eps
        chords = np.diff(bvals) / np.diff(ts)
        bad = (chords < eps - slack) | (chords > 1.0 / eps + slack)
        v = first_bad(bad, ts[1:])
        checks.append(CheckResult("slope-band", v is None, v,
                                  "eps <= (beta(t2)-beta(t1))/(t2-t1) <= 1/eps"))

    return ValidationReport(float(ts[0]), float(ts[-1]), sample_count, checks)


# ---------------------------------------------------------------------------
# Moreau-Yosida regularization
# ---------------------------------------------------------------------------

_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0


def _golden_min(fn, lo, hi, tol):
    """Vectorized golden-section minimizer of a unimodal fn on [lo, hi].

    The bracket width target is tol relative to max(1, |hi|), since an
    absolute width below the floating-point spacing is unreachable for
    large arguments.  Returns (argmin, min) with the endpoints included as
    candidates, so the reported minimum never exceeds fn at either one.
    """
    a = np.array(lo, dtype=float, copy=True)
    b = np.array(hi, dtype=float, copy=True)
    scale = np.maximum(1.0, np.abs(b))
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = fn(c), fn(d)
    # Width shrinks by the golden ratio per step; cap guards fp stagnation.
    max_iter = int(np.ceil(np.log(max(np.max((b - a) / scale) / tol, 1.0))
                           / -np.log(_INVPHI))) + 5
    for _ in range(max_iter):
        if np.max((b - a) / scale) <= tol:
            break
        left = fc < fd
        b = np.where(left, d, b)
        a = np.where(left, a, c)
        c = b - _INVPHI * (b - a)
        d = a + _INVPHI * (b - a)
        fc, fd = fn(c), fn(d)
    mid = 0.5 * (a + b)
    cand = np.stack([mid, np.asarray(lo, dtype=float) * np.ones_like(mid),
                     np.asarray(hi, dtype=float) * np.ones_like(mid)])
    vals = fn(cand)
    pick = np.argmin(vals, axis=0)
    take = np.take_along_axis
    arg = take(cand, pick[None], 0)[0]
    return arg, take(vals, pick[None], 0)[0]


#: Nodes of the regularized law's beta table: 0 and a log grid up to 1e6.
_MY_NODES = np.concatenate([[0.0], np.geomspace(1e-8, 1e6, 4096)])
#: Their interval index, one for every regularized law.
_MY_INDEX = _lookup(_MY_NODES, geometric=True)
#: Relative bracket width of the golden-section search for the prox point.
_PROX_TOL = 1e-10


def _prox(base, eps, t):
    """Proximal point P_eps(t) of base.A and envelope value A_eps(t)."""
    t = _as_array(t)
    flat = np.maximum(t.ravel(), 0.0)

    def objective(s):
        return 0.5 * (flat - s) ** 2 / eps + base.A(s)

    arg, val = _golden_min(objective, np.zeros_like(flat), flat, _PROX_TOL)
    return arg.reshape(t.shape), val.reshape(t.shape)


@dataclass(eq=False, kw_only=True)
class RegularizedNonlinearity(Nonlinearity):
    """Inf-convolution smoothing of A plus an ellipticity shift tau.

    The envelope A_eps(t) = inf_s (|t-s|^2/(2 eps) + A(s)) is computed by
    bracketed golden-section minimization on [0, t] (the objective is
    strictly convex and increasing past t), with the proximal point as the
    argmin.  The regularized law is

        beta(t) = A_eps(t)/t + tau*t,     a(t) = A_eps(t)/t^2 + tau,

    whose slope lies in [tau, 1/eps + tau], so it satisfies the elliptic
    slope-band hypothesis whenever tau > 0.

    ``moreau_yosida`` tabulates beta once on a log grid for the solvers' hot
    loops (interpolation stays monotone, which is all the accretivity and
    positivity structure needs); ``_prox`` gives the exact envelope.
    """

    base: Nonlinearity
    eps: float
    tau: float

    def with_eps(self, eps):
        """The regularization of the same base and tau at another eps.

        Built once per base law, so every regularization of that base --
        a fresh ``moreau_yosida`` law on each pipeline call included --
        shares it.
        """
        cache = self.base._regularized
        key = (eps, self.tau)
        if key not in cache:
            cache[key] = moreau_yosida(self.base, eps, self.tau)
        return cache[key]


def moreau_yosida(nl, eps, tau=0.0):
    """Regularize ``nl`` so its beta gains two-sided slope bounds."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    conv = validate_hypotheses(nl, sample_count=64)["A-convex"]
    if not conv.passed:
        raise ValueError(
            f"bracketed minimization requires convex A; base fails near t={conv.first_violation}")
    eps, tau = float(eps), float(tau)
    bs = _prox(nl, eps, _MY_NODES)[1] / np.maximum(_MY_NODES, TINY_T) + tau * _MY_NODES
    bs[0] = 0.0
    beta, antideriv, dbeta, _ = _tabulated(_MY_NODES, bs, _MY_INDEX)
    return RegularizedNonlinearity(
        name=f"moreau_yosida({nl.name},eps={eps:g},tau={tau:g})", p=nl.p,
        beta=beta, antideriv=antideriv, C1=nl.C1, C2=nl.C2 + tau, dbeta=dbeta,
        smooth_eps=min(tau, 1.0 / (1.0 / eps + tau)) if tau > 0 else None,
        base=nl, eps=eps, tau=tau)
