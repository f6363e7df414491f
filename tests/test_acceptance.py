"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines as they complete.  The full module targets well under ten minutes on
a laptop; the comparison matrix (criterion 1) dominates.
"""

import itertools
import time

import numpy as np
import pytest
from scipy.linalg import solve_banded
from scipy.special import i0

from anisosym import (DiscreteProblem, MassOperator, ScalarField,
                      h_refinement_study, make_disk_grid, make_interval_grid,
                      make_p_laplacian, make_radial_grid, moreau_yosida,
                      sample_slices, solve_stack, t_accretivity_check,
                      verify_mass_comparison)
from anisosym.nonlinearity import _prox
from oracles import (StepData, difference_factor, distribution_function,
                     hardy_littlewood_gap, l1_field_distance,
                     l1_profile_distance, polya_szego_gap,
                     second_difference_matrix, y_sample, zero_stack)

P_SET = (1.5, 2.0, 3.0, 4.0)


def _report(criterion, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"{tag} criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------------------
# Criterion 1 (and the positivity half of criterion 9): the full matrix
# ---------------------------------------------------------------------------

F_SHAPES_1D = {
    "symmetric": lambda c, y: 4 * np.sin(np.pi * c[:, 0]) ** 2 * np.sin(np.pi * y),
    "asym-bump": lambda c, y: np.exp(-60 * (c[:, 0] - 0.3) ** 2) * (1 + 0.5 * np.sin(np.pi * y)),
    "two-bump": lambda c, y: np.exp(-80 * (c[:, 0] - 0.25) ** 2)
    + 0.7 * np.exp(-90 * (c[:, 0] - 0.7) ** 2) * (1 + y),
}
F_SHAPES_2D = {
    "symmetric": lambda c, y: np.exp(-3 * (c ** 2).sum(1)) * (1 + np.sin(np.pi * y)),
    "asym-bump": lambda c, y: np.exp(-8 * ((c[:, 0] - 0.35) ** 2 + c[:, 1] ** 2))
    * (1 + 0.5 * np.sin(np.pi * y)),
    "two-bump": lambda c, y: np.exp(-10 * ((c[:, 0] - 0.3) ** 2 + (c[:, 1] - 0.2) ** 2))
    + 0.6 * np.exp(-12 * ((c[:, 0] + 0.3) ** 2 + c[:, 1] ** 2)) * y,
}
LEVELS = {1: ((64, 7, 32), (128, 15, 64)), 2: ((32, 5, 48), (44, 9, 80))}


@pytest.fixture(scope="module")
def comparison_matrix():
    """Every (n, p, shape) configuration at two refinement levels."""
    results = []
    t0 = time.time()
    for n in (1, 2):
        shapes = F_SHAPES_1D if n == 1 else F_SHAPES_2D
        for p in P_SET:
            for name, f_fn in shapes.items():
                reports = []
                for m, N, M in LEVELS[n]:
                    grid = make_interval_grid(1.0, m) if n == 1 else make_disk_grid(1.0, m)
                    reports.append(verify_mass_comparison(
                        grid, make_p_laplacian(p), f_fn=f_fn, N=N, M=M))
                results.append(((n, p, name), reports))
    return results, time.time() - t0


def test_criterion_1_mass_comparison_matrix(comparison_matrix):
    results, elapsed = comparison_matrix
    ok = True
    worst_cfg = None
    for key, (r1, r2) in results:
        # A deficiency four orders inside the budget is resolved: its sign
        # is solver noise and a monotone trend is not meaningful below it.
        floor = 1e-4 * min(r1.slack_budget, r2.slack_budget)
        good = r1.passed and r2.passed and r2.deficiency <= max(r1.deficiency, floor)
        if not good:
            ok = False
            worst_cfg = key
    ok = ok and elapsed < 600.0
    _report(1, ok,
            f"{len(results)} configurations x 2 levels, slack 10*(dx+ds+h), "
            f"deficiency non-increasing under refinement, {elapsed:.0f}s"
            + ("" if worst_cfg is None else f"; first failure {worst_cfg}"))


def test_criterion_1_newton_iterations_bounded(comparison_matrix):
    # Stiff laws (p < 2) follow eps down; no configuration may crawl.
    results, _ = comparison_matrix
    total, key = max((rep.meta["u_iterations"] + rep.meta["v_iterations"], key)
                     for key, reports in results for rep in reports)
    _report("1 (Newton)", total <= 40,
            f"at most {total} u + v Newton iterations per comparison <= 40, at {key}")


def test_criterion_9_positivity_and_data_monotonicity(comparison_matrix):
    results, _ = comparison_matrix
    min_u = min(float(rep.u_stack.values.min())
                for _, reports in results for rep in reports)
    ok = min_u >= -1e-12
    rng = np.random.default_rng(909)
    worst_pair = np.inf
    for k in range(20):
        p = (2, 3)[k % 2]
        law = make_p_laplacian(2) if p == 2 else moreau_yosida(make_p_laplacian(3), 1e-6, 1e-6)
        g = make_interval_grid(1.0, 32)
        base = rng.uniform(0, 1, (3, 32))
        extra = rng.uniform(0, 1, (3, 32))
        f = zero_stack(g, 3); f.values[1:-1] = base
        gd = zero_stack(g, 3); gd.values[1:-1] = base + extra
        uf = solve_stack(DiscreteProblem(g, law, f)).stack.values
        ug = solve_stack(DiscreteProblem(g, law, gd)).stack.values
        worst_pair = min(worst_pair, float(np.min(ug - uf)))
    ok = ok and worst_pair >= -1e-9
    _report(9, ok, f"min u over matrix {min_u:.2e} >= -1e-12; "
                   f"20 ordered data pairs, worst solution gap {worst_pair:.2e}")


# ---------------------------------------------------------------------------
# Criterion 2: T-accretivity sweep
# ---------------------------------------------------------------------------

def test_criterion_2_t_accretivity():
    lambdas = (0.01, 1.0, 100.0)
    worst = np.inf
    violations = 0
    trials = 0
    for n in (1, 2):
        for p in P_SET:
            s_grid = make_radial_grid(n, 1.0, 64,
                                      "uniform" if n == 1 else "sqrt")
            op = MassOperator(s_grid, make_p_laplacian(p))
            rep = t_accretivity_check(op, trials=1000, lambdas=lambdas,
                                      rng=np.random.default_rng(1000 + 10 * n + int(p)))
            worst = min(worst, rep.worst_margin)
            violations += rep.violations
            trials += rep.trials * len(lambdas)
    _report(2, violations == 0 and worst >= -1e-9,
            f"{trials} inequality checks across n, p, lambda; "
            f"worst margin {worst:.2e}, {violations} violations")


# ---------------------------------------------------------------------------
# Criterion 3: the tridiagonal comparison engine
# ---------------------------------------------------------------------------

def test_criterion_3_tridiagonal_engine():
    exact = True
    for N in (1, 2, 3, 8, 33, 128, 512):
        C = difference_factor(N)
        exact = exact and np.array_equal(C.T @ C, second_difference_matrix(N))
    rng = np.random.default_rng(3)
    D2 = second_difference_matrix(64)
    all_fail_or_zero = True
    for _ in range(1000):
        x = rng.uniform(0.0, 1.0, 64)
        hypothesis_fails = np.max(D2 @ x) > 0.0
        all_fail_or_zero = all_fail_or_zero and (hypothesis_fails or np.all(x == 0.0))
    zero_ok = np.all(second_difference_matrix(16) @ np.zeros(16) == 0.0)
    _report(3, exact and all_fail_or_zero and zero_ok,
            "C^t C = D2 machine-exact up to N = 512; 1000 nonnegative "
            "candidates with D2 x <= 0 only at x = 0")


# ---------------------------------------------------------------------------
# Criterion 4: rearrangement core
# ---------------------------------------------------------------------------

def test_criterion_4_rearrangement_core():
    rng = np.random.default_rng(4)
    grid = make_interval_grid(1.0, 32)
    equi = True
    for _ in range(1000):
        field = ScalarField(grid, rng.uniform(0, 2, 32))
        steps = StepData.from_field(field)
        ts = field.values[rng.integers(0, 32, size=4)]
        equi = equi and np.all(steps.distribution(ts)
                               == np.array([distribution_function(field, t) for t in ts]))

    grid8 = make_interval_grid(8.0, 8)
    hl = True
    for _ in range(5):
        field = ScalarField(grid8, rng.uniform(0, 1, 8))
        steps = StepData.from_field(field)
        for k in range(9):
            for idx in itertools.combinations(range(8), k):
                lhs = field.values[list(idx)].sum() * grid8.cell_measure
                hl = hl and lhs <= steps.integral_to(k * grid8.cell_measure) + 1e-12
            hl = hl and hardy_littlewood_gap(field, float(k)) >= -1e-12

    contraction = True
    for _ in range(1000):
        a = ScalarField(grid, rng.uniform(0, 2, 32))
        b = ScalarField(grid, rng.uniform(0, 2, 32))
        pa = StepData.from_field(a)
        pb = StepData.from_field(b)
        contraction = contraction and (
            l1_profile_distance(pa, pb) <= l1_field_distance(a, b) + 1e-12)

    nl = make_p_laplacian(2)
    defic = []
    ps_ok = True
    for m in (48, 96):
        disk = make_disk_grid(1.0, m)
        x = disk.centers
        field = ScalarField(disk, np.exp(-6 * ((x[:, 0] - 0.3) ** 2 + x[:, 1] ** 2))
                            * np.clip(1 - (x ** 2).sum(1), 0, None))
        gap = polya_szego_gap(field, nl)[2]
        ps_ok = ps_ok and gap >= -10.0 * disk.dx
        defic.append(max(0.0, -gap))
    ps_ok = ps_ok and defic[1] <= defic[0]

    _report(4, equi and hl and contraction and ps_ok,
            "equimeasurability exact on 1000 fields; Hardy-Littlewood "
            "exhaustive on 8-cell fields; L1 contraction on 1000 pairs; "
            f"Polya-Szego deficiency {defic[0]:.1e} -> {defic[1]:.1e} within 10*dx")


# ---------------------------------------------------------------------------
# Criterion 5: separable linear oracle with convergence rate
# ---------------------------------------------------------------------------

def test_criterion_5_linear_oracle_rate():
    def exact(x, y):
        return np.sin(np.pi * x) * 2.0 * (1 - np.cosh(np.pi * (y - 0.5)) / np.cosh(np.pi / 2))

    errs = []
    for m, N in ((32, 15), (64, 31)):
        g = make_interval_grid(1.0, m)
        f = sample_slices(g, N, lambda c, y: 2 * np.pi ** 2 * np.sin(np.pi * c[:, 0]))
        sol = solve_stack(DiscreteProblem(g, make_p_laplacian(2), f))
        worst = 0.0
        for y in np.linspace(0, 1, 4 * (N + 1) + 1):
            worst = max(worst, float(np.abs(y_sample(sol.stack, y)
                                            - exact(g.centers[:, 0], y)).max()))
        errs.append(worst)
    rate = float(np.log2(errs[0] / errs[1]))
    _report(5, rate >= 1.8, f"L-inf errors {errs[0]:.2e} -> {errs[1]:.2e}, "
                            f"observed rate {rate:.2f} >= 1.8")


# ---------------------------------------------------------------------------
# Criterion 6: radial oracle for the single-slice disk block
# ---------------------------------------------------------------------------

def _radial_reference(c, nodes=20000):
    """High-resolution FD solve of -(v'' + v'/r) + c v = 1, v'(0)=0, v(1)=0."""
    dr = 1.0 / nodes
    r = np.arange(nodes) * dr          # unknowns at r_0 = 0 .. r_{n-1} = 1 - dr
    ab = np.zeros((3, nodes))
    rhs = np.ones(nodes)
    # r = 0: symmetry gives -2 v'' + c v -> -4 (v_1 - v_0)/dr^2 + c v_0
    ab[1, 0] = 4.0 / dr ** 2 + c
    ab[0, 1] = -4.0 / dr ** 2
    i = np.arange(1, nodes)
    ab[1, i] = 2.0 / dr ** 2 + c
    # row i couples v_{i+1} with -1/dr^2 - 1/(2 r_i dr) (superdiagonal) and
    # v_{i-1} with -1/dr^2 + 1/(2 r_i dr) (subdiagonal); v(1) = 0 drops out
    ab[0, i[:-1] + 1] = -1.0 / dr ** 2 - 1.0 / (2 * r[i[:-1]] * dr)
    ab[2, i - 1] = -1.0 / dr ** 2 + 1.0 / (2 * r[i] * dr)
    v = solve_banded((1, 1), ab, rhs)
    return r, v


def test_criterion_6_radial_oracle():
    h = 0.5
    c = 2.0 / h ** 2
    r_ref, v_ref = _radial_reference(c)
    # cross-check the reference against the Bessel closed form
    v_bessel = (1 - i0(np.sqrt(c) * r_ref) / i0(np.sqrt(c))) / c
    ref_err = float(np.max(np.abs(v_ref - v_bessel)))
    g = make_disk_grid(1.0, 192)
    f = sample_slices(g, 1, lambda cc, y: np.ones(cc.shape[0]))
    sol = solve_stack(DiscreteProblem(g, make_p_laplacian(2), f))
    v = sol.stack.values[1]
    radii = np.sqrt((g.centers ** 2).sum(1))
    v_at = np.interp(radii, r_ref, v_ref)
    rel = float(np.max(np.abs(v - v_at)) / v_ref.max())
    _report(6, rel <= 0.01 and ref_err < 1e-8,
            f"disk block vs radial two-point oracle: L-inf {rel:.3%} <= 1%; "
            f"oracle vs Bessel closed form {ref_err:.1e}")


# ---------------------------------------------------------------------------
# Criterion 7: Moreau-Yosida ordering
# ---------------------------------------------------------------------------

def test_criterion_7_moreau_yosida_ordering():
    base = make_p_laplacian(3)
    ts = np.linspace(0.0, 4.0, 256)
    violations = 0
    for eps in (1.0, 0.1, 0.01):
        P, val = _prox(base, eps, ts)
        violations += int(np.sum(base.A(P) > val + 1e-12))
        violations += int(np.sum(val > base.A(ts) + 1e-12))
    quad = make_p_laplacian(2)
    closed_ok = True
    for eps in (1.0, 0.1, 0.01):
        want = ts ** 2 / (1.0 + 2.0 * eps)
        got = _prox(quad, eps, ts)[1]
        closed_ok = closed_ok and np.allclose(got, want, rtol=1e-8, atol=1e-12)
    _report(7, violations == 0 and closed_ok,
            "A(P_eps) <= A_eps <= A at 256 samples x 3 eps, zero violations; "
            "quadratic closed form matched to 1e-8")


# ---------------------------------------------------------------------------
# Criterion 8: slice-refinement convergence study
# ---------------------------------------------------------------------------

def test_criterion_8_h_refinement():
    g = make_interval_grid(1.0, 64)
    rep = h_refinement_study(g, make_p_laplacian(3), F_SHAPES_1D["asym-bump"],
                             N_list=(3, 7, 15, 31), M=32)
    diffs = [pt["l1_diff_to_next"] for pt in rep.points if pt["l1_diff_to_next"] is not None]
    h1 = [pt["h1_norm"] for pt in rep.points]
    strictly = all(b < a for a, b in zip(diffs, diffs[1:]))
    bounded = max(h1) <= 2.0 * min(h1)
    _report(8, strictly and bounded and rep.passed,
            f"L1 self-differences {['%.2e' % d for d in diffs]} strictly decreasing; "
            f"H1 norms within [{min(h1):.3f}, {max(h1):.3f}]")
