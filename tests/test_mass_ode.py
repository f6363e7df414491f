from types import SimpleNamespace

import numpy as np
import pytest

from anisosym import (MassOperator, ResolventError, ScalarField,
                      make_disk_grid, make_interval_grid, make_p_laplacian,
                      make_radial_grid, make_square_grid,
                      mass_functions_from_stack, moreau_yosida,
                      random_mass_functions, sample_slices, solve_mass_system,
                      subsolution_slack, t_accretivity_check,
                      verify_mass_comparison)
from anisosym.mass_ode import _fill_jacobian, _mass_residual
from oracles import (StepData, cold_mass_sweeps, difference_factor,
                     second_difference_matrix, zero_stack)


def quad_mass(s_grid, L):
    # U(s) = s - s^2/(2L): U'' = -1/L exactly
    s = s_grid.s_nodes
    return s - s ** 2 / (2 * L)


def test_apply_vanishes_for_linear_mass():
    # A constant profile integrates to U = c s, whose second difference is
    # zero at every interior node (the last node embeds the Neumann mirror,
    # where a sloped U sits outside the operator domain).
    s_grid = make_radial_grid(1, 2.0, 16)
    op = MassOperator(s_grid, make_p_laplacian(2))
    U = 0.7 * s_grid.s_nodes
    assert np.allclose(op.apply(U, check_concavity=False)[:-1], 0.0, atol=1e-12)


def test_apply_linear_law_is_minus_four_u_ss():
    # n = 1, p = 2: kappa = 2 and beta(t) = t, so the operator is -4 U''.
    L = 2.0
    s_grid = make_radial_grid(1, L, 32)
    op = MassOperator(s_grid, make_p_laplacian(2))
    out = op.apply(quad_mass(s_grid, L))
    assert np.allclose(out, 4.0 / L, rtol=1e-10)


@pytest.mark.parametrize("grading", ["uniform", "sqrt"])
def test_apply_disk_cubic_law(grading):
    # n = 2, p = 3, U = s - s^2/(2L): kappa (kappa/L)^2 = 8 (pi s)^{3/2} / L^2.
    L = 1.5
    s_grid = make_radial_grid(2, L, 64, grading=grading)
    op = MassOperator(s_grid, make_p_laplacian(3))
    out = op.apply(quad_mass(s_grid, L))
    s = s_grid.s_nodes[1:]
    expect = 8.0 * (np.pi * s) ** 1.5 / L ** 2
    assert np.allclose(out, expect, rtol=1e-9)


def test_apply_rejects_convex_input():
    s_grid = make_radial_grid(1, 1.0, 16)
    op = MassOperator(s_grid, make_p_laplacian(2))
    U = s_grid.s_nodes ** 2          # convex: second difference positive
    with pytest.raises(ValueError, match="concave"):
        op.apply(U)


def test_even_extension_identity():
    # applying the operator to the even extension about s = L and restricting
    # agrees with applying it directly: exactly at interior nodes (identical
    # stencil arithmetic), and the Neumann mirror at s = L to rounding.
    L = 1.0
    s_grid = make_radial_grid(1, L, 20)
    nl = make_p_laplacian(3)
    op = MassOperator(s_grid, nl)
    rng = np.random.default_rng(5)
    U = random_mass_functions(op, 1, rng)[0]
    direct = op.apply(U)
    s = s_grid.s_nodes
    s_ext = np.concatenate([s, 2 * L - s[-2::-1]])
    U_ext = np.concatenate([U, U[-2::-1]])
    kap_ext = np.concatenate([s_grid.kappa, s_grid.kappa[-2::-1]])
    dsm = s_ext[1:-1] - s_ext[:-2]
    dsp = s_ext[2:] - s_ext[1:-1]
    cm = 2.0 / (dsm * (dsm + dsp))
    cc = -2.0 / (dsm * dsp)
    cp = 2.0 / (dsp * (dsm + dsp))
    d2 = cm * U_ext[:-2] + cc * U_ext[1:-1] + cp * U_ext[2:]
    kap = kap_ext[1:-1]
    ext_apply = kap * nl.beta(np.clip(-kap * d2, 0.0, None))
    M = op.M
    assert np.array_equal(direct[:M - 1], ext_apply[:M - 1])
    assert direct[M - 1] == pytest.approx(ext_apply[M - 1], rel=1e-12)


def test_resolvent_of_zero_is_zero():
    s_grid = make_radial_grid(1, 1.0, 24)
    op = MassOperator(s_grid, make_p_laplacian(2))
    U = op.resolvent(0.5, np.zeros(25))
    assert np.allclose(U, 0.0, atol=1e-12)


def test_resolvent_solves_the_equation():
    s_grid = make_radial_grid(1, 1.0, 40)
    op = MassOperator(s_grid, moreau_yosida(make_p_laplacian(3), 1e-6, 1e-4))
    rng = np.random.default_rng(3)
    G = random_mass_functions(op, 1, rng)[0]
    lam = 0.3
    U = op.resolvent(lam, G)
    assert U[0] == 0.0
    res = U[1:] + lam * op.apply(U, check_concavity=False) - G[1:]
    assert np.max(np.abs(res)) < 1e-9


@pytest.mark.parametrize("law", [make_p_laplacian(2),
                                 moreau_yosida(make_p_laplacian(3), 1e-6, 1e-4)],
                         ids=["p2", "reg3"])
def test_resolvent_order_preserving_and_nonexpansive(law):
    s_grid = make_radial_grid(1, 1.0, 32)
    op = MassOperator(s_grid, law)
    rng = np.random.default_rng(11)
    for lam in (0.05, 1.0):
        for _ in range(25):
            G1 = random_mass_functions(op, 1, rng)[0]
            G2 = G1 + 0.5 * random_mass_functions(op, 1, rng)[0]
            U1 = op.resolvent(lam, G1)
            U2 = op.resolvent(lam, G2)
            assert np.min(U2 - U1) >= -1e-8          # order preservation
            d = np.max(np.abs(U1 - U2))
            assert d <= np.max(np.abs(G1 - G2)) + 1e-8   # sup-norm contraction


@pytest.mark.parametrize("n,grading", [(1, "uniform"), (2, "sqrt")])
def test_resolvent_is_the_one_slice_mass_system(n, grading):
    # U + lam L U = G is the N = 1 system at h = 1/2: lam = 1/8, F_1 = 8 G.
    s_grid = make_radial_grid(n, 1.0, 32, grading=grading)
    op = MassOperator(s_grid, moreau_yosida(make_p_laplacian(3), 1e-6, 1e-4))
    G = random_mass_functions(op, 1, np.random.default_rng(4))[0]
    U = op.resolvent(1.0 / 8.0, G)
    V = solve_mass_system(op, 0.5, [8.0 * G], tol=1e-11)
    assert np.max(np.abs(U - V[1])) <= 1e-10 * max(1.0, np.max(G))


@pytest.mark.parametrize("law", [make_p_laplacian(2),
                                 moreau_yosida(make_p_laplacian(3), 1e-6, 1e-6),
                                 moreau_yosida(make_p_laplacian(1.5), 1e-6, 1e-6)],
                         ids=["p2", "reg3", "reg1.5"])
def test_warm_started_resolvent_matches_cold(law):
    s_grid = make_radial_grid(1, 1.0, 32)
    op = MassOperator(s_grid, law)
    rng = np.random.default_rng(17)
    for lam in (0.05, 1.0):
        for _ in range(10):
            G, start = random_mass_functions(op, 2, rng)
            cold = op.resolvent(lam, G)
            warm = op.resolvent(lam, G, start=start)
            assert np.max(np.abs(warm - cold)) <= 1e-10 * max(1.0, np.max(np.abs(G)))


def test_resolvent_rejects_a_bad_start():
    op = MassOperator(make_radial_grid(1, 1.0, 8), make_p_laplacian(2))
    G = quad_mass(op.s_grid, 1.0)
    for start in (G[1:], np.where(np.arange(9) == 4, np.nan, G), G + 0.1):
        with pytest.raises(ValueError, match="start must be a finite"):
            op.resolvent(0.5, G, start=start)


def test_warm_sweeps_take_fewer_resolvent_steps_than_cold():
    grid = make_interval_grid(1.0, 48)
    f = sample_slices(grid, 7, lambda c, y: np.exp(-30 * (c[:, 0] - 0.4) ** 2) * (1 + y))
    s_grid = make_radial_grid(1, grid.total_measure, 24)
    F = mass_functions_from_stack(f, s_grid)[1:-1]
    op = MassOperator(s_grid, moreau_yosida(make_p_laplacian(3), 1e-6, 1e-6))
    cold, cold_steps = cold_mass_sweeps(op, f.h, F)
    counters = {}
    warm = solve_mass_system(op, f.h, F, counters=counters)
    assert 0 < counters["resolvent_steps"] < cold_steps
    assert np.max(np.abs(warm - cold)) <= 1e-9


def decreasing_law():
    from anisosym import Nonlinearity
    return Nonlinearity("decreasing", 2.0, beta=lambda t: -np.asarray(t, float),
                        antideriv=lambda t: -np.asarray(t, float) ** 2 / 2,
                        dbeta=lambda t: -np.ones_like(np.asarray(t, float)))


def test_resolvent_rejects_decreasing_beta():
    # The resolvent takes the mass system's Newton step, and so its w >= 0 guard.
    s_grid = make_radial_grid(1, 1.0, 8)
    op = MassOperator(s_grid, decreasing_law())
    with pytest.raises(ResolventError, match="slice 1, node 1;"):
        op.resolvent(0.1, quad_mass(s_grid, 1.0))


def test_resolvent_requires_dbeta():
    from anisosym import Nonlinearity
    nl = Nonlinearity("nodb", 2.0, beta=lambda t: np.asarray(t, float),
                      antideriv=lambda t: np.asarray(t, float) ** 2 / 2)
    op = MassOperator(make_radial_grid(1, 1.0, 8), nl)
    with pytest.raises(ResolventError, match="dbeta"):
        op.resolvent(1.0, np.zeros(9))


def test_accretivity_equal_inputs_zero_margin():
    s_grid = make_radial_grid(1, 1.0, 16)
    op = MassOperator(s_grid, make_p_laplacian(2))
    rng = np.random.default_rng(1)
    U = random_mass_functions(op, 1, rng)[0]
    AU = op.apply(U, check_concavity=False)
    D = U[1:] - U[1:]
    assert np.max(np.clip(D + 1.0 * (AU - AU), 0, None)) == 0.0


def test_accretivity_strict_against_zero():
    # V = 0: the right side exceeds max U by lam * (L U) at the max point.
    s_grid = make_radial_grid(1, 1.0, 24)
    op = MassOperator(s_grid, make_p_laplacian(2))
    rng = np.random.default_rng(9)
    U = random_mass_functions(op, 1, rng)[0]
    AU = op.apply(U, check_concavity=False)
    lhs = np.max(U[1:])
    rhs = np.max(U[1:] + 0.5 * AU)
    assert rhs > lhs                                  # strict when L U > 0 at the top


@pytest.mark.parametrize("n,p", [(1, 1.5), (1, 2), (2, 3), (2, 4)])
def test_accretivity_random_sweep(n, p):
    s_grid = make_radial_grid(n, 1.0, 48, grading="uniform" if n == 1 else "sqrt")
    op = MassOperator(s_grid, make_p_laplacian(p))
    rep = t_accretivity_check(op, trials=200, rng=np.random.default_rng(n * 10 + int(p)))
    assert rep.passed
    assert rep.worst_margin >= -1e-9


def test_second_difference_matrix_and_factor():
    for N in (1, 2, 5, 64):
        D2 = second_difference_matrix(N)
        C = difference_factor(N)
        assert np.array_equal(C.T @ C, D2)
        x = np.random.default_rng(N).uniform(0, 1, N)
        assert x @ D2 @ x == pytest.approx(np.sum((C @ x) ** 2), rel=1e-12)


def test_nonneg_subsolution_vector_must_vanish():
    # x >= 0 with D2 x <= 0 forces x = 0: random nonnegative candidates all
    # violate D2 x <= 0 unless they are zero.
    rng = np.random.default_rng(77)
    D2 = second_difference_matrix(12)
    for _ in range(200):
        x = rng.uniform(0, 1, 12)
        assert np.max(D2 @ x) > 0.0
    assert np.max(np.abs(D2 @ np.zeros(12))) == 0.0


def test_mass_system_zero_data():
    s_grid = make_radial_grid(1, 1.0, 16)
    op = MassOperator(s_grid, make_p_laplacian(2))
    F = [np.zeros(17) for _ in range(3)]
    V = solve_mass_system(op, 0.25, F)
    assert all(np.allclose(v, 0.0, atol=1e-12) for v in V)


def test_mass_system_closed_form_single_slice():
    # N = 1, n = 1, p = 2, F(s) = s on (0, 1):
    #   -4 V'' + 8 V = s,  V(0) = 0, V'(1) = 0
    # has V(s) = s/8 - sinh(sqrt(2) s) / (8 sqrt(2) cosh(sqrt(2))).
    s_grid = make_radial_grid(1, 1.0, 200)
    op = MassOperator(s_grid, make_p_laplacian(2))
    s = s_grid.s_nodes
    V = solve_mass_system(op, 0.5, [s.copy()], tol=1e-12)
    r2 = np.sqrt(2.0)
    exact = s / 8.0 - np.sinh(r2 * s) / (8.0 * r2 * np.cosh(r2))
    assert np.max(np.abs(V[1] - exact)) < 2e-5


def test_subsolution_slack_of_zero_solution_is_the_data():
    g = make_interval_grid(1.0, 16)
    s_grid = make_radial_grid(1, 1.0, 16)
    op = MassOperator(s_grid, make_p_laplacian(2))
    U = mass_functions_from_stack(zero_stack(g, 3), s_grid)
    F = [0.3 * s_grid.s_nodes for _ in range(3)]
    slack = subsolution_slack(U, F, op, 0.25)
    assert np.allclose(slack, np.tile(0.3 * s_grid.s_nodes[1:], (3, 1)))


@pytest.mark.parametrize("grid", [make_interval_grid(1.0, 24), make_square_grid(1.0, 6),
                                  make_disk_grid(1.0, 8)], ids=["interval", "square", "disk"])
@pytest.mark.parametrize("grading", ["uniform", "sqrt"])
@pytest.mark.parametrize("stretch", [1.0, 1.25])
def test_mass_functions_match_the_step_function_oracle(grid, grading, stretch):
    # Row j is the exact integral of slice j's sorted step function, to the
    # bit; stretch 1.25 puts the last s-nodes beyond the total measure.
    rng = np.random.default_rng(grid.num_cells)
    stack = zero_stack(grid, 4)
    stack.values[1] = rng.uniform(0.0, 2.0, grid.num_cells)
    stack.values[2] = rng.integers(0, 3, grid.num_cells)      # ties and zeros
    stack.values[3] = 1.5
    s_grid = make_radial_grid(grid.n, stretch * grid.total_measure, 12, grading=grading)
    U = mass_functions_from_stack(stack, s_grid)
    assert U.shape == (6, 13)
    assert not U[0].any() and not U[-1].any()
    for j in range(1, 5):
        steps = StepData.from_field(ScalarField(grid, stack.values[j]))
        assert np.array_equal(U[j], steps.integral_to(s_grid.s_nodes))
    if stretch > 1.0:
        assert np.sum(s_grid.s_nodes >= steps.total) >= 2


def test_mass_functions_reject_negative_and_non_finite_slices():
    grid = make_interval_grid(1.0, 8)
    s_grid = make_radial_grid(1, 1.0, 8)
    stack = zero_stack(grid, 2)
    stack.values[2, 3] = -1e-3
    with pytest.raises(ValueError, match="operation requires a nonnegative field"):
        mass_functions_from_stack(stack, s_grid)
    stack.values[2, 3] = np.inf
    with pytest.raises(ValueError, match="field values must be finite"):
        mass_functions_from_stack(stack, s_grid)


def test_mass_system_rejects_data_that_is_not_a_mass_function():
    s_grid = make_radial_grid(1, 1.0, 8)
    op = MassOperator(s_grid, make_p_laplacian(2))
    s = s_grid.s_nodes
    with pytest.raises(ValueError, match="F_2 must be non-decreasing with F"):
        solve_mass_system(op, 0.25, [s, 1.0 - s, s])
    with pytest.raises(ValueError, match="F_3 must be non-decreasing with F"):
        solve_mass_system(op, 0.25, [s, s, s + 0.1])


def test_mass_system_warm_start_agrees_with_cold():
    s_grid = make_radial_grid(1, 1.0, 40)
    op = MassOperator(s_grid, make_p_laplacian(2))
    s = s_grid.s_nodes
    F = [np.minimum(s, 0.6), 0.5 * np.minimum(s, 0.8)]
    cold = solve_mass_system(op, 1.0 / 3.0, F, tol=1e-11)
    warm = solve_mass_system(op, 1.0 / 3.0, F, tol=1e-11,
                             init=[c.copy() for c in cold[1:-1]])
    for a, b in zip(cold, warm):
        assert np.max(np.abs(a - b)) < 1e-9


def _band_to_dense(ab, N):
    """Dense matrix of a LAPACK gbtrf band array with kl = ku = N."""
    n = ab.shape[1]
    J = np.zeros((n, n))
    for c in range(n):
        for r in range(max(0, c - N), min(n, c + N + 1)):
            J[r, c] = ab[2 * N + r - c, c]
    return J


@pytest.mark.parametrize("N", [1, 3])
@pytest.mark.parametrize("n,grading", [(1, "uniform"), (2, "sqrt")])
def test_mass_jacobian_band_matches_central_differences(N, n, grading):
    M = 9
    s_grid = make_radial_grid(n, 1.0, M, grading=grading)
    op = MassOperator(s_grid, make_p_laplacian(3))
    rng = np.random.default_rng(N + 10 * n)
    V = np.zeros((N + 2, M + 1))
    # Strictly concave slices keep t > 0, away from the kink of the odd beta.
    V[1:-1] = random_mass_functions(op, N, rng) \
        + rng.uniform(0.5, 1.5, (N, 1)) * quad_mass(s_grid, 1.0)
    lam = 0.5 / (N + 1) ** 2
    lamF = lam * rng.uniform(0.0, 1.0, (N, M))
    ab = np.zeros((3 * N + 1, N * M), order="F")
    _fill_jacobian(ab, op, lam, V)
    assert not np.any(ab[:N])                       # spare rows for the LU fill
    J = _band_to_dense(ab, N)

    def R(x):
        W = V.copy()
        W[1:-1, 1:] = x.reshape(M, N).T             # node-major unknowns
        return _mass_residual(op, lam, lamF, W).T.ravel()

    x0 = V[1:-1, 1:].T.ravel()
    J_fd = np.empty_like(J)
    for k in range(N * M):
        e = np.zeros(N * M)
        e[k] = 1e-6 * max(1.0, abs(x0[k]))
        J_fd[:, k] = (R(x0 + e) - R(x0 - e)) / (2.0 * e[k])
    assert np.max(np.abs(J - J_fd)) <= 1e-6 * np.max(np.abs(J))


def _ode31_system(centre=0.3, amplitude=1.0):
    """The mass system of the ode31 bench configuration, with its warm start.

    Interval (0, 1) with 64 cells, N = 31, M = 64, p = 3 regularized at
    eps = tau = 1e-6; the warm start is the rearranged symmetrized solve,
    as in ``verify_mass_comparison``.
    """
    grid = make_interval_grid(1.0, 64)

    def f_fn(c, y):
        return amplitude * np.exp(-60 * (c[:, 0] - centre) ** 2) * (1 + 0.5 * np.sin(np.pi * y))

    rep = verify_mass_comparison(grid, make_p_laplacian(3), f_fn=f_fn, N=31, M=64,
                                 grading="uniform")
    f = sample_slices(grid, 31, f_fn)
    s_grid = make_radial_grid(1, grid.total_measure, 64)
    F = mass_functions_from_stack(f, s_grid)[1:-1]
    op = MassOperator(s_grid, moreau_yosida(make_p_laplacian(3), 1e-6, 1e-6))
    init = [np.concatenate([[0.0], v]) for v in rep.V]
    return (op, f.h, F), init


@pytest.fixture(scope="module")
def ode31():
    return _ode31_system()


def test_mass_system_ode31_agrees_with_tight_solve(ode31):
    # Gauss-Seidel alone stopped 1.6e-7 from the tight solve; two Newton
    # corrections leave 1.9e-9, and a third reaches rounding.
    system, init = ode31
    ref = solve_mass_system(*system, tol=1e-14, init=init)
    for tol, err in ((1e-9, 1e-8), (1e-11, 1e-12)):
        V = solve_mass_system(*system, tol=tol, init=init)
        assert max(np.max(np.abs(a - b)) for a, b in zip(V, ref)) <= err


def test_mass_system_ode31_cold_start_sweeps(ode31):
    system, _ = ode31
    counters = {}
    solve_mass_system(*system, tol=1e-9, counters=counters)
    assert counters["sweeps"] <= 15
    assert counters["newton_steps"] == counters["sweeps"] - 1


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_mass_system_jittered_ode31_warm_start_sweeps(seed):
    # Centre moved by up to 0.01 and amplitude by up to 3 %: Gauss-Seidel
    # alone took 180-290 sweeps on such data.
    rng = np.random.default_rng(seed)
    system, init = _ode31_system(0.3 + rng.uniform(-0.01, 0.01), rng.uniform(0.97, 1.03))
    counters = {}
    solve_mass_system(*system, tol=1e-9, init=init, counters=counters)
    assert counters["sweeps"] <= 5


def test_mass_system_solution_is_a_sweep_fixed_point(ode31):
    system, init = ode31
    tol = 1e-9
    V = solve_mass_system(*system, tol=tol, init=init)
    op, h, Fs = system
    lam = h ** 2 / 2.0
    scale = max(1.0, max(float(np.max(np.abs(F))) for F in Fs))
    W = [v.copy() for v in V]
    for j in range(1, len(Fs) + 1):
        W[j] = op.resolvent(lam, lam * Fs[j - 1] + 0.5 * (W[j - 1] + W[j + 1]), tol=1e-11)
    assert max(np.max(np.abs(a - b)) for a, b in zip(V, W)) <= tol * scale


def test_mass_operator_rejects_non_monotone_stencil():
    # Nodes out of order make cm < 0 in row 1: the Jacobian is no M-matrix.
    s_grid = SimpleNamespace(s_nodes=np.array([0.0, -0.1, 0.5, 1.0]),
                             num_intervals=3, kappa=np.ones(4))
    with pytest.raises(ResolventError, match="stencil row 1 "):
        MassOperator(s_grid, make_p_laplacian(2))


def test_mass_jacobian_rejects_decreasing_beta():
    op = MassOperator(make_radial_grid(1, 1.0, 8), decreasing_law())
    ab = np.zeros((7, 16), order="F")
    with pytest.raises(ResolventError, match="slice 1, node 1;"):
        _fill_jacobian(ab, op, 0.1, np.zeros((4, 9)))
