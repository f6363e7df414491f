import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from anisosym import (DiscreteProblem, make_ball_grid, make_disk_grid,
                      make_interval_grid, make_p_laplacian, make_square_grid,
                      moreau_yosida, residual_norm, sample_slices,
                      solve_cross_section, solve_stack, solve_symmetrized,
                      solve_tau_extrapolated, stack_energy,
                      steiner_rearrangement, y_interpolant, zero_stack)
from anisosym import solver
from anisosym.grids import SliceStack


def separable_exact(x, y):
    # -u_xx - u_yy = 2 pi^2 sin(pi x) solved on the unit square
    return np.sin(np.pi * x) * 2.0 * (1 - np.cosh(np.pi * (y - 0.5)) / np.cosh(np.pi / 2))


def separable_data(c, y):
    return 2.0 * np.pi ** 2 * np.sin(np.pi * c[:, 0])


def test_summation_by_parts_identity():
    # sum_j (-u_{j+1} + 2u_j - u_{j-1}) phi_j = sum_{j=0..N} (u_{j+1}-u_j)(phi_{j+1}-phi_j)
    rng = np.random.default_rng(2)
    N = 9
    u = np.zeros((N + 2, 5))
    phi = np.zeros((N + 2, 5))
    u[1:-1] = rng.normal(size=(N, 5))
    phi[1:-1] = rng.normal(size=(N, 5))
    lhs = np.sum((-u[2:] + 2 * u[1:-1] - u[:-2]) * phi[1:-1])
    rhs = np.sum((u[1:] - u[:-1]) * (phi[1:] - phi[:-1]))
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_energy_zero_stack_vanishes():
    g = make_interval_grid(1.0, 8)
    f = sample_slices(g, 3, lambda c, y: np.ones(c.shape[0]))
    prob = DiscreteProblem(g, make_p_laplacian(2), f)
    assert stack_energy(prob, zero_stack(g, 3)) == 0.0


def test_energy_positive_without_data():
    g = make_interval_grid(1.0, 8)
    prob = DiscreteProblem(g, make_p_laplacian(2), zero_stack(g, 3))
    st = zero_stack(g, 3)
    st.values[1:-1] = 0.3
    assert stack_energy(prob, st) > 0


def test_energy_matches_hand_sum():
    # N = 1, p = 2, four cells on (0, 1): every face and load term written out.
    g = make_interval_grid(1.0, 4)
    dx = 0.25
    u = np.array([0.2, 0.5, 0.1, 0.3])
    fv = np.array([1.0, 2.0, 0.5, 0.25])
    f = zero_stack(g, 1)
    f.values[1] = fv
    prob = DiscreteProblem(g, make_p_laplacian(2), f)
    st = zero_stack(g, 1)
    st.values[1] = u
    # gradient part: P1 elements on nodes {0, dx/2, 3dx/2, 5dx/2, 7dx/2, 1}
    faces = [(u[0] - 0.0, dx / 2), (u[1] - u[0], dx), (u[2] - u[1], dx),
             (u[3] - u[2], dx), (0.0 - u[3], dx / 2)]
    grad_term = sum(0.5 * (d / L) ** 2 * L for d, L in faces)
    # y part: h = 1/2, both boundary gaps, with the 1/2 energy factor
    h = 0.5
    y_term = 0.5 * dx * sum(2.0 * (u[i] / h) ** 2 for i in range(4))
    load = dx * float(fv @ u)
    assert stack_energy(prob, st) == pytest.approx(grad_term + y_term - load, rel=1e-12)


def test_zero_data_gives_zero_solution():
    g = make_interval_grid(1.0, 16)
    prob = DiscreteProblem(g, make_p_laplacian(2), zero_stack(g, 3))
    sol = solve_stack(prob)
    assert sol.energy == 0.0
    assert np.all(sol.stack.values == 0.0)


def test_separable_oracle_and_convergence_rate():
    errs = []
    for m, N in ((32, 15), (64, 31)):
        g = make_interval_grid(1.0, m)
        f = sample_slices(g, N, separable_data)
        sol = solve_stack(DiscreteProblem(g, make_p_laplacian(2), f))
        it = y_interpolant(sol)
        worst = 0.0
        for y in np.linspace(0, 1, 4 * (N + 1) + 1):
            worst = max(worst, float(np.abs(it(y) - separable_exact(g.centers[:, 0], y)).max()))
        errs.append(worst)
    rate = np.log2(errs[0] / errs[1])
    assert errs[1] < 3e-3
    assert rate >= 1.8


def test_positivity_of_solutions():
    rng = np.random.default_rng(8)
    g = make_interval_grid(1.0, 32)
    for p in (2, 3):
        nl = make_p_laplacian(p) if p == 2 else moreau_yosida(make_p_laplacian(p), 1e-6, 1e-6)
        f = zero_stack(g, 4)
        f.values[1:-1] = rng.uniform(0, 1, (4, 32))
        sol = solve_stack(DiscreteProblem(g, nl, f))
        assert sol.stack.values.min() >= -1e-12


def test_comparison_in_data():
    rng = np.random.default_rng(13)
    g = make_interval_grid(1.0, 24)
    nl = moreau_yosida(make_p_laplacian(3), 1e-6, 1e-6)
    for _ in range(5):
        base = rng.uniform(0, 1, (3, 24))
        extra = rng.uniform(0, 1, (3, 24))
        f = zero_stack(g, 3); f.values[1:-1] = base
        gdat = zero_stack(g, 3); gdat.values[1:-1] = base + extra
        uf = solve_stack(DiscreteProblem(g, nl, f)).stack.values
        ug = solve_stack(DiscreteProblem(g, nl, gdat)).stack.values
        assert np.min(ug - uf) >= -1e-9


def test_energy_descent_along_iterates():
    g = make_interval_grid(1.0, 48)
    nl = moreau_yosida(make_p_laplacian(3), 1e-6, 1e-6)
    f = sample_slices(g, 5, lambda c, y: np.exp(-40 * (c[:, 0] - 0.4) ** 2))
    sol = solve_stack(DiscreteProblem(g, nl, f))
    hist = np.array(sol.energies)
    assert np.all(np.diff(hist) <= 1e-12)
    assert sol.energy <= 0.0


def test_solver_requires_slope_bounds():
    g = make_interval_grid(1.0, 8)
    f = sample_slices(g, 2, lambda c, y: np.ones(c.shape[0]))
    with pytest.raises(ValueError, match="moreau_yosida"):
        solve_stack(DiscreteProblem(g, make_p_laplacian(3), f))


def test_x_only_scaling_homogeneity():
    # -div(|u'|^{p-2} u') = f scales u by 2 when f scales by 2^{p-1}
    g = make_interval_grid(1.0, 48)
    nl = moreau_yosida(make_p_laplacian(3), 1e-10, 1e-9)
    fv = np.exp(-30 * (g.centers[:, 0] - 0.45) ** 2)
    u1, _ = solve_cross_section(g, nl, fv)
    u2, _ = solve_cross_section(g, nl, 4.0 * fv)
    assert np.max(np.abs(u2 - 2.0 * u1)) <= 1e-5 * np.max(u1)


def test_residual_norm_small_at_solution():
    g = make_interval_grid(1.0, 16)
    f = sample_slices(g, 3, lambda c, y: np.ones(c.shape[0]))
    prob = DiscreteProblem(g, make_p_laplacian(2), f)
    sol = solve_stack(prob)
    assert residual_norm(prob, sol.stack) < 1e-9
    assert residual_norm(prob, zero_stack(g, 3)) > 1e-3


def test_data_must_be_nonnegative():
    g = make_interval_grid(1.0, 8)
    f = zero_stack(g, 2)
    f.values[1] = -1.0
    with pytest.raises(ValueError, match="nonnegative"):
        DiscreteProblem(g, make_p_laplacian(2), f)


def test_symmetric_data_gives_symmetric_solution():
    g = make_ball_grid(1, 1.0, 32)
    nl = make_p_laplacian(2)
    f = sample_slices(g, 3, lambda c, y: np.exp(-10 * c[:, 0] ** 2))
    sol = solve_symmetrized(DiscreteProblem(g, nl, f))
    v = sol.stack.values[2]
    assert np.max(np.abs(v - v[::-1])) < 1e-12


def test_symmetrized_solver_rejects_unordered_data():
    g = make_ball_grid(1, 1.0, 16)
    f = zero_stack(g, 2)
    f.values[1] = np.linspace(0, 1, 16)        # increasing toward the wall
    with pytest.raises(ValueError, match="Schwarz"):
        solve_symmetrized(DiscreteProblem(g, make_p_laplacian(2), f))


def test_symmetrized_solver_requires_centered_ball():
    g = make_interval_grid(1.0, 16)            # (0, 1), not centered
    f = sample_slices(g, 2, lambda c, y: np.ones(c.shape[0]))
    with pytest.raises(ValueError, match="centered"):
        solve_symmetrized(DiscreteProblem(g, make_p_laplacian(2), f))


def test_disk_radial_monotonicity_check_passes():
    g = make_disk_grid(1.0, 24)
    nl = make_p_laplacian(2)
    f = sample_slices(g, 2, lambda c, y: np.ones(c.shape[0]))
    f2 = steiner_rearrangement(f, g)
    sol = solve_symmetrized(DiscreteProblem(g, nl, f2))
    assert sol.stack.values.min() >= -1e-12


def test_interpolant_nodes_and_midpoints():
    g = make_interval_grid(1.0, 8)
    st = zero_stack(g, 3)
    rng = np.random.default_rng(4)
    st.values[1:-1] = rng.uniform(0, 1, (3, 8))
    it = y_interpolant(st)
    h = st.h
    for j in range(5):
        assert np.allclose(it(j * h), st.values[j])
    mid = it(1.5 * h)
    assert np.allclose(mid, 0.5 * (st.values[1] + st.values[2]))
    with pytest.raises(ValueError):
        it(1.2)


def test_interpolant_reproduces_linear_stacks():
    g = make_interval_grid(1.0, 6)
    N = 4
    vals = np.zeros((N + 2, 6))
    for j in range(N + 2):
        y = j / (N + 1)
        vals[j] = y * (1 - y) * 0.0            # placeholder, filled next
    # linear in j requires zero boundaries only in the test below via hat profile
    vals = np.zeros((N + 2, 6))
    slope = np.arange(6, dtype=float)
    for j in range(1, N + 1):
        vals[j] = j * slope
    vals[N + 1] = 0.0
    st = SliceStack(g, vals)
    it = y_interpolant(st)
    h = st.h
    for y in (0.3 * h, 1.7 * h, 2.25 * h):
        j = int(y / h)
        expect = (vals[j] * (1 - (y / h - j)) + vals[j + 1] * (y / h - j))
        assert np.allclose(it(y), expect)


def test_interpolant_l1_distance_exact():
    g = make_interval_grid(1.0, 4)
    a = zero_stack(g, 1)
    a.values[1] = 1.0                        # hat in y with peak 1 at y = 1/2
    b = zero_stack(g, 1)
    it_a, it_b = y_interpolant(a), y_interpolant(b)
    # integral over y of the hat is 1/2, times |domain| = 1
    assert it_a.l1_distance(it_b) == pytest.approx(0.5)


def test_h1_norm_of_hat_stack():
    g = make_interval_grid(1.0, 64)
    a = zero_stack(g, 1)
    a.values[1] = np.sin(np.pi * g.centers[:, 0])
    # u^h = sin(pi x) * hat(y): int |d_y u|^2 = int sin^2 * int hat'^2 = 1/2 * 4;
    # int |d_x u|^2 = pi^2/2 * int hat^2 = pi^2/2 * 1/3
    h1 = y_interpolant(a).h1_norm_sq()
    expect = 2.0 + np.pi ** 2 / 6.0
    assert h1 == pytest.approx(expect, rel=0.01)


def test_tau_extrapolation_improves_on_plain_shift():
    g = make_interval_grid(1.0, 32)
    base = make_p_laplacian(3)
    f = sample_slices(g, 3, lambda c, y: np.exp(-20 * (c[:, 0] - 0.5) ** 2))
    extrap, sol_a, sol_b = solve_tau_extrapolated(g, base, f, eps=1e-8, tau=1e-2)
    ref = solve_stack(DiscreteProblem(g, moreau_yosida(base, 1e-8, 1e-5), f)).stack
    err_plain = np.abs(sol_b.stack.values - ref.values).max()
    err_extrap = np.abs(extrap.values - ref.values).max()
    assert err_extrap < err_plain


def test_solution_energy_not_above_zero_stack():
    rng = np.random.default_rng(21)
    g = make_interval_grid(1.0, 16)
    f = zero_stack(g, 3)
    f.values[1:-1] = rng.uniform(0, 2, (3, 16))
    sol = solve_stack(DiscreteProblem(g, make_p_laplacian(2), f))
    assert sol.energy <= 0.0


def disk_problem(p, N=5):
    g = make_disk_grid(1.0, 16)
    nl = make_p_laplacian(2) if p == 2 else moreau_yosida(make_p_laplacian(p), 1e-6, 1e-6)
    f = sample_slices(g, N, lambda c, y: np.exp(-6 * ((c[:, 0] - 0.3) ** 2 + c[:, 1] ** 2))
                      * (1 + 0.5 * np.sin(np.pi * y)))
    return DiscreteProblem(g, nl, f)


def new_counters():
    return {"cg_iterations": 0, "fallbacks": 0}


@pytest.mark.parametrize("p", [1.5, 3])
def test_mode_pcg_direction_matches_lu(p):
    prob = disk_problem(p)
    func = solver._StackFunctional(prob.grid, prob.nl, prob.f.interior, prob.h)
    z = solver._warm_start(func, new_counters())
    g = func.gradient(z)
    counters = new_counters()
    d = solver._newton_direction(func, z, g, counters)
    H, _ = func.hessian(z)
    ref = spla.splu(H).solve(-g.ravel())
    assert counters["cg_iterations"] > 0 and counters["fallbacks"] == 0
    assert np.linalg.norm(d - ref) <= 1e-10 * np.linalg.norm(ref)


def test_mode_preconditioner_exact_for_quadratic_law():
    # At p = 2 every slice block equals their mean, so the preconditioner is
    # the inverse Hessian and CG stops after one step (two with rounding).
    prob = disk_problem(2)
    func = solver._StackFunctional(prob.grid, prob.nl, prob.f.interior, prob.h)
    z = np.random.default_rng(5).uniform(0.0, 0.1, (func.k, func.m))
    counters = new_counters()
    solver._newton_direction(func, z, func.gradient(z), counters)
    assert 1 <= counters["cg_iterations"] <= 2


def test_one_dimensional_stacks_never_call_cg(monkeypatch):
    def no_cg(*args, **kwargs):
        raise AssertionError("CG called on a 1-D stack or an x-only problem")

    monkeypatch.setattr(spla, "cg", no_cg)
    g = make_interval_grid(1.0, 32)
    f = sample_slices(g, 4, lambda c, y: np.exp(-20 * (c[:, 0] - 0.4) ** 2))
    sol = solve_stack(DiscreteProblem(g, moreau_yosida(make_p_laplacian(3), 1e-6, 1e-6), f))
    assert sol.cg_iterations == 0 and sol.fallbacks == 0
    disk = make_disk_grid(1.0, 12)
    _, info = solve_cross_section(disk, make_p_laplacian(2), np.ones(disk.num_cells))
    assert info["cg_iterations"] == 0


def test_cg_nonconvergence_counted_and_lu_gives_same_stack(monkeypatch):
    prob = disk_problem(3, N=3)
    ref = solve_stack(prob)
    assert ref.cg_iterations > 0 and ref.fallbacks == 0

    def stalled_cg(A, b, **kwargs):
        return np.zeros_like(b), 1

    monkeypatch.setattr(spla, "cg", stalled_cg)
    sol = solve_stack(prob)
    # Every linear solve (warm start and each Newton step) hands over to LU.
    assert sol.fallbacks >= sol.iterations + 1
    assert sol.cg_iterations == 0
    assert np.max(np.abs(sol.stack.values - ref.stack.values)) <= 1e-12


def test_failed_lu_is_counted(monkeypatch):
    g = make_interval_grid(1.0, 24)
    f = sample_slices(g, 3, lambda c, y: np.exp(-20 * (c[:, 0] - 0.4) ** 2))
    prob = DiscreteProblem(g, moreau_yosida(make_p_laplacian(3), 1e-6, 1e-6), f)
    ref = solve_stack(prob)
    real_splu = spla.splu
    calls = []

    def splu_failing_once(A, *args, **kwargs):
        calls.append(None)
        if len(calls) == 1:
            raise RuntimeError("Factor is exactly singular")
        return real_splu(A, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", splu_failing_once)
    sol = solve_stack(prob)          # the warm start's LU fails: zero start
    assert sol.fallbacks == 1
    assert np.max(np.abs(sol.stack.values - ref.stack.values)) <= 1e-9


FUNCTIONAL_GRIDS = {"interval": lambda: make_interval_grid(1.0, 24),
                    "square": lambda: make_square_grid(1.0, 10),
                    "disk": lambda: make_disk_grid(1.0, 12)}


@pytest.mark.parametrize("p", [1.5, 3])
@pytest.mark.parametrize("kind", sorted(FUNCTIONAL_GRIDS))
def test_stack_functional_matches_single_slices(kind, p):
    # Without a y-coupling the k-slice functional is k independent copies of
    # the x-only one; evaluating them in one pass must not change a bit.
    grid, nl, k = FUNCTIONAL_GRIDS[kind](), moreau_yosida(make_p_laplacian(p), 1e-6, 1e-6), 3
    z = np.random.default_rng(7).uniform(0.0, 0.3, (k, grid.num_cells))
    z[1, :4] = 0.0                       # some zero gradients
    stack = solver._StackFunctional(grid, nl, np.zeros_like(z), None)
    singles = [solver._StackFunctional(grid, nl, np.zeros((1, grid.num_cells)), None)
               for _ in range(k)]
    energy = 0.0
    for j, single in enumerate(singles):
        energy += single.energy(z[j:j + 1])
    assert stack.energy(z) == energy
    g = stack.gradient(z)
    for j, single in enumerate(singles):
        assert np.array_equal(g[j], single.gradient(z[j:j + 1])[0])
    H, mean = stack.hessian(z)
    blocks = [single.hessian(z[j:j + 1])[0].toarray() for j, single in enumerate(singles)]
    scale = max(np.abs(b).max() for b in blocks)
    assert np.abs(H.toarray() - sp.block_diag(blocks).toarray()).max() <= 1e-15 * scale
    assert np.abs(mean.toarray() - sum(blocks) / k).max() <= 1e-15 * scale


@pytest.mark.parametrize("p", [1.5, 3])
@pytest.mark.parametrize("kind", sorted(FUNCTIONAL_GRIDS))
def test_stack_derivatives_match_central_differences(kind, p):
    # The power law itself: its dbeta is the exact derivative of beta, while
    # a tabulated law's chord slopes jump at the nodes and blur the check.
    grid, k = FUNCTIONAL_GRIDS[kind](), 4
    rng = np.random.default_rng(11)
    f = rng.uniform(0.0, 1.0, (k, grid.num_cells))
    func = solver._StackFunctional(grid, make_p_laplacian(p), f, 1.0 / (k + 1))
    z = rng.uniform(0.05, 0.3, f.shape)
    v = rng.normal(size=f.shape)
    eps = 1e-6
    g = func.gradient(z)
    slope = (func.energy(z + eps * v) - func.energy(z - eps * v)) / (2 * eps)
    assert slope == pytest.approx(float(np.sum(g * v)), rel=1e-7)
    H, _ = func.hessian(z)
    Hv = H @ v.ravel()
    fd = (func.gradient(z + eps * v) - func.gradient(z - eps * v)).ravel() / (2 * eps)
    assert np.linalg.norm(fd - Hv) <= 1e-6 * np.linalg.norm(Hv)
