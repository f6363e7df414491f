import importlib.util
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from anisosym import (DiscreteProblem, make_ball_grid, make_disk_grid,
                      make_interval_grid, make_p_laplacian, make_square_grid,
                      moreau_yosida, sample_slices, shifted_p, solve_stack,
                      radial_order_violation, solve_symmetrized, steiner_rearrangement,
                      verify_mass_comparison)
from anisosym import compare, solver
from anisosym.grids import SliceStack
from oracles import dense_x_blocks, entry_blocks, uncoupled, y_sample, zero_stack


def problem_functional(prob):
    return solver._StackFunctional(prob.grid, prob.nl, prob.f.interior, prob.h)


def hessian(func, z):
    """The assembled Hessian of ``func`` at z and the mean of its slice x-blocks."""
    entries = func.hessian(z)
    return func.assemble(entries), func.mean_block(entries)


def stack_energy(prob, stack):
    """The discrete energy J of a stack for the given problem."""
    return problem_functional(prob).energy(stack.interior)


def residual_norm(prob, stack):
    """Dual norm of the discrete weak-form residual at the given stack."""
    func = problem_functional(prob)
    return func.dual_norm(func.gradient(stack.interior))


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
        worst = 0.0
        for y in np.linspace(0, 1, 4 * (N + 1) + 1):
            worst = max(worst, float(np.abs(y_sample(sol.stack, y)
                                            - separable_exact(g.centers[:, 0], y)).max()))
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
    h = st.h
    for j in range(5):
        assert np.allclose(y_sample(st, j * h), st.values[j])
    mid = y_sample(st, 1.5 * h)
    assert np.allclose(mid, 0.5 * (st.values[1] + st.values[2]))


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
    h = st.h
    for y in (0.3 * h, 1.7 * h, 2.25 * h):
        j = int(y / h)
        expect = (vals[j] * (1 - (y / h - j)) + vals[j + 1] * (y / h - j))
        assert np.allclose(y_sample(st, y), expect)


def test_interpolant_l1_distance_exact():
    g = make_interval_grid(1.0, 4)
    a = zero_stack(g, 1)
    a.values[1] = 1.0                        # hat in y with peak 1 at y = 1/2
    b = zero_stack(g, 1)
    # integral over y of the hat is 1/2, times |domain| = 1
    assert compare._l1_distance(a, b) == pytest.approx(0.5)


def test_h1_norm_of_hat_stack():
    g = make_interval_grid(1.0, 64)
    a = zero_stack(g, 1)
    a.values[1] = np.sin(np.pi * g.centers[:, 0])
    # u^h = sin(pi x) * hat(y): int |d_y u|^2 = int sin^2 * int hat'^2 = 1/2 * 4;
    # int |d_x u|^2 = pi^2/2 * int hat^2 = pi^2/2 * 1/3
    h1 = compare._h1_norm_sq(a)
    expect = 2.0 + np.pi ** 2 / 6.0
    assert h1 == pytest.approx(expect, rel=0.01)



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
    return {"cg_iterations": 0, "fallbacks": 0, "factorizations": 0}


@pytest.mark.parametrize("p", [1.5, 3])
def test_mode_pcg_direction_matches_lu(p):
    prob = disk_problem(p)
    func = problem_functional(prob)
    z = solver._warm_start(func, new_counters())
    g = func.gradient(z)
    counters = new_counters()
    d = solver._newton_direction(func, z, g, counters)
    H, _ = hessian(func, z)
    ref = spla.splu(H).solve(-g.ravel())
    assert counters["cg_iterations"] > 0 and counters["fallbacks"] == 0
    assert np.linalg.norm(d - ref) <= 1e-10 * np.linalg.norm(ref)


def test_mode_preconditioner_exact_for_quadratic_law():
    # At p = 2 every slice block equals their mean, so the preconditioner is
    # the inverse Hessian and CG stops after one step (two with rounding).
    prob = disk_problem(2)
    func = problem_functional(prob)
    z = np.random.default_rng(5).uniform(0.0, 0.1, (func.k, func.m))
    counters = new_counters()
    solver._newton_direction(func, z, func.gradient(z), counters)
    assert 1 <= counters["cg_iterations"] <= 2


def test_one_dimensional_stacks_never_call_cg(monkeypatch):
    def no_cg(*args, **kwargs):
        raise AssertionError("CG called on a 1-D stack")

    monkeypatch.setattr(spla, "cg", no_cg)
    g = make_interval_grid(1.0, 32)
    f = sample_slices(g, 4, lambda c, y: np.exp(-20 * (c[:, 0] - 0.4) ** 2))
    sol = solve_stack(DiscreteProblem(g, moreau_yosida(make_p_laplacian(3), 1e-6, 1e-6), f))
    assert sol.cg_iterations == 0 and sol.fallbacks == 0


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


def test_non_descent_direction_is_counted(monkeypatch):
    g = make_interval_grid(1.0, 24)
    f = sample_slices(g, 3, lambda c, y: np.exp(-20 * (c[:, 0] - 0.4) ** 2))
    prob = DiscreteProblem(g, moreau_yosida(make_p_laplacian(3), 1e-6, 1e-6), f)
    ref = solve_stack(prob)
    real = solver._newton_direction
    calls = []

    def ascent_once(*args, **kwargs):
        d = real(*args, **kwargs)
        calls.append(None)
        return -d if len(calls) == 2 else d      # call 1 is the warm start's

    monkeypatch.setattr(solver, "_newton_direction", ascent_once)
    sol = solve_stack(prob)          # the first Newton step becomes a gradient step
    assert sol.fallbacks == 1
    assert np.max(np.abs(sol.stack.values - ref.stack.values)) <= 1e-9


@pytest.mark.parametrize("p", [1.5, 3])
def test_kept_mode_lus_factor_less_and_give_the_same_stack(p, monkeypatch):
    prob = disk_problem(p)
    sol = solve_stack(prob)
    # Fresh mode LUs and a 1e-12 CG solve at every step, as without a store.
    real = solver._newton_direction
    monkeypatch.setattr(solver, "_newton_direction",
                        lambda func, z, g, counters, *_, **__: real(func, z, g, counters))
    ref = solve_stack(prob)
    k = prob.num_interior
    assert 0 < sol.factorizations < k * (sol.iterations + 2) <= ref.factorizations + k
    assert sol.fallbacks == 0 and sol.iterations == ref.iterations
    assert sol.residual_norm <= 1e-12
    diff = np.max(np.abs(sol.stack.values - ref.stack.values))
    assert diff <= 1e-12 * np.max(np.abs(ref.stack.values))


@pytest.mark.parametrize("p", [1.5, 3])
def test_stale_mode_lus_are_rebuilt(p):
    prob = disk_problem(p)
    func = problem_functional(prob)
    z = solver._warm_start(func, new_counters())
    g = func.gradient(z)
    modes = solver._ModeFactors()
    modes.refactor(func, sp.identity(func.m, format="csc"), new_counters())   # a wrong block
    counters = new_counters()
    d = solver._newton_direction(func, z, g, counters, modes)
    H, _ = hessian(func, z)
    ref = spla.splu(H).solve(-g.ravel())
    assert counters["factorizations"] == func.k and counters["fallbacks"] == 0
    assert np.linalg.norm(d - ref) <= 1e-10 * np.linalg.norm(ref)


def test_rebuilt_mode_lus_continue_from_the_stalled_cg_iterate(monkeypatch):
    prob = disk_problem(3)
    func = problem_functional(prob)
    z = solver._warm_start(func, new_counters())
    g = func.gradient(z)
    modes = solver._ModeFactors()
    modes.refactor(func, sp.identity(func.m, format="csc"), new_counters())   # a wrong block
    real_cg, runs = spla.cg, []

    def recording_cg(A, b, x0=None, **kwargs):
        x, info = real_cg(A, b, x0=x0, **kwargs)
        runs.append((None if x0 is None else x0.copy(), x.copy(), info))
        return x, info

    monkeypatch.setattr(spla, "cg", recording_cg)
    solver._newton_direction(func, z, g, new_counters(), modes)
    (start, stalled, info), (restart, _, info_again) = runs
    assert start is None and info != 0 and info_again == 0
    assert np.array_equal(restart, stalled)


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
    stack = uncoupled(solver._StackFunctional(grid, nl, np.zeros_like(z), 1.0))
    singles = [uncoupled(solver._StackFunctional(grid, nl, np.zeros((1, grid.num_cells)), 1.0))
               for _ in range(k)]
    energy = 0.0
    for j, single in enumerate(singles):
        energy += single.energy(z[j:j + 1])
    assert stack.energy(z) == energy
    g = stack.gradient(z)
    for j, single in enumerate(singles):
        assert np.array_equal(g[j], single.gradient(z[j:j + 1])[0])
    H, mean = hessian(stack, z)
    blocks = [hessian(single, z[j:j + 1])[0].toarray() for j, single in enumerate(singles)]
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
    H, _ = hessian(func, z)
    Hv = H @ v.ravel()
    fd = (func.gradient(z + eps * v) - func.gradient(z - eps * v)).ravel() / (2 * eps)
    assert np.linalg.norm(fd - Hv) <= 1e-6 * np.linalg.norm(Hv)


def two_bump_stiff_problem(seed):
    """The 1-D two-bump p = 1.5 problem at 128 cells and N = 15, jittered by ``seed``.

    Each bump centre moves by up to 0.001 and each amplitude scales by a factor
    in [0.995, 1.005].  Seeds 1 and 5 exhaust 500 single-stage Newton steps.
    """
    rng = np.random.default_rng(seed)
    bumps = []
    for amp, width, centre in ((1.0, 80.0, 0.25), (0.7, 90.0, 0.7)):
        shift = rng.uniform(-0.001, 0.001, size=1)[0]
        bumps.append((amp * rng.uniform(0.995, 1.005), width, centre + shift))
    (a1, w1, c1), (a2, w2, c2) = bumps

    def f_fn(c, y):
        x = c[:, 0]
        return a1 * np.exp(-w1 * (x - c1) ** 2) + a2 * np.exp(-w2 * (x - c2) ** 2) * (1 + y)

    g = make_interval_grid(1.0, 128)
    law = moreau_yosida(make_p_laplacian(1.5), 1e-6, 1e-6)
    return DiscreteProblem(g, law, sample_slices(g, 15, f_fn))


@pytest.mark.parametrize("seed", [1, 2, 5])
def test_eps_path_converges_on_jittered_stiff_data(seed):
    prob = two_bump_stiff_problem(seed)
    sol = solve_stack(prob)
    assert sol.residual_norm <= 1e-9
    assert sol.iterations <= 30
    assert [e for e, _ in sol.eps_stages] == [1e-2, 1e-3, 1e-4, 1e-5, 1e-6]
    assert sum(it for _, it in sol.eps_stages) == sol.iterations
    assert residual_norm(prob, sol.stack) == pytest.approx(sol.residual_norm, rel=1e-12)


def test_eps_path_matches_single_stage_solve(monkeypatch):
    g = make_interval_grid(1.0, 64)
    f = sample_slices(g, 7, lambda c, y: np.exp(-60 * (c[:, 0] - 0.3) ** 2)
                      * (1 + 0.5 * np.sin(np.pi * y)))
    prob = DiscreteProblem(g, moreau_yosida(make_p_laplacian(1.5), 1e-6, 1e-6), f)
    path = solve_stack(prob)
    monkeypatch.setattr(solver, "_EPS_PATH", ())
    direct = solve_stack(prob)
    assert len(path.eps_stages) == 5 and len(direct.eps_stages) == 1
    scale = np.abs(direct.stack.values).max()
    assert np.abs(path.stack.values - direct.stack.values).max() <= 1e-12 * scale
    assert path.energy == pytest.approx(direct.energy, rel=1e-12)


@pytest.mark.parametrize("law", [
    moreau_yosida(make_p_laplacian(2), 1e-6, 1e-6),
    moreau_yosida(make_p_laplacian(3), 1e-6, 1e-6),
    moreau_yosida(make_p_laplacian(1.5), 1e-2, 1e-6),     # no stage above its eps
    make_p_laplacian(2),
    shifted_p(2, 0.5),
], ids=["my2", "my3", "my1.5-coarse", "p2", "shifted2"])
def test_laws_without_a_path_solve_in_one_stage(law):
    g = make_interval_grid(1.0, 32)
    f = sample_slices(g, 3, lambda c, y: np.exp(-20 * (c[:, 0] - 0.4) ** 2))
    sol = solve_stack(DiscreteProblem(g, law, f))
    assert sol.eps_stages == ((getattr(law, "eps", None), sol.iterations),)
    assert solver._eps_path(law) == []


def test_eps_path_stage_laws_are_built_once():
    law = moreau_yosida(make_p_laplacian(1.5), 1e-6, 1e-6)
    first = solver._eps_path(law)
    assert [s.eps for s in first] == [1e-2, 1e-3, 1e-4, 1e-5]
    assert all(s.tau == law.tau and s.base is law.base for s in first)
    assert all(a is b for a, b in zip(first, solver._eps_path(law)))
    # A fresh regularization of the same base, as each pipeline call builds,
    # shares the stage laws; another tau does not.
    again = moreau_yosida(law.base, 1e-6, 1e-6)
    assert all(a is b for a, b in zip(first, solver._eps_path(again)))
    other = solver._eps_path(moreau_yosida(law.base, 1e-6, 1e-4))
    assert all(s.tau == 1e-4 and s is not a for s, a in zip(other, first))


def counted_samples(monkeypatch):
    calls, real = [], solver.cell_gradients

    def counted(grid, values):
        calls.append(None)
        return real(grid, values)

    monkeypatch.setattr(solver, "cell_gradients", counted)
    return calls


def test_each_iterate_is_sampled_once(monkeypatch):
    # The line search's energy, then gradient and hessian, at one accepted iterate.
    grid, k = make_square_grid(1.0, 10), 3
    rng = np.random.default_rng(17)
    func = solver._StackFunctional(grid, moreau_yosida(make_p_laplacian(3), 1e-6, 1e-6),
                                   rng.uniform(0.0, 1.0, (k, grid.num_cells)), 0.25)
    z = rng.uniform(0.0, 0.3, (k, grid.num_cells))
    calls = counted_samples(monkeypatch)
    func.energy(z)
    assert len(calls) == 1
    func.gradient(z)
    func.hessian(z)
    assert len(calls) == 1
    func.energy(1.5 * z)
    func.gradient(1.5 * z)
    func.hessian(1.5 * z)
    assert len(calls) == 2


def test_refactor_returns_the_old_lus_pages_before_building(monkeypatch):
    func = problem_functional(disk_problem(3))
    modes, seen = solver._ModeFactors(), []
    monkeypatch.setattr(solver, "_malloc_trim", lambda pad: seen.append(modes.lus))
    modes.refactor(func, sp.identity(func.m, format="csc"), new_counters())
    modes.refactor(func, sp.identity(func.m, format="csc"), new_counters())
    assert seen == [None, None] and len(modes.lus) == func.k


def test_minimization_ends_without_a_kept_sample():
    # The last iterate's sample is allocated after the mode LUs; kept past the
    # minimization, it would pin their freed heap pages.
    func = problem_functional(disk_problem(3))
    z, info = solver._minimize(func, solver._warm_start(func, new_counters()), 1e-9, 50,
                               new_counters())
    assert info["iterations"] > 0 and func._kept is None


def test_kept_sample_is_not_reused_across_laws():
    # The warm start (p = 2) and the eps-path stages reassign the law of the
    # solve's one functional; after each swap it must give a fresh functional's bits.
    grid, k = make_disk_grid(1.0, 12), 3
    rng = np.random.default_rng(19)
    f = rng.uniform(0.0, 1.0, (k, grid.num_cells))
    z = rng.uniform(0.0, 0.3, (k, grid.num_cells))
    law = moreau_yosida(make_p_laplacian(1.5), 1e-6, 1e-6)
    func = solver._StackFunctional(grid, law, f, 0.25)
    for other in (make_p_laplacian(2), law.with_eps(1e-3), law):
        func.gradient(z)                 # keep a full sample under the last law
        func.nl = other
        fresh = solver._StackFunctional(grid, other, f, 0.25)
        assert func.energy(z) == fresh.energy(z)
        assert np.array_equal(func.gradient(z), fresh.gradient(z))
        H, mean = hessian(func, z)
        H_ref, mean_ref = hessian(fresh, z)
        assert np.array_equal(H.toarray(), H_ref.toarray())
        assert np.array_equal(mean.toarray(), mean_ref.toarray())


def interval_functional():
    g = make_interval_grid(1.0, 40)
    f = sample_slices(g, 5, lambda c, y: np.exp(-30 * (c[:, 0] - 0.35) ** 2) * (1 + y))
    law = moreau_yosida(make_p_laplacian(3), 1e-6, 1e-6)
    return problem_functional(DiscreteProblem(g, law, f))


def recorded_orderings(monkeypatch, fail_first=False):
    """Spy on spla.splu: the permc_spec and the other options of every call, in call order."""
    real, specs, options = spla.splu, [], []

    def spy(A, *args, permc_spec=None, **kwargs):
        specs.append(permc_spec)
        options.append(kwargs)
        if fail_first and len(specs) == 1:
            raise RuntimeError("Factor is exactly singular")
        return real(A, *args, permc_spec=permc_spec, **kwargs)

    monkeypatch.setattr(spla, "splu", spy)
    return specs, options


def test_ordered_lu_direction_matches_the_default_lu():
    # The warm start (p = 2 at zero) picks the order; Newton steps factor in it.
    func = interval_functional()
    law = func.nl
    counters = new_counters()
    x = np.zeros((func.k, func.m))
    for nl in (make_p_laplacian(2), law, law):
        func.nl = nl
        g = func.gradient(x)
        d = solver._newton_direction(func, x, g, counters)
        assert func.lu_order is not None
        H, _ = hessian(func, x)
        ref = spla.splu(H).solve(-g.ravel())
        assert np.linalg.norm(d - ref) <= 1e-12 * np.linalg.norm(ref)
        x = x + d.reshape(x.shape)
    assert counters == {"cg_iterations": 0, "fallbacks": 0, "factorizations": 3}


def test_one_fill_reducing_order_per_one_dimensional_solve(monkeypatch):
    specs, _ = recorded_orderings(monkeypatch)
    g = make_interval_grid(1.0, 48)
    f = sample_slices(g, 5, lambda c, y: np.exp(-20 * (c[:, 0] - 0.4) ** 2) * (1 + y))
    for law in (moreau_yosida(make_p_laplacian(3), 1e-6, 1e-6),
                moreau_yosida(make_p_laplacian(1.5), 1e-6, 1e-6)):   # with eps stages
        del specs[:]
        sol = solve_stack(DiscreteProblem(g, law, f))
        assert specs[0] == "MMD_AT_PLUS_A" and set(specs[1:]) == {"NATURAL"}
        assert len(specs) == sol.factorizations and sol.fallbacks == 0


@pytest.mark.parametrize("grid", [make_interval_grid(1.0, 32), make_square_grid(1.0, 8)],
                         ids=["interval", "square"])
def test_every_lu_uses_the_spd_options(monkeypatch, grid):
    # 1-D: the full-Hessian LUs; 2-D: the mode LUs each stage builds.
    specs, options = recorded_orderings(monkeypatch)
    f = sample_slices(grid, 4, lambda c, y: np.exp(-20 * ((c - 0.4) ** 2).sum(axis=1)) * (1 + y))
    sol = solve_stack(DiscreteProblem(grid, moreau_yosida(make_p_laplacian(3), 1e-6, 1e-6), f))
    assert len(options) == sol.factorizations >= (1 if grid.n == 1 else 2 * 4)
    for kwargs in options:
        assert kwargs["panel_size"] == solver._SPD["panel_size"] == 1
        assert kwargs["diag_pivot_thresh"] == solver._SPD["diag_pivot_thresh"]
        assert kwargs["options"]["SymmetricMode"] is True


def test_rounding_floor_stall_names_the_floor():
    g = make_interval_grid(1.0, 12)
    f = sample_slices(g, 3, lambda c, y: np.exp(-20 * (c[:, 0] - 0.4) ** 2) * (1 + y))
    with pytest.raises(solver.SolverError, match=r"stalled at the energy's rounding floor "
                       r"64 eps \|J\| = .* residual .* toward tol 1\.0e-20"):
        solve_stack(DiscreteProblem(g, make_p_laplacian(2), f), tol=1e-20)


def test_failed_first_lu_keeps_no_order(monkeypatch):
    # The warm start's LU (p = 2) fails; the first stage's LU picks the order.
    specs, _ = recorded_orderings(monkeypatch, fail_first=True)
    func = interval_functional()
    law, func.nl = func.nl, make_p_laplacian(2)
    z = np.random.default_rng(23).uniform(0.0, 0.2, (func.k, func.m))
    counters = new_counters()
    assert solver._newton_direction(func, z, func.gradient(z), counters) is None
    assert func.lu_order is None and counters["fallbacks"] == 1
    func.nl = law
    g = func.gradient(z)
    first = solver._newton_direction(func, z, g, counters)
    assert func.lu_order is not None
    again = solver._newton_direction(func, z, g, counters)
    assert specs == ["MMD_AT_PLUS_A", "MMD_AT_PLUS_A", "NATURAL"]
    assert np.linalg.norm(again - first) <= 1e-12 * np.linalg.norm(first)


@pytest.mark.parametrize("kind", sorted(FUNCTIONAL_GRIDS))
def test_hessian_gather_is_bitwise_the_permuted_sum(kind):
    # Reference: the slice blocks placed by lattice geometry, as one
    # block-diagonal CSC matrix plus mc*kron(Q, I), then permuted; and their mean.
    grid, k = FUNCTIONAL_GRIDS[kind](), 4
    rng = np.random.default_rng(29)
    func = solver._StackFunctional(grid, moreau_yosida(make_p_laplacian(1.5), 1e-6, 1e-6),
                                   rng.uniform(0.0, 1.0, (k, grid.num_cells)), 0.2)
    z = rng.uniform(0.0, 0.3, (k, grid.num_cells))
    z[1, :5] = 0.0                       # some zero gradients
    entries = func.hessian(z)
    blocks = entry_blocks(grid, *func.entry_cells, entries)
    ref = sp.block_diag(blocks, "csc") + func.mc * sp.kron(func.Q, sp.eye(func.m), format="csc")
    H = func.assemble(entries)
    assert H.has_sorted_indices and np.array_equal(H.toarray(), ref.toarray())
    mean = func.mean_block(entries)
    mean_ref = sum(blocks[1:], blocks[0]) * (1 / k)
    assert mean.has_sorted_indices and np.array_equal(mean.toarray(), mean_ref.toarray())
    lu = spla.splu(H, permc_spec="MMD_AT_PLUS_A", **solver._SPD)
    for q in (np.argsort(lu.perm_c), rng.permutation(k * func.m)):
        P = solver._Layout(func, q).gather(entries)
        assert P.has_sorted_indices and np.array_equal(P.toarray(), ref[q][:, q].toarray())


@pytest.mark.parametrize("p", [1.5, 3])
@pytest.mark.parametrize("kind", sorted(FUNCTIONAL_GRIDS))
def test_x_blocks_are_the_dense_difference_sum(kind, p):
    # The scatter against sum_q sum_{k1,k2} D_{q,k1}^T diag(W) D_{q,k2},
    # summed densely from the loop's stencils and the law, in Frobenius
    # norm: near the disk's wall the diagonal cancels, and single entries
    # differ by up to 12 ulps.
    grid, k = FUNCTIONAL_GRIDS[kind](), 3
    law = moreau_yosida(make_p_laplacian(p), 1e-6, 1e-6)
    rng = np.random.default_rng(31)
    func = solver._StackFunctional(grid, law, np.zeros((k, grid.num_cells)), 0.25)
    z = rng.uniform(0.0, 0.3, (k, grid.num_cells))
    z[1, :5] = 0.0                       # some zero gradients
    blocks = entry_blocks(grid, *func.entry_cells, func.hessian(z))
    for block, dense in zip(blocks, dense_x_blocks(grid, law, z)):
        assert np.linalg.norm(block.toarray() - dense) <= 1e-15 * np.linalg.norm(dense)


def recorded_layouts(monkeypatch):
    """Spy on solver._Layout: (k, in an LU order) of every layout built."""
    real, built = solver._Layout, []

    class Spy(real):
        def __init__(self, func, q=None):
            built.append((func.k, q is not None))
            super().__init__(func, q)

    monkeypatch.setattr(solver, "_Layout", Spy)
    return built


def test_each_layout_is_built_once_per_solve(monkeypatch):
    # The warm start and every eps stage assemble through the solve's one
    # functional, so neither rebuilds a layout.
    built = recorded_layouts(monkeypatch)
    g = make_interval_grid(1.0, 48)
    f = sample_slices(g, 5, lambda c, y: np.exp(-20 * (c[:, 0] - 0.4) ** 2) * (1 + y))
    sol = solve_stack(DiscreteProblem(g, moreau_yosida(make_p_laplacian(1.5), 1e-6, 1e-6), f))
    assert len(sol.eps_stages) > 2 and sol.factorizations > 2
    assert built == [(5, False), (5, True)]
    del built[:]
    sol = solve_stack(disk_problem(1.5))            # 2-D, with eps stages and mode LUs
    assert len(sol.eps_stages) > 2 and sol.fallbacks == 0
    assert built == [(5, False)]


@pytest.mark.parametrize("grid", [make_interval_grid(2.0, 16, centered=True),
                                  make_disk_grid(1.0, 12)], ids=["interval", "disk"])
def test_radial_order_violation_checks_each_ray_alone(grid):
    c = grid.centers
    decreasing = 1.0 - np.sqrt((c ** 2).sum(axis=1))
    assert radial_order_violation(grid, decreasing) == 0.0
    # Each ray still decreases, but the -x (and -y) rays lie above the
    # opposite ones: read together by radius, the rays would show increases.
    lopsided = decreasing + 0.1 * (c < 0).sum(axis=1)
    assert radial_order_violation(grid, lopsided) == 0.0
    # A bump on the +x ray (the lattice row nearest the axis on a disk).
    on_ray = c[:, 0] > 0
    if grid.n == 2:
        on_ray &= c[:, 1] == c[c[:, 1] > 0, 1].min()
    ray = np.flatnonzero(on_ray)[np.argsort(c[on_ray, 0])]
    bumped = lopsided.copy()
    bumped[ray[2]] += 0.25
    assert radial_order_violation(grid, bumped) == bumped[ray[2]] - bumped[ray[1]] > 0.0


def bench_workloads():
    spec = importlib.util.spec_from_file_location(
        "workloads", Path(__file__).resolve().parent.parent / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


#: (u, v) Newton iterations of the benchmark workloads at seed 0.
NEWTON_ITERATIONS = {"ode31": (8, 6), "stiff15": (21, 16), "square2d": (6, 6)}


@pytest.mark.parametrize("name, factorizations",
                         [("ode31", (9, 7)), ("stiff15", (23, 17)), ("square2d", (14, 14))])
def test_ordered_lus_keep_the_factorization_counts(name, factorizations):
    # On square2d the counts are the mode LUs of the CG path, which a
    # change to the Hessian's rounding could move.
    grid, law, f_fn, kwargs = bench_workloads()[name].build(0)
    rep = verify_mass_comparison(grid, law, f_fn=f_fn, tol=1e-9, **kwargs)
    assert (rep.meta["u_factorizations"], rep.meta["v_factorizations"]) == factorizations
    assert (rep.meta["u_iterations"], rep.meta["v_iterations"]) == NEWTON_ITERATIONS[name]
