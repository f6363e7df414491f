import numpy as np
import pytest

from anisosym import (MassOperator, epsilon_tau_sweep, make_disk_grid,
                      h_refinement_study, make_ball_grid, make_interval_grid,
                      make_p_laplacian, make_radial_grid, make_square_grid,
                      mass_functions_from_stack, moreau_yosida, mollify_stack,
                      sample_slices, steiner_rearrangement, subsolution_slack,
                      verify_lq_consequence, verify_mass_comparison)
from oracles import dense_mollify, zero_stack


def bump(c, y):
    return np.exp(-60 * (c[:, 0] - 0.3) ** 2) * (1 + 0.5 * np.sin(np.pi * y))


def pipeline_slack(u_stack, f_stack, law, s_grid):
    """Subsolution slack of a solved stack and its data, as ``star-check`` computes it."""
    return subsolution_slack(mass_functions_from_stack(u_stack, s_grid),
                             mass_functions_from_stack(f_stack, s_grid)[1:-1],
                             MassOperator(s_grid, law), f_stack.h)


def test_symmetric_data_is_a_fixed_point():
    # On a centered interval with symmetric-decreasing data the original and
    # symmetrized problems coincide, so the masses agree to solver precision.
    g = make_ball_grid(1, 1.0, 64)
    rep = verify_mass_comparison(g, make_p_laplacian(2),
                                 f_fn=lambda c, y: np.exp(-8 * c[:, 0] ** 2), N=5, M=32)
    assert rep.passed
    assert np.max(np.abs(rep.gap)) < 1e-10
    assert np.max(np.abs(rep.u_stack.values - rep.v_stack.values)) < 1e-10


def test_zero_data_gives_zero_masses():
    g = make_interval_grid(1.0, 16)
    rep = verify_mass_comparison(g, make_p_laplacian(2),
                                 f_fn=lambda c, y: np.zeros(c.shape[0]), N=3, M=16)
    assert rep.passed
    assert np.all(rep.U == 0.0) and np.all(rep.V == 0.0)


def test_shifted_bump_p3_passes_with_small_gap():
    g = make_interval_grid(1.0, 64)
    rep = verify_mass_comparison(g, make_p_laplacian(3), f_fn=bump, N=7, M=64)
    assert rep.passed
    assert rep.worst_gap >= -1e-3
    assert rep.mutual_gap < 1e-3            # both V routes agree
    assert rep.meta["law"].startswith("moreau_yosida")


def test_lq_consequence():
    g = make_interval_grid(1.0, 64)
    rep = verify_mass_comparison(g, make_p_laplacian(3), f_fn=bump, N=7, M=64)
    for q in (1.0, 2.0, 5.0):
        lhs, rhs = verify_lq_consequence(rep, q)
        assert lhs <= rhs + rep.slack_budget
    with pytest.raises(ValueError):
        verify_lq_consequence(rep, 0.5)


def test_lq_equality_for_symmetric_case():
    g = make_ball_grid(1, 1.0, 48)
    rep = verify_mass_comparison(g, make_p_laplacian(2),
                                 f_fn=lambda c, y: np.exp(-8 * c[:, 0] ** 2), N=3, M=24)
    lhs, rhs = verify_lq_consequence(rep, 2.0)
    assert lhs == pytest.approx(rhs, rel=1e-9)


def test_gap_columns_exclude_trivial_origin():
    g = make_interval_grid(1.0, 32)
    rep = verify_mass_comparison(g, make_p_laplacian(2), f_fn=bump, N=3, M=16)
    assert rep.s_nodes[0] > 0.0
    assert rep.U.shape == (3, 16)


def test_report_csv_and_json(tmp_path):
    g = make_interval_grid(1.0, 32)
    rep = verify_mass_comparison(g, make_p_laplacian(2), f_fn=bump, N=3, M=16)
    path = tmp_path / "comparison.csv"
    rep.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "j,s,U,V,gap"
    assert len(lines) == 1 + 3 * 16
    payload = rep.to_dict()
    assert payload["passed"] is True
    assert "slack_budget" in payload and "timings" in payload
    # Interval stacks solve by LU: no CG iterations, and no fallback taken.
    for key in ("u_cg_iterations", "v_cg_iterations", "u_fallbacks", "v_fallbacks"):
        assert payload["meta"][key] == 0
    # ... but one LU of the whole Hessian per linear solve, the warm start's included.
    for key in ("u_factorizations", "v_factorizations"):
        assert payload["meta"][key] >= 1
    # The mass-ODE solve records its sweeps, the Newton steps between them and
    # the Newton corrections inside its resolvents.
    assert payload["meta"]["ode_sweeps"] >= 1
    assert 0 <= payload["meta"]["ode_newton_steps"] < payload["meta"]["ode_sweeps"]
    assert payload["meta"]["ode_resolvent_steps"] >= 0
    # The ball of a 32-cell interval is the centered interval of 32 cells.
    assert payload["meta"]["ball_cells"] == 32
    assert payload["meta"]["ball_measure"] == pytest.approx(1.0, rel=1e-14)


def square_bump(c, y):
    d2 = (c[:, 0] - 0.85) ** 2 + (c[:, 1] - 0.5) ** 2
    return np.exp(-8 * d2) * (1 + 0.5 * np.sin(np.pi * y))


@pytest.mark.parametrize("k", [12, 13])
def test_square_symmetrizes_onto_ball_of_its_own_cells(tmp_path, k):
    g = make_square_grid(1.0, k)
    rep = verify_mass_comparison(g, make_p_laplacian(3), f_fn=square_bump, N=3, M=16)
    assert rep.passed
    ball = rep.v_stack.grid
    assert ball.kind == "disk" and ball.num_cells == k * k
    assert ball.total_measure == pytest.approx(g.total_measure, rel=1e-14)
    assert rep.meta["ball_cells"] == k * k
    assert np.all(np.abs(ball.centers.mean(axis=0)) < ball.dx)
    # Each rearranged slice is a permutation of the square's slice.
    f = sample_slices(g, 3, square_bump)
    f_star = steiner_rearrangement(f, ball)
    assert np.array_equal(np.sort(f_star.values, axis=1), np.sort(f.values, axis=1))
    if k % 2 == 0:
        # Whole rotation orbits only: the quarter turn maps the ball onto itself.
        odd = {tuple(p) for p in np.rint(2 * ball.centers / ball.dx).astype(int)}
        assert {(-y, x) for x, y in odd} == odd
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    rep.write_csv(paths[0])
    verify_mass_comparison(g, make_p_laplacian(3), f_fn=square_bump, N=3,
                           M=16).write_csv(paths[1])
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_epsilon_tau_sweep_monotone_energy_and_cauchy():
    g = make_interval_grid(1.0, 48)
    rep = epsilon_tau_sweep(g, make_p_laplacian(3), bump,
                            eps_list=(1e-2, 1e-3, 1e-4), tau_list=(1e-4,),
                            N=5, M=32)
    assert rep.passed, rep.checks
    eps_seen = [pt["eps"] for pt in rep.points]
    assert eps_seen == sorted(eps_seen, reverse=True)
    energies = [pt["energy"] for pt in rep.points]
    assert all(b >= a - 1e-10 for a, b in zip(energies, energies[1:]))


def test_epsilon_tau_sweep_quadratic_base_closed_form():
    # A(t) = t^2 gives A_eps = t^2/(1+2 eps): the sweep runs the regularized
    # law even for p = 2 and every point passes the comparison.
    g = make_interval_grid(1.0, 48)
    rep = epsilon_tau_sweep(g, make_p_laplacian(2), bump,
                            eps_list=(1e-2, 1e-3), tau_list=(1e-4,), N=3, M=24)
    assert rep.passed
    for eps in (1e-2, 1e-3):
        reg = moreau_yosida(make_p_laplacian(2), eps, 1e-4)
        ts = np.linspace(0, 3, 20)
        assert np.allclose(reg.envelope(ts), ts ** 2 / (1 + 2 * eps), rtol=1e-8, atol=1e-12)


def test_sweep_records_failures_without_raising():
    g = make_interval_grid(1.0, 24)

    def evil(c, y):
        return np.full(c.shape[0], -1.0)        # negative data: pipeline rejects

    rep = epsilon_tau_sweep(g, make_p_laplacian(2), evil,
                            eps_list=(1e-2,), tau_list=(1e-4,), N=3, M=16)
    assert not rep.passed
    assert rep.points[0]["error"] is not None


def test_h_refinement_self_convergence():
    g = make_interval_grid(1.0, 32)
    rep = h_refinement_study(g, make_p_laplacian(2), bump, N_list=(3, 7, 15), M=32)
    assert rep.passed, rep.checks
    diffs = [pt["l1_diff_to_next"] for pt in rep.points if pt["l1_diff_to_next"] is not None]
    assert diffs[1] < diffs[0]
    h1 = [pt["h1_norm"] for pt in rep.points]
    assert max(h1) <= 2.0 * min(h1)


def test_h_refinement_requires_increasing_N():
    g = make_interval_grid(1.0, 16)
    with pytest.raises(ValueError):
        h_refinement_study(g, make_p_laplacian(2), bump, N_list=(7, 3), M=16)


def test_subsolution_slack_from_pipeline():
    # the data masses dominate the operator terms up to discretization error;
    # the s-grid stays coarser than the cells so profile kinks average out
    g = make_interval_grid(1.0, 64)
    N, M = 7, 32
    rep = verify_mass_comparison(g, make_p_laplacian(3), f_fn=bump, N=N, M=M)
    f_stack = sample_slices(g, N, bump)
    law = moreau_yosida(make_p_laplacian(3), 1e-6, 1e-6)
    s_grid = make_radial_grid(1, g.total_measure, M)
    slack = pipeline_slack(rep.u_stack, f_stack, law, s_grid)
    assert slack.min() >= -1e-3


def test_subsolution_slack_shrinks_under_refinement():
    worst = []
    for m, N, M in ((64, 7, 32), (128, 15, 64)):
        g = make_interval_grid(1.0, m)
        rep = verify_mass_comparison(g, make_p_laplacian(3), f_fn=bump, N=N, M=M)
        f_stack = sample_slices(g, N, bump)
        law = moreau_yosida(make_p_laplacian(3), 1e-6, 1e-6)
        s_grid = make_radial_grid(1, g.total_measure, M)
        slack = pipeline_slack(rep.u_stack, f_stack, law, s_grid)
        worst.append(max(0.0, -float(slack.min())))
    assert worst[1] <= worst[0]


def test_resolvent_comparison_chain():
    # (h^2/2)(L U_j - L V_j) + (U_j - V_j) <= (U_{j+1}-V_{j+1})/2 + (U_{j-1}-V_{j-1})/2
    # holds nodewise within the discretization slack of the subsolution side.
    g = make_interval_grid(1.0, 64)
    N, M = 7, 32
    rep = verify_mass_comparison(g, make_p_laplacian(2), f_fn=bump, N=N, M=M)
    law = make_p_laplacian(2)
    s_grid = make_radial_grid(1, g.total_measure, M)
    op = MassOperator(s_grid, law)
    U = mass_functions_from_stack(rep.u_stack, s_grid)
    V = mass_functions_from_stack(rep.v_stack, s_grid)
    h = rep.u_stack.h
    lam = h ** 2 / 2.0
    worst = -np.inf
    for j in range(1, N + 1):
        LU = op.apply(U[j], check_concavity=False)
        LV = op.apply(V[j], check_concavity=False)
        lhs = lam * (LU - LV) + (U[j][1:] - V[j][1:])
        rhs = 0.5 * (U[j + 1][1:] - V[j + 1][1:]) \
            + 0.5 * (U[j - 1][1:] - V[j - 1][1:])
        worst = max(worst, float(np.max(lhs - rhs)))
    ds = float(np.max(s_grid.spacings))
    assert worst <= 10.0 * (g.dx + ds) * rep.u_stack.h ** 2


def test_mutual_gap_shrinks_under_refinement():
    # V from rearranging the symmetrized solve vs V from the rearranged ODE
    # system: the two characterizations approach each other.
    gaps = []
    for m, N, M in ((32, 3, 24), (64, 7, 48)):
        g = make_interval_grid(1.0, m)
        rep = verify_mass_comparison(g, make_p_laplacian(2), f_fn=bump, N=N, M=M)
        gaps.append(rep.mutual_gap)
    assert gaps[1] < gaps[0]


def test_data_monotonicity_transfers_to_masses():
    # f <= g slice-wise orders the solutions, hence (rearrangement order
    # preservation) the slice mass functions.
    g = make_interval_grid(1.0, 48)
    small = lambda c, y: np.exp(-40 * (c[:, 0] - 0.4) ** 2)
    big = lambda c, y: np.exp(-40 * (c[:, 0] - 0.4) ** 2) + 0.4 * np.sin(np.pi * c[:, 0])
    r_small = verify_mass_comparison(g, make_p_laplacian(2), f_fn=small, N=5, M=24)
    r_big = verify_mass_comparison(g, make_p_laplacian(2), f_fn=big, N=5, M=24)
    assert np.all(r_small.U <= r_big.U + 1e-10)


def test_mollify_preserves_sign_and_smooths():
    g = make_interval_grid(1.0, 64)
    st = zero_stack(g, 5)
    st.values[3, 30] = 1.0                     # a spike
    sm = mollify_stack(st, 0.05)
    assert sm.values.min() >= 0.0
    assert sm.values[3].max() < 0.5            # spread out
    assert sm.values[2].max() > 0.0            # reaches neighbor slices
    back = mollify_stack(st, 0.0)
    assert back is st


@pytest.mark.parametrize("grid", [make_interval_grid(1.0, 40, centered=True),
                                  make_square_grid(1.0, 12), make_disk_grid(1.0, 16)],
                         ids=["interval", "square", "disk"])
def test_separable_mollify_matches_the_dense_kernel(grid):
    rng = np.random.default_rng(31)
    st = zero_stack(grid, 5)
    st.values[1:-1] = rng.uniform(0.0, 1.0, (5, grid.num_cells))
    for delta in (0.04, 0.15):
        sm, ref = mollify_stack(st, delta), dense_mollify(st, delta)
        assert np.abs(sm.values - ref.values).max() <= 1e-13 * np.abs(ref.values).max()


def test_requires_exactly_one_data_source():
    g = make_interval_grid(1.0, 16)
    with pytest.raises(TypeError, match="f_fn"):
        verify_mass_comparison(g, make_p_laplacian(2), N=3, M=16)


def test_sweep_points_are_deterministic():
    g = make_interval_grid(1.0, 32)
    kw = dict(eps_list=(1e-2, 1e-3), tau_list=(1e-4,), N=3, M=16)
    first = epsilon_tau_sweep(g, make_p_laplacian(2), bump, **kw)
    second = epsilon_tau_sweep(g, make_p_laplacian(2), bump, **kw)
    assert first.passed and second.passed
    assert len(first.points) == 2
    assert first.points == second.points
