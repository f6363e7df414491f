import itertools
import math

import numpy as np
import pytest

from anisosym import (ScalarField, make_ball_grid, make_disk_grid,
                      make_interval_grid, make_p_laplacian, make_radial_grid,
                      make_square_grid, mass_functions_from_stack,
                      perimeter_factor, schwarz_rearrangement,
                      steiner_rearrangement)
from oracles import (StepData, distribution_function, hardy_littlewood_gap,
                     l1_field_distance, l1_profile_distance, polya_szego_gap,
                     zero_stack)


def sampled(field, s_grid):
    """The decreasing rearrangement of a field, sampled at the s-nodes."""
    return StepData.from_field(field).value_at(s_grid.s_nodes)


def mass_row(field, s_grid):
    """The library's mass function of one field, as a row of node values."""
    stack = zero_stack(field.grid, 1)
    stack.values[1] = field.values
    return mass_functions_from_stack(stack, s_grid)[1]


@pytest.fixture
def four_cells():
    grid = make_interval_grid(4.0, 4)
    return ScalarField(grid, np.array([3.0, 1.0, 2.0, 0.0]))


def test_distribution_function_counts_cells(four_cells):
    assert distribution_function(four_cells, 1.5) == pytest.approx(2.0)
    assert distribution_function(four_cells, 3.0) == 0.0      # strict inequality
    assert distribution_function(four_cells, 0.0) == pytest.approx(3.0)
    assert distribution_function(four_cells, -0.0) == pytest.approx(3.0)


def test_distribution_function_matches_brute_force():
    rng = np.random.default_rng(7)
    grid = make_interval_grid(1.0, 100)
    field = ScalarField(grid, rng.uniform(0, 5, 100))
    for t in field.values:
        brute = math.fsum(grid.cell_measure for v in field.values if v > t)
        assert distribution_function(field, t) == pytest.approx(brute, abs=1e-12)


def test_rearrangement_is_the_sorted_step_function(four_cells):
    s_grid = make_radial_grid(1, 4.0, 8)
    steps = StepData.from_field(four_cells)
    # steps: 3 on (0,1), 2 on (1,2), 1 on (2,3), 0 on (3,4)
    assert steps.value_at(0.5) == 3.0
    assert steps.value_at(1.5) == 2.0
    assert steps.value_at(2.5) == 1.0
    assert steps.value_at(3.5) == 0.0
    assert steps.value_at(1.0) == 2.0     # right continuity at the jump
    assert np.all(np.diff(steps.value_at(s_grid.s_nodes)) <= 0)


def test_constant_field_rearranges_to_constant():
    grid = make_interval_grid(2.0, 16)
    field = ScalarField(grid, np.full(16, 2.5))
    assert np.allclose(sampled(field, make_radial_grid(1, 2.0, 10))[:-1], 2.5)
    assert StepData.from_field(field).value_at(2.0) == 0.0     # beyond the total measure


def test_equimeasurability_is_exact_under_step_convention():
    rng = np.random.default_rng(3)
    grid = make_interval_grid(1.0, 64)
    for _ in range(50):
        field = ScalarField(grid, rng.uniform(0, 1, 64))
        steps = StepData.from_field(field)
        for t in field.values[::7]:
            assert steps.distribution(t) == distribution_function(field, t)


@pytest.mark.parametrize("q", [1, 2, 5])
def test_lq_norms_preserved(q):
    rng = np.random.default_rng(11)
    grid = make_interval_grid(1.0, 64)
    field = ScalarField(grid, rng.uniform(0, 3, 64))
    steps = StepData.from_field(field)
    lhs = steps.integral_power(q)
    rhs = float(np.sum(field.values ** q) * grid.cell_measure)
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_mass_function_values(four_cells):
    s_grid = make_radial_grid(1, 4.0, 4)      # nodes at 0,1,2,3,4
    U = mass_row(four_cells, s_grid)
    assert U[0] == 0.0
    assert U[2] == pytest.approx(5.0)  # 3 + 2 at s = 2
    assert U[-1] == pytest.approx(6.0)  # full integral of the field
    d2 = np.diff(U, 2)
    assert np.all(d2 <= 1e-12)                # concavity


def test_mass_function_constant_profile():
    grid = make_interval_grid(3.0, 12)
    s_grid = make_radial_grid(1, 3.0, 6)
    U = mass_row(ScalarField(grid, np.full(12, 2.0)), s_grid)
    assert np.allclose(U, 2.0 * s_grid.s_nodes)


def test_mass_function_total_matches_field_integral():
    rng = np.random.default_rng(5)
    grid = make_disk_grid(1.0, 24)
    field = ScalarField(grid, rng.uniform(0, 2, grid.num_cells))
    assert mass_row(field, make_radial_grid(2, grid.total_measure, 32))[-1] == pytest.approx(
        field.values.sum() * grid.cell_measure, rel=1e-10)


def test_schwarz_permutes_onto_symmetric_interval(four_cells):
    target = make_ball_grid(1, 4.0, 4)
    star = schwarz_rearrangement(four_cells, target)
    # values sorted by |x| must be the sorted values of the source
    order = np.argsort(np.abs(target.centers[:, 0]), kind="stable")
    assert np.array_equal(star.values[order], [3.0, 2.0, 1.0, 0.0])
    assert sorted(star.values) == sorted(four_cells.values)     # permutation


def test_schwarz_fixed_point_for_radial_field():
    grid = make_disk_grid(1.0, 32)
    r2 = (grid.centers ** 2).sum(axis=1)
    field = ScalarField(grid, np.exp(-2 * r2))
    star = schwarz_rearrangement(field, grid)
    assert np.allclose(star.values, field.values, atol=1e-14)


def test_translated_and_centered_bumps_share_a_profile():
    grid = make_interval_grid(1.0, 200)
    x = grid.centers[:, 0]
    a = ScalarField(grid, np.exp(-50 * (x - 0.3) ** 2))
    b = ScalarField(grid, np.exp(-50 * (x - 0.5) ** 2))
    s_grid = make_radial_grid(1, 1.0, 50)
    # same bump shape, so the rearrangements agree up to grid error
    assert np.max(np.abs(sampled(a, s_grid) - sampled(b, s_grid))) < 60.0 * grid.dx


def test_schwarz_rejects_measure_mismatch():
    grid = make_interval_grid(1.0, 8)
    target = make_ball_grid(1, 2.0, 8)
    with pytest.raises(ValueError, match="equal cell measures"):
        schwarz_rearrangement(ScalarField(grid, np.ones(8)), target)


def test_schwarz_rejects_a_slightly_larger_ball_of_as_many_cells():
    # A permutation onto cells 1.5 % larger would raise the integral by
    # exactly 1.5 %: the result would not be equimeasurable with the source.
    grid = make_square_grid(1.0, 32)
    target = make_ball_grid(2, 1.015, grid.num_cells)
    field = ScalarField(grid, np.random.default_rng(2).uniform(0, 1, grid.num_cells))
    with pytest.raises(ValueError, match="equal cell measures"):
        schwarz_rearrangement(field, target)
    stack = zero_stack(grid, 2)
    stack.values[1:-1] = field.values
    with pytest.raises(ValueError, match="equal cell measures"):
        steiner_rearrangement(stack, target)


def test_schwarz_rank_rejects_cell_count_mismatch():
    grid = make_interval_grid(1.0, 8)
    target = make_ball_grid(1, 1.0, 16)
    with pytest.raises(ValueError, match="equal cell counts"):
        schwarz_rearrangement(ScalarField(grid, np.ones(8)), target)


def test_rearrangement_rejects_negative_values():
    grid = make_interval_grid(1.0, 8)
    field = ScalarField(grid, np.linspace(-1, 1, 8))
    with pytest.raises(ValueError, match="nonnegative"):
        mass_row(field, make_radial_grid(1, 1.0, 8))


def test_order_preservation():
    rng = np.random.default_rng(17)
    grid = make_interval_grid(1.0, 48)
    s_grid = make_radial_grid(1, 1.0, 32)
    for _ in range(20):
        f = rng.uniform(0, 1, 48)
        g = f + rng.uniform(0, 1, 48)
        pf = sampled(ScalarField(grid, f), s_grid)
        pg = sampled(ScalarField(grid, g), s_grid)
        assert np.all(pf <= pg + 1e-15)


def test_l1_contraction():
    rng = np.random.default_rng(23)
    grid = make_interval_grid(1.0, 40)
    for _ in range(200):
        a = ScalarField(grid, rng.uniform(0, 2, 40))
        b = ScalarField(grid, rng.uniform(0, 2, 40))
        pa = StepData.from_field(a)
        pb = StepData.from_field(b)
        assert l1_profile_distance(pa, pb) <= l1_field_distance(a, b) + 1e-12


def test_steiner_rearranges_slice_wise():
    rng = np.random.default_rng(31)
    grid = make_interval_grid(1.0, 24)
    stack = zero_stack(grid, 4)
    stack.values[1:-1] = rng.uniform(0, 1, (4, 24))
    star = steiner_rearrangement(stack)
    assert star.grid.kind == "interval"
    for j in range(1, 5):
        for q in (1, 2):
            assert np.sum(star.values[j] ** q) == pytest.approx(
                np.sum(stack.values[j] ** q), rel=1e-12)
    const = zero_stack(grid, 3)
    const.values[1:-1] = 1.0
    out = steiner_rearrangement(const)
    assert np.allclose(out.values[1:-1], 1.0)


def test_hardy_littlewood_top_region_attains_zero(four_cells):
    assert hardy_littlewood_gap(four_cells, 2.0) == pytest.approx(0.0, abs=1e-12)


def test_hardy_littlewood_exhaustive_eight_cells():
    rng = np.random.default_rng(41)
    grid = make_interval_grid(8.0, 8)
    field = ScalarField(grid, rng.uniform(0, 1, 8))
    steps = StepData.from_field(field)
    # every one of the 2^8 subsets satisfies int_A u <= int_0^|A| u*
    for k in range(9):
        for idx in itertools.combinations(range(8), k):
            lhs = field.values[list(idx)].sum() * grid.cell_measure
            assert lhs <= steps.integral_to(k * grid.cell_measure) + 1e-12
        assert hardy_littlewood_gap(field, float(k)) >= -1e-12


def test_polya_szego_two_bump_gap_strictly_positive():
    # disconnected level sets carry a genuine isoperimetric deficit
    grid = make_disk_grid(1.0, 48)
    x = grid.centers
    nl = make_p_laplacian(2)
    cut = np.clip(1 - (x ** 2).sum(1), 0, None)
    two = ScalarField(grid, (np.exp(-14 * ((x[:, 0] - 0.4) ** 2 + x[:, 1] ** 2))
                             + np.exp(-14 * ((x[:, 0] + 0.4) ** 2 + x[:, 1] ** 2))) * cut)
    e_u, e_s, gap = polya_szego_gap(two, nl)
    assert gap > 1.0
    assert e_u > e_s > 0


def test_polya_szego_gap_within_dx_and_shrinking():
    # a translated bump rearranges to (nearly) itself: the continuum gap is
    # ~0 and the discrete deficiency must stay within O(dx) and shrink
    nl = make_p_laplacian(2)
    defic = []
    for m in (48, 96):
        grid = make_disk_grid(1.0, m)
        x = grid.centers
        field = ScalarField(grid, np.exp(-6 * ((x[:, 0] - 0.3) ** 2 + x[:, 1] ** 2))
                            * np.clip(1 - (x ** 2).sum(1), 0, None))
        gap = polya_szego_gap(field, nl)[2]
        assert gap >= -10.0 * grid.dx
        defic.append(max(0.0, -gap))
    assert defic[1] <= defic[0]


def test_gradient_identity_radial():
    # |grad u_ball|(x) = kappa(s) * (-du*/ds) at s = pi |x|^2 for u = 1 - |x|^2:
    # both sides equal 2|x|.  The s-grid is kept coarser than the lattice so
    # the profile slopes are resolved; the staircase tail is excluded.
    errs = []
    for m in (64, 128):
        grid = make_disk_grid(1.0, m)
        r2 = (grid.centers ** 2).sum(axis=1)
        field = ScalarField(grid, np.clip(1 - r2, 0, None))
        s_grid = make_radial_grid(2, grid.total_measure, 16)
        s_mid = 0.5 * (s_grid.s_nodes[1:] + s_grid.s_nodes[:-1])
        slope = -np.diff(sampled(field, s_grid)) / np.diff(s_grid.s_nodes)
        lhs = perimeter_factor(2, s_mid) * slope
        rhs = 2.0 * np.sqrt(s_mid / np.pi)
        keep = s_mid < 0.75 * grid.total_measure
        errs.append(np.max(np.abs(lhs - rhs)[keep]))
        assert errs[-1] < 10.0 * grid.dx
    assert errs[1] < errs[0]
