import itertools
import math

import numpy as np
import pytest

from anisosym import (ScalarField, decreasing_rearrangement,
                      distribution_function, hardy_littlewood_gap,
                      l1_field_distance, l1_profile_distance, make_ball_grid,
                      make_disk_grid, make_interval_grid, make_p_laplacian,
                      make_radial_grid, mass_function, perimeter_factor,
                      polya_szego_gap, schwarz_rearrangement,
                      steiner_rearrangement, zero_stack)
from anisosym.rearrange import StepData


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
    prof = decreasing_rearrangement(four_cells, s_grid)
    # steps: 3 on (0,1), 2 on (1,2), 1 on (2,3), 0 on (3,4)
    assert prof.steps.value_at(0.5) == 3.0
    assert prof.steps.value_at(1.5) == 2.0
    assert prof.steps.value_at(2.5) == 1.0
    assert prof.steps.value_at(3.5) == 0.0
    assert prof.steps.value_at(1.0) == 2.0     # right continuity at the jump
    assert np.all(np.diff(prof.values) <= 0)


def test_constant_field_rearranges_to_constant():
    grid = make_interval_grid(2.0, 16)
    prof = decreasing_rearrangement(ScalarField(grid, np.full(16, 2.5)),
                                    make_radial_grid(1, 2.0, 10))
    assert np.allclose(prof.values[:-1], 2.5)
    assert prof.steps.value_at(2.0) == 0.0     # beyond the total measure


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
    prof = decreasing_rearrangement(four_cells, s_grid)
    U = mass_function(prof)
    assert U.values[0] == 0.0
    assert U.at(2.0) == pytest.approx(5.0)    # 3 + 2
    assert U.total == pytest.approx(6.0)      # full integral of the field
    d2 = np.diff(U.values, 2)
    assert np.all(d2 <= 1e-12)                # concavity


def test_mass_function_constant_profile():
    grid = make_interval_grid(3.0, 12)
    prof = decreasing_rearrangement(ScalarField(grid, np.full(12, 2.0)),
                                    make_radial_grid(1, 3.0, 6))
    U = mass_function(prof)
    assert np.allclose(U.values, 2.0 * U.s_grid.s_nodes)


def test_mass_function_total_matches_field_integral():
    rng = np.random.default_rng(5)
    grid = make_disk_grid(1.0, 24)
    field = ScalarField(grid, rng.uniform(0, 2, grid.num_cells))
    prof = decreasing_rearrangement(field, make_radial_grid(2, grid.total_measure, 32))
    assert mass_function(prof).total == pytest.approx(field.integral(), rel=1e-10)


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
    pa = decreasing_rearrangement(a, s_grid)
    pb = decreasing_rearrangement(b, s_grid)
    # same bump shape, so the rearrangements agree up to grid error
    assert np.max(np.abs(pa.values - pb.values)) < 60.0 * grid.dx


def test_schwarz_rejects_measure_mismatch():
    grid = make_interval_grid(1.0, 8)
    target = make_ball_grid(1, 2.0, 8)
    with pytest.raises(ValueError, match="2%"):
        schwarz_rearrangement(ScalarField(grid, np.ones(8)), target)


def test_rearrangement_rejects_negative_values():
    grid = make_interval_grid(1.0, 8)
    field = ScalarField(grid, np.linspace(-1, 1, 8))
    with pytest.raises(ValueError, match="nonnegative"):
        decreasing_rearrangement(field, make_radial_grid(1, 1.0, 8))


def test_order_preservation():
    rng = np.random.default_rng(17)
    grid = make_interval_grid(1.0, 48)
    s_grid = make_radial_grid(1, 1.0, 32)
    for _ in range(20):
        f = rng.uniform(0, 1, 48)
        g = f + rng.uniform(0, 1, 48)
        pf = decreasing_rearrangement(ScalarField(grid, f), s_grid)
        pg = decreasing_rearrangement(ScalarField(grid, g), s_grid)
        assert np.all(pf.values <= pg.values + 1e-15)


def test_l1_contraction():
    rng = np.random.default_rng(23)
    grid = make_interval_grid(1.0, 40)
    s_grid = make_radial_grid(1, 1.0, 16)
    for _ in range(200):
        a = ScalarField(grid, rng.uniform(0, 2, 40))
        b = ScalarField(grid, rng.uniform(0, 2, 40))
        pa = decreasing_rearrangement(a, s_grid)
        pb = decreasing_rearrangement(b, s_grid)
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
        prof = decreasing_rearrangement(field, s_grid)
        s_mid = 0.5 * (s_grid.s_nodes[1:] + s_grid.s_nodes[:-1])
        slope = -np.diff(prof.values) / np.diff(s_grid.s_nodes)
        lhs = perimeter_factor(2, s_mid) * slope
        rhs = 2.0 * np.sqrt(s_mid / np.pi)
        keep = s_mid < 0.75 * grid.total_measure
        errs.append(np.max(np.abs(lhs - rhs)[keep]))
        assert errs[-1] < 10.0 * grid.dx
    assert errs[1] < errs[0]
