import numpy as np
import pytest

from anisosym import (SliceStack, cell_gradients, make_ball_grid, make_disk_grid,
                      make_interval_grid, make_radial_grid, make_square_grid,
                      perimeter_factor, sample_slices, symmetrized_grid)
from oracles import stencil_gradients, zero_stack


def test_interval_grid_uniform_cells():
    g = make_interval_grid(1.0, 10)
    assert g.num_cells == 10
    assert g.cell_measure == pytest.approx(0.1, rel=1e-15)
    assert g.total_measure == pytest.approx(1.0, rel=1e-15)


def test_interval_grid_additivity_and_pi():
    assert make_interval_grid(2.0, 4).total_measure == pytest.approx(2.0, rel=1e-15)
    g = make_interval_grid(np.pi, 100)
    assert g.total_measure == pytest.approx(np.pi, rel=1e-12)


def test_interval_grid_rejects_few_cells():
    with pytest.raises(ValueError):
        make_interval_grid(1.0, 3)


def test_interval_neighbors_and_boundary():
    g = make_interval_grid(1.0, 6)
    minus, plus = g.neighbors[0]
    assert minus[0] == -1 and plus[-1] == -1
    assert plus[0] == 1 and minus[-1] == 4
    # Rows 0-5 step toward +x and rows 6-11 toward -x.  Only the two rows
    # that meet the wall hold a single entry, the cell's own, at 2/dx.
    D = g.difference_operator()
    assert np.flatnonzero(np.diff(D.indptr) == 1).tolist() == [5, 6]
    assert D[5, 5] == -2.0 / g.dx and D[6, 0] == 2.0 / g.dx
    assert D[2, 2] == -1.0 / g.dx and D[2, 3] == 1.0 / g.dx
    assert D[8, 2] == 1.0 / g.dx and D[8, 1] == -1.0 / g.dx


def test_disk_grid_measure_converges():
    g = make_disk_grid(1.0, 256)
    assert abs(g.total_measure - np.pi) < 0.02 * np.pi
    coarse = abs(make_disk_grid(1.0, 64).total_measure - np.pi)
    fine = abs(make_disk_grid(1.0, 128).total_measure - np.pi)
    assert fine < coarse
    g = make_disk_grid(0.5, 256)
    assert abs(g.total_measure - np.pi / 4) < 0.02 * np.pi / 4


def test_disk_grid_rejects_degenerate():
    with pytest.raises(ValueError):
        make_disk_grid(0.0, 64)
    with pytest.raises(ValueError):
        make_disk_grid(1.0, 4)


def test_disk_interior_cells_have_full_stencils():
    # A cell centred within radius - 1.5 dx has its four neighbours' centres
    # within radius - dx/2, inside the disk.
    g = make_disk_grid(1.0, 32)
    interior = np.sqrt((g.centers ** 2).sum(axis=1)) < 1.0 - 1.5 * g.dx
    assert 0.75 * g.num_cells < np.count_nonzero(interior) < g.num_cells
    for minus, plus in g.neighbors:
        assert np.all(minus[interior] >= 0)
        assert np.all(plus[interior] >= 0)


DIFFERENCE_GRIDS = {"interval": lambda: make_interval_grid(1.3, 10),
                    "square": lambda: make_square_grid(1.3, 6),
                    "disk": lambda: make_disk_grid(1.0, 12),
                    "ball": lambda: make_ball_grid(2, 1.3, 40)}


@pytest.mark.parametrize("kind", sorted(DIFFERENCE_GRIDS))
def test_difference_operator_is_the_stencil_loop(kind):
    # Row (q n + k) m + i of D is the loop's component k at cell i in
    # orientation q, read off the unit vectors; wall rows included.
    g = DIFFERENCE_GRIDS[kind]()
    m = g.num_cells
    D = g.difference_operator()
    assert D is g.difference_operator() and D.shape == (2 ** g.n * g.n * m, m)
    loop = stencil_gradients(g, np.eye(m))                 # [q, unknown, cell, k]
    assert np.array_equal(D.toarray(), loop.transpose(0, 3, 2, 1).reshape(-1, m))
    assert np.any(np.diff(D.indptr) == 1)                  # the grid meets the wall


@pytest.mark.parametrize("grid", [make_interval_grid(1.0, 64), make_square_grid(1.0, 32),
                                  make_ball_grid(2, 1.0, 1024)],
                         ids=["interval", "square", "ball"])
def test_sampled_gradients_are_bitwise_the_stencil_loop(grid):
    # With dx a power of two, D's entries scale exactly, so D @ z rounds
    # like the loop's scale * (u[other] - u).
    z = np.random.default_rng(3).uniform(-1.0, 1.0, (3, grid.num_cells))
    assert np.array_equal(cell_gradients(grid, z), stencil_gradients(grid, z))
    assert np.array_equal(cell_gradients(grid, z[1]), stencil_gradients(grid, z[1]))


def test_perimeter_factor_values():
    assert perimeter_factor(1, 0.7) == pytest.approx(2.0)
    assert perimeter_factor(2, np.pi) == pytest.approx(2.0 * np.pi)
    assert perimeter_factor(2, 0.0) == 0.0
    with pytest.raises(ValueError):
        perimeter_factor(3, 1.0)
    with pytest.raises(ValueError):
        perimeter_factor(2, -1.0)


def test_perimeter_consistency_on_disk():
    # kappa_2(measure of the sub-disk of radius r) approximates 2 pi r.
    g = make_disk_grid(1.0, 128)
    r = np.sqrt((g.centers ** 2).sum(axis=1))
    for rad in (0.3, 0.5, 0.8):
        s = np.count_nonzero(r <= rad) * g.cell_measure
        assert abs(perimeter_factor(2, s) - 2 * np.pi * rad) < 6.0 * g.dx


def test_square_grid():
    g = make_square_grid(2.0, 8)
    assert g.num_cells == 64
    assert g.total_measure == pytest.approx(4.0, rel=1e-12)


def test_ball_grid_measures():
    g1 = make_ball_grid(1, 3.0, 12)
    assert g1.total_measure == pytest.approx(3.0, rel=1e-12)
    assert abs(g1.centers.mean()) < 1e-12
    g2 = make_ball_grid(2, np.pi, 64)
    assert g2.num_cells == 64
    assert g2.total_measure == pytest.approx(np.pi, rel=1e-12)


def test_symmetrized_grid_identity_for_disk():
    g = make_disk_grid(1.0, 32)
    assert symmetrized_grid(g) is g


def test_radial_grid_uniform_and_graded():
    rg = make_radial_grid(1, 2.0, 10)
    assert rg.s_nodes[0] == 0.0 and rg.s_nodes[-1] == pytest.approx(2.0)
    assert np.allclose(np.diff(rg.s_nodes), 0.2)
    rg = make_radial_grid(2, 1.0, 10, grading="sqrt")
    ds = np.diff(rg.s_nodes)
    assert ds[0] < ds[-1]
    assert np.all(np.diff(rg.kappa) >= 0)       # kappa non-decreasing
    with pytest.raises(ValueError):
        make_radial_grid(1, 1.0, 10, grading="cubic")


def test_radial_grid_auto_grading():
    for n, grading in ((1, "uniform"), (2, "sqrt")):
        auto = make_radial_grid(n, 2.0, 10, "auto")
        assert np.array_equal(auto.s_nodes, make_radial_grid(n, 2.0, 10, grading).s_nodes)


def test_slice_stack_h_exact():
    g = make_interval_grid(1.0, 8)
    for N in (1, 2, 6, 48):
        st = zero_stack(g, N)
        assert (N + 1) * st.h == pytest.approx(1.0, rel=1e-15)
        assert st.num_interior == N


def test_slice_stack_boundary_must_vanish():
    g = make_interval_grid(1.0, 8)
    vals = np.ones((5, 8))
    with pytest.raises(ValueError):
        SliceStack(g, vals)


def test_second_difference_of_linear_stack_is_zero():
    g = make_interval_grid(1.0, 8)
    N = 9
    vals = np.zeros((N + 2, 8))
    base = np.arange(8, dtype=float)
    for j in range(1, N + 1):
        vals[j] = j * base
    vals[-1] = 0.0
    # interior second differences along j of a linear-in-j stack vanish
    d2 = vals[:-2] - 2 * vals[1:-1] + vals[2:]
    assert np.all(d2[1:-1] == 0.0)


def test_sample_slices_places_data():
    g = make_interval_grid(1.0, 8)
    st = sample_slices(g, 3, lambda c, y: np.full(c.shape[0], y))
    assert np.allclose(st.values[2], 2 / 4)
    assert np.all(st.values[0] == 0) and np.all(st.values[-1] == 0)
