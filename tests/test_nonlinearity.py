import numpy as np
import pytest

from anisosym import (Nonlinearity, RegularizedNonlinearity, from_beta_table,
                      hypothesis_samples, make_p_laplacian, moreau_yosida,
                      shifted_p, validate_hypotheses)
from anisosym import nonlinearity
from anisosym.nonlinearity import _MY_NODES, TINY_T
from oracles import flux, interp_table_law


def test_p_laplacian_prototype_values():
    nl = make_p_laplacian(2)
    assert nl.beta(3.0) == pytest.approx(3.0)
    assert nl.A(3.0) == pytest.approx(9.0)
    assert nl.B(3.0) == pytest.approx(4.5)
    nl = make_p_laplacian(3)
    assert nl.beta(2.0) == pytest.approx(4.0)
    assert nl.A(2.0) == pytest.approx(8.0)
    assert nl.B(2.0) == pytest.approx(8.0 / 3.0)
    nl = make_p_laplacian(1.5)
    assert nl.beta(0.0) == 0.0
    assert nl.A(0.0) == 0.0


def test_p_laplacian_rejects_bad_exponent():
    with pytest.raises(ValueError):
        make_p_laplacian(1.0)
    with pytest.raises(ValueError):
        make_p_laplacian(0.5)


def test_p_laplacian_metadata():
    for p in (1.5, 2, 3):
        nl = make_p_laplacian(p)
        assert nl.C1 == 1.0 and nl.C2 == 1.0
        assert (nl.smooth_eps is not None) == (p == 2)


@pytest.mark.parametrize("p", [1.5, 2, 3, 4])
def test_prototype_passes_hypotheses(p):
    report = validate_hypotheses(make_p_laplacian(p))
    assert report.passed, [c.name for c in report.checks if not c.passed]


def test_decreasing_beta_fails_monotonicity():
    nl = Nonlinearity("bad", 2.0, beta=lambda t: -np.asarray(t, float),
                      antideriv=lambda t: -np.asarray(t, float) ** 2 / 2)
    report = validate_hypotheses(nl)
    assert not report["beta-nondecreasing"].passed
    assert report["beta-nondecreasing"].first_violation is not None


def test_sqrt_A_fails_lower_growth_and_matches_brute_scan():
    # A(t) = sqrt(t) with claimed p = 2 must fail C1 (t^p - 1) <= A(t) at
    # large t; the brute-force scan over the documented sample set is the
    # oracle for the first violating sample.
    nl = Nonlinearity("sqrt", 2.0,
                      beta=lambda t: np.maximum(np.asarray(t, float), 1e-300) ** -0.5,
                      antideriv=lambda t: 2.0 * np.sqrt(np.asarray(t, float)))
    report = validate_hypotheses(nl)
    check = report["growth-lower"]
    assert not check.passed
    ts = hypothesis_samples()
    brute = next(t for t in ts if np.sqrt(t) < t ** 2 - 1.0)
    assert check.first_violation == pytest.approx(brute)


def test_slope_band_detects_violation():
    nl = Nonlinearity("steep", 2.0,
                      beta=lambda t: np.asarray(t, float) ** 3,
                      antideriv=lambda t: np.asarray(t, float) ** 4 / 4,
                      smooth_eps=0.5)
    report = validate_hypotheses(nl)
    assert not report["slope-band"].passed


def test_B_prime_matches_beta_by_finite_differences():
    for nl in (make_p_laplacian(2), make_p_laplacian(3), shifted_p(2.5, 0.1)):
        ts = np.geomspace(1e-2, 50.0, 40)
        d = 1e-6 * ts
        fd = (nl.B(ts + d) - nl.B(ts - d)) / (2 * d)
        assert np.max(np.abs(fd - nl.beta(ts)) / nl.beta(ts)) < 1e-6


def test_cached_antiderivative_matches_closed_form():
    # beta = t^2 tabulated on a 16,385-node log grid; B is exact for the table
    grid = np.concatenate([[0.0], np.geomspace(1e-8, 1e6, 16384)])
    B = from_beta_table(np.column_stack([grid, grid ** 2]), p=3.0).B
    ts = np.geomspace(1e-3, 100.0, 50)
    assert np.max(np.abs(B(ts) - ts ** 3 / 3) / (ts ** 3 / 3)) < 1e-5
    # its finite differences recover beta to the interpolation error
    d = 1e-7 * ts
    fd = (B(ts + d) - B(ts - d)) / (2 * d)
    assert np.max(np.abs(fd - ts ** 2) / ts ** 2) < 1e-6


def test_beta_table_roundtrip():
    ts = np.linspace(0, 10, 2001)
    table = np.column_stack([ts, ts])          # beta(t) = t, the p = 2 law
    nl = from_beta_table(table, p=2.0)
    assert nl.beta(3.3) == pytest.approx(3.3)
    assert nl.B(3.3) == pytest.approx(3.3 ** 2 / 2, rel=1e-8)
    assert nl.smooth_eps is not None
    assert validate_hypotheses(nl).passed
    # beyond the table: linear continuation
    assert nl.beta(20.0) == pytest.approx(20.0)


def test_beta_table_continues_past_last_node():
    # slopes 1 and 2; past t = 2, beta = 3 + 2 d and B = 2.5 + 3 d + d^2
    nl = from_beta_table(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 3.0]]))
    d = np.array([0.0, 0.5, 1.0, 10.0])
    assert np.allclose(nl.beta(2.0 + d), 3.0 + 2.0 * d, rtol=1e-14, atol=0)
    assert np.allclose(nl.B(2.0 + d), 2.5 + 3.0 * d + d ** 2, rtol=1e-14, atol=0)
    assert np.all(nl.dbeta(2.0 + d) == 2.0)
    assert np.all(nl.dbeta(np.array([0.0, 0.5])) == 1.0)


def test_beta_table_input_validation():
    with pytest.raises(ValueError):
        from_beta_table(np.array([[0.5, 0.5], [1.0, 1.0]]))   # first row not 0 0
    with pytest.raises(ValueError):
        from_beta_table(np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 2.0]]))


# ---------------------------------------------------------------------------
# Moreau-Yosida regularization
# ---------------------------------------------------------------------------

def test_quadratic_envelope_closed_form():
    # A(t) = t^2: the envelope is t^2/(1 + 2 eps) with prox point t/(1+2eps).
    nl = make_p_laplacian(2)
    reg = moreau_yosida(nl, eps=1.0)
    ts = np.linspace(0.0, 5.0, 41)
    P, val = reg.prox(ts)
    assert np.allclose(val, ts ** 2 / 3.0, rtol=1e-8, atol=1e-12)
    assert np.allclose(P, ts / 3.0, rtol=1e-6, atol=1e-8)
    for eps in (1.0, 0.1, 0.01):
        reg = moreau_yosida(nl, eps=eps)
        assert np.allclose(reg.envelope(ts), ts ** 2 / (1 + 2 * eps), rtol=1e-8, atol=1e-12)


def test_envelope_vanishes_at_zero():
    for p in (1.5, 2, 3):
        reg = moreau_yosida(make_p_laplacian(p), eps=0.3)
        assert reg.envelope(0.0) == pytest.approx(0.0, abs=1e-14)


def test_envelope_sandwich_and_monotone_in_eps():
    nl = make_p_laplacian(3)
    ts = np.linspace(0.0, 2.0, 64)
    gaps = []
    prev = None
    for eps in (1.0, 0.1, 0.01):
        reg = moreau_yosida(nl, eps=eps)
        P, val = reg.prox(ts)
        assert np.all(nl.A(P) <= val + 1e-12)
        assert np.all(val <= nl.A(ts) + 1e-12)
        if prev is not None:
            assert np.all(val >= prev - 1e-12)      # grows as eps shrinks
        prev = val
        gaps.append(np.max(nl.A(ts) - val))
    assert gaps[0] > gaps[1] > gaps[2]              # gap closing toward A
    # first-order envelope bound: A - A_eps <= eps * max(A')^2 / 2
    assert gaps[2] <= 0.01 * (3 * 2.0 ** 2) ** 2 / 2 + 1e-9


@pytest.mark.parametrize("eps,tau", [(1e-6, 1e-6), (1e-2, 1e-3), (0.1, 0.0)])
def test_moreau_yosida_is_a_nonlinearity_with_own_smooth_eps(eps, tau):
    reg = moreau_yosida(make_p_laplacian(1.5), eps, tau)
    assert isinstance(reg, Nonlinearity) and isinstance(reg, RegularizedNonlinearity)
    assert (reg.eps, reg.tau) == (eps, tau)
    expected = min(tau, 1.0 / (1.0 / eps + tau)) if tau > 0 else None
    assert reg.smooth_eps == expected


def test_regularized_law_has_slope_band():
    reg = moreau_yosida(make_p_laplacian(3), eps=1e-2, tau=1e-3)
    assert reg.smooth_eps is not None
    report = validate_hypotheses(reg)
    assert report["slope-band"].passed
    assert report["beta-nondecreasing"].passed


def test_regularized_B_consistent_with_beta():
    reg = moreau_yosida(make_p_laplacian(1.5), eps=1e-6, tau=1e-6)
    ts = np.geomspace(1e-4, 10.0, 30)
    d = 1e-7 * ts
    fd = (reg.B(ts + d) - reg.B(ts - d)) / (2 * d)
    assert np.max(np.abs(fd - reg.beta(ts)) / np.maximum(reg.beta(ts), 1e-30)) < 1e-5


def test_nonconvex_A_rejected():
    # beta(t) = 1/sqrt(t) makes A(t) = sqrt(t), which is concave.
    nl = Nonlinearity("concave", 2.0,
                      beta=lambda t: np.maximum(np.asarray(t, float), 1e-300) ** -0.5,
                      antideriv=lambda t: 2.0 * np.sqrt(np.asarray(t, float)))
    with pytest.raises(ValueError, match="convex"):
        moreau_yosida(nl, eps=0.1)


def test_moreau_yosida_parameter_validation():
    nl = make_p_laplacian(2)
    with pytest.raises(ValueError):
        moreau_yosida(nl, eps=0.0)
    with pytest.raises(ValueError):
        moreau_yosida(nl, eps=0.1, tau=-1.0)


# ---------------------------------------------------------------------------
# Vector-field monotonicity (the variational passage to the limit relies
# on it)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("law", [make_p_laplacian(1.5), make_p_laplacian(2),
                                 make_p_laplacian(3),
                                 moreau_yosida(make_p_laplacian(1.5), 1e-6, 1e-6),
                                 moreau_yosida(make_p_laplacian(4), 1e-4, 1e-4)],
                         ids=["p1.5", "p2", "p3", "reg1.5", "reg4"])
def test_flux_monotone_on_random_pairs(law):
    rng = np.random.default_rng(42)
    xi = rng.uniform(-10, 10, size=(10000, 2))
    eta = rng.uniform(-10, 10, size=(10000, 2))
    gap = ((flux(law, xi) - flux(law, eta)) * (xi - eta)).sum(axis=1)
    assert gap.min() >= -1e-12


@pytest.mark.parametrize("geometric", [True, False])
def test_table_lookup_matches_binary_search(geometric):
    ts, last = _MY_NODES, len(_MY_NODES) - 2
    ref = lambda t: np.minimum(np.searchsorted(ts, t, side="right") - 1, last)
    index = nonlinearity._lookup(ts, geometric)
    t = np.concatenate([ts, np.nextafter(ts, np.inf), np.nextafter(ts[1:], -np.inf),
                        [0.0, 1e-300, 1e-14], np.geomspace(1e6, 1e9, 1001)])
    assert np.array_equal(index(t), ref(t))
    # Both sides of the input size at which geometric nodes switch paths.
    for n in (nonlinearity._SEARCH_MAX, nonlinearity._SEARCH_MAX + 1):
        for part in np.array_split(np.random.default_rng(5).permutation(t), len(t) // n):
            part = part[:n]
            assert np.array_equal(index(part), ref(part))
    for x in (0.0, 1e-300, 1e-14, 0.37, 1e6, 3e8, 1e9):
        assert index(x) == ref(x)
        assert index(np.array(x)) == ref(x)


def regularized_table(law):
    """The (t, beta) nodes ``moreau_yosida`` tabulates for ``law``."""
    bs = (nonlinearity._prox(law.base, law.eps, _MY_NODES)[1] / np.maximum(_MY_NODES, TINY_T)
          + law.tau * _MY_NODES)
    bs[0] = 0.0
    return _MY_NODES, bs


@pytest.mark.parametrize("p", [1.5, 2, 3, 4])
def test_regularized_law_is_bitwise_the_interp_table(p):
    law = moreau_yosida(make_p_laplacian(p), 1e-6, 1e-6)
    ref = dict(zip(("beta", "a", "B", "dbeta"), interp_table_law(*regularized_table(law))))
    rng = np.random.default_rng(3)
    t = np.concatenate([np.geomspace(1e-12, 1e9, 40000), rng.uniform(0.0, 5.0, 40000),
                        _MY_NODES, [0.0]])
    for name, fn in ref.items():
        assert np.array_equal(getattr(law, name)(t), fn(t)), name
        for x in (0.0, 1e-14, 0.37, 2e6):
            assert getattr(law, name)(x) == fn(x), (name, x)


def test_table_law_is_bitwise_the_interp_table():
    ts = np.linspace(0.0, 10.0, 2001)
    bs = ts ** 2 + ts
    law = from_beta_table(np.column_stack([ts, bs]), p=3.0)
    t = np.concatenate([np.random.default_rng(4).uniform(0.0, 12.0, 20000), ts, [1e9]])
    for name, fn in zip(("beta", "a", "B", "dbeta"), interp_table_law(ts, bs)):
        assert np.array_equal(getattr(law, name)(t), fn(t)), name
