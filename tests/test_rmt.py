import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import eigvalsh_tridiagonal

from trivlab.complexity import phi
from trivlab.rmt import (
    SemicircleLaw,
    SpectrumSample,
    _goe_tridiagonal,
    abs_det_identity_log_prefactor,
    bl_distance,
    expected_abs_det_shifted_formula,
    expected_abs_det_shifted_mc,
    goe_eigenvalues,
    goe_log_abs_dets,
    goe_log_density,
    jackknife_se_of_log_mean,
    sample_goe,
    tridiagonal_log_abs_det,
    tridiagonal_negative_pivots,
)

from oracles import (
    central_diff,
    eig_log_abs_dets,
    goe_dense_eigenvalues,
    goe_density_formula,
    goe_density_tail,
    log_mean_char_poly,
    reference_tridiagonal_log_abs_det,
)


# ----------------------------------------------------------------- datatypes

def test_spectrum_sample_requires_sorted():
    SpectrumSample(n=3, eigenvalues=[0.0, 0.5, 1.0])
    with pytest.raises(ValueError):
        SpectrumSample(n=3, eigenvalues=[1.0, 0.5, 0.0])
    with pytest.raises(ValueError):
        SpectrumSample(n=2, eigenvalues=[0.0, 0.5, 1.0])


def test_semicircle_density_and_cdf():
    law = SemicircleLaw()
    assert law.pdf(0.0) == pytest.approx(np.sqrt(2.0) / np.pi, rel=1e-12)
    assert law.pdf(2.0) == 0.0
    assert law.cdf(law.support[0]) == 0.0
    assert law.cdf(law.support[1]) == pytest.approx(1.0, abs=1e-12)
    assert law.cdf(law.center) == pytest.approx(0.5, abs=1e-12)
    x = np.linspace(*law.support, 2001)
    assert np.trapezoid(law.pdf(x), x) == pytest.approx(1.0, abs=1e-3)


@settings(max_examples=30, deadline=None)
@given(center=st.floats(-3, 3), radius=st.floats(0.5, 4.0), t=st.floats(-0.95, 0.95))
def test_semicircle_cdf_derivative_is_pdf(center, radius, t):
    law = SemicircleLaw(center=center, radius=radius)
    x = center + t * radius
    assert central_diff(law.cdf, x, h=1e-6) == pytest.approx(law.pdf(x), rel=1e-4, abs=1e-6)


# ------------------------------------------------------------------ sampling

def test_sample_goe_deterministic_and_sorted():
    s1 = sample_goe(64, seed=5)
    s2 = sample_goe(64, seed=5)
    assert np.array_equal(s1.eigenvalues, s2.eigenvalues)
    assert np.all(np.diff(s1.eigenvalues) >= 0)
    with pytest.raises(ValueError):
        sample_goe(0, seed=1)


def test_goe_trace_second_moment_both_methods():
    # E tr M^2 = sum_ij E M_ij^2 = 1 + (n-1)/2 under this normalization, for
    # the tridiagonal sampler and the dense oracle alike
    n, draws = 40, 400
    expected = 1.0 + (n - 1) / 2.0
    for name, draw in (("dense", goe_dense_eigenvalues), ("tridiagonal", goe_eigenvalues)):
        rng = np.random.default_rng(11)
        tr2 = [np.sum(draw(n, rng) ** 2) for _ in range(draws)]
        se = np.std(tr2) / np.sqrt(draws)
        assert abs(np.mean(tr2) - expected) < 4 * se, name


def test_goe_edge_location():
    ev = sample_goe(1500, seed=3).eigenvalues
    assert abs(ev[0] + np.sqrt(2)) < 0.12
    assert abs(ev[-1] - np.sqrt(2)) < 0.12


def test_tiny_goe_sizes():
    assert sample_goe(1, seed=0).eigenvalues.shape == (1,)
    assert sample_goe(2, seed=0).eigenvalues.shape == (2,)


# ----------------------------------------------------------- bounded-Lipschitz

def test_bl_two_point_masses():
    # sup f(.) difference is min(separation, 2)
    assert bl_distance(np.array([0.0]), np.array([0.5])) == pytest.approx(0.5, abs=1e-9)
    assert bl_distance(np.array([0.0]), np.array([5.0])) == pytest.approx(2.0, abs=1e-9)
    assert bl_distance(np.array([1.0]), np.array([1.0])) == 0.0


def test_bl_symmetry_and_identity():
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=12), rng.normal(size=9)
    assert bl_distance(a, b) == pytest.approx(bl_distance(b, a), abs=1e-9)
    assert bl_distance(a, a) == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_bl_triangle_inequality_on_atoms(data):
    # atomic measures use the exact union-of-atoms grid, so the LP values obey
    # the triangle inequality up to solver tolerance
    def atoms():
        n = data.draw(st.integers(2, 8))
        return np.array([data.draw(st.floats(-3, 3)) for _ in range(n)])

    a, b, c = atoms(), atoms(), atoms()
    dab, dbc, dac = bl_distance(a, b), bl_distance(b, c), bl_distance(a, c)
    assert dac <= dab + dbc + 1e-9
    assert dab <= 2.0 + 1e-12


def test_bl_shifted_semicircle():
    # for a small shift s the optimal witness is f(x) = x - c, giving exactly s
    d = bl_distance(SemicircleLaw(0.0, 1.0), SemicircleLaw(0.3, 1.0))
    assert d == pytest.approx(0.3, abs=5e-3)
    assert bl_distance(SemicircleLaw(0.0, 1.0), SemicircleLaw(0.0, 1.0)) == pytest.approx(0.0, abs=1e-9)


def test_bl_empirical_vs_semicircle_converges():
    sample = sample_goe(1000, seed=42)
    assert bl_distance(sample, SemicircleLaw()) < 0.05


def test_bl_respects_resolution_argument():
    sample = sample_goe(200, seed=7)
    coarse = bl_distance(sample, SemicircleLaw(), resolution=0.05)
    fine = bl_distance(sample, SemicircleLaw(), resolution=1e-3)
    assert abs(coarse - fine) < 0.05


# -------------------------------------------------------------- level density

@pytest.mark.parametrize("n", [1, 2, 3, 6, 10, 21])
def test_goe_density_matches_high_precision_formula(n):
    # bulk, edge and tail; the oracle integrates the Hermite functions at 50 digits
    x = np.array([0.0, 0.9, math.sqrt(2.0), 1.6, 2.2, 3.5])
    want = np.array([goe_density_formula(n, v) for v in x])
    np.testing.assert_allclose(np.exp(goe_log_density(n, x) - want), 1.0, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(goe_log_density(n, -x), goe_log_density(n, x))


@pytest.mark.parametrize("n", [5, 6, 21, 100, 101, 600, 601])
def test_goe_density_mass_and_peak(n):
    grid = np.linspace(-5.0, 5.0, 20001)
    assert abs(np.trapezoid(np.exp(goe_log_density(n, grid)), grid) - 1.0) <= 1e-12
    # the density at 0 approaches the semicircle value sqrt(2)/pi with 1/n corrections
    assert math.exp(goe_log_density(n, 0.0)) == pytest.approx(math.sqrt(2.0) / math.pi, rel=1.0 / n)


def test_goe_density_matches_two_point_closed_form():
    # sqrt(2) GOE_2 has eigenvalue density prop. to |a - b| e^{-(a^2 + b^2)/2}; integrating
    # out b gives rho(a) = e^{-a^2/2} (a erf(a/sqrt(2)) + sqrt(2/pi) e^{-a^2/2}) / (2 sqrt(2)),
    # and rho_2(x) = sqrt(2) rho(sqrt(2) x)
    from scipy.special import erf

    x = np.linspace(-6.0, 6.0, 241)
    a = math.sqrt(2.0) * np.abs(x)
    rho = np.exp(-a * a / 2) * (a * erf(a / math.sqrt(2.0)) + math.sqrt(2.0 / math.pi) * np.exp(-a * a / 2))
    np.testing.assert_allclose(goe_log_density(2, x), np.log(rho / 2.0), rtol=0, atol=1e-13)
    assert goe_log_density(2, 0.0) == pytest.approx(-0.5 * math.log(2.0 * math.pi), abs=1e-15)


@pytest.mark.parametrize("n", [2, 3, 5, 6])
def test_goe_density_fits_sampled_eigenvalues(n):
    # KS test at alpha = 0.01 of one uniformly chosen eigenvalue per GOE_n draw
    # (independent across draws, each distributed as rho_n), for the dense
    # oracle and the package's tridiagonal sampler; seeds fixed in advance
    from scipy.stats import kstest

    grid = np.linspace(-8.0, 8.0, 32001)
    dens = np.exp(goe_log_density(n, grid))
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(grid))])
    assert abs(cdf[-1] - 1.0) < 1e-9
    for name, draw, seed in (("dense", goe_dense_eigenvalues, 9100 + n),
                             ("tridiagonal", goe_eigenvalues, 9200 + n)):
        rng = np.random.default_rng(seed)
        picks = np.array([draw(n, rng)[rng.integers(n)] for _ in range(20000)])
        assert kstest(picks, lambda v: np.interp(v, grid, cdf)).pvalue > 0.01, name


def test_goe_log_density_shapes_and_validation():
    assert isinstance(goe_log_density(4, 0.5), float)
    assert goe_log_density(4, np.zeros((2, 3))).shape == (2, 3)
    # n = 1 is the standard normal
    assert goe_log_density(1, 1.5) == pytest.approx(-0.5 * 1.5 ** 2 - 0.5 * math.log(2.0 * math.pi), abs=1e-14)
    # far tails stay finite: the per-x log scale carries e^{-n x^2 / 2}
    assert np.all(np.isfinite(goe_log_density(2000, np.array([0.0, 1.5, 10.0, 40.0]))))
    with pytest.raises(ValueError):
        goe_log_density(0, 0.0)


# ------------------------------------------ pivot-recurrence determinants

def _tridiagonal_stack(n, s, seed):
    rng = np.random.default_rng(seed)
    diag = rng.standard_normal((s, n)) / math.sqrt(n)
    off = np.sqrt(rng.chisquare(np.arange(n - 1, 0, -1), size=(s, n - 1))) / math.sqrt(2.0 * n)
    return diag, off


@pytest.mark.parametrize("n", [1, 2, 3, 600])
@pytest.mark.parametrize("x", [3.0, -2.5, 0.3, -1.0])
def test_pivot_log_abs_det_matches_eigensolve(n, x):
    # |x| > sqrt(2) is outside the bulk, the other two shifts sit inside it
    diag, off = _tridiagonal_stack(n, 6, seed=100 + n)
    got = tridiagonal_log_abs_det(diag, off, x)
    want = [np.sum(np.log(np.abs(eigvalsh_tridiagonal(d, e) + x))) if n > 1 else np.log(abs(d[0] + x))
            for d, e in zip(diag, off)]
    assert got.shape == (6,)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)


def test_pivot_log_abs_det_per_sample_shifts():
    diag, off = _tridiagonal_stack(40, 5, seed=7)
    xs = np.array([2.0, -0.4, 0.0, 1.1, -3.0])
    got = tridiagonal_log_abs_det(diag, off, xs)
    want = [tridiagonal_log_abs_det(d[None], e[None], x)[0] for d, e, x in zip(diag, off, xs)]
    np.testing.assert_array_equal(got, want)


def test_pivot_log_abs_det_exact_zero_pivot():
    # the leading 1x1 minor of [[0, 1, 0], [1, 1, 1], [0, 1, 2]] is singular
    # (det = -2); the pivmin substitution steps over it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = tridiagonal_log_abs_det([[0.0, 1.0, 2.0]], [[1.0, 1.0]])
        singular = tridiagonal_log_abs_det([[0.0, 0.0], [1.0, -1.0]], [[0.0], [1.0]], [0.0, 0.0])
        one = tridiagonal_log_abs_det([[0.0]], np.empty((1, 0)))
    assert got[0] == pytest.approx(math.log(2.0), abs=1e-12)
    assert np.all(np.isfinite(singular)) and np.all(np.isfinite(one))
    assert singular[1] == pytest.approx(math.log(2.0), abs=1e-12)  # det [[1, 1], [1, -1]] = -2
    assert singular[0] < -1000.0 and one[0] < -700.0  # log of a vanishing determinant


@pytest.mark.parametrize("n", [1, 2, 3, 600])
@pytest.mark.parametrize("x", [3.0, -2.5, 0.3, -1.0])
def test_negative_pivots_match_eigensolve_counts(n, x):
    # the Sturm count: eigenvalues of T below -x, inside and outside the bulk
    diag, off = _tridiagonal_stack(n, 6, seed=300 + n)
    got = tridiagonal_negative_pivots(diag, off, x)
    want = [np.count_nonzero((eigvalsh_tridiagonal(d, e) if n > 1 else d) < -x) for d, e in zip(diag, off)]
    assert got.shape == (6,)
    np.testing.assert_array_equal(got, want)


def test_negative_pivots_per_sample_shifts_cover_the_spectrum():
    diag, off = _tridiagonal_stack(200, 1, seed=8)
    ev = eigvalsh_tridiagonal(diag[0], off[0])
    # one shift in each gap of the spectrum, plus one beyond either end
    cuts = np.concatenate(([ev[0] - 1.0], 0.5 * (ev[:-1] + ev[1:]), [ev[-1] + 1.0]))
    got = tridiagonal_negative_pivots(np.repeat(diag, cuts.size, axis=0),
                                      np.repeat(off, cuts.size, axis=0), -cuts)
    np.testing.assert_array_equal(got, np.arange(201))


def test_negative_pivots_count_an_exact_zero_pivot():
    # [[0, 1], [1, 1]] has a singular leading minor and one negative eigenvalue;
    # diag(1, 0) has a zero last pivot, replaced by -pivmin and so counted
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = tridiagonal_negative_pivots([[0.0, 1.0], [1.0, 0.0]], [[1.0], [0.0]])
    np.testing.assert_array_equal(got, [1, 1])


@pytest.mark.parametrize("n", [1, 2, 600])
def test_pivot_log_abs_dets_keep_their_bits(n):
    diag, off = _tridiagonal_stack(n, 7, seed=400 + n)
    xs = np.array([3.0, -2.5, 0.3, -1.0, 0.0, 1.9, -0.7])
    for x in (xs, 1.25):
        np.testing.assert_array_equal(tridiagonal_log_abs_det(diag, off, x),
                                      reference_tridiagonal_log_abs_det(diag, off, x))


def _full_matrix_eigenvalues(n, rng):
    # the package's tridiagonal draw, eigensolved as a full n x n matrix
    diag, off = _goe_tridiagonal(n, rng)
    return np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))


_EIGENSOLVES = {"dense": _full_matrix_eigenvalues, "tridiagonal": goe_eigenvalues}


@pytest.mark.parametrize("eigensolve", ["dense", "tridiagonal"])
def test_goe_log_abs_dets_follow_the_eigenvalue_stream(eigensolve, monkeypatch):
    # blocks of 3 samples (the last one partial) against one eigensolve per
    # draw, with a shift drawn from the same generator before each matrix
    import trivlab.rmt as rmt

    monkeypatch.setattr(rmt, "LOGDET_BLOCK_ENTRIES", 3 * 30)
    logs = {}
    for route in ("pivots", "eig"):
        rng = np.random.default_rng(5)

        def shift():
            return 1.2 + rng.standard_normal()

        if route == "pivots":
            logs[route] = goe_log_abs_dets(30, 8, rng, shift)
        else:
            logs[route] = eig_log_abs_dets(30, 8, rng, shift, _EIGENSOLVES[eigensolve])
        logs[route + " next"] = rng.standard_normal()
    np.testing.assert_allclose(logs["pivots"], logs["eig"], rtol=0, atol=1e-12)
    assert logs["pivots next"] == logs["eig next"]  # same number of draws taken


# ------------------------------------------- shifted |det| MC and formula

@pytest.mark.parametrize("n, x, eigensolve", [(20, 3.0, "dense"), (50, 2.0, "tridiagonal"),
                                              (20, -3.0, "dense"), (300, 0.5, "tridiagonal"),
                                              (30, 0.3, "dense")])
def test_abs_det_mc_matches_eigensolve_oracle(n, x, eigensolve):
    res = expected_abs_det_shifted_mc(n, x, n_samples=300, seed=5)
    logs = eig_log_abs_dets(n, 300, np.random.default_rng(5), x, _EIGENSOLVES[eigensolve])
    log_mean = float(np.logaddexp.reduce(logs) - math.log(300))
    assert res["log_mean"] == pytest.approx(log_mean, abs=1e-12)
    assert res["se"] == pytest.approx(jackknife_se_of_log_mean(logs), abs=1e-12)


def test_abs_det_mc_matches_char_poly_oracle():
    # outside the bulk E|det| equals E det up to exp(-n I(x)) corrections
    for n, x in ((20, 3.0), (30, -2.5)):
        res = expected_abs_det_shifted_mc(n, x, n_samples=4000, seed=21)
        oracle, _ = log_mean_char_poly(n, abs(x))
        assert abs(res["log_mean"] - oracle) < max(0.05, 3.0 * res["se"])


def test_abs_det_mc_jackknife_se_is_calibrated():
    runs = [expected_abs_det_shifted_mc(15, 2.2, n_samples=1500, seed=s)["log_mean"] for s in range(8)]
    se = expected_abs_det_shifted_mc(15, 2.2, n_samples=1500, seed=99)["se"]
    assert np.std(runs) < 4.0 * se
    assert se < 0.05


def test_abs_det_formula_inverts_identity():
    # outside the bulk E|det(GOE_n + x I)| is the mean characteristic polynomial
    # up to a relative error exp(-n I(x)), far below the tolerance at these shifts
    for n, x in ((20, 3.0), (20, -3.0), (50, 2.0), (7, 4.0)):
        oracle, _ = log_mean_char_poly(n, abs(x))
        assert expected_abs_det_shifted_formula(n, x) == pytest.approx(oracle, abs=1e-10)


def test_density_tail_oracle_matches_exact_density():
    # the oracle inverts the identity with E det in place of E|det|; its stated
    # relative error is of order exp(-(n-1) I(x)) with I = -phi, above a rounding floor
    for n in (11, 21, 41):
        for x in (1.6, 1.8, 2.2, 2.8, -2.4):
            got = math.exp(goe_log_density(n, x))
            bound = math.exp((n - 1) * phi(x)) + 1e-12
            assert abs(goe_density_tail(n, x) / got - 1.0) <= bound, (n, x)


def test_prefactor_value_small_n():
    # n = 1: sqrt(4) * 1 * Gamma(1) = 2
    assert abs_det_identity_log_prefactor(1) == pytest.approx(np.log(2.0), abs=1e-12)
