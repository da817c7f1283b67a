import functools
import math
import time

import numpy as np
import pytest
from scipy.optimize import minimize, minimize_scalar
from scipy.stats import norm, qmc
from scipy.special import logsumexp

from trivlab import (
    ComplexityPoint,
    LrcStructure,
    SrcCorrelator,
    UnsupportedRegimeError,
    big_f,
    big_f_maximizer,
    eval_lrc,
    expected_crt_mc,
    expected_crt_quadrature,
    phi,
    predictions,
    psi_lrc,
    psi_lrc_maximizer,
    psi_src,
    psi_src_maximizer,
    psi_star_semicircle,
    replica_residuals,
    replica_solve,
    trivialization_threshold,
)
import trivlab.complexity as complexity
from trivlab.complexity import _hessian_scales
from trivlab.rmt import goe_eigenvalues, jackknife_se_of_log_mean

from oracles import eig_expected_crt_mc

SQRT2 = math.sqrt(2.0)

# a correlator with c0 > 0 and two atoms, so that B(0)B''(0) > B'(0)^2 and
# the rate function is finite everywhere (the default single-atom model pins
# the y coordinate instead); threshold sqrt(4 B''(0)) is about 2.50
SRC_NONDEGENERATE = SrcCorrelator(c0=0.2, atoms=((0.7, 1.0), (0.3, 1.3)))


@functools.lru_cache(maxsize=None)
def _gauss_legendre(nodes):
    return np.polynomial.legendre.leggauss(nodes)


def semicircle_log_potential(x, nodes=4000):
    """int log|x - t| sc(dt) by Gauss-Legendre after t = sqrt(2) sin(theta).

    The substitution removes the square-root endpoint singularity of the
    density; only the (integrable) log singularity remains when |x| < sqrt(2).
    The rule is built once per node count.
    """
    t, w = _gauss_legendre(nodes)
    theta = 0.5 * np.pi * t
    wt = 0.5 * np.pi * w
    s = SQRT2 * np.sin(theta)
    dens = (2.0 / np.pi) * np.cos(theta) ** 2
    return float(np.sum(wt * dens * np.log(np.abs(x - s))))


def test_phi_fixed_points_and_shape():
    assert phi(1.0) == 0.0
    assert phi(SQRT2) == 0.0
    assert phi(-2.0) == pytest.approx(-SQRT2 + math.log(1.0 + SQRT2), abs=1e-14)
    arr = phi(np.array([[0.0, -3.0], [3.0, 1.0]]))
    assert arr.shape == (2, 2)
    assert arr[0, 1] == arr[1, 0]  # even function
    assert arr[1, 1] == 0.0


def test_phi_continuity_at_the_edge():
    eps = 1e-9
    assert abs(phi(SQRT2 + eps) - phi(SQRT2 - eps)) < 1e-10
    assert abs(phi(-SQRT2 - eps) - phi(-SQRT2 + eps)) < 1e-10


def test_phi_sign_and_quadratic_lower_bound():
    x = np.linspace(-6.0, 6.0, 2001)
    v = phi(x)
    assert np.all(v <= 0.0)
    assert np.all(v + 0.5 * x * x >= 0.0)


def test_psi_star_identity_on_grid():
    x = np.linspace(-5.0, 5.0, 1000)
    lhs = psi_star_semicircle(x)
    rhs = 0.5 * x * x - 0.5 - 0.5 * math.log(2.0) + phi(x)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_psi_star_matches_log_potential_quadrature():
    # away from the support the quadrature is essentially exact
    for x in (-3.0, 2.5, 10.0):
        assert psi_star_semicircle(x) == pytest.approx(
            semicircle_log_potential(x), abs=1e-8
        )
    # inside the support the log singularity slows Gauss-Legendre down
    for x in (0.0, 1.0, -0.7):
        assert psi_star_semicircle(x) == pytest.approx(
            semicircle_log_potential(x), abs=2e-3
        )
    assert psi_star_semicircle(0.0) == pytest.approx(
        -0.5 - 0.5 * math.log(2.0), abs=1e-15
    )
    assert psi_star_semicircle(10.0) == pytest.approx(math.log(10.0), abs=0.01)


def test_big_f_maximizer_closed_forms():
    res = big_f_maximizer(-1.0)
    assert res["x_max"] == pytest.approx(-1.5, abs=1e-14)
    assert res["f_max"] == pytest.approx(1.0 + 0.5 * (1.0 + math.log(2.0)), abs=1e-14)
    assert res["f_second"] == pytest.approx(-4.0, abs=1e-14)
    res = big_f_maximizer(-0.5)
    assert res["x_max"] == pytest.approx(-1.0, abs=1e-14)
    assert res["f_max"] == pytest.approx(0.5, abs=1e-14)
    assert res["f_second"] == -1.0
    # branches agree at the crossover
    m = -SQRT2 / 2.0
    left = big_f_maximizer(m - 1e-12)
    right = big_f_maximizer(m + 1e-12)
    assert left["x_max"] == pytest.approx(right["x_max"], abs=1e-9)
    assert left["f_max"] == pytest.approx(right["f_max"], abs=1e-9)


def test_big_f_maximizer_rejects_nonnegative_m():
    with pytest.raises(UnsupportedRegimeError):
        big_f_maximizer(0.0)
    with pytest.raises(UnsupportedRegimeError):
        big_f_maximizer(0.3)


@pytest.mark.parametrize("m", [-0.6, -0.75, -2.0])
def test_big_f_maximizer_matches_numeric_search(m):
    res = big_f_maximizer(m)
    num = minimize_scalar(
        lambda x: -big_f(x, m),
        bounds=(2.0 * m - 3.0, 1.0),
        method="bounded",
        options={"xatol": 1e-12},
    )
    assert res["x_max"] == pytest.approx(num.x, abs=1e-6)
    assert res["f_max"] == pytest.approx(-num.fun, abs=1e-8)
    # curvature against a central second difference (x_max is off the kink
    # for these m, so the difference quotient is clean)
    h = 1e-4
    num_second = (
        big_f(res["x_max"] + h, m) - 2.0 * big_f(res["x_max"], m) + big_f(res["x_max"] - h, m)
    ) / (h * h)
    assert res["f_second"] == pytest.approx(num_second, rel=1e-4, abs=1e-6)


def test_complexity_point_validates_rho():
    with pytest.raises(ValueError):
        ComplexityPoint(rho=0.0, u=0.0, y=-1.0)
    with pytest.raises(ValueError):
        ComplexityPoint(rho=-1.0, u=0.0, y=-1.0)


def test_psi_src_maximizer_default_model_anchors():
    model = SrcCorrelator()
    point, value = psi_src_maximizer(model, 3.0)
    assert point.rho == pytest.approx(math.sqrt(2.0) / 3.0, abs=1e-12)
    assert point.u == pytest.approx(-1.0 / 3.0, abs=1e-12)
    assert point.y == pytest.approx(-13.0 / (6.0 * SQRT2), abs=1e-12)
    assert value == pytest.approx(-math.log(2.0) - 0.5, abs=1e-12)
    # the pointwise function reproduces the maximum on the pinned slice
    assert psi_src(point, model, 3.0) == pytest.approx(value, abs=1e-12)


def test_psi_src_maximizer_rejects_at_and_below_threshold():
    model = SrcCorrelator()
    assert trivialization_threshold(model) == pytest.approx(2.0)
    for mu in (2.0, 1.9, 0.5):
        with pytest.raises(UnsupportedRegimeError):
            psi_src_maximizer(model, mu)


def test_psi_src_degenerate_model_pins_the_shift():
    model = SrcCorrelator()
    point, value = psi_src_maximizer(model, 3.0)
    off = ComplexityPoint(rho=point.rho, u=point.u, y=point.y + 1e-4)
    assert psi_src(off, model, 3.0) == -math.inf
    # moving along the slice (adjusting y with u) keeps psi finite but lower
    u2 = point.u + 0.1
    c2 = (3.0 - 2.0 * (u2 - 1.5 * point.rho**2)) / math.sqrt(8.0)
    on = ComplexityPoint(rho=point.rho, u=u2, y=-c2)
    val_on = psi_src(on, model, 3.0)
    assert math.isfinite(val_on)
    assert val_on < value


@pytest.mark.parametrize("model,mu,maximizer,fn", [
    (SrcCorrelator(), 3.0, psi_src_maximizer, psi_src),
    (SRC_NONDEGENERATE, 3.2, psi_src_maximizer, psi_src),
    (LrcStructure(), 2.0, psi_lrc_maximizer, psi_lrc),
])
def test_rate_function_below_max_on_sobol_cloud(model, mu, maximizer, fn):
    point, value = maximizer(model, mu)
    sob = qmc.Sobol(d=3, scramble=False).random_base2(12)
    lows = np.array([0.01, -3.0, -4.0])
    highs = np.array([3.0, 3.0, 0.0])
    pts = lows + sob * (highs - lows)
    ref = np.array([point.rho, point.u, point.y])
    for row in pts:
        val = fn(ComplexityPoint(rho=row[0], u=row[1], y=row[2]), model, mu)
        assert val <= value + 1e-12
        if np.linalg.norm(row - ref) >= 1e-3 and math.isfinite(val):
            assert val < value


def _numeric_argmax(fun, start, cycles=30):
    """Derivative-free oracle maximizer: cyclic scalar refinement to get
    near the optimum, then a Nelder-Mead polish in (log rho, u, y).

    Plain coordinatewise descent zigzags and stalls in the tilted valley
    of these surfaces, so the polish step is what buys the last digits.
    """
    pt = np.asarray(start, dtype=float)
    width = np.array([0.8, 1.2, 1.2])
    for _ in range(cycles):
        for j in range(3):
            lo, hi = pt[j] - width[j], pt[j] + width[j]
            if j == 0:
                lo = max(lo, 1e-4)

            def slice_neg(t, j=j):
                trial = pt.copy()
                trial[j] = t
                return -fun(trial)

            res = minimize_scalar(
                slice_neg, bounds=(lo, hi), method="bounded",
                options={"xatol": 1e-13},
            )
            pt[j] = res.x
        width = np.maximum(width * 0.7, 1e-6)
    polish = minimize(
        lambda v: -fun(np.array([math.exp(v[0]), v[1], v[2]])),
        x0=[math.log(pt[0]), pt[1], pt[2]],
        method="Nelder-Mead",
        options={"xatol": 1e-12, "fatol": 1e-15, "maxiter": 20000, "maxfev": 20000},
    )
    return np.array([math.exp(polish.x[0]), polish.x[1], polish.x[2]])


def test_psi_src_closed_form_matches_numeric_maximizer():
    # needs a nondegenerate correlator so the surface is finite everywhere
    model, mu = SRC_NONDEGENERATE, 3.2
    point, value = psi_src_maximizer(model, mu)

    def fun(vec):
        return psi_src(ComplexityPoint(rho=vec[0], u=vec[1], y=vec[2]), model, mu)

    rng = np.random.default_rng(7)
    best = None
    for _ in range(4):
        start = rng.uniform([0.2, -2.0, -3.5], [2.0, 0.5, -0.3])
        cand = _numeric_argmax(fun, start)
        if best is None or fun(cand) > fun(best):
            best = cand
    assert best[0] == pytest.approx(point.rho, abs=1e-6)
    assert best[1] == pytest.approx(point.u, abs=1e-6)
    assert best[2] == pytest.approx(point.y, abs=1e-6)
    assert fun(best) == pytest.approx(value, abs=1e-8)


def test_psi_lrc_closed_form_matches_numeric_maximizer():
    model, mu = LrcStructure(), 2.0
    point, value = psi_lrc_maximizer(model, mu)

    def fun(vec):
        return psi_lrc(ComplexityPoint(rho=vec[0], u=vec[1], y=vec[2]), model, mu)

    rng = np.random.default_rng(11)
    best = None
    for _ in range(4):
        start = rng.uniform([0.2, -2.0, -3.5], [2.0, 0.5, -0.3])
        cand = _numeric_argmax(fun, start)
        if best is None or fun(cand) > fun(best):
            best = cand
    assert best[0] == pytest.approx(point.rho, abs=1e-6)
    assert best[1] == pytest.approx(point.u, abs=1e-6)
    assert best[2] == pytest.approx(point.y, abs=1e-6)
    assert fun(best) == pytest.approx(value, abs=1e-8)


def test_psi_lrc_maximizer_default_anchors():
    model = LrcStructure()
    point, value = psi_lrc_maximizer(model, 2.0)
    assert point.rho == pytest.approx(math.sqrt(1.5) / 2.0, abs=1e-12)
    assert point.u == pytest.approx(-0.375, abs=1e-12)
    assert point.y == pytest.approx(-1.5, abs=1e-12)
    assert value == pytest.approx(-math.log(2.0) - 0.5 + 0.5 * math.log(1.5), abs=1e-12)
    assert psi_lrc(point, model, 2.0) == pytest.approx(value, abs=1e-12)
    for mu in (SQRT2, 1.0):
        with pytest.raises(UnsupportedRegimeError):
            psi_lrc_maximizer(model, mu)


@pytest.mark.parametrize("model", [
    LrcStructure(),
    LrcStructure(A=0.0, atoms=((1.0, 1.0),)),
    LrcStructure(A=1.2, atoms=((0.5, 0.8), (0.5, 2.0))),
])
def test_psi_lrc_u_star_is_half_gradient_variance_over_mu(model):
    d1_0 = eval_lrc(model, 0.0, 1)
    thr = trivialization_threshold(model)
    for mu in (1.5 * thr, 3.0 * thr):
        point, _ = psi_lrc_maximizer(model, mu)
        assert point.u == pytest.approx(-d1_0 / (2.0 * mu), abs=1e-12)


def test_predictions_src_anchors():
    rep = predictions(SrcCorrelator(), 3.0)
    assert rep.kind == "src"
    assert rep.threshold == pytest.approx(2.0, abs=1e-14)
    assert rep.center == pytest.approx(13.0 / 3.0, abs=1e-12)
    assert rep.radius == pytest.approx(4.0, abs=1e-12)
    assert rep.lambda_edge == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert rep.rho_star == pytest.approx(math.sqrt(2.0) / 3.0, abs=1e-12)
    assert rep.u_star == pytest.approx(-1.0 / 3.0, abs=1e-12)
    assert rep.m == pytest.approx(-3.0 / math.sqrt(8.0), abs=1e-14)
    assert rep.exponent_subcritical is None
    law = rep.bulk_law()
    assert law.support == (pytest.approx(1.0 / 3.0), pytest.approx(25.0 / 3.0))


def test_predictions_lrc_anchors():
    rep = predictions(LrcStructure(), 2.0)
    assert rep.kind == "lrc"
    assert rep.threshold == pytest.approx(SQRT2, abs=1e-14)
    assert rep.center == pytest.approx(3.0, abs=1e-12)
    assert rep.radius == pytest.approx(2.0 * SQRT2, abs=1e-12)
    assert rep.lambda_edge == pytest.approx(3.0 - 2.0 * SQRT2, abs=1e-12)
    assert rep.rho_star == pytest.approx(math.sqrt(1.5) / 2.0, abs=1e-12)
    assert rep.u_star == pytest.approx(-0.375, abs=1e-12)
    assert rep.y_star == pytest.approx(-1.5, abs=1e-12)
    assert rep.m == pytest.approx(-1.0, abs=1e-14)


def test_predictions_subcritical_branch():
    rep = predictions(SrcCorrelator(), 1.0)
    assert rep.exponent_subcritical == pytest.approx(math.log(2.0) - 0.375, abs=1e-12)
    assert rep.rho_star is None and rep.psi_max is None and rep.center is None
    with pytest.raises(UnsupportedRegimeError):
        rep.bulk_law()
    # exponent vanishes exactly at the threshold
    at = predictions(SrcCorrelator(), 2.0)
    assert at.exponent_subcritical == pytest.approx(0.0, abs=1e-12)
    assert at.rho_star is None
    lrc = predictions(LrcStructure(), 1.0)
    assert lrc.exponent_subcritical == pytest.approx(0.5 * math.log(2.0) - 0.25, abs=1e-12)


@pytest.mark.parametrize("model", [
    SrcCorrelator(),
    SrcCorrelator(c0=0.3, atoms=((0.7, 1.0),)),
    SrcCorrelator(atoms=((0.6, 0.9), (0.4, 1.7))),
    LrcStructure(),
    LrcStructure(A=0.0, atoms=((1.0, 1.0),)),
    LrcStructure(A=1.2, atoms=((0.5, 0.8), (0.5, 2.0))),
])
def test_predictions_edge_identities(model):
    thr = trivialization_threshold(model)
    for mu in (1.3 * thr, 4.0 * thr):
        rep = predictions(model, mu)
        assert rep.lambda_edge == pytest.approx(rep.center - rep.radius, abs=1e-12)
        half = thr * thr / 2.0  # 2B'' resp. -D''(0)
        explicit = (math.sqrt(mu) - math.sqrt(2.0 * half / mu)) ** 2
        assert rep.lambda_edge == pytest.approx(explicit, abs=1e-12)


def test_predictions_validates_mu():
    with pytest.raises(ValueError):
        predictions(SrcCorrelator(), 0.0)
    with pytest.raises(ValueError):
        predictions(LrcStructure(), -1.0)


def folded_normal_mean(loc, scale):
    return scale * math.sqrt(2.0 / math.pi) * math.exp(
        -loc * loc / (2.0 * scale * scale)
    ) + loc * (1.0 - 2.0 * norm.cdf(-loc / scale))


@pytest.mark.parametrize("model,mu,s_sq", [
    (SrcCorrelator(), 3.0, 12.0),   # 8B'' + 4B''
    (LrcStructure(), 2.0, 6.0),     # -4D'' - 2D''
])
def test_expected_crt_mc_matches_size_one_closed_form(model, mu, s_sq):
    # at n = 1 the count reduction is mu^{-1} E|W + mu| with W a centered
    # Gaussian of variance a^2 + sigma^2
    exact = math.log(folded_normal_mean(mu, math.sqrt(s_sq))) - math.log(mu)
    est = expected_crt_mc(model, mu, 1, 20000, seed=42)
    assert abs(est["log_value"] - exact) <= max(3.5 * est["se"], 0.02)
    # the quadrature against the exact GOE_2 density is exact there too
    assert expected_crt_quadrature(model, mu, 1) == pytest.approx(exact, abs=1e-10)


def test_expected_crt_mc_supercritical_near_one():
    est = expected_crt_mc(SrcCorrelator(), 3.0, 25, 6000, seed=5)
    assert est["se"] < 0.03
    assert 0.95 <= math.exp(est["log_value"]) <= 1.15


def test_expected_crt_mc_is_deterministic_and_validates():
    a = expected_crt_mc(SrcCorrelator(), 3.0, 8, 500, seed=1)
    b = expected_crt_mc(SrcCorrelator(), 3.0, 8, 500, seed=1)
    assert a == b
    with pytest.raises(ValueError):
        expected_crt_mc(SrcCorrelator(), 3.0, 8, 99, seed=1)
    with pytest.raises(ValueError):
        expected_crt_mc(SrcCorrelator(), 0.0, 8, 500, seed=1)


@pytest.mark.parametrize("n", [6, 100, 256, 257, 600])
@pytest.mark.parametrize("model,mu", [(SrcCorrelator(), 3.0), (LrcStructure(), 2.0)])
def test_expected_crt_mc_matches_eigensolve_oracle(model, mu, n):
    # same draws, determinants by pivots against full spectra
    est = expected_crt_mc(model, mu, n, 200, seed=11 + n)
    ref = eig_expected_crt_mc(_hessian_scales(model)[0], mu, n, 200, 11 + n,
                              goe_eigenvalues, jackknife_se_of_log_mean)
    assert est["log_value"] == pytest.approx(ref["log_value"], abs=1e-12)
    assert est["se"] == pytest.approx(ref["se"], abs=1e-12)


def test_quadrature_matches_mc_supercritical():
    model, mu, n = SrcCorrelator(), 3.0, 30
    diag = {}
    log_quad = expected_crt_quadrature(model, mu, n, diagnostics=diag)
    est = expected_crt_mc(model, mu, n, 30000, seed=304)
    assert abs(log_quad - est["log_value"]) <= math.log(1.10)
    assert diag["box"][0] < -3.0 < diag["box"][1] + 3.0
    assert diag["boundary_log_ratio"] < -6.0


def test_quadrature_deep_trivialization_limit():
    # for very stiff confinement the expected count is exactly one critical
    # point up to O(1/n); the integrand lives deep in the spectral tail
    model, mu, n = SrcCorrelator(), 20.0, 30
    log_quad = expected_crt_quadrature(model, mu, n)
    assert 0.95 <= math.exp(log_quad) <= 1.05


def test_quadrature_matches_mc_subcritical():
    model, mu, n = SrcCorrelator(), 1.0, 60
    diag = {}
    log_quad = expected_crt_quadrature(model, mu, n, diagnostics=diag)
    est = expected_crt_mc(model, mu, n, 20000, seed=607)
    assert abs(log_quad - est["log_value"]) <= 0.1
    assert diag["boundary_log_ratio"] < -6.0
    # sanity: the count really is exponentially large here
    assert log_quad / n == pytest.approx(math.log(2.0) - 0.375, abs=0.1)


@pytest.mark.parametrize("model,mu,n", [(SrcCorrelator(), 3.0, 30), (LrcStructure(), 2.0, 30),
                                        (SrcCorrelator(), 1.0, 6)])
def test_quadrature_matches_mc_over_seeds(model, mu, n):
    # 20 independent MC estimates, each within 4 jackknife SE of the exact value:
    # a false-alarm rate of about 20 * 6e-5 = 1.3e-3 if the z-scores are normal
    exact = expected_crt_quadrature(model, mu, n)
    z = []
    for seed in range(20):
        est = expected_crt_mc(model, mu, n, 2000, seed=5100 + seed)
        z.append((est["log_value"] - exact) / est["se"])
    assert np.max(np.abs(z)) <= 4.0, z


@pytest.mark.parametrize("model,mu", [(SrcCorrelator(), 3.0), (LrcStructure(), 2.0)])
def test_quadrature_count_is_at_least_one_up_to_n_1e4(model, mu):
    # a coercive H has a critical point, so log E Crt >= 0 up to rounding
    for n in (1, 2, 5, 25, 100, 600, 2000):
        assert expected_crt_quadrature(model, mu, n) >= -1e-11, n
    t0 = time.perf_counter()
    log_value = expected_crt_quadrature(model, mu, 10_000)
    wall = time.perf_counter() - t0
    assert log_value >= -1e-11
    assert wall < 2.0


def test_quadrature_rule_is_converged(monkeypatch):
    values = []
    for points in (complexity.CRT_QUADRATURE_POINTS, 2 * complexity.CRT_QUADRATURE_POINTS - 1):
        monkeypatch.setattr(complexity, "CRT_QUADRATURE_POINTS", points)
        values.append([expected_crt_quadrature(SrcCorrelator(), mu, n)
                       for mu, n in ((3.0, 25), (1.0, 6), (1.0, 600), (20.0, 30))])
    np.testing.assert_allclose(values[0], values[1], rtol=0, atol=1e-10)


def test_quadrature_validates():
    with pytest.raises(ValueError):
        expected_crt_quadrature(SrcCorrelator(), 0.0, 30)
    with pytest.raises(ValueError):
        expected_crt_quadrature(SrcCorrelator(), 3.0, 0)


@pytest.mark.parametrize("model", [
    SrcCorrelator(),
    SrcCorrelator(c0=0.3, atoms=((0.7, 1.0),)),
    SrcCorrelator(atoms=((0.6, 0.9), (0.4, 1.7))),
])
def test_replica_edge_dictionary(model):
    thr = trivialization_threshold(model)
    mu = 1.5 * thr
    sol = replica_solve(model, mu)
    assert sol.branch == "q0"
    assert sol.Q == 0.0
    r1, r2 = replica_residuals(model, mu, sol.v, sol.Q)
    assert abs(r1) <= 1e-10 and abs(r2) <= 1e-10
    rep = predictions(model, mu)
    assert sol.mu_eff == pytest.approx(rep.center, abs=1e-12)
    assert sol.edge == pytest.approx(rep.lambda_edge, abs=1e-12)
    # the dictionary really is factor 4: factor 1 lands elsewhere
    other = replica_solve(model, mu, convention_factor=1.0)
    assert abs(other.edge - rep.lambda_edge) > 1e-3


def test_replica_q0_identities_and_validation():
    model = SrcCorrelator()
    for v in (0.5, 1.0, 2.7):
        r1, r2 = replica_residuals(model, 3.0, v, 0.0)
        assert r1 == 0.0 and r2 == 0.0
    with pytest.raises(ValueError):
        replica_residuals(model, 3.0, 1.0, 10.0)  # 1 - mu v q < 0
    with pytest.raises(ValueError):
        replica_solve(model, 3.0, convention_factor=0.0)
    with pytest.raises(ValueError):
        replica_solve(model, 0.0)
    with pytest.raises(TypeError):
        replica_solve(LrcStructure(), 3.0)
    sol = replica_solve(model, 1.0)
    assert sol.branch == "interior"
    # no atoms: B' = 0, the admissible overlap range is empty
    sol = replica_solve(SrcCorrelator(c0=1.0, atoms=()), 1.0)
    assert sol.branch == "q0" and sol.Q == 0.0


REPLICA_MODELS = {
    "default": SrcCorrelator(),
    "c0": SrcCorrelator(c0=0.3, atoms=((0.7, 1.0),)),
    "two-atom": SrcCorrelator(atoms=((0.6, 0.9), (0.4, 1.7))),
}


@pytest.mark.parametrize("name", list(REPLICA_MODELS))
def test_replica_interior_root_just_below_threshold(name):
    model = REPLICA_MODELS[name]
    thr = trivialization_threshold(model)
    overlaps = []
    for frac in (0.99, 0.999):
        sol = replica_solve(model, frac * thr)
        r1, r2 = replica_residuals(model, frac * thr, sol.v, sol.Q)
        assert sol.branch == "interior" and sol.Q > 0.0
        assert max(abs(r1), abs(r2)) <= 1e-12
        assert abs(sol.edge) <= 1e-6
        overlaps.append(sol.Q)
    assert overlaps[1] < overlaps[0]


# interior roots found by the earlier damped-Newton solver, all at mu <= 0.95 mu_c
@pytest.mark.parametrize("name,mu,factor,q,v", [
    ("default", 0.05, 4.0, 21.670729958555825, 0.910403844870199),
    ("default", 1.0, 4.0, 1.490611375812568, 0.3481872182087375),
    ("default", 1.9, 4.0, 0.10303343515121613, 0.2564721893732456),
    ("default", 0.3, 1.0, 2.7974885717413165, 0.8720687124435546),
    ("c0", 1.5, 4.0, 0.22076387269412465, 0.315473814629173),
    ("c0", 0.3, 1.0, 2.313084812294214, 0.9654385224563111),
    ("two-atom", 3.0, 4.0, 0.1967268837203837, 0.385235945569174),
    ("two-atom", 1.5, 1.0, 0.19672688372038682, 0.7704718911383258),
])
def test_replica_reproduces_recorded_interior_roots(name, mu, factor, q, v):
    sol = replica_solve(REPLICA_MODELS[name], mu, convention_factor=factor)
    assert sol.branch == "interior"
    assert sol.Q == pytest.approx(q, rel=1e-9)
    assert sol.v == pytest.approx(v, rel=1e-9)


def test_laplace_ratio_with_split_scales():
    # f(x) = -x^2, g(x) = x on [-2, 2]: the n and sqrt(n(n-1)) scales split,
    # and the Gaussian-peak approximation around argmax(f + g) must capture
    # the integral to O(1/n)
    n = 2000
    x = np.linspace(-2.0, 2.0, 400001)
    expo = n * (-x * x) + math.sqrt(n * (n - 1.0)) * x
    w = np.full_like(x, x[1] - x[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    log_integral = float(logsumexp(expo + np.log(w)))
    x0 = 0.5  # argmax of f + g
    log_peak = n * (-x0 * x0) + math.sqrt(n * (n - 1.0)) * x0 + 0.5 * math.log(
        2.0 * math.pi / (2.0 * n)
    )
    assert math.exp(log_integral - log_peak) == pytest.approx(1.0, abs=1e-2)
