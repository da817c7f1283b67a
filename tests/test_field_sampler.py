import dataclasses
import math

import numpy as np
import pytest
from scipy import stats

from trivlab import (
    LrcStructure,
    SrcCorrelator,
    eval_hamiltonian,
    eval_lrc,
    eval_src,
    exact_sample_on_points,
    sample_field,
)
from trivlab.experiments import SCREEN_MARGIN, _search_radius, _uniform_ball
from trivlab.field_sampler import _evaluate, covariance_on_points

from oracles import dense_field_hessian, lrc_pointwise_covariance

DEFAULT_SRC = SrcCorrelator()          # B(r) = exp(-r)
DEFAULT_LRC = LrcStructure()           # D(r) = 0.5 r + 1 - exp(-r)


def value_matrix(model, n, k, points, reps, seed0):
    """X evaluated at fixed points across independent realizations."""
    pts = [np.asarray(p, dtype=float) for p in points]
    out = np.empty((reps, len(pts)))
    for i in range(reps):
        f = sample_field(model, n, k, seed=seed0 + i)
        out[i] = [f.field_value(p) for p in pts]
    return out


def cov_and_se(a, b):
    pa = a - a.mean()
    pb = b - b.mean()
    prods = pa * pb
    return prods.mean(), prods.std(ddof=1) / math.sqrt(len(prods))


# ------------------------------------------------------------- construction

def test_lrc_value_pinned_at_origin_exactly():
    for seed in range(5):
        f = sample_field(DEFAULT_LRC, 6, 128, seed=seed)
        assert f.field_value(np.zeros(6)) == 0.0
        assert eval_hamiltonian(f, 2.0, np.zeros(6)).value == 0.0


def test_empty_model_gives_zero_field():
    flat = SrcCorrelator(c0=0.0, atoms=())
    f = sample_field(flat, 3, 0, seed=2)
    assert f.k == 0
    rng = np.random.default_rng(0)
    for _ in range(3):
        assert f.field_value(rng.standard_normal(3)) == 0.0
    # the Hamiltonian is then the bare paraboloid with its one critical point
    ev = eval_hamiltonian(f, 3.0, np.array([1.0, 0.0, 0.0]))
    assert ev.value == 1.5
    np.testing.assert_array_equal(ev.gradient, [3.0, 0.0, 0.0])
    np.testing.assert_array_equal(ev.hessian, 3.0 * np.eye(3))
    at0 = eval_hamiltonian(f, 3.0, np.zeros(3))
    assert np.all(at0.gradient == 0.0)
    # a requested feature budget is meaningless without atoms
    assert sample_field(flat, 3, 64, seed=2).k == 0


def test_sampler_validation():
    with pytest.raises(ValueError):
        sample_field(DEFAULT_SRC, 4, 0, seed=1)   # atoms present, no features
    with pytest.raises(ValueError):
        sample_field(DEFAULT_SRC, 0, 16, seed=1)
    with pytest.raises(ValueError):
        sample_field(DEFAULT_SRC, 4, -1, seed=1)
    with pytest.raises(TypeError):
        sample_field("not a model", 4, 16, seed=1)
    f = sample_field(DEFAULT_SRC, 4, 16, seed=1)
    with pytest.raises(ValueError):
        eval_hamiltonian(f, 0.0, np.zeros(4))
    with pytest.raises(ValueError):
        eval_hamiltonian(f, 1.0, np.zeros(3))
    with pytest.raises(ValueError):
        eval_hamiltonian(f, 1.0, np.array([np.nan, 0.0, 0.0, 0.0]))


def test_realizations_reproducible_bit_identical():
    a = sample_field(DEFAULT_LRC, 7, 64, seed=123)
    b = sample_field(DEFAULT_LRC, 7, 64, seed=123)
    assert a.kind == b.kind and a.n == b.n and a.k == b.k and a.seed == b.seed
    assert np.array_equal(a.w, b.w)
    assert np.array_equal(a.phases, b.phases)
    assert np.array_equal(a.amplitudes, b.amplitudes)
    assert np.array_equal(a.xi, b.xi)
    assert a.g0 == b.g0
    c = sample_field(DEFAULT_LRC, 7, 64, seed=124)
    assert not np.array_equal(a.w, c.w)


# ------------------------------------------------------------- derivatives

@pytest.mark.parametrize("model", [DEFAULT_SRC, DEFAULT_LRC], ids=["src", "lrc"])
def test_gradient_matches_finite_differences(model):
    f = sample_field(model, 5, 512, seed=7)
    mu = 2.0
    rng = np.random.default_rng(11)
    h = 1e-6
    for _ in range(5):
        x = rng.standard_normal(5)
        g = eval_hamiltonian(f, mu, x).gradient
        fd = np.empty(5)
        for i in range(5):
            e = np.zeros(5)
            e[i] = h
            fd[i] = (
                eval_hamiltonian(f, mu, x + e).value
                - eval_hamiltonian(f, mu, x - e).value
            ) / (2.0 * h)
        assert np.max(np.abs(fd - g)) / (1.0 + np.max(np.abs(g))) < 1e-6


@pytest.mark.parametrize("model", [DEFAULT_SRC, DEFAULT_LRC], ids=["src", "lrc"])
def test_hessian_matches_finite_differences(model):
    f = sample_field(model, 5, 512, seed=8)
    mu = 2.0
    rng = np.random.default_rng(12)
    h = 1e-6
    for _ in range(3):
        x = rng.standard_normal(5)
        hess = eval_hamiltonian(f, mu, x).hessian
        fd = np.empty((5, 5))
        for i in range(5):
            e = np.zeros(5)
            e[i] = h
            fd[:, i] = (
                eval_hamiltonian(f, mu, x + e).gradient
                - eval_hamiltonian(f, mu, x - e).gradient
            ) / (2.0 * h)
        assert np.max(np.abs(fd - hess)) / (1.0 + np.max(np.abs(hess))) < 1e-5


def test_hessian_exactly_symmetric():
    for model, seed in ((DEFAULT_SRC, 3), (DEFAULT_LRC, 4)):
        f = sample_field(model, 9, 256, seed=seed)
        x = np.random.default_rng(seed).standard_normal(9)
        hess = eval_hamiltonian(f, 1.5, x).hessian
        assert (hess == hess.T).all()


def test_hessian_eigenvalue_bound():
    # each feature contributes a rank-one term of norm at most s_k |w_k|^2
    f = sample_field(DEFAULT_SRC, 6, 256, seed=9)
    mu = 2.5
    budget = float(f.amplitudes @ np.sum(f.w * f.w, axis=1))
    rng = np.random.default_rng(21)
    for _ in range(3):
        eigs = np.linalg.eigvalsh(eval_hamiltonian(f, mu, rng.standard_normal(6)).hessian)
        assert eigs.max() <= mu + budget + 1e-12
        assert eigs.min() >= mu - budget - 1e-12


# ------------------------------------------------------- covariance structure

def test_src_covariance_matches_correlator():
    # stationary kernel: Cov[X(x), X(y)] / N = B(|x-y|^2 / N)
    x = np.array([1.0, 0.0])
    y = np.array([0.0, 1.0])
    vals = value_matrix(DEFAULT_SRC, 2, 512, [x, y], reps=20_000, seed0=10_000)
    c, se = cov_and_se(vals[:, 0], vals[:, 1])
    assert abs(c / 2.0 - math.exp(-1.0)) <= 3.0 * se / 2.0
    assert se / 2.0 < 0.02


def test_lrc_increment_law_and_isotropy():
    n = 3
    pairs = [
        (np.zeros(n), np.array([1.0, 1.0, 1.0])),
        (np.array([0.5, -0.2, 0.9]), np.array([-0.5, 0.8, 1.9])),  # same distance as above
        (np.zeros(n), np.array([2.0, 0.0, 0.0])),
        (np.array([1.0, 0.0, 0.0]), np.array([1.0, 0.4, 0.0])),
        (np.array([-1.0, 2.0, 0.5]), np.array([0.3, 2.0, -1.0])),
    ]
    points = [p for pair in pairs for p in pair]
    vals = value_matrix(DEFAULT_LRC, n, 256, points, reps=10_000, seed0=50_000)
    means, ses = [], []
    for j, (a, b) in enumerate(pairs):
        inc = (vals[:, 2 * j] - vals[:, 2 * j + 1]) ** 2 / n
        r = float(np.dot(a - b, a - b)) / n
        m = inc.mean()
        se = inc.std(ddof=1) / math.sqrt(len(inc))
        assert abs(m - eval_lrc(DEFAULT_LRC, r)) <= 3.0 * se, f"pair {j}"
        means.append(m)
        ses.append(se)
    # isotropy: pairs 0 and 1 are at the same distance in different positions
    assert abs(means[0] - means[1]) <= 3.0 * math.hypot(ses[0], ses[1])


def test_src_derivative_covariances_match_kernel():
    # stationary-kernel identities: Var dX_i = -2 B'(0), Var d2X_ii = 12 B''(0)/N,
    # Var d2X_ij = Cov(d2X_ii, d2X_jj) = 4 B''(0)/N, Cov(X, d2X_ii) = 2 B'(0)
    n, k, reps = 8, 512, 6000
    mu = 1.0
    x = np.random.default_rng(77).standard_normal(n)
    grads = np.empty((reps, n))
    vals = np.empty(reps)
    h00 = np.empty(reps)
    h01 = np.empty(reps)
    h11 = np.empty(reps)
    for i in range(reps):
        f = sample_field(DEFAULT_SRC, n, k, seed=200_000 + i)
        ev = eval_hamiltonian(f, mu, x)
        vals[i] = ev.value
        grads[i] = ev.gradient - mu * x
        h00[i] = ev.hessian[0, 0]
        h01[i] = ev.hessian[0, 1]
        h11[i] = ev.hessian[1, 1]

    pooled = (grads - grads.mean(axis=0)).ravel()
    vg = pooled.var(ddof=1)
    assert abs(vg - 2.0) <= 4.0 * vg * math.sqrt(2.0 / pooled.size)

    v00 = h00.var(ddof=1)
    assert abs(v00 - 1.5) <= 4.0 * v00 * math.sqrt(2.0 / reps)
    v01 = h01.var(ddof=1)
    assert abs(v01 - 0.5) <= 4.0 * v01 * math.sqrt(2.0 / reps)
    c_diag, se_diag = cov_and_se(h00, h11)
    assert abs(c_diag - 0.5) <= 4.0 * se_diag
    c_vh, se_vh = cov_and_se(vals, h00)
    assert abs(c_vh - (-2.0)) <= 4.0 * se_vh


def kernel_mixed_derivative(model, x, i, j, h=1e-3):
    """d^2 Cov(X(x), X(y)) / dx_i dy_j at y = x, from the closed-form kernel."""
    def c(a, b):
        return lrc_pointwise_covariance(model, a, b, eval_lrc)

    ei = np.zeros(len(x))
    ej = np.zeros(len(x))
    ei[i] = h
    ej[j] = h
    return (
        c(x + ei, x + ej) - c(x + ei, x - ej) - c(x - ei, x + ej) + c(x - ei, x - ej)
    ) / (4.0 * h * h)


def test_lrc_gradient_covariance_matches_kernel_derivative():
    n, k, reps = 3, 256, 8000
    x = np.array([0.8, -0.4, 1.1])
    grads = np.empty((reps, n))
    for i in range(reps):
        f = sample_field(DEFAULT_LRC, n, k, seed=300_000 + i)
        grads[i] = f.field_gradient(x)
    for i in (0, 2):
        target = kernel_mixed_derivative(DEFAULT_LRC, x, i, i)
        v = grads[:, i].var(ddof=1)
        assert abs(v - target) <= 4.0 * v * math.sqrt(2.0 / reps)
    target02 = kernel_mixed_derivative(DEFAULT_LRC, x, 0, 2)
    c02, se02 = cov_and_se(grads[:, 0], grads[:, 2])
    assert abs(c02 - target02) <= 4.0 * se02


def test_lrc_value_covariance_matches_oracle():
    n = 3
    pts = [
        np.array([1.0, 0.0, 0.0]),
        np.array([0.0, 1.0, 0.0]),
        np.array([0.5, 0.5, 0.0]),
        np.array([1.0, 1.0, 1.0]),
    ]
    vals = value_matrix(DEFAULT_LRC, n, 256, pts, reps=10_000, seed0=400_000)
    for a, b in ((0, 1), (2, 3)):
        target = lrc_pointwise_covariance(DEFAULT_LRC, pts[a], pts[b], eval_lrc)
        c, se = cov_and_se(vals[:, a], vals[:, b])
        assert abs(c - target) <= 3.5 * se


# ------------------------------------------------------------ exact sampling

def test_exact_single_pinned_point_is_zero():
    s = exact_sample_on_points(DEFAULT_LRC, [np.zeros(5)], 200, seed=3)
    assert s.shape == (200, 1)
    assert np.all(s == 0.0)


def test_exact_src_single_point_variance():
    p = np.array([1.0, 1.0, 0.0])
    s = exact_sample_on_points(DEFAULT_SRC, [p], 10_000, seed=4).ravel()
    v = s.var(ddof=1)
    target = 3.0 * eval_src(DEFAULT_SRC, 0.0)
    assert abs(v - target) <= 3.0 * v * math.sqrt(2.0 / (len(s) - 1))


def test_exact_src_antipodal_correlation():
    p = np.array([0.9, 0.0, -0.3])
    s = exact_sample_on_points(DEFAULT_SRC, [p, -p], 20_000, seed=5)
    rho = np.corrcoef(s[:, 0], s[:, 1])[0, 1]
    target = eval_src(DEFAULT_SRC, 4.0 * float(p @ p) / 3.0) / eval_src(DEFAULT_SRC, 0.0)
    se = (1.0 - target * target) / math.sqrt(s.shape[0])
    assert abs(rho - target) <= 3.0 * se


def test_exact_lrc_with_origin_among_points():
    pts = [np.array([1.5, 0.0, 0.0]), np.zeros(3), np.array([-1.0, 0.0, 0.0])]
    s = exact_sample_on_points(DEFAULT_LRC, pts, 5000, seed=6)
    # the pinned marginal only carries factorization jitter
    assert np.abs(s[:, 1]).max() <= 1e-4
    cov = covariance_on_points(DEFAULT_LRC, pts)
    v0 = s[:, 0].var(ddof=1)
    assert abs(v0 - cov[0, 0]) <= 4.0 * v0 * math.sqrt(2.0 / s.shape[0])


def test_exact_sampler_validation():
    p = np.array([1.0, 0.0])
    with pytest.raises(ValueError):
        exact_sample_on_points(DEFAULT_SRC, [p, p.copy()], 10, seed=0)
    with pytest.raises(ValueError):
        exact_sample_on_points(DEFAULT_SRC, [p], 0, seed=0)
    with pytest.raises(TypeError):
        exact_sample_on_points(object(), [p], 10, seed=0)


def test_exact_sampling_deterministic():
    pts = [np.array([1.0, 0.0]), np.array([0.0, 2.0])]
    a = exact_sample_on_points(DEFAULT_SRC, pts, 50, seed=11)
    b = exact_sample_on_points(DEFAULT_SRC, pts, 50, seed=11)
    np.testing.assert_array_equal(a, b)


def test_exact_matches_features_in_distribution():
    # two-sample KS on the X(p) marginal, feature construction at k = 2^14
    # against the closed-form Gaussian; 1% critical value for n1 = n2 = 1000
    n = 4
    p = np.array([1.0, -1.0, 0.5, 2.0])
    reps = 1000
    feats = np.empty(reps)
    for i in range(reps):
        f = sample_field(DEFAULT_LRC, n, 2**14, seed=700_000 + i)
        feats[i] = f.field_value(p)
    exact = exact_sample_on_points(DEFAULT_LRC, [p], reps, seed=701).ravel()
    stat = stats.ks_2samp(feats, exact).statistic
    crit = 1.628 * math.sqrt(2.0 / reps)
    assert stat < crit


# ------------------------------------------------------- Hessian assembly

def _hessian_tol(reference):
    return 1e-12 * (1.0 + np.abs(reference).max())


@pytest.mark.parametrize("model", [DEFAULT_SRC, DEFAULT_LRC], ids=["src", "lrc"])
def test_single_point_hessian_matches_dense_oracle(model):
    # one point takes the split-sign rank-K update path
    f = sample_field(model, 40, 2048, seed=31)
    x = np.random.default_rng(32).standard_normal(40)
    hess = f.field_hessian(x)
    ref = dense_field_hessian(f, x)
    assert (hess == hess.T).all()
    assert np.abs(hess - ref).max() <= _hessian_tol(ref)
    full = eval_hamiltonian(f, 1.5, x).hessian
    np.testing.assert_array_equal(full, hess + 1.5 * np.eye(40))


def test_batched_hessians_match_oracle_and_single_points():
    # 100 points >= N(N+1)/2 = 21 take the outer-product table path
    f = sample_field(DEFAULT_SRC, 6, 1024, seed=33)
    xs = np.random.default_rng(34).standard_normal((100, 6))
    _, grads, hessians = _evaluate(f, 2.0, xs, gradient=True, hessian=True)
    for x, g, hess in zip(xs, grads, hessians):
        assert (hess == hess.T).all()
        ref = dense_field_hessian(f, x) + 2.0 * np.eye(6)
        assert np.abs(hess - ref).max() <= _hessian_tol(ref)
        single = eval_hamiltonian(f, 2.0, x)
        assert np.abs(hess - single.hessian).max() <= _hessian_tol(ref)
        np.testing.assert_allclose(g, single.gradient, rtol=0.0,
                                   atol=1e-12 * (1.0 + np.abs(g).max()))


def test_hessian_with_cos_weights_of_one_sign():
    # all features in phase at x = 0: every cos weight is positive (then all
    # negative at the antipodal phase), so one rank-K half is empty
    n, k = 5, 64
    f = sample_field(DEFAULT_SRC, n, k, seed=35)
    for phase in (0.0, math.pi):
        g = dataclasses.replace(f, phases=np.full(k, phase))
        x = np.zeros(n)
        ref = dense_field_hessian(g, x)
        hess = g.field_hessian(x)
        assert (hess == hess.T).all()
        assert np.abs(hess - ref).max() <= _hessian_tol(ref)
        _, _, batch = _evaluate(g, 0.0, np.zeros((n * (n + 1) // 2, n)), hessian=True)
        assert np.abs(batch - ref).max() <= _hessian_tol(ref)


def test_featureless_field_hessian_is_the_confinement():
    f = sample_field(SrcCorrelator(c0=1.0, atoms=()), 4, 16, seed=36)
    assert f.k == 0
    x = np.random.default_rng(37).standard_normal(4)
    np.testing.assert_array_equal(eval_hamiltonian(f, 2.0, x).hessian, 2.0 * np.eye(4))
    _, grads, hessians = _evaluate(f, 2.0, np.tile(x, (10, 1)), gradient=True, hessian=True)
    np.testing.assert_array_equal(hessians, np.broadcast_to(2.0 * np.eye(4), (10, 4, 4)))
    np.testing.assert_array_equal(grads, np.tile(2.0 * x, (10, 1)))


@pytest.mark.parametrize("model", [DEFAULT_SRC, DEFAULT_LRC], ids=["src", "lrc"])
@pytest.mark.parametrize("n,k", [(6, 1024), (20, 2048), (50, 4096), (200, 8192)])
def test_float32_gradient_norm_within_screen_margin(model, n, k):
    # the census rejects a line-search probe from its float32 |grad| only
    # beyond SCREEN_MARGIN * (|grad| + sqrt(N)); the float32 error must stay
    # far inside that margin, inside the search ball and out to the farthest
    # probe a capped step reaches (3 radii + 1)
    mu = 1.0
    field = sample_field(model, n, k, seed=n)
    radius = _search_radius(field, mu)
    rng = np.random.default_rng(n + 1)
    dirs = rng.standard_normal((400, n))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    r = np.concatenate([rng.uniform(0.0, radius, 200),
                        rng.uniform(radius, 3.0 * radius + 1.0, 200)])
    xs = dirs * r[:, None]
    _, g64, _ = _evaluate(field, mu, xs, gradient=True)
    _, g32, _ = _evaluate(field, mu, xs.astype(np.float32), gradient=True)
    assert g32.dtype == np.float32 and g64.dtype == np.float64
    gn64 = np.linalg.norm(g64, axis=1)
    gn32 = np.linalg.norm(g32, axis=1).astype(float)
    margin = SCREEN_MARGIN * (gn64 + math.sqrt(n))
    assert np.all(np.abs(gn32 - gn64) <= margin / 10)


def test_float64_rows_depend_on_the_batch_only_in_the_last_bits():
    # BLAS sums a batch's tail in another order, so a row of a 1000-point
    # batch need not equal the point evaluated alone; _evaluate states the
    # bound, and census comparisons across batch compositions rely on it
    field = sample_field(DEFAULT_SRC, 6, 1024, seed=7100)
    radius = _search_radius(field, 1.0)
    xs = np.array([_uniform_ball(np.random.default_rng(np.random.SeedSequence((7101, 2, i))),
                                 6, radius) for i in range(1000)])
    _, batch, _ = _evaluate(field, 1.0, xs, gradient=True)
    for x, g in zip(xs[:100], batch[:100]):
        _, alone, _ = _evaluate(field, 1.0, x[None, :], gradient=True)
        assert np.abs(g - alone[0]).max() <= 1e-13 * (1.0 + np.abs(alone[0]).max())


def test_float32_hessian_is_the_float64_one_to_float32_accuracy():
    field = sample_field(DEFAULT_SRC, 40, 2048, seed=38)
    xs = np.random.default_rng(39).standard_normal((2, 40))
    for x in xs:
        _, _, h64 = _evaluate(field, 1.5, x[None, :], hessian=True)
        _, _, h32 = _evaluate(field, 1.5, x[None, :], hessian=True, hessian_dtype=np.float32)
        assert h32.dtype == np.float64 and (h32[0] == h32[0].T).all()
        # mu is added after the upcast, so the diagonal carries it exactly
        _, _, bare = _evaluate(field, 0.0, x[None, :], hessian=True, hessian_dtype=np.float32)
        np.testing.assert_array_equal(h32[0], bare[0] + 1.5 * np.eye(40))
        err = np.abs(h32 - h64).max()
        assert 0.0 < err <= 1e-5 * np.abs(h64).max()
