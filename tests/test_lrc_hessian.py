import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy.special import logsumexp
from scipy.stats import ks_2samp, kstest

from trivlab import (
    DegenerateConditioningError,
    LrcStructure,
    SrcCorrelator,
    constants,
    corner_conditional,
    edge_tail,
    eval_lrc,
    predictions,
    psi_lrc_maximizer,
    sample_corner_pairs,
    sample_g,
    schur_det,
    second_moment_ratio,
    tridiag_w_lambda_max,
)
import trivlab.lrc_hessian as lrc_hessian
from trivlab.lrc_hessian import BorderedHessianSample, _edge_exceedances
from trivlab.rmt import goe_eigenvalues

from oracles import (
    dense_bordered_eigenvalues,
    eig_edge_lambda_mins,
    eig_log_abs_dets,
    lrc_conditional_moment_oracle,
)

DEFAULT = LrcStructure()
MIX = LrcStructure(A=0.2, atoms=((0.6, 0.8), (0.4, 1.6)))
MU = 2.0
# rate-function maximizer of the default model at mu = 2
RHO_STAR = math.sqrt(1.5) / 2.0
U_STAR = -0.375
Y_STAR = -1.5
EDGE = 3.0 - 2.0 * math.sqrt(2.0)


def rebuild_arrowhead(s: BorderedHessianSample) -> np.ndarray:
    """Dense bordered matrix from the stored eigen-data of a sample."""
    n = s.n
    a = np.zeros((n, n))
    a[0, 0] = s.z1p
    a[0, 1:] = s.xi
    a[1:, 0] = s.xi
    a[1:, 1:] = np.diag(s.g_star_eigenvalues)
    return a


class TestConstants:
    @pytest.mark.parametrize(
        "model,mu,rho,u",
        [
            (DEFAULT, 2.0, RHO_STAR, U_STAR),
            (DEFAULT, 2.0, 0.9, 0.1),
            (DEFAULT, 3.0, 0.3, -0.5),
            (MIX, 2.5, 0.7, -0.3),
        ],
    )
    def test_matches_brute_gaussian_conditioning(self, model, mu, rho, u):
        o = lrc_conditional_moment_oracle(model, eval_lrc, mu, rho, u)
        c = constants(model, mu, rho, u)
        d2_0 = eval_lrc(model, 0.0, 2)
        assert c.m1 == pytest.approx(o["m1"], abs=1e-12)
        assert c.m2 == pytest.approx(o["m2"], abs=1e-12)
        assert c.mY == pytest.approx(o["mY"], abs=1e-12)
        assert c.sigmaY_sq_times_N == pytest.approx(o["sigmaY_sq_times_N"], abs=1e-12)
        # the (sigma1, sigma2) split carries the full covariance structure
        assert c.sigma1_sq_times_N + c.sigma2_sq_times_N == pytest.approx(
            o["var11_times_N"], abs=1e-12
        )
        assert c.sigma2_sq_times_N == pytest.approx(o["cov1k_times_N"], abs=1e-12)
        assert -2.0 * d2_0 - c.beta**2 == pytest.approx(o["covkl_times_N"], abs=1e-12)
        assert -6.0 * d2_0 - c.beta**2 == pytest.approx(o["varkk_times_N"], abs=1e-12)

    def test_conditioning_mean_plugin_form(self):
        rho, u = 0.75, -0.4
        c = constants(DEFAULT, MU, rho, u)
        r = rho * rho
        expected = 0.5 * MU * r - MU * eval_lrc(DEFAULT, r, 1) * r / eval_lrc(DEFAULT, 0.0, 1)
        assert c.mY == pytest.approx(expected, rel=1e-14)

    def test_maximizer_anchor_values(self):
        # frozen regression pins; the oracle test above is the real check
        c = constants(DEFAULT, MU, RHO_STAR, U_STAR)
        assert c.m1 == pytest.approx(2.876136, abs=1e-4)
        assert c.m2 == pytest.approx(2.330819, abs=1e-4)
        assert c.sigma1_sq_times_N == pytest.approx(1.111586, abs=1e-4)
        assert c.sigma2_sq_times_N == pytest.approx(0.247729, abs=1e-4)
        assert c.sigma1_sq_times_N > 0.0 and c.sigma2_sq_times_N > 0.0

    def test_small_rho_mean_energy_slice_is_regular(self):
        # on the path u = mY(rho) both bulk means collapse to mu exactly
        for rho in (1e-3, 1e-4):
            c0 = constants(DEFAULT, MU, rho, constants(DEFAULT, MU, rho, 0.0).mY)
            assert c0.m1 == pytest.approx(MU, abs=1e-12)
            assert c0.m2 == pytest.approx(MU, abs=1e-12)
        # one conditioning-sd above that path the means stay finite and converge
        vals = []
        for rho in (1e-3, 1e-4):
            base = constants(DEFAULT, MU, rho, 0.0)
            u = base.mY + math.sqrt(base.sigmaY_sq_times_N)
            vals.append(constants(DEFAULT, MU, rho, u).m2)
        assert abs(vals[0] - vals[1]) < 1e-4
        assert -1.0 < constants(DEFAULT, MU, 1e-4, 0.0).beta < -0.5
        # below that the variance scales vanish faster than the formula's
        # cancellation error and the degeneracy guard takes over
        with pytest.raises(DegenerateConditioningError):
            constants(DEFAULT, MU, 1e-5, 0.0)

    def test_validation(self):
        with pytest.raises(TypeError):
            constants(SrcCorrelator(), MU, 0.6, -0.3)
        with pytest.raises(ValueError):
            constants(DEFAULT, -1.0, 0.6, -0.3)
        with pytest.raises(DegenerateConditioningError):
            constants(DEFAULT, MU, 0.0, -0.3)


class TestCornerConditional:
    def test_pinning_identity_at_maximizer(self):
        d2_0 = eval_lrc(DEFAULT, 0.0, 2)
        cc = corner_conditional(DEFAULT, MU, RHO_STAR, U_STAR, Y_STAR)
        assert abs(cc.a_bar - (-math.sqrt(-4.0 * d2_0) * Y_STAR)) <= 1e-12
        assert abs(cc.a_bar - predictions(DEFAULT, MU).center) <= 1e-12
        assert cc.b_sq > 0.0

    @pytest.mark.parametrize("model,mu", [(DEFAULT, 2.0), (MIX, 2.5)])
    @pytest.mark.parametrize("rho,u,y", [(0.8, -0.2, -1.1), (0.5, 0.3, 0.4), (1.2, -0.6, -2.0)])
    def test_matches_regression_of_corner_on_shift(self, model, mu, rho, u, y):
        # independent route: Gaussian conditioning of z1' on z3' assembled
        # from the joint first and second moments
        c = constants(model, mu, rho, u)
        d2_0 = eval_lrc(model, 0.0, 2)
        a2 = -4.0 * d2_0
        r = rho * rho
        var_z3_n = (c.sigma2_sq_times_N + c.alpha * c.beta * r) / a2
        cov_z1_z3_n = -c.sigma2_sq_times_N / math.sqrt(a2)
        e_z3 = -c.m2 / math.sqrt(a2)
        a_bar_alt = c.m1 + cov_z1_z3_n / var_z3_n * (y - e_z3)
        b_sq_alt = c.sigma1_sq_times_N + c.sigma2_sq_times_N - cov_z1_z3_n**2 / var_z3_n
        cc = corner_conditional(model, mu, rho, u, y)
        assert cc.a_bar == pytest.approx(a_bar_alt, abs=1e-12)
        assert cc.b_sq == pytest.approx(b_sq_alt, abs=1e-12)


class TestSampleG:
    def test_determinism(self):
        a = sample_g(DEFAULT, MU, 0.8, -0.2, 24, seed=99)
        b = sample_g(DEFAULT, MU, 0.8, -0.2, 24, seed=99)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert a.z1p == b.z1p and a.z3p == b.z3p

    def test_joint_corner_moments(self):
        rho, u, n = 0.8, -0.2, 16
        c = constants(DEFAULT, MU, rho, u)
        d2_0 = eval_lrc(DEFAULT, 0.0, 2)
        a2 = -4.0 * d2_0
        draws = 200_000
        z1, z3 = sample_corner_pairs(DEFAULT, MU, rho, u, n, draws, seed=5150)
        var1 = (c.sigma1_sq_times_N + c.sigma2_sq_times_N) / n
        var3 = (c.sigma2_sq_times_N + c.alpha * c.beta * rho * rho) / (a2 * n)
        cov13 = -c.sigma2_sq_times_N / (math.sqrt(a2) * n)
        assert abs(z1.mean() - c.m1) <= 4.0 * math.sqrt(var1 / draws)
        assert abs(z3.mean() - (-c.m2 / math.sqrt(a2))) <= 4.0 * math.sqrt(var3 / draws)
        assert abs(z1.var() - var1) <= 4.0 * var1 * math.sqrt(2.0 / draws)
        assert abs(z3.var() - var3) <= 4.0 * var3 * math.sqrt(2.0 / draws)
        emp_cov = float(np.cov(z1, z3)[0, 1])
        se_cov = math.sqrt((var1 * var3 + cov13**2) / draws)
        assert abs(emp_cov - cov13) <= 4.0 * se_cov

    def test_sample_g_corner_agrees_with_pair_sampler(self):
        # both front ends share one draw core: seed-for-seed equality
        s = sample_g(DEFAULT, MU, 0.8, -0.2, 16, seed=4242)
        z1, z3 = sample_corner_pairs(DEFAULT, MU, 0.8, -0.2, 16, 1, seed=4242)
        assert s.z1p == z1[0] and s.z3p == z3[0]

    def test_border_variance(self):
        n = 16
        pooled = np.concatenate(
            [sample_g(DEFAULT, MU, 0.8, -0.2, n, seed=61_000 + i).xi for i in range(2000)]
        )
        target = -2.0 * eval_lrc(DEFAULT, 0.0, 2) / n
        se = target * math.sqrt(2.0 / (pooled.size - 1))
        assert abs(pooled.var() - target) <= 4.0 * se

    def test_pinned_corner_law(self):
        cc = corner_conditional(DEFAULT, MU, 0.8, -0.2, -1.0)
        n = 16
        z1 = np.array(
            [sample_g(DEFAULT, MU, 0.8, -0.2, n, seed=60_000 + i, y=-1.0).z1p for i in range(3000)]
        )
        sd = math.sqrt(cc.b_sq / n)
        assert abs(z1.mean() - cc.a_bar) <= 4.0 * sd / math.sqrt(z1.size)
        assert abs(z1.var() * n - cc.b_sq) <= 4.0 * cc.b_sq * math.sqrt(2.0 / z1.size)
        stat, p = kstest(z1, "norm", args=(cc.a_bar, sd))
        assert p > 0.01

    @pytest.mark.parametrize("y", [None, Y_STAR])
    def test_interlacement(self, y):
        for n in (12, 600):
            for seed in range(25):
                s = sample_g(DEFAULT, MU, RHO_STAR, U_STAR, n, seed=seed, y=y)
                lam = s.eigenvalues
                star = np.sort(s.g_star_eigenvalues)
                tol = 1e-10 * max(1.0, float(np.abs(lam).max()))
                assert np.all(lam[:-1] <= star + tol)
                assert np.all(star <= lam[1:] + tol)

    @pytest.mark.parametrize("n", [3, 12, 100, 600])
    @pytest.mark.parametrize("y", [None, Y_STAR])
    def test_trace_invariants(self, n, y):
        # tr G and tr G^2 of the arrowhead, read off its entries
        for seed in range(5):
            s = sample_g(DEFAULT, MU, RHO_STAR, U_STAR, n, seed=50_000 + seed, y=y)
            lam, g = s.eigenvalues, s.g_star_eigenvalues
            assert lam.shape == (n,) and g.shape == s.xi.shape == (n - 1,)
            tr1 = s.z1p + float(g.sum())
            assert abs(float(lam.sum()) - tr1) <= 1e-10 * (abs(s.z1p) + float(np.abs(g).sum()))
            tr2 = s.z1p**2 + 2.0 * float(s.xi @ s.xi) + float(g @ g)
            assert abs(float(lam @ lam) - tr2) <= 1e-10 * tr2

    @pytest.mark.parametrize("y", [None, Y_STAR])
    def test_lambda_min_law_matches_dense_oracle(self, y):
        # two-sample KS on lambda_min at alpha = 0.01, 2000 draws per side;
        # the oracle assembles G in the original basis from a dense GOE
        n, draws = 32, 2000
        d2_0 = eval_lrc(DEFAULT, 0.0, 2)
        fast = np.array(
            [sample_g(DEFAULT, MU, RHO_STAR, U_STAR, n, seed=80_000 + i, y=y).lambda_min
             for i in range(draws)]
        )
        rng = np.random.default_rng(82_000)
        if y is None:
            z1, z3 = sample_corner_pairs(DEFAULT, MU, RHO_STAR, U_STAR, n, draws, seed=81_000)
        else:
            cc = corner_conditional(DEFAULT, MU, RHO_STAR, U_STAR, y)
            z1 = cc.a_bar + math.sqrt(cc.b_sq / n) * rng.standard_normal(draws)
            z3 = np.full(draws, y)
        dense = np.array(
            [dense_bordered_eigenvalues(a, b, n, d2_0, rng)[0] for a, b in zip(z1, z3)]
        )
        _, p = ks_2samp(fast, dense)
        assert p > 0.01

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_g(DEFAULT, MU, 0.8, -0.2, 2, seed=0)


class TestSchurDet:
    @pytest.mark.parametrize("n", [8, 32, 64])
    def test_matches_dense_lu(self, n):
        for seed in range(30):
            s = sample_g(DEFAULT, MU, RHO_STAR, U_STAR, n, seed=900_000 + 3 * seed + n)
            sgn, logd = np.linalg.slogdet(rebuild_arrowhead(s))
            log_abs, sign = schur_det(s)
            assert abs(log_abs - logd) <= 1e-8
            assert sign == int(sgn)

    def _manual_sample(self, z1p, xi_bulk, g_star):
        g_star = np.asarray(g_star, dtype=float)
        n = g_star.size + 1
        return BorderedHessianSample(
            n=n,
            mu=MU,
            rho=0.8,
            u=-0.2,
            z1p=z1p,
            z3p=0.0,
            xi=np.asarray(xi_bulk, dtype=float),
            goe_eigenvalues=g_star / 2.0,
            g_star_eigenvalues=g_star,
            eigenvalues=np.sort(np.concatenate([[z1p], g_star])),
        )

    def test_zero_border_is_block_diagonal(self):
        g = np.array([-1.5, 0.5, 2.0, 3.0])
        s = self._manual_sample(2.0, np.zeros(4), g)
        log_abs, sign = schur_det(s)
        assert log_abs == pytest.approx(math.log(2.0 * 1.5 * 0.5 * 2.0 * 3.0), abs=1e-14)
        assert sign == -1

    def test_single_coordinate_border(self):
        # z1' = 0, xi = s e_1: det = -s^2 prod_{k >= 2} lambda_k
        g = np.array([0.7, 1.3, 2.1])
        s = self._manual_sample(0.0, np.array([0.5, 0.0, 0.0]), g)
        log_abs, sign = schur_det(s)
        assert log_abs == pytest.approx(math.log(0.25 * 1.3 * 2.1), abs=1e-12)
        assert sign == -1

    def test_warns_when_bulk_nearly_singular(self):
        s = self._manual_sample(1.0, np.array([0.1, 0.1]), np.array([1e-13, 2.0]))
        with pytest.warns(RuntimeWarning):
            schur_det(s)

    def test_clean_samples_do_not_warn(self):
        s = sample_g(DEFAULT, MU, RHO_STAR, U_STAR, 16, seed=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            schur_det(s)


class TestEdge:
    def test_pinned_edge_mean(self):
        n = 200
        lam = np.array(
            [
                sample_g(DEFAULT, MU, RHO_STAR, U_STAR, n, seed=4200 + i, y=Y_STAR).lambda_min
                for i in range(80)
            ]
        )
        # finite-size mean sits slightly inside the predicted edge
        assert abs(lam.mean() - EDGE) <= 0.1
        assert lam.min() > EDGE - 0.2

    def test_edge_tail_inversion_and_exclusion(self):
        assert edge_tail(DEFAULT, MU, 100, 60, -10.0, seed=11) == 1.0
        assert edge_tail(DEFAULT, MU, 100, 60, 0.2, seed=11) == 0.0

    def test_edge_tail_nonincreasing_in_n(self):
        fracs = [
            edge_tail(DEFAULT, MU, n, 200, 0.05, seed=s)
            for n, s in ((100, 210), (200, 211), (400, 212))
        ]
        assert fracs[0] >= fracs[1] >= fracs[2]
        assert fracs[0] <= 0.15

    def test_edge_tail_validation(self):
        with pytest.raises(ValueError):
            edge_tail(DEFAULT, MU, 100, 49, 0.1, seed=0)
        with pytest.raises(ValueError):
            edge_tail(DEFAULT, MU, 2, 50, 0.1, seed=0)

    def test_edge_tail_negative_shift_coupling_raises(self, monkeypatch):
        real = lrc_hessian.constants

        def flipped(*args):
            c = real(*args)
            return dataclasses.replace(c, alpha=-c.alpha)

        monkeypatch.setattr(lrc_hessian, "constants", flipped)
        with pytest.raises(DegenerateConditioningError):
            edge_tail(DEFAULT, MU, 100, 50, 0.1, seed=0)
        with pytest.raises(DegenerateConditioningError):
            sample_g(DEFAULT, MU, RHO_STAR, U_STAR, 100, seed=0, y=Y_STAR)

    @pytest.mark.parametrize("n, trials", [(3, 200), (4, 200), (100, 200), (600, 50)])
    def test_decisions_match_w_eigensolve(self, n, trials, monkeypatch):
        # the Sturm-count decision against the largest eigenvalue of the same
        # W draws (tridiag_w_lambda_max, one eigensolve per draw), swept in
        # blocks of 7 draws with a partial last block
        monkeypatch.setattr(lrc_hessian, "LOGDET_BLOCK_ENTRIES", 7 * n)
        seed = 60 + n
        point, _ = psi_lrc_maximizer(DEFAULT, MU)
        child = np.random.SeedSequence(seed).generate_state(trials, dtype=np.uint64)
        wmax = np.array([tridiag_w_lambda_max(DEFAULT, MU, point.rho, point.u, point.y, n, seed=int(c))
                         for c in child])
        d2_0 = eval_lrc(DEFAULT, 0.0, 2)
        fractions = []
        for eps in (0.2, 0.05, 0.0, -0.05):
            t = predictions(DEFAULT, MU).lambda_edge - eps
            w_t = -(t + math.sqrt(-4.0 * d2_0) * point.y) / math.sqrt(-2.0 * d2_0 / n)
            hits = _edge_exceedances(DEFAULT, MU, n, trials, eps, seed)
            np.testing.assert_array_equal(hits, wmax >= w_t)
            fractions.append(hits.mean())
        assert fractions == sorted(fractions)
        assert edge_tail(DEFAULT, MU, n, trials, 0.05, seed) == fractions[1]

    def test_decisions_are_not_trivial(self):
        # thresholds below, at and above the edge split the draws at N = 100
        fractions = [edge_tail(DEFAULT, MU, 100, 2000, eps, seed=77) for eps in (0.2, 0.05, 0.0, -0.05)]
        assert fractions == sorted(fractions) and 0.0 < fractions[0] and fractions[-1] < 1.0

    def test_zero_pivot_counts_as_exceedance(self, monkeypatch):
        # give every draw the eigenvalue w_t exactly (a decoupled last entry):
        # the last pivot of w_t I - W is then exactly 0, is replaced by -pivmin
        # and counted, as lambda_max(W) >= w_t asks
        n, trials, eps, seed = 100, 60, 0.2, 11
        real = lrc_hessian._w_sampler

        def with_eigenvalue_at_threshold(model, mu, rho, u, y, n):
            draw = real(model, mu, rho, u, y, n)
            w_t = lrc_hessian._w_threshold(model, y, n, predictions(model, mu).lambda_edge - eps)

            def decoupled(seed):
                diag, off = draw(seed)
                diag[-1], off[-1] = w_t, 0.0
                return diag, off

            return decoupled

        assert not _edge_exceedances(DEFAULT, MU, n, trials, eps, seed).any()
        monkeypatch.setattr(lrc_hessian, "_w_sampler", with_eigenvalue_at_threshold)
        assert _edge_exceedances(DEFAULT, MU, n, trials, eps, seed).all()

    def test_same_law_as_full_eigensolve(self):
        # equality in law against the old route: lambda_min of sample_g's
        # bordered Hessian, one eigensolve per draw, on independent seeds.
        # Two-proportion z-test per threshold at alpha = 0.001 (|z| <= 3.29),
        # so the three together false-alarm at most 0.3% of the time.
        n, trials = 100, 2000
        point, _ = psi_lrc_maximizer(DEFAULT, MU)
        lam = eig_edge_lambda_mins(sample_g, DEFAULT, MU, point, n, trials, seed=77)
        edge = predictions(DEFAULT, MU).lambda_edge
        for eps in (0.05, 0.0, -0.05):
            p_eig = float(np.mean(lam <= edge - eps))
            p_w = edge_tail(DEFAULT, MU, n, trials, eps, seed=1077)
            pooled = 0.5 * (p_eig + p_w)
            z = (p_w - p_eig) / math.sqrt(pooled * (1.0 - pooled) * 2.0 / trials)
            assert 0.0 < pooled < 1.0 and abs(z) <= 3.29, (eps, p_eig, p_w, z)


class TestTridiagW:
    def test_reconstruction_matches_direct_sampling(self):
        n = 200
        d2_0 = eval_lrc(DEFAULT, 0.0, 2)
        direct = np.array(
            [
                sample_g(DEFAULT, MU, RHO_STAR, U_STAR, n, seed=20_000 + i, y=Y_STAR).lambda_min
                for i in range(500)
            ]
        )
        wmax = np.array(
            [
                tridiag_w_lambda_max(DEFAULT, MU, RHO_STAR, U_STAR, Y_STAR, n, seed=30_000 + i)
                for i in range(500)
            ]
        )
        recon = -math.sqrt(-2.0 * d2_0 / n) * wmax - math.sqrt(-4.0 * d2_0) * Y_STAR
        stat, _ = ks_2samp(direct, recon)
        assert stat < 1.628 * math.sqrt(2.0 / 500.0)  # 1% critical value

    def test_lambda_max_scale(self):
        n = 1000
        ratios = np.array(
            [
                tridiag_w_lambda_max(DEFAULT, MU, RHO_STAR, U_STAR, Y_STAR, n, seed=7000 + i)
                for i in range(100)
            ]
        ) / math.sqrt(n)
        assert np.mean(ratios <= 2.25) >= 0.95

    def test_determinism_and_validation(self):
        a = tridiag_w_lambda_max(DEFAULT, MU, 0.8, -0.2, -1.0, 64, seed=5)
        b = tridiag_w_lambda_max(DEFAULT, MU, 0.8, -0.2, -1.0, 64, seed=5)
        assert a == b and math.isfinite(a)
        with pytest.raises(ValueError):
            tridiag_w_lambda_max(DEFAULT, MU, 0.8, -0.2, -1.0, 2, seed=5)


class TestBinnedConditional:
    def test_binned_corner_mean_and_law(self):
        rho, u, n = 0.8, -0.2, 16
        c = constants(DEFAULT, MU, rho, u)
        d2_0 = eval_lrc(DEFAULT, 0.0, 2)
        a2 = -4.0 * d2_0
        z1, z3 = sample_corner_pairs(DEFAULT, MU, rho, u, n, 200_000, seed=5150)
        e_z3 = -c.m2 / math.sqrt(a2)
        sd3 = math.sqrt((c.sigma2_sq_times_N + c.alpha * c.beta * rho * rho) / (a2 * n))
        for yc in (e_z3, e_z3 + 0.7 * sd3, e_z3 - 0.7 * sd3):
            sel = z1[np.abs(z3 - yc) <= 0.005]
            assert sel.size > 1000
            cc = corner_conditional(DEFAULT, MU, rho, u, yc)
            se = sel.std(ddof=1) / math.sqrt(sel.size)
            assert abs(sel.mean() - cc.a_bar) <= 3.0 * se
            _, p = kstest(sel, "norm", args=(cc.a_bar, math.sqrt(cc.b_sq / n)))
            assert p > 0.01


class TestSecondMoment:
    def test_exponent_is_small_beyond_the_bulk(self):
        assert second_moment_ratio(50, 2.0, 4000, seed=100) <= 0.1
        assert second_moment_ratio(50, 10.0, 2000, seed=101) <= 0.01

    def test_exponent_nonincreasing_in_n(self):
        means = []
        for n in (25, 50, 100):
            reps = [second_moment_ratio(n, 2.5, 2000, seed=100 + r) for r in range(3)]
            means.append(float(np.mean(reps)))
        assert means[0] >= means[1] >= means[2]

    def test_matches_eigensolve_oracle(self):
        n, x, samples = 50, 2.0, 1000
        logs = eig_log_abs_dets(n, samples, np.random.default_rng(100), x, goe_eigenvalues)
        log_e2 = float(logsumexp(2.0 * logs) - math.log(samples))
        log_e1 = float(logsumexp(logs) - math.log(samples))
        assert second_moment_ratio(n, x, samples, seed=100) == pytest.approx(
            (log_e2 - 2.0 * log_e1) / n, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            second_moment_ratio(50, 1.5, 2000, seed=0)
        with pytest.raises(ValueError):
            second_moment_ratio(50, math.sqrt(2.0) + 0.1, 2000, seed=0)
        with pytest.raises(ValueError):
            second_moment_ratio(50, 2.0, 999, seed=0)
