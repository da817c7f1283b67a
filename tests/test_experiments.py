import collections
import dataclasses
import functools
import math
from unittest import mock

import numpy as np
import pytest

from trivlab.complexity import predictions
from trivlab.config import ModelConfig, RunConfig
from trivlab.errors import SearchFailureError
import trivlab.experiments as experiments
from trivlab.experiments import (
    SHIFT_RUNGS,
    _descent_step,
    aggregate,
    census,
    minimize,
    run_census_trials,
    run_trials,
)
from trivlab.field_sampler import eval_hamiltonian, sample_field
from trivlab.structure_functions import LrcStructure, SrcCorrelator

from oracles import float64_descent, linear_shift_ladder

SRC = SrcCorrelator()


def small_field(n=24, k=1024, seed=3):
    return sample_field(SRC, n, k=k, seed=seed)


class TestMinimize:
    def test_finds_the_minimum(self):
        field = small_field()
        best = minimize(field, 3.0, n_starts=3, seed=0)
        ev = eval_hamiltonian(field, 3.0, best.x)
        assert np.linalg.norm(ev.gradient) <= 1e-9 * math.sqrt(field.n)
        assert best.index == 0
        assert best.lambda_min > 0.0
        assert best.value_per_n == pytest.approx(ev.value / field.n, abs=1e-12)

    def test_deterministic_in_seed(self):
        field = small_field()
        a = minimize(field, 3.0, n_starts=4, seed=7)
        b = minimize(field, 3.0, n_starts=4, seed=7)
        assert np.array_equal(a.x, b.x)
        assert a.value_per_n == b.value_per_n

    def test_corroborated_when_every_start_agrees(self):
        # stiff confinement: every start falls into the same basin
        field = small_field(n=12, k=512)
        best = minimize(field, 3.0, n_starts=12, seed=2)
        assert best.corroborated

    def test_validation(self):
        field = small_field(n=8, k=128)
        with pytest.raises(ValueError):
            minimize(field, 3.0, n_starts=0, seed=0)

    def test_near_prediction_at_moderate_size(self):
        field = sample_field(SRC, 100, k=4096, seed=900)
        best = minimize(field, 3.0, n_starts=4, seed=0)
        rep = predictions(SRC, 3.0)
        rho = float(np.linalg.norm(best.x)) / math.sqrt(field.n)
        assert best.value_per_n == pytest.approx(rep.u_star, abs=0.35)
        assert rho == pytest.approx(rep.rho_star, abs=0.2)


    def test_counters_add_up(self, caplog):
        field = small_field()
        with caplog.at_level("DEBUG", logger="trivlab.experiments"):
            minimize(field, 3.0, n_starts=4, seed=0)
        records = [r for r in caplog.records if r.name == "trivlab.experiments"]
        assert len(records) == 1
        c = records[0].minimize_counts
        assert c["starts"] == 4 and 1 <= c["converged"] <= 4
        # one float64 Hessian per call, at the winner; one float32 Hessian
        # per Newton step and none anywhere else
        assert c["float64_hessians"] == 1
        assert c["float32_hessians"] == c["newton_steps"] > 0
        assert c["probes"] > 0
        assert 0 <= c["max_rung"] < SHIFT_RUNGS
        assert c["exhausted"] >= 0 and c["endgame_rejects"] >= 0
        assert "4 starts" in records[0].getMessage()

    def test_failed_search_still_logs_its_counters(self, caplog):
        field = small_field(n=8, k=256)
        with caplog.at_level("DEBUG", logger="trivlab.experiments"):
            with pytest.raises(SearchFailureError):
                minimize(field, 3.0, n_starts=1, seed=0, grad_tol=1e-300)
        c = caplog.records[-1].minimize_counts
        assert c["converged"] == 0 and c["float64_hessians"] == 0
        assert c["float32_hessians"] == c["newton_steps"] > 0


class TestMixedPrecision:
    """float32 search Hessians against the all-float64 descent (oracle)."""

    # (model, mu, N, K, field seed), fixed before the first run
    FIELDS = [
        (SRC, 3.0, 24, 1024, 61),
        (SRC, 3.0, 100, 2048, 62),
        (SRC, 3.0, 200, 4096, 63),
        (LrcStructure(), 2.0, 50, 1024, 64),
    ]
    STARTS = 3

    @pytest.mark.parametrize("model,mu,n,k,seed", FIELDS,
                             ids=["src-24", "src-100", "src-200", "lrc-50"])
    def test_same_minimum_as_float64_descent(self, model, mu, n, k, seed):
        field = sample_field(model, n, k, seed)
        best = minimize(field, mu, self.STARTS, seed)
        tol = 1e-10 * math.sqrt(n)
        radius = experiments._search_radius(field, mu)
        found = []
        for i in range(self.STARTS):
            rng = np.random.default_rng(np.random.SeedSequence((seed, 1, i)))
            x0 = experiments._uniform_ball(rng, n, radius)
            counts = collections.Counter()
            _, _, _, ok = experiments._minimize_from(field, mu, x0, tol, counts)
            x, ev, oracle_ok, oracle_steps = float64_descent(
                field, mu, x0, tol, eval_hamiltonian, _descent_step)
            assert ok and oracle_ok
            assert counts["newton_steps"] <= oracle_steps + 2, i
            found.append((ev.value, i, x, ev))
        value, _, x, ev = min(found, key=lambda f: (f[0], f[1]))
        assert best.value_per_n == pytest.approx(value / n, rel=0.0, abs=1e-12)
        assert np.linalg.norm(best.x - x) <= 1e-8 * math.sqrt(n)
        np.testing.assert_allclose(best.eigenvalues, np.linalg.eigvalsh(ev.hessian),
                                   rtol=0.0, atol=1e-7)
        assert best.index == 0


class TestCensus:
    def test_gradients_reverified(self):
        field = small_field(n=6, k=512, seed=5)
        pts = census(field, 1.0, n_starts=150, seed=0)
        assert len(pts) >= 2  # subcritical: saddles exist
        for p in pts:
            assert p.grad_norm <= 1e-9 * math.sqrt(field.n)

    def test_size_nondecreasing_in_starts(self):
        field = small_field(n=6, k=512, seed=6)
        sizes = [len(census(field, 1.0, n_starts=s, seed=0)) for s in (30, 90, 180)]
        assert sizes == sorted(sizes)

    def test_prefix_stability(self):
        # the first m starts draw the same stream regardless of the total
        field = small_field(n=6, k=512, seed=6)
        few = census(field, 1.0, n_starts=60, seed=0)
        many = census(field, 1.0, n_starts=120, seed=0)
        xs_many = np.array([p.x for p in many])
        for p in few:
            gaps = np.linalg.norm(xs_many - p.x, axis=1)
            assert gaps.min() <= 1e-6

    def test_supercritical_single_minimum(self):
        field = small_field(n=6, k=1024, seed=7)
        pts = census(field, 3.0, n_starts=120, seed=0)
        assert len(pts) == 1
        assert pts[0].index == 0

    def test_indices_cover_saddle_types(self):
        field = small_field(n=6, k=512, seed=8)
        pts = census(field, 1.0, n_starts=400, seed=0)
        indices = {p.index for p in pts}
        assert 0 in indices
        assert any(i > 0 for i in indices)

    def test_distinct_points_respect_dedupe_tol(self):
        field = small_field(n=6, k=512, seed=5)
        pts = census(field, 1.0, n_starts=150, seed=0)
        xs = np.array([p.x for p in pts])
        for i in range(len(xs)):
            for j in range(i + 1, len(xs)):
                assert np.linalg.norm(xs[i] - xs[j]) > 1e-5

    def test_validation(self):
        field = small_field(n=6, k=128)
        with pytest.raises(ValueError):
            census(field, 1.0, n_starts=5, seed=0)

    @staticmethod
    @functools.cache
    def float64_census(seed, k, mu, starts):
        # an infinite switch sends every start straight to the float64 stage
        with mock.patch.object(experiments, "FLOAT64_SWITCH", math.inf):
            points = census(small_field(n=6, k=k, seed=seed), mu, n_starts=starts, seed=0)
        return tuple(sorted(points, key=lambda p: p.value_per_n))

    # (field seed, K, mu, starts): the N=6 fields of the tests above
    FIELDS = [(5, 512, 1.0, 150), (6, 512, 1.0, 180), (7, 1024, 3.0, 120), (8, 512, 1.0, 400)]

    @pytest.mark.parametrize("seed,k,mu,starts", FIELDS)
    def test_float32_screen_changes_no_decision(self, seed, k, mu, starts):
        # the mixed stage may steer a start into another basin, but every
        # point it reports is one the float64 search reaches, at the same
        # place and index; ten times the starts keep coverage out of it
        mixed = census(small_field(n=6, k=k, seed=seed), mu, n_starts=starts, seed=0)
        exact = self.float64_census(seed, k, mu, 10 * starts)
        assert mixed
        for p in mixed:
            near = [q for q in exact if np.linalg.norm(p.x - q.x) <= 1e-9]
            assert len(near) == 1
            assert near[0].index == p.index

    def test_mixed_search_matches_float64_search(self):
        # at 4000 starts both searches find the same points
        field = small_field(n=6, k=512, seed=8)
        mixed = census(field, 1.0, n_starts=4000, seed=0)
        exact = self.float64_census(8, 512, 1.0, 4000)
        assert len(mixed) == len(exact)
        mixed.sort(key=lambda p: p.value_per_n)
        for p, q in zip(mixed, exact):
            np.testing.assert_allclose(p.x, q.x, rtol=0.0, atol=1e-9)
            assert p.index == q.index
        assert {p.index for p in mixed} == {0, 1, 2}

    def test_featureless_field(self):
        field = sample_field(SrcCorrelator(c0=1.0, atoms=()), 6, 64, seed=9)
        assert field.k == 0
        pts = census(field, 2.0, n_starts=20, seed=0)
        assert len(pts) == 1 and pts[0].index == 0
        assert np.linalg.norm(pts[0].x) <= 1e-9

    def test_counters_add_up(self, caplog):
        field = small_field(n=6, k=512, seed=8)
        with caplog.at_level("DEBUG", logger="trivlab.experiments"):
            pts = census(field, 1.0, n_starts=400, seed=0)
        records = [r for r in caplog.records if r.name == "trivlab.experiments"]
        assert len(records) == 1
        c = records[0].census_counts
        assert c["starts"] == 400
        assert c["starts"] == (c["converged"] + c["stalled"] + c["exhausted"]
                               + c["singular"] + c["unfinished"])
        assert c["converged"] == c["points"] + c["reverify_rejects"] + c["dedupe_hits"]
        assert c["points"] == len(pts)
        # subcritical: most starts stall far from the critical region, and
        # only starts that reach the switch are evaluated in float64
        assert c["stalled"] > 0
        assert c["switched"] >= c["converged"] > 0
        assert c["mixed_rows"] > c["float64_rows"] > 0
        assert c["morse_sum"] == sum((-1) ** p.index for p in pts)
        assert c["chao1_unseen"] >= 0.0
        assert "400 starts" in records[0].getMessage()


class TestRunTrials:
    CFG = RunConfig(model=ModelConfig(), mu=3.0, n=24, k=1024, trials=3, starts=3, seed=42)

    def test_records_have_per_trial_seeds(self):
        records = run_trials(self.CFG)
        assert [r.trial_id for r in records] == [0, 1, 2]
        assert [r.seed for r in records] == [42, 43, 44]
        assert all(r.status == "ok" for r in records)
        assert all(r.census == () for r in records)

    def test_deterministic_across_runs(self):
        a = run_trials(self.CFG)
        b = run_trials(self.CFG)
        for x, y in zip(a, b):
            assert x.energy_per_n == y.energy_per_n
            assert x.lambda_min == y.lambda_min
            assert x.bl_to_prediction == y.bl_to_prediction

    def test_threads_do_not_change_results(self):
        serial = run_trials(dataclasses.replace(self.CFG, threads=1))
        pooled = run_trials(dataclasses.replace(self.CFG, threads=3))
        for x, y in zip(serial, pooled):
            assert x.energy_per_n == y.energy_per_n
            assert x.radius_per_sqrt_n == y.radius_per_sqrt_n
            np.testing.assert_array_equal(x.spectrum.eigenvalues, y.spectrum.eigenvalues)
            assert x.lambda_min == y.lambda_min
            assert x.bl_to_prediction == y.bl_to_prediction

    def test_threads_do_not_change_census(self):
        cfg = dataclasses.replace(self.CFG, n=6, k=512, mu=1.0, starts=300, trials=3)
        serial = run_census_trials(dataclasses.replace(cfg, threads=1))
        pooled = run_census_trials(dataclasses.replace(cfg, threads=3))
        for x, y in zip(serial, pooled):
            assert len(x.census) == len(y.census) >= 1
            for p, q in zip(x.census, y.census):
                np.testing.assert_array_equal(p.x, q.x)
                assert p.index == q.index
                assert p.value_per_n == q.value_per_n
                assert p.lambda_min == q.lambda_min

    def test_spectrum_reuses_the_minimum_hessian(self, monkeypatch):
        cfg = dataclasses.replace(self.CFG, trials=1)
        field = sample_field(SRC, cfg.n, cfg.k, cfg.seed)
        best = minimize(field, cfg.mu, cfg.starts, cfg.seed)
        points = []
        real = experiments.eval_hamiltonian

        def recorded(field, mu, x):
            points.append(np.array(x))
            return real(field, mu, x)

        monkeypatch.setattr(experiments, "eval_hamiltonian", recorded)
        r = run_trials(cfg)[0]
        # the minimum's Hessian is evaluated once, by the search
        assert sum(np.array_equal(p, best.x) for p in points) == 1
        expected = np.linalg.eigvalsh(eval_hamiltonian(field, cfg.mu, best.x).hessian)
        np.testing.assert_array_equal(r.spectrum.eigenvalues, expected)
        assert r.lambda_min == expected[0]

    def test_census_trials_populate_census(self):
        cfg = dataclasses.replace(self.CFG, n=6, k=512, mu=1.0, starts=300, trials=2)
        records = run_census_trials(cfg)
        assert all(r.status == "ok" for r in records)
        assert all(len(r.census) >= 1 for r in records)
        for r in records:
            values = [p.value_per_n for p in r.census]
            assert values == sorted(values)
            assert r.energy_per_n == values[0]

    def test_census_trial_failure_is_recorded_not_raised(self):
        # subcritical searches start in a ball that is mostly far outside the
        # critical region; with few starts a trial can legitimately come back
        # empty, and that must surface as a failed record, not an exception
        cfg = dataclasses.replace(self.CFG, n=6, k=512, mu=1.0, starts=60, trials=2)
        records = run_census_trials(cfg)
        assert records[0].status == "ok"
        assert records[1].status.startswith("search failure")
        assert math.isnan(records[1].energy_per_n)
        assert records[1].census == ()
        rep = predictions(SRC, 1.0)
        summary = aggregate(records, rep)
        assert summary["n_ok"] == 1
        assert 1 in summary["failures"]

    def test_spectrum_matches_lambda_min(self):
        records = run_trials(dataclasses.replace(self.CFG, trials=1))
        r = records[0]
        assert r.spectrum.lambda_min == pytest.approx(r.lambda_min, abs=1e-12)
        assert r.spectrum.n == self.CFG.n

    def test_subcritical_bl_is_nan(self):
        cfg = dataclasses.replace(self.CFG, mu=1.0, n=8, k=256, trials=1, starts=4)
        r = run_trials(cfg)[0]
        assert math.isnan(r.bl_to_prediction)


class TestAggregate:
    def test_checks_and_estimates(self):
        cfg = RunConfig(model=ModelConfig(), mu=3.0, n=48, k=2048, trials=4, starts=3, seed=0)
        records = run_trials(cfg)
        rep = predictions(cfg.model.build(), cfg.mu)
        summary = aggregate(records, rep)
        assert summary["n_trials"] == 4
        assert summary["n_ok"] == 4
        est = summary["estimates"]
        for key in ("energy_per_n", "radius_per_sqrt_n", "lambda_min", "bl_to_prediction"):
            assert "mean" in est[key] and "se" in est[key]
        checks = summary["checks"]
        assert checks["energy_per_n"]["target"] == rep.u_star
        for c in checks.values():
            assert c["pass"] == (c["abs_error"] <= c["tolerance"])

    def test_failed_trials_counted(self):
        good = run_trials(RunConfig(model=ModelConfig(), mu=3.0, n=12, k=256,
                                    trials=1, starts=2, seed=1))[0]
        bad = dataclasses.replace(good, trial_id=1, status="search failure: forced",
                                  energy_per_n=float("nan"), lambda_min=float("nan"),
                                  radius_per_sqrt_n=float("nan"),
                                  bl_to_prediction=float("nan"))
        rep = predictions(SRC, 3.0)
        summary = aggregate([good, bad], rep)
        assert summary["n_trials"] == 2
        assert summary["n_ok"] == 1
        assert summary["failures"] == {1: "search failure: forced"}
        # estimates come from the surviving trial only
        assert summary["estimates"]["energy_per_n"]["mean"] == good.energy_per_n

    def test_custom_tolerances(self):
        cfg = RunConfig(model=ModelConfig(), mu=3.0, n=12, k=256, trials=1, starts=2, seed=1)
        records = run_trials(cfg)
        rep = predictions(SRC, 3.0)
        tight = aggregate(records, rep, tolerances={"energy_per_n": 1e-12})
        assert tight["checks"]["energy_per_n"]["tolerance"] == 1e-12
        assert not tight["checks"]["energy_per_n"]["pass"]


class TestSearchRobustness:
    def test_constant_field_has_single_origin_point(self):
        const = sample_field(SrcCorrelator(c0=1.0, atoms=()), 8, k=64, seed=0)
        pts = census(const, 2.0, n_starts=10, seed=0)
        assert len(pts) == 1
        assert np.linalg.norm(pts[0].x) <= 1e-8
        best = minimize(const, 2.0, n_starts=2, seed=0)
        assert np.linalg.norm(best.x) <= 1e-8

    def test_search_failure_reports_diagnostics(self):
        field = small_field(n=8, k=256)
        with pytest.raises(SearchFailureError):
            minimize(field, 3.0, n_starts=1, seed=0, grad_tol=1e-300)


class TestDescentStep:
    """The bisected shift search against walking the shift ladder from 0."""

    N = 30

    def hessian(self, lam_min_over_scale):
        rng = np.random.default_rng(17)
        q, _ = np.linalg.qr(rng.standard_normal((self.N, self.N)))
        eigs = np.linspace(1.0, 10.0, self.N)
        eigs[0] = lam_min_over_scale * 10.0
        hess = (q * eigs) @ q.T
        return 0.5 * (hess + hess.T)

    def cases(self):
        nan = self.hessian(0.5)
        nan[3, 7] = nan[7, 3] = np.nan
        return {
            "positive_definite": self.hessian(0.5),
            "slightly_indefinite": self.hessian(-1e-6),
            "strongly_indefinite": self.hessian(-1.0),
            "nan_entry": nan,
        }

    def test_same_direction_and_rung_as_the_ladder(self, monkeypatch):
        grad = np.random.default_rng(18).standard_normal(self.N)
        real = experiments.cho_factor
        calls = [0]

        def counted(*args, **kwargs):
            calls[0] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(experiments, "cho_factor", counted)
        # one probe at the hint, then bisection of the 60 rungs it leaves
        # open; walking the ladder from 0 takes want_rung + 1 instead
        bound = 1 + math.ceil(math.log2(SHIFT_RUNGS + 1))
        rungs = {}
        for name, hess in self.cases().items():
            want, rungs[name] = linear_shift_ladder(hess, grad, real, experiments.cho_solve)
            for hint in (0, 1, 17, 33, SHIFT_RUNGS - 1, SHIFT_RUNGS):
                calls[0] = 0
                got, rung = _descent_step(hess, grad, hint)
                np.testing.assert_array_equal(got, want, err_msg=f"{name}, hint {hint}")
                assert calls[0] <= bound, (name, hint)
                if name != "nan_entry":
                    assert rung == rungs[name], (name, hint)
                if name == "positive_definite" and hint == 0:
                    assert calls[0] == 1
        assert rungs["positive_definite"] == 0
        assert 0 < rungs["slightly_indefinite"] < rungs["strongly_indefinite"] < SHIFT_RUNGS
        # a NaN Hessian ends in the fallback without a factorization
        calls[0] = 0
        got, rung = _descent_step(self.cases()["nan_entry"], grad)
        assert rung == SHIFT_RUNGS and calls[0] == 0
        assert np.isnan(got).all()

    @pytest.mark.parametrize("n", [30, 200])
    def test_float32_rounding_keeps_the_rung(self, n):
        # lambda_min at least 1e-4 * scale away from 0 and from every -tau_j:
        # the float32 rounding (at most about N 2^-24 scale in norm) cannot
        # move it across a rung, so the shift is the float64 one
        rng = np.random.default_rng(19)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        grad = rng.standard_normal(n)
        eigs = np.linspace(1.0, 10.0, n)
        eigs[0] = 0.0
        scale0 = float(np.abs((q * eigs) @ q.T).max())
        rungs = set()
        # lambda_min / scale: two positive, then one between each pair of
        # rungs 2^24 and 2^25, 2^28 and 2^29, 2^31 and 2^32, 2^34 and 2^35
        for lam_min in (0.5, 0.01, -0.003, -0.05, -0.4, -3.0):
            eigs[0] = lam_min * scale0
            hess = (q * eigs) @ q.T
            hess = 0.5 * (hess + hess.T)
            scale = float(np.abs(hess).max())
            taus = 1e-10 * scale * 2.0 ** np.arange(SHIFT_RUNGS - 1)
            lam = float(np.linalg.eigvalsh(hess)[0])
            assert min(abs(lam), np.abs(lam + taus).min()) >= 1e-4 * scale, lam_min
            rounded = hess.astype(np.float32).astype(float)
            _, want = _descent_step(hess, grad)
            _, got = _descent_step(rounded, grad)
            assert got == want, lam_min
            rungs.add(want)
        # the cases cover the unshifted factorization and several rungs
        assert 0 in rungs and len(rungs) >= 4
