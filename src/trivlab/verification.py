"""Cross-module invariant suite behind the `verify` command.

Every check is deterministic given the config seed, returns a one-line
detail string, and never raises: an exception inside a check is reported
as a failure of that check.  The full suite is sized to finish in a few
minutes on one desk machine; `fast=True` trims the sample counts further
for smoke runs.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .complexity import (
    expected_crt_mc,
    expected_crt_quadrature,
    predictions,
    psi_lrc,
    psi_lrc_maximizer,
    psi_src,
    psi_src_maximizer,
    replica_residuals,
    replica_solve,
)
from .config import ModelConfig, RunConfig, emit_config, parse_config
from .experiments import census, run_trials
from .field_sampler import sample_field
from .lrc_hessian import (
    corner_conditional,
    edge_tail,
    sample_corner_pairs,
    sample_g,
    schur_det,
)
from .rmt import (
    SemicircleLaw,
    bl_distance,
    expected_abs_det_shifted_formula,
    expected_abs_det_shifted_mc,
    sample_goe,
)
from .structure_functions import LrcStructure, SrcCorrelator, eval_lrc


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name: str, passed, detail: str) -> CheckResult:
    return CheckResult(name=name, passed=bool(passed), detail=detail)


def _seeds(cfg: RunConfig, tag: int, count: int = 1) -> list[int]:
    """Seeds of one check from SeedSequence([cfg.seed, tag]): no two config
    seeds share a draw, so a seed sweep is a sweep of independent trials."""
    return [int(s) for s in np.random.SeedSequence([cfg.seed, tag]).generate_state(count)]


# ---------------------------------------------------------------- checks

def _check_config_roundtrip(cfg: RunConfig, fast: bool) -> CheckResult:
    variants = [
        cfg,
        dataclasses.replace(cfg, model=ModelConfig(kind="lrc", a=0.7, atoms=((0.5, 1.2),)), mu=2.0),
        dataclasses.replace(cfg, n_grid=(10, 20), threads=2),
    ]
    for c in variants:
        back = parse_config(emit_config(c))
        if back != c:
            return _result("config_roundtrip", False, "parse(emit(cfg)) != cfg")
    return _result("config_roundtrip", True, f"{len(variants)} configs round-trip exactly")


def _check_goe_semicircle(cfg: RunConfig, fast: bool) -> CheckResult:
    n = 600 if fast else 1500
    s = sample_goe(n, seed=_seeds(cfg, 11)[0])
    d = bl_distance(s, SemicircleLaw())
    tol = 0.03 if fast else 0.02
    return _result("goe_semicircle_bulk", d <= tol, f"BL(GOE_{n}, semicircle) = {d:.4f} <= {tol}")


def _check_goe_edge(cfg: RunConfig, fast: bool) -> CheckResult:
    n = 600 if fast else 1500
    s = sample_goe(n, seed=_seeds(cfg, 12)[0])
    err = abs(s.lambda_max - math.sqrt(2.0))
    return _result("goe_edge_location", err <= 0.1, f"|lambda_max - sqrt(2)| = {err:.4f} <= 0.1")


def _check_bl_metric(cfg: RunConfig, fast: bool) -> CheckResult:
    rng = np.random.default_rng(_seeds(cfg, 13)[0])
    p = np.sort(rng.standard_normal(120))
    q = np.sort(rng.standard_normal(120))
    r = np.sort(rng.standard_normal(120) + 0.3)
    checks = [
        ("self", bl_distance(p, p) <= 1e-12),
        ("symmetry", abs(bl_distance(p, q) - bl_distance(q, p)) <= 1e-9),
        ("shift-lower", bl_distance(p, p + 0.4) >= 0.1),
        ("shift-upper", bl_distance(p, p + 0.4) <= 0.4 + 1e-9),
        ("triangle", bl_distance(p, r) <= bl_distance(p, q) + bl_distance(q, r) + 1e-7),
    ]
    bad = [name for name, ok in checks if not ok]
    return _result("bl_metric_properties", not bad,
                   "identity/symmetry/shift/triangle all hold" if not bad else f"failed: {bad}")


def _check_abs_det_identity(cfg: RunConfig, fast: bool) -> CheckResult:
    n, x = 20, 1.2
    n_mc = 1000 if fast else 2500
    formula = expected_abs_det_shifted_formula(n, x)
    mc = expected_abs_det_shifted_mc(n, x, n_samples=n_mc, seed=_seeds(cfg, 15)[0])
    err = abs(formula - mc["log_mean"])
    tol = max(0.05, 4.0 * mc["se"])
    return _result("abs_det_identity", err <= tol,
                   f"|formula - MC| = {err:.4f} <= {tol:.4f} in log at (n={n}, x={x})")


def _check_rate_maximizers(cfg: RunConfig, fast: bool) -> CheckResult:
    src_point, src_val = psi_src_maximizer(SrcCorrelator(), 3.0)
    lrc_point, lrc_val = psi_lrc_maximizer(LrcStructure(), 2.0)
    closed_src = -math.log(2.0) - 0.5
    closed_lrc = -math.log(2.0) - 0.5 + 0.5 * math.log(1.5)
    if abs(src_val - closed_src) > 1e-10 or abs(lrc_val - closed_lrc) > 1e-10:
        return _result("rate_maximizer_closed_form", False, "max value differs from closed form")
    # local optimality against a sampled cloud, on models with a full 3-d rate
    rng = np.random.default_rng(_seeds(cfg, 16)[0])
    mix_src = SrcCorrelator(c0=0.3, atoms=((0.7, 1.0), (0.3, 1.8)))
    pt, val = psi_src_maximizer(mix_src, 4.5)
    worst = -np.inf
    for _ in range(60 if fast else 200):
        d = 0.05 * rng.standard_normal(3)
        trial = dataclasses.replace(pt, rho=pt.rho + d[0], u=pt.u + d[1], y=pt.y + d[2])
        worst = max(worst, psi_src(trial, mix_src, 4.5) - val)
    pt2, val2 = lrc_point, lrc_val
    for _ in range(60 if fast else 200):
        d = 0.05 * rng.standard_normal(3)
        trial = dataclasses.replace(pt2, rho=pt2.rho + d[0], u=pt2.u + d[1], y=pt2.y + d[2])
        worst = max(worst, psi_lrc(trial, LrcStructure(), 2.0) - val2)
    return _result("rate_maximizer_closed_form", worst <= 1e-10,
                   f"closed forms match; sampled cloud below max (worst excess {worst:.2e})")


def _check_interlacement(cfg: RunConfig, fast: bool) -> CheckResult:
    model = LrcStructure()
    rep = predictions(model, 2.0)
    s = sample_g(model, 2.0, rep.rho_star, rep.u_star, 12, seed=_seeds(cfg, 17)[0], y=rep.y_star)
    scale = math.sqrt(-4.0 * eval_lrc(model, 0.0, 2))
    d = np.sort(scale * (math.sqrt(11.0 / 12.0) * s.goe_eigenvalues - s.z3p))
    lam = s.eigenvalues
    ok = np.all(lam[:-1] <= d + 1e-10) and np.all(d <= lam[1:] + 1e-10)
    return _result("bordered_interlacement", ok,
                   "arrowhead eigenvalues interlace the bulk levels")


def _check_corner_pinning(cfg: RunConfig, fast: bool) -> CheckResult:
    model = LrcStructure()
    rep = predictions(model, 2.0)
    cc = corner_conditional(model, 2.0, rep.rho_star, rep.u_star, rep.y_star)
    target = -math.sqrt(-4.0 * eval_lrc(model, 0.0, 2)) * rep.y_star
    err = abs(cc.a_bar - target)
    return _result("corner_pinning_identity", err <= 1e-12,
                   f"|a_bar + sqrt(-4D'')y*| = {err:.2e} <= 1e-12")


def _check_corner_regression(cfg: RunConfig, fast: bool) -> CheckResult:
    model = LrcStructure()
    rep = predictions(model, 2.0)
    n_draws = 8000 if fast else 30000
    z1p, z3p = sample_corner_pairs(model, 2.0, rep.rho_star, rep.u_star, 16, n_draws,
                                   seed=_seeds(cfg, 18)[0])
    center = float(np.mean(z3p))
    half = 0.02 * float(np.std(z3p))
    mask = np.abs(z3p - center) <= half
    if mask.sum() < 30:
        return _result("corner_conditional_mean", False, f"only {mask.sum()} pairs in bin")
    emp = float(np.mean(z1p[mask]))
    se = float(np.std(z1p[mask], ddof=1) / math.sqrt(mask.sum()))
    cc = corner_conditional(model, 2.0, rep.rho_star, rep.u_star, center)
    err = abs(emp - cc.a_bar)
    return _result("corner_conditional_mean", err <= 4.0 * se,
                   f"binned corner mean err {err:.4f} <= 4 SE ({mask.sum()} pairs)")


def _check_schur_dense(cfg: RunConfig, fast: bool) -> CheckResult:
    model = LrcStructure()
    rep = predictions(model, 2.0)
    worst = 0.0
    draws = 8 if fast else 20
    for seed in _seeds(cfg, 300, draws):
        s = sample_g(model, 2.0, rep.rho_star, rep.u_star, 32, seed=seed)
        log_abs, _sign = schur_det(s)
        ev = s.eigenvalues
        dense_log = float(np.sum(np.log(np.abs(ev))))
        worst = max(worst, abs(log_abs - dense_log))
    return _result("schur_vs_dense_det", worst <= 1e-8,
                   f"max |log det gap| = {worst:.2e} over {draws} draws at N=32")


def _check_census_constant_field(cfg: RunConfig, fast: bool) -> CheckResult:
    model = SrcCorrelator(c0=1.0, atoms=())
    field_seed, census_seed = _seeds(cfg, 19, 2)
    field = sample_field(model, 8, k=64, seed=field_seed)
    pts = census(field, 3.0, n_starts=10, seed=census_seed)
    if len(pts) != 1:
        return _result("census_constant_field", False, f"found {len(pts)} points, expected 1")
    r = float(np.linalg.norm(pts[0].x))
    ok = r <= 1e-6 and pts[0].index == 0
    return _result("census_constant_field", ok,
                   f"single critical point at |x| = {r:.2e}, index {pts[0].index}")


def _check_census_supercritical(cfg: RunConfig, fast: bool) -> CheckResult:
    # #crit is odd (Poincare-Hopf), so a field has more than one critical point
    # with probability at most p = (E Crt - 1) / 2, E Crt exact by quadrature.
    # At most c of the fields may, c the least count with
    # P(Binom(fields, p) > c) <= 1e-3: the false-alarm rate on any seed.
    model, n, mu, fields = SrcCorrelator(), 6, 3.0, 10
    p = (math.exp(expected_crt_quadrature(model, mu, n)) - 1.0) / 2.0
    c = next(c for c in range(fields + 1)
             if sum(math.comb(fields, j) * p ** j * (1.0 - p) ** (fields - j)
                    for j in range(c + 1, fields + 1)) <= 1e-3)
    child = _seeds(cfg, 21, 2 * fields)
    multi, no_min = 0, 0
    for i in range(fields):
        field = sample_field(model, n, k=1024, seed=child[2 * i])
        pts = census(field, mu, n_starts=200 if fast else 500, seed=child[2 * i + 1])
        multi += len(pts) > 1
        no_min += not any(pt.index == 0 for pt in pts)
    return _result("census_supercritical_singleton", multi <= c and no_min == 0,
                   f"{multi} of {fields} censuses hold more than one point (at most {c}, "
                   f"p = {p:.4f}); {no_min} lack an index-0 point")


def _check_census_monotone(cfg: RunConfig, fast: bool) -> CheckResult:
    model = SrcCorrelator()
    field_seed, census_seed = _seeds(cfg, 23, 2)
    field = sample_field(model, 6, k=512, seed=field_seed)
    few = census(field, 1.0, n_starts=60, seed=census_seed)
    many = census(field, 1.0, n_starts=150 if fast else 300, seed=census_seed)
    grad_ok = all(p.grad_norm <= 1e-9 * math.sqrt(6.0) for p in many)
    return _result("census_monotone_in_starts", len(few) <= len(many) and grad_ok,
                   f"sizes {len(few)} <= {len(many)}; all gradients re-verified")


def _check_minimize_prediction(cfg: RunConfig, fast: bool) -> CheckResult:
    run = dataclasses.replace(cfg, model=ModelConfig(), mu=3.0, n=80, k=3200,
                              trials=2 if fast else 5, starts=3, seed=_seeds(cfg, 25)[0])
    records = [r for r in run_trials(run) if r.status == "ok"]
    if not records:
        return _result("minimize_matches_prediction", False, "all trials failed")
    e = float(np.mean([r.energy_per_n for r in records]))
    rad = float(np.mean([r.radius_per_sqrt_n for r in records]))
    rep = predictions(run.model.build(), run.mu)
    de, dr = abs(e - rep.u_star), abs(rad - rep.rho_star)
    tol_e = 0.2 if fast else 0.12
    ok = de <= tol_e and dr <= 0.1
    return _result("minimize_matches_prediction", ok,
                   f"|mean energy - u*| = {de:.4f}, |mean radius - rho*| = {dr:.4f}")


def _check_lrc_edge_tail(cfg: RunConfig, fast: bool) -> CheckResult:
    # P(lambda_min <= edge - 0.2) per draw is 1.2e-3 at N=100 but below 3.7e-5
    # (0 of 10^5, 95% bound) at N=400, the scale of acceptance test 5, so 200
    # draws there trip on at most 0.7% of seeds
    n, trials = 400, 200
    frac = edge_tail(LrcStructure(), 2.0, n, trials=trials, epsilon=0.2, seed=_seeds(cfg, 26)[0])
    return _result("lrc_edge_no_exceedance", frac == 0.0,
                   f"edge_tail(eps=0.2) = {frac} at N={n}, {trials} trials")


def _check_lrc_pinned_bulk(cfg: RunConfig, fast: bool) -> CheckResult:
    model = LrcStructure()
    rep = predictions(model, 2.0)
    law = rep.bulk_law()
    n = 200
    dists = []
    for seed in _seeds(cfg, 400, 1 if fast else 3):
        s = sample_g(model, 2.0, rep.rho_star, rep.u_star, n, seed=seed, y=rep.y_star)
        dists.append(bl_distance(s.eigenvalues, law))
    d = float(np.mean(dists))
    return _result("lrc_pinned_bulk_law", d <= 0.1,
                   f"mean BL to limiting bulk = {d:.4f} over {len(dists)} draws at N={n}")


def _check_replica_consistency(cfg: RunConfig, fast: bool) -> CheckResult:
    model = SrcCorrelator()
    sol = replica_solve(model, 3.0)
    r1, r2 = replica_residuals(model, 3.0, sol.v, sol.Q)
    rep = predictions(model, 3.0)
    gap = abs(sol.edge - rep.lambda_edge)
    ok = max(abs(r1), abs(r2)) <= 1e-10 and gap <= 1e-12
    return _result("replica_edge_consistency", ok,
                   f"residuals ({r1:.1e}, {r2:.1e}), |edge gap| = {gap:.1e}")


def _check_count_monotone(cfg: RunConfig, fast: bool) -> CheckResult:
    # the 25 -> 50 log gap (0.033) is about two MC SE at 1e4 samples, so the
    # ordering is read off the exact values and each MC estimate is held to 4 SE
    model = SrcCorrelator()
    exact, mc, z = [], [], []
    for n, seed in zip((25, 50), _seeds(cfg, 7000, 2)):
        exact.append(expected_crt_quadrature(model, 3.0, n))
        est = expected_crt_mc(model, 3.0, n, 10_000, seed=seed)
        mc.append(est["log_value"])
        z.append((mc[-1] - exact[-1]) / est["se"])
    val50 = math.exp(mc[1])
    ok = exact[1] < exact[0] and max(map(abs, z)) <= 4.0 and 0.8 <= val50 <= 1.6
    return _result("count_monotone_supercritical", ok,
                   f"exact log E Crt: {exact[0]:.4f} -> {exact[1]:.4f}; MC z {z[0]:+.2f}, "
                   f"{z[1]:+.2f}; MC E Crt(50) = {val50:.3f}")


def _check_simulation_determinism(cfg: RunConfig, fast: bool) -> CheckResult:
    run = dataclasses.replace(cfg, model=ModelConfig(), mu=3.0, n=40, k=1600,
                              trials=2, starts=3, seed=_seeds(cfg, 28)[0])
    a = run_trials(run)
    b = run_trials(run)
    fields = ("seed", "energy_per_n", "radius_per_sqrt_n", "lambda_min", "bl_to_prediction")
    same = len(a) == len(b) and all(
        getattr(x, f) == getattr(y, f) for x, y in zip(a, b) for f in fields
    )
    return _result("simulation_determinism", same,
                   "repeated run reproduces every numeric field bit-exactly")


def _check_drift_invariant(cfg: RunConfig, fast: bool) -> CheckResult:
    rep = predictions(SrcCorrelator(), 3.0)
    targets = {"energy_per_n": rep.u_star, "radius_per_sqrt_n": rep.rho_star,
               "lambda_min": rep.lambda_edge}
    stats = []
    for n in (50, 100, 200):
        run = dataclasses.replace(cfg, model=ModelConfig(), mu=3.0, n=n, k=40 * n,
                                  trials=10, starts=3, seed=_seeds(cfg, 29)[0])
        records = [r for r in run_trials(run) if r.status == "ok"]
        if len(records) < 8:
            return _result("drift_toward_prediction", False, f"too many failures at N={n}")
        row = {}
        for fname, target in targets.items():
            vals = np.array([getattr(r, fname) for r in records])
            row[fname] = (abs(float(vals.mean()) - target),
                          float(vals.std(ddof=1) / math.sqrt(vals.size)))
        stats.append(row)
    worst = -np.inf
    for fname in targets:
        for prev, nxt in zip(stats, stats[1:]):
            e0, s0 = prev[fname]
            e1, s1 = nxt[fname]
            worst = max(worst, e1 - e0 - 2.0 * (s0 + s1))
    return _result("drift_toward_prediction", worst <= 0.0,
                   f"errors nonincreasing over N in (50,100,200) within 2 SE "
                   f"(worst slack {worst:.4f})")


_CHECKS = [
    _check_config_roundtrip,
    _check_goe_semicircle,
    _check_goe_edge,
    _check_bl_metric,
    _check_abs_det_identity,
    _check_rate_maximizers,
    _check_interlacement,
    _check_corner_pinning,
    _check_corner_regression,
    _check_schur_dense,
    _check_census_constant_field,
    _check_census_supercritical,
    _check_census_monotone,
    _check_minimize_prediction,
    _check_lrc_edge_tail,
    _check_lrc_pinned_bulk,
    _check_replica_consistency,
    _check_count_monotone,
    _check_simulation_determinism,
    _check_drift_invariant,
]

FULL_ONLY = {"_check_drift_invariant"}


def run_all_checks(cfg: RunConfig | None = None, fast: bool = False) -> list[CheckResult]:
    """Run the invariant suite; returns one CheckResult per check."""
    if cfg is None:
        cfg = RunConfig()
    results = []
    for fn in _CHECKS:
        if fast and fn.__name__ in FULL_ONLY:
            continue
        try:
            results.append(fn(cfg, fast))
        except Exception as exc:  # a crashing check is a failing check
            name = fn.__name__.removeprefix("_check_")
            results.append(_result(name, False, f"raised {type(exc).__name__}: {exc}"))
    return results
