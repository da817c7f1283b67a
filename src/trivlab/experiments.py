"""End-to-end Monte-Carlo landscape trials.

A trial samples one field realization, finds the global minimum of
H(x) = X(x) + (mu/2)|x|^2 by multistart damped Newton descent (or a full
critical-point census by undamped Newton root-finding on the gradient),
measures the Hessian spectrum there, and compares the observables against
the closed-form predictions.  Trials are embarrassingly parallel; each
derives its RNG streams from (base seed + trial index), so results do not
depend on scheduling order.
"""

from __future__ import annotations

import logging
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .complexity import PredictionReport, predictions
from .config import RunConfig, resolve_threads
from .errors import SearchFailureError
from .field_sampler import FieldRealization, _evaluate, eval_hamiltonian, sample_field
from .rmt import SemicircleLaw, SpectrumSample, bl_distance

__all__ = [
    "CriticalPointRecord",
    "TrialRecord",
    "minimize",
    "census",
    "run_trials",
    "run_census_trials",
    "aggregate",
]

logger = logging.getLogger(__name__)

# an eigenvalue counts toward the index only below this threshold
INDEX_EIGENVALUE_THRESHOLD = -1e-8
# starts agreeing within this times sqrt(N) corroborate a point
AGREEMENT_TOL = 1e-6
# census points must re-verify to this gradient norm times sqrt(N)
CENSUS_VERIFY_TOL = 1e-9
# rungs of the Cholesky shift ladder: 0, then 1e-10 * scale * 2^j
SHIFT_RUNGS = 60
# fewest starts a census accepts
CENSUS_MIN_STARTS = 10
# a census start leaves the mixed-precision search for the float64 polish at
# |grad| <= this times sqrt(N); the mixed gradient error is at most 1e-4
# (N <= 200, out to 3 radii + 1), over 140 times below it
FLOAT64_SWITCH = 1e-3

# calibrated at desk scale (N around 200, K = 8192, 50 trials); the limit
# statements carry no convergence rates, so these are not derived quantities
DEFAULT_CHECK_TOLERANCES = {
    "energy_per_n": 0.05,
    "radius_per_sqrt_n": 0.05,
    "lambda_min": 0.15,
    "bl_to_prediction": 0.1,
}


@dataclass(frozen=True, eq=False)
class CriticalPointRecord:
    """One critical point of H: location, value, and Hessian summary."""

    x: np.ndarray
    grad_norm: float
    value_per_n: float
    index: int
    lambda_min: float
    corroborated: bool = False
    eigenvalues: Optional[np.ndarray] = None  # Hessian spectrum, ascending


@dataclass(frozen=True, eq=False)
class TrialRecord:
    """Observables of one landscape trial at the located minimum."""

    trial_id: int
    seed: int
    n: int
    k: int
    mu: float
    model_id: str
    energy_per_n: float
    radius_per_sqrt_n: float
    spectrum: Optional[SpectrumSample]
    lambda_min: float
    bl_to_prediction: float
    census: tuple[CriticalPointRecord, ...]
    wall_time_ms: float
    status: str = "ok"


def _search_radius(field: FieldRealization, mu: float) -> float:
    """Three times the predicted minimizer radius, from the realization itself.

    The realized feature amplitudes estimate N D'(0) (or -2N B'(0)) as
    sum_k s_k^2 |w_k|^2 / 2 + |xi|^2, so no model object is needed here.
    The factor 3 is a coverage knob backed by coercivity of H.
    """
    if field.w.size:
        feat = 0.5 * float(np.sum(field.amplitudes**2 * np.einsum("ij,ij->i", field.w, field.w)))
    else:
        feat = 0.0
    total = feat + float(field.xi @ field.xi)
    return 3.0 * math.sqrt(total) / mu


def _uniform_ball(rng: np.random.Generator, n: int, radius: float) -> np.ndarray:
    direction = rng.standard_normal(n)
    norm = float(np.linalg.norm(direction))
    if norm == 0.0:
        return np.zeros(n)
    return direction / norm * radius * float(rng.uniform()) ** (1.0 / n)


def _descent_step(hess: np.ndarray, grad: np.ndarray, rung: int = 0) -> tuple[np.ndarray, int]:
    """Newton direction from a positive-definite modification of the Hessian.

    The shift tau is the lowest rung of the ladder 0, 1e-10*scale*2^j
    (j < SHIFT_RUNGS - 1) at which Cholesky succeeds (modified Cholesky,
    Nocedal & Wright sec. 3.4).  Success is monotone in tau, so that rung is
    found by one probe at ``rung``, the previous step's rung, and bisection
    of the side it leaves open: the same tau as walking the ladder up from
    0, in at most 1 + log2(SHIFT_RUNGS + 1) factorizations.  Returns
    (direction, rung); the rung is SHIFT_RUNGS when every shift failed and
    the direction is the fallback -grad/scale.

    ``minimize`` passes float32 Hessians (upcast).  Rounding moves each
    eigenvalue by at most about N * 2^-24 * scale, so the rung is the one
    the float64 Hessian gets whenever lambda_min lies farther than that
    from 0 and from every -tau.  Inside that band, which near 0 holds all
    the lowest rungs (the first is 1e-10 * scale), the two may differ;
    that changes the step, not the float64 root the search converges to.
    """
    n = hess.shape[0]
    scale = float(np.abs(hess).max()) or 1.0
    if not math.isfinite(scale):
        return -grad / scale, SHIFT_RUNGS  # no shift repairs a non-finite Hessian

    def factor(j):
        tau = 0.0 if j == 0 else 1e-10 * scale * 2.0 ** (j - 1)
        try:
            return cho_factor(hess + tau * np.eye(n), check_finite=False)
        except (np.linalg.LinAlgError, ValueError):
            return None

    # rung lo fails and rung hi succeeds with factor fac; the sentinels
    # lo = -1 and hi = SHIFT_RUNGS (the fallback) bracket every rung, and the
    # first probe at the previous rung closes one side of the bracket
    lo, hi, fac = -1, SHIFT_RUNGS, None
    j = min(rung, SHIFT_RUNGS - 1)
    while hi - lo > 1:
        f = factor(j)
        if f is None:
            lo = j
        else:
            hi, fac = j, f
        j = (lo + hi) // 2
    if fac is None:
        return -grad / scale, hi  # fully regularized fallback
    return -cho_solve(fac, grad, check_finite=False), hi


def _value_gradient(field, mu, x):
    """float64 value and gradient of H at one point, without a Hessian."""
    value, gradient, _ = _evaluate(field, mu, x[None, :], value=True, gradient=True)
    return float(value[0]), gradient[0]


def _minimize_from(field, mu, x0, grad_tol, counts, max_iter=200):
    """Damped Newton descent from one start; returns (x, value, gradient, converged).

    Values, gradients and every acceptance test are float64.  The Newton
    direction comes from a float32 Hessian (``_descent_step`` factors its
    float64 upcast), formed only where a step is taken, so a start that
    converges pays no Hessian at its last point.  The fixed point is the
    float64 root: a float32 Hessian only bends the path, and near the root
    each step still contracts |grad| by about the Hessian's relative error,
    as in mixed-precision iterative refinement.  ``counts`` accumulates the
    solver counters of ``minimize``.
    """
    x = np.asarray(x0, dtype=float)
    value, gradient = _value_gradient(field, mu, x)
    # Near a root the Armijo decrease ~|grad|^2 sinks below the rounding
    # noise of H itself, so sufficient-decrease tests churn forever.  Once
    # |grad| is small enough that the full Newton step is trustworthy we
    # switch merit to the gradient norm, which has no such floor.
    endgame = max(1e-4 * math.sqrt(field.n), 1e3 * grad_tol)
    rung = 0
    for _ in range(max_iter):
        gn = float(np.linalg.norm(gradient))
        if gn <= grad_tol:
            return x, value, gradient, True
        _, _, hess = _evaluate(field, mu, x[None, :], hessian=True, hessian_dtype=np.float32)
        counts["float32_hessians"] += 1
        step, rung = _descent_step(hess[0], gradient, rung)
        counts["newton_steps"] += 1
        counts["max_rung"] = max(counts["max_rung"], rung)
        if gn <= endgame:
            x_new = x + step
            value_new, gradient_new = _value_gradient(field, mu, x_new)
            if float(np.linalg.norm(gradient_new)) < gn:
                x, value, gradient = x_new, value_new, gradient_new
                continue
            # Newton step did not contract the gradient; resume damping.
            counts["endgame_rejects"] += 1
        slope = float(gradient @ step)
        if slope >= 0.0:  # not a descent direction; fall back to steepest descent
            step = -gradient
            slope = -gn * gn
        t = 1.0
        accepted = False
        for _ in range(50):
            x_new = x + t * step
            counts["probes"] += 1
            probe = field.field_value(x_new) + 0.5 * mu * float(x_new @ x_new)
            if probe <= value + 1e-4 * t * slope:
                x = x_new
                value, gradient = _value_gradient(field, mu, x)
                accepted = True
                break
            t *= 0.5
        if not accepted:
            counts["exhausted"] += 1
            break  # line search exhausted; report whatever precision we reached
    return x, value, gradient, float(np.linalg.norm(gradient)) <= grad_tol


def _newton_root_batch(field, mu, xs, grad_tol, step_cap, dtype, counts, max_iter=100):
    """Guarded Newton on grad H = 0 for a batch of starts; finds saddles too.

    The search direction is the exact (unmodified) Newton direction, so
    index >= 1 points attract full steps just like minima; the backtracking
    guard on |grad| only shortens steps far from any root, where raw
    Newton would wander in an indefinite landscape.  Gradients and Hessians
    are evaluated at points of ``dtype``, float32 selecting the mixed
    kernel.  Moves the rows of xs in place and returns the mask of rows with
    |grad| <= grad_tol; counts tallies how the other rows were retired
    (stalled, exhausted, singular, unfinished) and the rows evaluated.
    """
    s, n = xs.shape
    rows_key = "mixed_rows" if dtype == np.float32 else "float64_rows"

    def evaluate(points, **parts):
        counts[rows_key] += len(points)
        return _evaluate(field, mu, points.astype(dtype), **parts)

    _, gs, _ = evaluate(xs, gradient=True)
    gn = np.linalg.norm(gs, axis=1)
    active = np.ones(s, dtype=bool)
    t_warm = np.ones(s)  # last useful step length per start
    history = np.empty((8, s))  # |grad| of the last 8 iterations, row it % 8
    for it in range(max_iter):
        active &= gn > grad_tol
        if it >= 8:
            # a start that shaved less than 1% off |grad| in 8 iterations is
            # orbiting an indefinite region, not approaching a root
            stalled = active & (gn > 0.99 * history[it % 8])
            counts["stalled"] += int(np.count_nonzero(stalled))
            active &= ~stalled
        history[it % 8] = gn
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        _, _, hs = evaluate(xs[idx], hessian=True)
        try:
            steps = np.linalg.solve(hs, -gs[idx][:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            steps = np.empty((idx.size, n))
            for j in range(idx.size):
                try:
                    steps[j] = np.linalg.solve(hs[j], -gs[idx[j]])
                except np.linalg.LinAlgError:
                    steps[j] = np.linalg.lstsq(hs[j], -gs[idx[j]], rcond=None)[0]
        norms = np.linalg.norm(steps, axis=1)
        bad = ~np.isfinite(norms)
        if bad.any():  # singular data; retire those starts as failed
            counts["singular"] += int(np.count_nonzero(bad))
            active[idx[bad]] = False
            idx = idx[~bad]
            steps = steps[~bad]
            norms = norms[~bad]
            if idx.size == 0:
                continue
        big = norms > step_cap
        steps[big] *= (step_cap / norms[big])[:, None]
        t = t_warm[idx].copy()
        pending = np.ones(idx.size, dtype=bool)
        for _ in range(30):
            trying = np.flatnonzero(pending)
            if trying.size == 0:
                break
            rows = idx[trying]
            x_new = xs[rows] + t[trying, None] * steps[trying]
            _, g_new, _ = evaluate(x_new, gradient=True)
            gn_new = np.linalg.norm(g_new, axis=1)
            accept = gn_new <= (1.0 - 1e-4 * t[trying]) * gn[rows]
            acc_rows = rows[accept]
            xs[acc_rows] = x_new[accept]
            gs[acc_rows] = g_new[accept]
            gn[acc_rows] = gn_new[accept]
            t_warm[acc_rows] = np.minimum(1.0, 4.0 * t[trying[accept]])
            pending[trying[accept]] = False
            t[trying[~accept]] *= 0.5
        # starts whose line search exhausted are stalled at a non-root
        # stationary point of |grad|; retire them as failed
        counts["exhausted"] += int(np.count_nonzero(pending))
        active[idx[pending]] = False
    converged = gn <= grad_tol
    counts["unfinished"] += int(np.count_nonzero(active & ~converged))
    return converged


def _point_record(x: np.ndarray, ev, n: int, corroborated: bool) -> CriticalPointRecord:
    eigs = np.linalg.eigvalsh(ev.hessian)
    return CriticalPointRecord(
        x=np.asarray(x, dtype=float),
        grad_norm=float(np.linalg.norm(ev.gradient)),
        value_per_n=float(ev.value) / n,
        index=int(np.count_nonzero(eigs < INDEX_EIGENVALUE_THRESHOLD)),
        lambda_min=float(eigs[0]),
        corroborated=corroborated,
        eigenvalues=eigs,
    )


def minimize(field: FieldRealization, mu: float, n_starts: int, seed: int,
             grad_tol: float = 1e-10) -> CriticalPointRecord:
    """Locate the global minimum of H by multistart damped Newton descent.

    Starts are drawn uniformly in the coercivity ball; the lowest converged
    value wins.  The searches take their Newton directions from float32
    Hessians (``_minimize_from``); the winner's float64 Hessian is formed
    once, for the spectrum, ``lambda_min`` and the index.  The record's
    ``corroborated`` flag reports whether at least three distinct starts
    landed on the returned point.  Solver counters go out as one DEBUG
    record on this module's logger, with ``minimize_counts`` attached.
    """
    if n_starts < 1:
        raise ValueError("n_starts must be at least 1")
    n = field.n
    tol = grad_tol * math.sqrt(n)
    radius = _search_radius(field, mu)
    counts = dict.fromkeys(("newton_steps", "float32_hessians", "float64_hessians", "probes",
                            "exhausted", "endgame_rejects", "max_rung"), 0)
    converged = []
    failures = []
    for i in range(n_starts):
        rng = np.random.default_rng(np.random.SeedSequence((seed, 1, i)))
        x0 = _uniform_ball(rng, n, radius)
        x, value, gradient, ok = _minimize_from(field, mu, x0, tol, counts)
        if ok:
            converged.append((value, i, x))
        else:
            failures.append((i, float(np.linalg.norm(gradient))))
    record = None
    if converged:
        converged.sort(key=lambda c: (c[0], c[1]))
        _, _, best_x = converged[0]
        agree_tol = AGREEMENT_TOL * math.sqrt(n)
        n_agree = sum(1 for _, _, x in converged if np.linalg.norm(x - best_x) <= agree_tol)
        record = _point_record(best_x, eval_hamiltonian(field, mu, best_x), n,
                               corroborated=n_agree >= 3)
        counts["float64_hessians"] += 1
    counts.update(starts=n_starts, converged=len(converged))
    logger.debug(
        "minimize on field %(seed)d: %(starts)d starts, %(converged)d converged; "
        "%(newton_steps)d Newton steps on %(float32_hessians)d float32 Hessians, "
        "%(float64_hessians)d float64 Hessians; %(probes)d line-search probes, "
        "%(exhausted)d exhausted, %(endgame_rejects)d endgame rejects; "
        "highest shift rung %(max_rung)d",
        dict(counts, seed=field.seed), extra={"minimize_counts": counts},
    )
    if record is None:
        worst = ", ".join(f"start {i}: grad {g:.3e}" for i, g in failures[:5])
        raise SearchFailureError(
            f"no start converged to gradient norm {tol:.3e} out of {n_starts} ({worst})"
        )
    return record


def census(field: FieldRealization, mu: float, n_starts: int,
           dedupe_tol: float = 1e-5, seed: int = 0,
           grad_tol: float = 1e-10) -> list[CriticalPointRecord]:
    """Enumerate distinct critical points of H by multistart Newton root-finding.

    Points within dedupe_tol*sqrt(N) of an earlier representative merge into
    it (the lowest start index wins, which keeps the census prefix-stable in
    n_starts).  Every retained point is re-verified to gradient norm
    1e-9*sqrt(N); completeness is heuristic (the Morse sum and Chao1 in the
    DEBUG ``census_counts`` record measure it).
    """
    if n_starts < CENSUS_MIN_STARTS:
        raise ValueError(f"n_starts must be at least {CENSUS_MIN_STARTS}")
    n = field.n
    tol = grad_tol * math.sqrt(n)
    radius = _search_radius(field, mu)
    step_cap = 2.0 * radius + 1.0
    merge_tol = dedupe_tol * math.sqrt(n)
    # per-start streams keyed by (seed, 2, i), so the first m starts of a
    # larger run are exactly the starts of a smaller one (prefix-stable)
    x0s = np.empty((n_starts, n))
    for i in range(n_starts):
        rng = np.random.default_rng(np.random.SeedSequence((seed, 2, i)))
        x0s[i] = _uniform_ball(rng, n, radius)
    # all starts search on the mixed kernel; those reaching the switch polish in float64
    counts = dict.fromkeys(("stalled", "exhausted", "singular", "unfinished",
                            "mixed_rows", "float64_rows"), 0)
    switch = FLOAT64_SWITCH * math.sqrt(n)
    idx = np.flatnonzero(_newton_root_batch(field, mu, x0s, switch, step_cap, np.float32, counts))
    xs = x0s[idx]
    ok = _newton_root_batch(field, mu, xs, tol, step_cap, np.float64, counts)
    counts["switched"] = idx.size
    # greedy dedupe in start order; the earliest start owns the cluster
    reps: list[dict] = []
    for x in xs[ok]:
        for rep in reps:
            if float(np.linalg.norm(x - rep["x"])) <= merge_tol:
                rep["hits"] += 1
                break
        else:
            reps.append({"x": x, "hits": 1})
    records, hits = [], []
    verify_tol = CENSUS_VERIFY_TOL * math.sqrt(n)
    for rep in reps:
        ev = eval_hamiltonian(field, mu, rep["x"])
        if float(np.linalg.norm(ev.gradient)) <= verify_tol:
            records.append(_point_record(rep["x"], ev, n, corroborated=rep["hits"] >= 3))
            hits.append(rep["hits"])
    # Chao1 estimate of the points no start reached, from the points hit once
    # (f1) and twice (f2); f1 (f1 - 1) / 2 is its bias-corrected form at f2 = 0
    f1, f2 = hits.count(1), hits.count(2)
    counts.update(starts=n_starts, converged=int(np.count_nonzero(ok)),
                  dedupe_hits=int(np.count_nonzero(ok)) - len(reps),
                  reverify_rejects=len(reps) - len(records), points=len(records),
                  morse_sum=sum((-1) ** p.index for p in records),
                  chao1_unseen=f1 * f1 / (2.0 * f2) if f2 else f1 * (f1 - 1) / 2.0)
    logger.debug(
        "census of field %(seed)d: %(starts)d starts, %(switched)d reached the float64 "
        "switch, %(converged)d converged, %(stalled)d stalled, %(exhausted)d line searches "
        "exhausted, %(singular)d singular, %(unfinished)d unfinished; %(mixed_rows)d mixed "
        "and %(float64_rows)d float64 rows; %(dedupe_hits)d dedupe hits, "
        "%(reverify_rejects)d re-verify rejects, %(points)d points, Morse sum "
        "%(morse_sum)d, Chao1 unseen %(chao1_unseen).1f",
        dict(counts, seed=field.seed), extra={"census_counts": counts},
    )
    return records


def _bulk_law(report: PredictionReport) -> Optional[SemicircleLaw]:
    if report.center is None or report.radius is None:
        return None
    return report.bulk_law()


def _failed_trial(trial_id, seed, cfg, wall_ms, message) -> TrialRecord:
    return TrialRecord(
        trial_id=trial_id,
        seed=seed,
        n=cfg.n,
        k=cfg.k,
        mu=cfg.mu,
        model_id=cfg.model.kind,
        energy_per_n=math.nan,
        radius_per_sqrt_n=math.nan,
        spectrum=None,
        lambda_min=math.nan,
        bl_to_prediction=math.nan,
        census=(),
        wall_time_ms=wall_ms,
        status=message,
    )


def _measure_trial(cfg: RunConfig, model, law, trial_id: int, with_census: bool) -> TrialRecord:
    t0 = time.perf_counter()
    seed = cfg.seed + trial_id
    field = sample_field(model, cfg.n, cfg.k, seed)
    census_points: tuple[CriticalPointRecord, ...] = ()
    try:
        if with_census:
            points = census(field, cfg.mu, cfg.starts, cfg.tolerances.dedupe_tol, seed,
                            grad_tol=cfg.tolerances.grad_tol)
            if not points:
                raise SearchFailureError("census found no critical points")
            census_points = tuple(sorted(points, key=lambda p: p.value_per_n))
            best = census_points[0]
        else:
            best = minimize(field, cfg.mu, cfg.starts, seed, grad_tol=cfg.tolerances.grad_tol)
    except SearchFailureError as exc:
        wall = (time.perf_counter() - t0) * 1e3
        return _failed_trial(trial_id, seed, cfg, wall, f"search failure: {exc}")
    spectrum = SpectrumSample(n=cfg.n, eigenvalues=best.eigenvalues, seed=seed)
    if law is not None:
        bl = float(bl_distance(spectrum, law, resolution=cfg.tolerances.bl_resolution))
    else:
        bl = math.nan
    wall = (time.perf_counter() - t0) * 1e3
    return TrialRecord(
        trial_id=trial_id,
        seed=seed,
        n=cfg.n,
        k=cfg.k,
        mu=cfg.mu,
        model_id=cfg.model.kind,
        energy_per_n=best.value_per_n,
        radius_per_sqrt_n=float(np.linalg.norm(best.x)) / math.sqrt(cfg.n),
        spectrum=spectrum,
        lambda_min=best.lambda_min,
        bl_to_prediction=bl,
        census=census_points,
        wall_time_ms=wall,
        status="ok",
    )


def _run(cfg: RunConfig, with_census: bool) -> list[TrialRecord]:
    model = cfg.model.build()
    report = predictions(model, cfg.mu)
    law = _bulk_law(report)
    workers = min(resolve_threads(cfg.threads), cfg.trials)
    if workers <= 1:
        return [_measure_trial(cfg, model, law, t, with_census) for t in range(cfg.trials)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda t: _measure_trial(cfg, model, law, t, with_census),
                             range(cfg.trials)))


def run_trials(cfg: RunConfig) -> list[TrialRecord]:
    """Independent minimization trials; census fields stay empty."""
    return _run(cfg, with_census=False)


def run_census_trials(cfg: RunConfig) -> list[TrialRecord]:
    """Independent census trials; the energy is the census minimum."""
    return _run(cfg, with_census=True)


def _mean_se(values: np.ndarray) -> dict:
    mean = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(values.size)) if values.size > 1 else math.nan
    return {"mean": mean, "se": se}


def aggregate(records: list[TrialRecord], prediction: PredictionReport,
              tolerances: Optional[dict] = None) -> dict:
    """Mean and SE of each observable, with pass flags against the prediction.

    Tolerance values are implementation-calibrated (the limits carry no
    rates); the summary says so explicitly.
    """
    tol = dict(DEFAULT_CHECK_TOLERANCES)
    if tolerances:
        tol.update(tolerances)
    ok = [r for r in records if r.status == "ok"]
    summary = {
        "n_trials": len(records),
        "n_ok": len(ok),
        "failures": {r.trial_id: r.status for r in records if r.status != "ok"},
        "tolerance_source": "implementation-calibrated",
        "estimates": {},
        "prediction": {
            "energy_per_n": prediction.u_star,
            "radius_per_sqrt_n": prediction.rho_star,
            "lambda_min": prediction.lambda_edge,
            "threshold": prediction.threshold,
        },
        "checks": {},
    }
    if not ok:
        return summary
    targets = dict(summary["prediction"], bl_to_prediction=0.0)
    for name in DEFAULT_CHECK_TOLERANCES:
        vals = np.array([getattr(r, name) for r in ok])
        vals = vals[np.isfinite(vals)]
        if vals.size == 0:
            continue
        est = _mean_se(vals)
        summary["estimates"][name] = est
        target = targets[name]
        if target is None:
            continue
        err = abs(est["mean"] - target)
        summary["checks"][name] = {"target": target, "abs_error": err, "tolerance": tol[name],
                                   "pass": bool(err <= tol[name])}
    return summary
