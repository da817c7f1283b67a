"""Closed-form landscape theory and expected critical-point counts.

Scalar rate functions for the expected number of critical points of a
confined locally isotropic Gaussian field, their closed-form maximizers,
the trivialization predictions at the global minimum (energy, radius,
Hessian bulk and lower edge), the finite-size expected count by Monte
Carlo and by exact quadrature, and the fixed-overlap replica saddle
equations with their edge dictionary.

scipy is imported inside the Monte Carlo, quadrature and replica functions,
not at module import: the closed forms (``trivlab predict``) need none of it.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateConditioningError, UnsupportedRegimeError
from .rmt import (
    SemicircleLaw,
    goe_eigenvalues,  # noqa: F401  unused here; perfbench/tracer.py hooks this name
    goe_log_abs_dets,
    goe_log_density,
    jackknife_se_of_log_mean,
)
from .structure_functions import (
    LrcStructure,
    SrcCorrelator,
    conditioning_variance,
    eval_lrc,
    eval_src,
    trivialization_threshold,
)

logger = logging.getLogger(__name__)

_SQRT2 = math.sqrt(2.0)
_HALF_LOG2 = 0.5 * math.log(2.0)

# fewest Monte Carlo samples expected_crt_mc accepts
CRT_MC_MIN_SAMPLES = 100
# trapezoid points of expected_crt_quadrature over its integration box
CRT_QUADRATURE_POINTS = 4001
# smallest overlap replica_solve reports as an interior root, and the lower
# end of its sign scan
REPLICA_Q_FLOOR = 1e-6
# geometric grid points of replica_solve's sign scan
REPLICA_SCAN_POINTS = 400


def phi(x):
    """Log-potential defect of the standard semicircle (radius sqrt(2)).

    Zero on [-sqrt(2), sqrt(2)]; outside equals
    -|x| sqrt(x^2 - 2)/2 + log((|x| + sqrt(x^2 - 2)) / sqrt(2)) <= 0.
    Accepts scalars or arrays.
    """
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    ax = np.abs(arr)
    out = np.zeros_like(ax)
    tail = ax > _SQRT2
    if tail.any():
        a = ax[tail]
        s = np.sqrt(np.maximum(a * a - 2.0, 0.0))
        out[tail] = -0.5 * a * s + np.log((a + s) / _SQRT2)
    if np.ndim(x) == 0:
        return float(out[0])
    return out.reshape(np.shape(x))


def psi_star_semicircle(x):
    """Log-potential of the standard semicircle, int log|x - t| sc(dt).

    Closed form x^2/2 - 1/2 - log(2)/2 + phi(x); scalar or array input.
    """
    arr = np.asarray(x, dtype=float)
    out = 0.5 * arr * arr - 0.5 - _HALF_LOG2 + phi(arr)
    if np.ndim(x) == 0:
        return float(out)
    return out


def big_f(x, m):
    """Tilted log-potential -x^2/2 + 2 m x + phi(x); scalar or array x."""
    arr = np.asarray(x, dtype=float)
    out = -0.5 * arr * arr + 2.0 * float(m) * arr + phi(arr)
    if np.ndim(x) == 0:
        return float(out)
    return out


def big_f_maximizer(m):
    """Unique maximizer of big_f(., m) for m < 0, in closed form.

    Returns {"x_max", "f_max", "f_second"}.  The branch switches at
    m = -sqrt(2)/2 where the maximizer crosses the spectral edge; the
    curvature of the bulk branch is exactly -1.
    """
    m = float(m)
    if m >= 0.0:
        raise UnsupportedRegimeError("big_f_maximizer is defined for m < 0 only")
    if m < -_SQRT2 / 2.0:
        x_max = m + 1.0 / (2.0 * m)
        f_max = m * m + math.log(-m) + 0.5 * (1.0 + math.log(2.0))
        f_second = -4.0 * m * m / (2.0 * m * m - 1.0)
    else:
        x_max = 2.0 * m
        f_max = 2.0 * m * m
        f_second = -1.0
    return {"x_max": x_max, "f_max": f_max, "f_second": f_second}


@dataclass(frozen=True)
class ComplexityPoint:
    """A point (rho, u, y): radius per sqrt(N), energy per N, spectral shift."""

    rho: float
    u: float
    y: float

    def __post_init__(self):
        if not self.rho > 0.0:
            raise ValueError("rho must be positive")


def psi_src(point, model, mu):
    """Rate density of the expected critical-point count, stationary case.

    Evaluates the three-variable rate function at (rho, u, y).  For
    correlators with a single spectral atom and no constant offset the
    variance of the Hessian shift conditioned on the field value
    vanishes (B(0)B''(0) = B'(0)^2), the y-marginal degenerates, and the
    function is -inf off the pinned slice.
    """
    if not isinstance(model, SrcCorrelator):
        raise TypeError("psi_src expects an SrcCorrelator model")
    mu = float(mu)
    if mu <= 0.0:
        raise ValueError("mu must be positive")
    b0 = eval_src(model, 0.0, 0)
    b1 = eval_src(model, 0.0, 1)
    b2 = eval_src(model, 0.0, 2)
    if b2 <= 0.0:
        raise UnsupportedRegimeError(
            "constant correlator (no atoms): the rate function is undefined"
        )
    rho, u, y = point.rho, point.u, point.y
    w = u - 0.5 * mu * rho * rho
    base = (
        psi_star_semicircle(y)
        - w * w / (2.0 * b0)
        + mu * mu * rho * rho / (4.0 * b1)
        + math.log(rho)
    )
    c = (mu + (2.0 * b1 / b0) * w) / math.sqrt(8.0 * b2)
    resid = y + c
    disc = b0 * b2 - b1 * b1
    if disc <= 1e-12 * b0 * b2:
        if abs(resid) <= 1e-9 * (1.0 + abs(c)):
            return float(base)
        return float("-inf")
    return float(base - (b0 * b2 / disc) * resid * resid)


def psi_src_maximizer(model, mu):
    """Closed-form argmax of psi_src over rho > 0, u, y and its value.

    Valid above the trivialization threshold only; below it the y
    component would cross the spectral edge and the formulas stop
    maximizing anything.
    """
    if not isinstance(model, SrcCorrelator):
        raise TypeError("psi_src_maximizer expects an SrcCorrelator model")
    mu = float(mu)
    thr = trivialization_threshold(model)
    if thr <= 0.0:
        raise UnsupportedRegimeError(
            "constant correlator (no atoms): the rate function is undefined"
        )
    if mu <= thr:
        raise UnsupportedRegimeError(
            f"maximizer requires mu > {thr:.6g} (got {mu:.6g})"
        )
    b1 = eval_src(model, 0.0, 1)
    b2 = eval_src(model, 0.0, 2)
    s = math.sqrt(4.0 * b2)
    point = ComplexityPoint(
        rho=math.sqrt(-2.0 * b1) / mu,
        u=b1 / mu,
        y=-(mu / s + s / mu) / _SQRT2,
    )
    value = -math.log(s) + 0.5 * math.log(-2.0 * b1) - 0.5 - _HALF_LOG2
    return point, value


def psi_lrc(point, model, mu):
    """Rate density of the expected count for isotropic-increment fields."""
    if not isinstance(model, LrcStructure):
        raise TypeError("psi_lrc expects an LrcStructure model")
    mu = float(mu)
    if mu <= 0.0:
        raise ValueError("mu must be positive")
    d1_0 = eval_lrc(model, 0.0, 1)
    d2_0 = eval_lrc(model, 0.0, 2)
    if d2_0 >= 0.0:
        raise UnsupportedRegimeError(
            "pure-ramp structure function (no atoms): the rate function is undefined"
        )
    rho, u, y = point.rho, point.u, point.y
    r = rho * rho
    d1r = eval_lrc(model, r, 1)
    v = conditioning_variance(model, rho)
    m_y = 0.5 * mu * r - mu * d1r * r / d1_0
    w = u - m_y
    beta_sq = (d1r - d1_0) ** 2 / v
    v3 = -2.0 * d2_0 - beta_sq
    if v3 <= 0.0:
        raise DegenerateConditioningError(
            "conditional variance of the spectral shift is not positive at this rho"
        )
    kappa = -2.0 * d2_0 / v3
    c = (mu + w * (d1r - d1_0) / v) / math.sqrt(-4.0 * d2_0)
    return float(
        psi_star_semicircle(y)
        - w * w / (2.0 * v)
        - mu * mu * r / (2.0 * d1_0)
        + math.log(rho)
        - kappa * (y + c) ** 2
    )


def psi_lrc_maximizer(model, mu):
    """Closed-form argmax of psi_lrc and its value, above threshold only.

    The u component simplifies to -D'(0)/(2 mu) for every structure
    function, which is also the limiting energy per site of the global
    minimum.
    """
    if not isinstance(model, LrcStructure):
        raise TypeError("psi_lrc_maximizer expects an LrcStructure model")
    mu = float(mu)
    thr = trivialization_threshold(model)
    if thr <= 0.0:
        raise UnsupportedRegimeError(
            "pure-ramp structure function (no atoms): the rate function is undefined"
        )
    if mu <= thr:
        raise UnsupportedRegimeError(
            f"maximizer requires mu > {thr:.6g} (got {mu:.6g})"
        )
    d1_0 = eval_lrc(model, 0.0, 1)
    d2_0 = eval_lrc(model, 0.0, 2)
    point = ComplexityPoint(
        rho=math.sqrt(d1_0) / mu,
        u=-d1_0 / (2.0 * mu),
        y=-mu / math.sqrt(-4.0 * d2_0) - math.sqrt(-d2_0) / mu,
    )
    value = -0.5 * math.log(-4.0 * d2_0) - 0.5 + 0.5 * math.log(d1_0)
    return point, value


@dataclass(frozen=True)
class PredictionReport:
    """Trivialization predictions for a model at confinement stiffness mu.

    Above threshold: (rho_star, u_star, y_star) is the rate-function
    maximizer, so rho_star and u_star are the limiting radius per
    sqrt(N) and energy per N of the global minimum; center and radius
    describe the limiting Hessian bulk there, lambda_edge its lower
    edge, psi_max the maximal rate (zero net exponent after the entropy
    prefactor).  At or below threshold those fields are None and
    exponent_subcritical carries the annealed growth rate of the
    expected count; the Hessian law below threshold is an open question
    and deliberately not reported.
    """

    kind: str
    mu: float
    threshold: float
    m: float
    rho_star: Optional[float]
    u_star: Optional[float]
    y_star: Optional[float]
    center: Optional[float]
    radius: Optional[float]
    lambda_edge: Optional[float]
    psi_max: Optional[float]
    exponent_subcritical: Optional[float]

    def bulk_law(self) -> SemicircleLaw:
        if self.center is None or self.radius is None:
            raise UnsupportedRegimeError(
                "no limiting bulk law at or below the trivialization threshold"
            )
        return SemicircleLaw(center=self.center, radius=self.radius)


def _hessian_scales(model):
    """Scales (a, sigma) of the count reduction a*GOE + (sigma Z/sqrt(n) + mu) I.

    sigma/a = 1/sqrt(2) for both families.
    """
    if isinstance(model, SrcCorrelator):
        b2 = eval_src(model, 0.0, 2)
        if b2 <= 0.0:
            raise UnsupportedRegimeError("constant correlator has no Hessian noise scale")
        return math.sqrt(8.0 * b2), math.sqrt(4.0 * b2)
    if isinstance(model, LrcStructure):
        d2 = eval_lrc(model, 0.0, 2)
        if d2 >= 0.0:
            raise UnsupportedRegimeError("pure-ramp structure function has no Hessian noise scale")
        return math.sqrt(-4.0 * d2), math.sqrt(-2.0 * d2)
    raise TypeError("model must be SrcCorrelator or LrcStructure")


def predictions(model, mu) -> PredictionReport:
    """Fill a PredictionReport from the closed-form theory."""
    mu = float(mu)
    if mu <= 0.0:
        raise ValueError("mu must be positive")
    thr = trivialization_threshold(model)
    a, _sigma = _hessian_scales(model)
    m = -mu / a
    if isinstance(model, SrcCorrelator):
        kind = "src"
        b2 = eval_src(model, 0.0, 2)
        center = mu + 4.0 * b2 / mu
        radius = 4.0 * math.sqrt(b2)
        edge = (math.sqrt(mu) - math.sqrt(4.0 * b2 / mu)) ** 2
    else:
        kind = "lrc"
        d2 = eval_lrc(model, 0.0, 2)
        center = mu - 2.0 * d2 / mu
        radius = math.sqrt(-8.0 * d2)
        edge = (math.sqrt(mu) - math.sqrt(-2.0 * d2 / mu)) ** 2
    if mu > thr:
        if kind == "src":
            point, value = psi_src_maximizer(model, mu)
        else:
            point, value = psi_lrc_maximizer(model, mu)
        return PredictionReport(
            kind=kind,
            mu=mu,
            threshold=thr,
            m=m,
            rho_star=point.rho,
            u_star=point.u,
            y_star=point.y,
            center=center,
            radius=radius,
            lambda_edge=edge,
            psi_max=value,
            exponent_subcritical=None,
        )
    exponent = m * m - math.log(-m) - 0.5 - _HALF_LOG2
    return PredictionReport(
        kind=kind,
        mu=mu,
        threshold=thr,
        m=m,
        rho_star=None,
        u_star=None,
        y_star=None,
        center=None,
        radius=None,
        lambda_edge=None,
        psi_max=None,
        exponent_subcritical=exponent,
    )


def expected_crt_mc(model, mu, n, n_samples, seed):
    """Monte Carlo estimate of log E[number of critical points] at size n.

    Uses the one-Gaussian reduction
    E Crt_n = mu^{-n} E |det(a GOE_n + (sigma Z / sqrt(n) + mu) I)|
    with Z drawn from an exponentially tilted proposal centered on the
    saddle of the z-integrand; a plain N(0, 1) proposal misses the
    dominant determinant values already at n ~ 50 and is biased low by
    factors that grow exponentially in n.  Tilting changes the sampling
    law only, so the reweighted estimator stays unbiased for any center.

    Returns {"log_value": float, "se": float} with a jackknife standard
    error of the log estimate.
    """
    from scipy.special import logsumexp

    mu = float(mu)
    n = int(n)
    n_samples = int(n_samples)
    if mu <= 0.0:
        raise ValueError("mu must be positive")
    if n < 1:
        raise ValueError("n must be at least 1")
    if n_samples < CRT_MC_MIN_SAMPLES:
        raise ValueError(f"n_samples must be at least {CRT_MC_MIN_SAMPLES}")
    a, _sigma = _hessian_scales(model)
    am = mu / a
    # Saddle of -z^2/2 + n (x^2/2 + phi(x)) with x = am + z / sqrt(2 n):
    # x_hat = am + 1/(2 am) outside the bulk, 2 am inside.
    if am >= 1.0 / _SQRT2:
        x_hat = am + 1.0 / (2.0 * am)
    else:
        x_hat = 2.0 * am
    zeta = math.sqrt(2.0 * n) * (x_hat - am)
    rng = np.random.default_rng(seed)
    sqrt2n = math.sqrt(2.0 * n)
    zs = []

    def shift():  # the tilted Z of each sample is drawn before its matrix
        zs.append(zeta + rng.standard_normal())
        return am + zs[-1] / sqrt2n

    logdets = goe_log_abs_dets(n, n_samples, rng, shift)
    logs = logdets - zeta * np.array(zs) + 0.5 * zeta * zeta - n * math.log(am)
    log_value = float(logsumexp(logs) - math.log(n_samples))
    return {"log_value": log_value, "se": jackknife_se_of_log_mean(logs)}


def expected_crt_quadrature(model, mu, n, diagnostics=None):
    """log E[number of critical points] by quadrature against the exact density.

    The integrand is the product of a Gaussian tilt kernel and the exact
    mean level density of GOE_{n+1} (:func:`rmt.goe_log_density`); the
    integration box is the union of the 6-sigma boxes of the tilt kernel
    and of the tilt-times-density envelope, and the rule is a trapezoid
    with ``CRT_QUADRATURE_POINTS`` points over it.

    Returns the log value.  If `diagnostics` is a dict it is updated
    with the box and with the boundary-to-peak log ratio of the
    integrand; a ratio near zero means the truncation is suspect (also
    logged as a warning).
    """
    from scipy.special import gammaln, logsumexp

    mu = float(mu)
    n = int(n)
    if mu <= 0.0:
        raise ValueError("mu must be positive")
    if n < 1:
        raise ValueError("n must be at least 1")
    a, _sigma = _hessian_scales(model)
    m = -mu / a
    np1 = n + 1
    w1 = 2.0 * m * math.sqrt(n / np1)
    s1 = 1.0 / math.sqrt(np1)
    w2 = m * math.sqrt(n / np1)
    s2 = 1.0 / math.sqrt(2.0 * np1)
    lo = min(w1 - 6.0 * s1, w2 - 6.0 * s2)
    hi = max(w1 + 6.0 * s1, w2 + 6.0 * s2)
    x = np.linspace(lo, hi, CRT_QUADRATURE_POINTS)
    log_f = -0.5 * np1 * x * x + 2.0 * math.sqrt(n * np1) * m * x + goe_log_density(np1, x)
    log_wts = np.full_like(x, math.log(x[1] - x[0]))
    log_wts[[0, -1]] -= math.log(2.0)
    log_integral = float(logsumexp(log_f + log_wts))
    log_pref = (
        _HALF_LOG2
        + gammaln(0.5 * np1)
        + math.log(np1)
        - 0.5 * math.log(math.pi)
        - n * math.log(-m)
        - 0.5 * n * math.log(n)
        - n * m * m
    )
    peak = float(np.max(log_f))
    boundary = float(max(log_f[0], log_f[-1]))
    ratio = boundary - peak
    if ratio > -6.0:
        logger.warning(
            "quadrature truncation suspect: boundary integrand within e^%.2f of peak",
            ratio,
        )
    else:
        logger.debug("quadrature boundary-to-peak log ratio %.2f", ratio)
    if diagnostics is not None:
        diagnostics["box"] = (lo, hi)
        diagnostics["boundary_log_ratio"] = ratio
    return float(log_pref + log_integral)


@dataclass(frozen=True)
class ReplicaSolution:
    """Solution of the fixed-overlap saddle equations.

    branch is "q0" when only the identically satisfied Q = 0 branch was
    found (v is then a reporting convention) and "interior" when a
    positive-Q root of both equations was found.
    """

    v: float
    Q: float
    mu_eff: float
    edge: float
    branch: str


def replica_residuals(model, mu, v, q, convention_factor=4.0):
    """Residuals (r1, r2) of the two saddle equations at (v, q).

    The correlator enters scaled by convention_factor, which translates
    between the normalization the saddle equations were written in and
    the one used elsewhere here; 4 is the value for which the resulting
    bulk edge mu_eff - 2 sqrt(B''_scaled(0)) reproduces the stationary
    closed-form edge.
    """
    if not isinstance(model, SrcCorrelator):
        raise TypeError("replica equations are formulated for SrcCorrelator models")
    mu = float(mu)
    v = float(v)
    q = float(q)
    f = float(convention_factor)
    if mu <= 0.0:
        raise ValueError("mu must be positive")
    if f <= 0.0:
        raise ValueError("convention_factor must be positive")
    if v <= 0.0:
        raise ValueError("v must be positive")
    if q < 0.0:
        raise ValueError("q must be nonnegative")
    g = 1.0 - mu * v * q
    if g <= 0.0:
        raise ValueError("1 - mu v q must stay positive")
    b_0 = f * eval_src(model, 0.0, 0)
    b_q = f * eval_src(model, q, 0)
    b1_0 = f * eval_src(model, 0.0, 1)
    b1_q = f * eval_src(model, q, 1)
    r1 = mu * mu * q / g - (b1_q - b1_0)
    r2 = math.log(g) / v - (-mu * q + v * (b_q - b_0 - q * b1_q))
    return r1, r2


def replica_solve(model, mu, convention_factor=4.0):
    """Solve the fixed-overlap saddle equations for (v, Q) by elimination.

    Q = 0 satisfies both equations identically for every v; that branch is
    reported with the convention v = 1.  The first equation is linear in v,
    so v(q) = (1 - mu^2 q / (B'(q) - B'(0))) / (mu q), with B scaled by
    convention_factor, and an interior root is a root in q of the second
    residual at (v(q), q), divided by q.  1 - mu v q lies in (0, 1) exactly
    when mu^2 q < B'(q) - B'(0) <= -B'(0), so every interior root lies below
    -B'(0) / mu^2; as q -> 0 the ratio tends to mu^2 / B''(0), which is
    (mu / mu_c)^2 at the default factor 4, so interior roots exist only
    below mu_c.  The second residual vanishes at both ends of that range (at
    q -> 0 on the Q = 0 branch, at the top where v -> 0), so it is divided
    by q and its sign scanned strictly inside, on a geometric grid from
    ``REPLICA_Q_FLOOR``; the first sign change is refined by Brent's method.
    branch is "interior" when a root is found and "q0" otherwise.

    edge = mu_eff - 2 sqrt(convention_factor * B''(0)).
    """
    from scipy.optimize import brentq

    if not isinstance(model, SrcCorrelator):
        raise TypeError("replica equations are formulated for SrcCorrelator models")
    mu = float(mu)
    f = float(convention_factor)
    if mu <= 0.0:
        raise ValueError("mu must be positive")
    if f <= 0.0:
        raise ValueError("convention_factor must be positive")

    b1_0 = f * eval_src(model, 0.0, 1)
    b2_0 = f * eval_src(model, 0.0, 2)

    def v_of(q):
        return (1.0 - mu * mu * q / (f * eval_src(model, q, 1) - b1_0)) / (mu * q)

    def reduced(q):
        v = v_of(q)
        if not v > 0.0:
            return math.nan
        return replica_residuals(model, mu, v, q, convention_factor=f)[1] / q

    v, q, branch = 1.0, 0.0, "q0"
    q_bound = -b1_0 / (mu * mu)
    if q_bound > REPLICA_Q_FLOOR:
        grid = np.geomspace(REPLICA_Q_FLOOR, q_bound, REPLICA_SCAN_POINTS)
        values = np.array([reduced(x) for x in grid])
        change = np.flatnonzero(values[:-1] * values[1:] < 0.0)
        if change.size:
            i = int(change[0])
            # relative tolerance only: Q falls below 1e-3 close to mu_c
            q = float(brentq(reduced, grid[i], grid[i + 1], xtol=1e-300))
            v, branch = v_of(q), "interior"
    mu_eff = mu + b2_0 / mu + v * (f * eval_src(model, q, 1) - b1_0 - q * b2_0)
    return ReplicaSolution(
        v=v,
        Q=q,
        mu_eff=mu_eff,
        edge=mu_eff - 2.0 * math.sqrt(b2_0),
        branch=branch,
    )
