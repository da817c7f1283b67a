"""Conditional Hessian model at a critical point of an isotropic-increment field.

Conditioning the Hessian of H at radius rho*sqrt(N) on the (gradient-
orthogonal) energy observable being u turns it into a bordered random
matrix

    G = [[z1', xi^T],
         [xi,  G_**]],      G_** = sqrt(-4 D''(0)) (sqrt((N-1)/N) GOE_{N-1} - z3' I),

where the corner z1', the bulk shift z3' and the border xi are Gaussian
with the closed-form constants computed by :func:`constants`.  The module
samples G in the eigenbasis of G_** (tridiagonal GOE eigenvalues, border
drawn there directly since its law is isotropic, one dense eigensolve of
the resulting arrowhead), evaluates its determinant through the Schur
complement, reduces the edge question to a tridiagonal model W, and runs
the edge and second-moment experiments used to check the trivialization
picture.  At the pinned shift, Householder tridiagonalization of the bulk
(Dumitriu-Edelman, corner kept) gives lambda_min(G) = -sqrt(-2 D''(0)/N)
lambda_max(W) - sqrt(-4 D''(0)) y in law, so the edge experiment draws W
and decides lambda_min(G) <= t by one Sturm count of w_t I - W (the
negative LDL^T pivots of :func:`trivlab.rmt.tridiagonal_negative_pivots`),
O(N) per draw and no eigensolve.  Second-moment log-determinants come from
the same pivot recurrence through :func:`trivlab.rmt.goe_log_abs_dets`.

Two sampling modes: with ``y=None`` the shift z3' fluctuates jointly with
the corner (the unconditional model, used for conditional-law checks);
with ``y`` given, z3' is pinned and the corner is drawn from its
conditional law Normal(a_bar, b^2/N), which is the model at the
rate-function maximizer where the edge predictions hold.

scipy is imported inside the functions that use it, so importing this
module (as the CLI does for every command) loads none of it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .complexity import predictions, psi_lrc_maximizer
from .errors import DegenerateConditioningError
from .rmt import LOGDET_BLOCK_ENTRIES, goe_eigenvalues, goe_log_abs_dets, tridiagonal_negative_pivots
from .structure_functions import LrcStructure, alpha_beta, conditioning_variance, eval_lrc

# fewest draws edge_tail accepts
EDGE_MIN_TRIALS = 50
# smallest dimension of the bordered Hessian (corner, border, GOE_{n-1} bulk)
BORDERED_MIN_N = 3

__all__ = [
    "LrcConditionalConstants",
    "BorderedHessianSample",
    "CornerConditional",
    "constants",
    "sample_g",
    "sample_corner_pairs",
    "corner_conditional",
    "schur_det",
    "tridiag_w_lambda_max",
    "edge_tail",
    "second_moment_ratio",
]


@dataclass(frozen=True)
class LrcConditionalConstants:
    """Closed-form constants of the conditional Hessian law at (rho, u).

    All *_times_N fields are dimension-scaled variances; mY and
    sigmaY_sq_times_N describe the conditioning observable itself.
    """

    m1: float
    m2: float
    sigma1_sq_times_N: float
    sigma2_sq_times_N: float
    mY: float
    sigmaY_sq_times_N: float
    alpha: float
    beta: float


@dataclass(frozen=True)
class CornerConditional:
    """Law of the corner given the bulk shift: z1' | z3'=y ~ N(a_bar, b_sq/N)."""

    a_bar: float
    b_sq: float


@dataclass(frozen=True, eq=False)
class BorderedHessianSample:
    """One draw of the bordered matrix G with its assembled spectrum.

    ``xi`` is the border in the eigenbasis of G_**, where it is drawn
    directly (its law is isotropic), and ``g_star_eigenvalues`` is G_** in
    that basis.  G is then the arrowhead
    [[z1p, xi^T], [xi, diag(g_star_eigenvalues)]], whose spectrum
    interlaces ``g_star_eigenvalues``.
    """

    n: int
    mu: float
    rho: float
    u: float
    z1p: float
    z3p: float
    xi: np.ndarray
    goe_eigenvalues: np.ndarray
    g_star_eigenvalues: np.ndarray
    eigenvalues: np.ndarray
    pinned_y: float | None = None

    @property
    def lambda_min(self) -> float:
        return float(self.eigenvalues[0])


def _require_lrc(model) -> None:
    if not isinstance(model, LrcStructure):
        raise TypeError(f"expected an LrcStructure model, got {type(model).__name__}")


def constants(model: LrcStructure, mu: float, rho: float, u: float) -> LrcConditionalConstants:
    """Conditional-law constants at radius rho*sqrt(N) and energy level u."""
    _require_lrc(model)
    mu = float(mu)
    if mu <= 0.0:
        raise ValueError("mu must be positive")
    rho = float(rho)
    u = float(u)
    v = conditioning_variance(model, rho)  # raises when degenerate
    al, be = alpha_beta(model, rho)
    r = rho * rho
    d1_0 = eval_lrc(model, 0.0, 1)
    d2_0 = eval_lrc(model, 0.0, 2)
    d1r = eval_lrc(model, r, 1)
    m_y = 0.5 * mu * r - mu * d1r * r / d1_0
    sv = math.sqrt(v)
    s = al * r + be
    s1 = -4.0 * d2_0 - s * al * r
    s2 = -2.0 * d2_0 - s * be
    if s1 <= 0.0 or s2 <= 0.0:
        raise DegenerateConditioningError(
            f"conditional variance scales not positive at rho={rho} (s1={s1:.3e}, s2={s2:.3e})"
        )
    return LrcConditionalConstants(
        m1=mu + (u - m_y) * s / sv,
        m2=mu + (u - m_y) * be / sv,
        sigma1_sq_times_N=s1,
        sigma2_sq_times_N=s2,
        mY=m_y,
        sigmaY_sq_times_N=v,
        alpha=al,
        beta=be,
    )


def corner_conditional(model: LrcStructure, mu: float, rho: float, u: float, y: float) -> CornerConditional:
    """Conditional law of the corner entry given the bulk shift z3' = y."""
    c = constants(model, mu, rho, u)
    r = float(rho) ** 2
    d2_0 = eval_lrc(model, 0.0, 2)
    v = c.sigmaY_sq_times_N
    v3 = -2.0 * d2_0 - c.beta * c.beta
    if v3 <= 0.0:
        raise DegenerateConditioningError("residual shift variance v3 is not positive")
    ar2 = c.alpha * r
    a_bar = (
        -2.0 * d2_0 * ar2 * (u - c.mY) / (v3 * math.sqrt(v))
        + c.alpha * c.beta * r * mu / v3
        - ((v3 - c.alpha * c.beta * r) / v3) * math.sqrt(-4.0 * d2_0) * float(y)
    )
    b_sq = -4.0 * d2_0 + 2.0 * d2_0 * ar2 * ar2 / v3
    if b_sq <= 0.0:
        raise DegenerateConditioningError("conditional corner variance b_sq is not positive")
    return CornerConditional(a_bar=float(a_bar), b_sq=float(b_sq))


def _corner_core(c: LrcConditionalConstants, a2: float, ab: float, rho: float, n: int, z: np.ndarray):
    """Map standard normals z (draws, 3) to (z1', z3') with the shared z2 coupling."""
    sq_n = math.sqrt(n)
    s1 = math.sqrt(c.sigma1_sq_times_N)
    s2 = math.sqrt(c.sigma2_sq_times_N)
    z1p = c.m1 + (s1 * z[:, 0] - s2 * z[:, 1]) / sq_n
    z3p = ((s2 * z[:, 1] + math.sqrt(ab) * rho * z[:, 2]) / sq_n - c.m2) / math.sqrt(a2)
    return z1p, z3p


def sample_corner_pairs(model, mu, rho, u, n: int, n_draws: int, seed: int):
    """Vectorized draws of the joint (z1', z3') pair, no spectra attached.

    Shares the sampling core with sample_g; intended for conditional-law
    statistics where the bulk eigenvalues are not needed.
    """
    if n < BORDERED_MIN_N:
        raise ValueError(f"n must be at least {BORDERED_MIN_N}")
    if n_draws < 1:
        raise ValueError("n_draws must be positive")
    c = constants(model, mu, rho, u)
    d2_0 = eval_lrc(model, 0.0, 2)
    ab = c.alpha * c.beta
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n_draws, 3))
    return _corner_core(c, -4.0 * d2_0, ab, float(rho), n, z)


def sample_g(model, mu, rho, u, n: int, seed: int,
             y: float | None = None) -> BorderedHessianSample:
    """Draw the bordered conditional Hessian and assemble its spectrum.

    With ``y=None`` the bulk shift z3' fluctuates jointly with the corner;
    with ``y`` given, z3' is pinned to y and the corner follows its
    conditional law (the regime of the edge predictions).  The stream is
    the corner normals, the border, then a tridiagonal GOE_{n-1}; the
    spectrum is one dense eigensolve of the n x n arrowhead.
    """
    n = int(n)
    if n < BORDERED_MIN_N:
        raise ValueError(f"n must be at least {BORDERED_MIN_N}")
    c = constants(model, mu, rho, u)
    d2_0 = eval_lrc(model, 0.0, 2)
    a2 = -4.0 * d2_0
    ab = c.alpha * c.beta
    if ab < 0.0:
        raise DegenerateConditioningError("alpha*beta is negative; the shift coupling is undefined")
    cc = None if y is None else corner_conditional(model, mu, rho, u, y)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((1, 3))
    if cc is None:
        z1p_arr, z3p_arr = _corner_core(c, a2, ab, float(rho), n, z)
        z1p, z3p = float(z1p_arr[0]), float(z3p_arr[0])
    else:
        z1p = cc.a_bar + math.sqrt(cc.b_sq / n) * float(z[0, 0])
        z3p = float(y)
    xi = rng.standard_normal(n - 1) * math.sqrt(-2.0 * d2_0 / n)
    goe_vals = goe_eigenvalues(n - 1, rng)
    g_star = math.sqrt(a2) * (math.sqrt((n - 1) / n) * goe_vals - z3p)
    arrow = np.diag(np.concatenate(([z1p], g_star)))
    arrow[0, 1:] = xi
    arrow[1:, 0] = xi
    return BorderedHessianSample(
        n=n,
        mu=float(mu),
        rho=float(rho),
        u=float(u),
        z1p=z1p,
        z3p=z3p,
        xi=xi,
        goe_eigenvalues=goe_vals,
        g_star_eigenvalues=g_star,
        eigenvalues=np.linalg.eigvalsh(arrow),
        pinned_y=None if y is None else float(y),
    )


def schur_det(sample: BorderedHessianSample) -> tuple[float, int]:
    """log|det G| and its sign through the Schur complement of the bulk block.

    det G = det(G_**) * (z1' - sum xi_k^2 / lambda_k(G_**)) with the border
    in the bulk eigenbasis.  A nearly singular bulk (an eigenvalue within
    1e-12 of zero) only triggers a warning: the determinant integrand
    tolerates measure-zero singularities.
    """
    g = sample.g_star_eigenvalues
    if np.abs(g).min() <= 1e-12:
        warnings.warn(
            "bulk block is numerically singular; Schur determinant may be inaccurate",
            RuntimeWarning,
            stacklevel=2,
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        corr = sample.z1p - float(np.sum(sample.xi**2 / g))
        log_abs = float(np.sum(np.log(np.abs(g))) + np.log(abs(corr)))
    sign_bulk = -1 if int(np.count_nonzero(g < 0.0)) % 2 else 1
    if corr > 0.0:
        sign = sign_bulk
    elif corr < 0.0:
        sign = -sign_bulk
    else:
        sign = 0
    return log_abs, sign


def _w_sampler(model, mu, rho, u, y, n: int):
    """Validate once and return draw(seed) -> (diag, off) of the tridiagonal edge model W.

    The one place the W stream is written: the corner z~1 from the
    conditional corner law, sqrt(2) N(0, 1) on the rest of the diagonal,
    then chi_{n-1}, ..., chi_1 off the diagonal.
    """
    if n < BORDERED_MIN_N:
        raise ValueError(f"n must be at least {BORDERED_MIN_N}")
    c = constants(model, mu, rho, u)
    if c.alpha * c.beta < 0.0:
        raise DegenerateConditioningError("alpha*beta is negative; the shift coupling is undefined")
    cc = corner_conditional(model, mu, rho, u, y)
    s_half = math.sqrt(-2.0 * eval_lrc(model, 0.0, 2))
    corner_shift = math.sqrt(2.0) * float(y)
    dofs = np.arange(n - 1, 0, -1)

    def draw(seed):
        rng = np.random.default_rng(seed)
        z_tilde = (cc.a_bar + math.sqrt(cc.b_sq / n) * rng.standard_normal()) / s_half
        diag = np.empty(n)
        diag[0] = -math.sqrt(n) * (z_tilde + corner_shift)
        diag[1:] = math.sqrt(2.0) * rng.standard_normal(n - 1)
        return diag, np.sqrt(rng.chisquare(dofs))

    return draw


def _w_threshold(model, y, n: int, t: float) -> float:
    """w_t with lambda_min(G) <= t exactly when lambda_max(W) >= w_t.

    From lambda_min(G) = -sqrt(-2 D''(0)/n) lambda_max(W) - sqrt(-4 D''(0)) y.
    """
    d2_0 = eval_lrc(model, 0.0, 2)
    return -(float(t) + math.sqrt(-4.0 * d2_0) * float(y)) / math.sqrt(-2.0 * d2_0 / n)


def tridiag_w_lambda_max(model, mu, rho, u, y, n: int, seed: int) -> float:
    """Largest eigenvalue of the tridiagonal edge model W.

    W has corner -sqrt(n) (z~1 + sqrt(2) y) with sqrt(-2 D''(0)) z~1 drawn
    from the conditional corner law, Gaussian sqrt(2) diagonal elsewhere,
    and chi_{n-1}, ..., chi_1 off-diagonals; -sqrt(-2 D''(0)/n) lambda_max(W)
    - sqrt(-4 D''(0)) y reproduces lambda_min(G) in law (Dumitriu-Edelman
    reduction of the bordered Hessian, corner kept).  One eigensolve per
    call; :func:`edge_tail` decides the same draws by a Sturm count instead.
    """
    from scipy.linalg import eigvalsh_tridiagonal

    diag, off = _w_sampler(model, mu, rho, u, y, int(n))(seed)
    return float(eigvalsh_tridiagonal(diag, off)[-1])


def _edge_exceedances(model, mu, n: int, trials: int, epsilon: float, seed: int) -> np.ndarray:
    """Per-draw lambda_min(G) <= edge - epsilon for edge_tail's draws, without eigensolving.

    Draw i is the W of :func:`tridiag_w_lambda_max` at the rate-function
    maximizer with seed child i of ``seed``.  With t = edge - epsilon,
    lambda_min(G) <= t exactly when lambda_max(W) >= w_t
    (:func:`_w_threshold`), that is when w_t I - W has a negative LDL^T pivot;
    the pivots come from one sweep over a block of draws
    (:func:`trivlab.rmt.tridiagonal_negative_pivots`).
    """
    if trials < EDGE_MIN_TRIALS:
        raise ValueError(f"trials must be at least {EDGE_MIN_TRIALS}")
    n = int(n)
    point, _ = psi_lrc_maximizer(model, mu)
    draw = _w_sampler(model, mu, point.rho, point.u, point.y, n)
    w_t = _w_threshold(model, point.y, n, predictions(model, mu).lambda_edge - float(epsilon))
    child = np.random.SeedSequence(seed).generate_state(trials, dtype=np.uint64)
    hits = np.empty(trials, dtype=bool)
    block = max(1, LOGDET_BLOCK_ENTRIES // n)
    for start in range(0, trials, block):
        size = min(block, trials - start)
        diag = np.empty((size, n))
        off = np.empty((size, n - 1))
        for j in range(size):
            diag[j], off[j] = draw(int(child[start + j]))
        hits[start:start + size] = tridiagonal_negative_pivots(-diag, off, w_t) > 0
    return hits


def edge_tail(model, mu, n: int, trials: int, epsilon: float, seed: int) -> float:
    """Fraction of pinned-model draws with lambda_min below the predicted edge minus epsilon.

    Samples the model at the rate-function maximizer (rho*, u*, y*) and
    counts lambda_min(G) <= (c_l - r_l) - epsilon.  epsilon may be negative
    for sanity inversions (threshold above the bulk).  Each draw is the
    tridiagonal edge model W of :func:`tridiag_w_lambda_max`, decided by
    one O(n) Sturm count instead of an eigensolve.
    """
    return int(np.count_nonzero(_edge_exceedances(model, mu, n, trials, epsilon, seed))) / trials


def second_moment_ratio(n: int, x: float, n_samples: int, seed: int) -> float:
    """(1/n) log of E[det^2] / (E|det|)^2 for det(GOE_n + x I), by Monte Carlo.

    Requires x clear of the bulk edge (x > sqrt(2) + 0.1) so the
    determinant does not vanish along the sampled spectra; all expectations
    are accumulated in log-space.  The log-determinants come from the pivot
    recurrence on tridiagonal draws.
    """
    from scipy.special import logsumexp

    n = int(n)
    if n < 1:
        raise ValueError("n must be positive")
    if not (x > math.sqrt(2.0) + 0.1):
        raise ValueError(f"x must exceed sqrt(2) + 0.1, got {x}")
    n_samples = int(n_samples)
    if n_samples < 1000:
        raise ValueError("n_samples must be at least 1000")
    logs = goe_log_abs_dets(n, n_samples, np.random.default_rng(seed), x)
    log_e2 = float(logsumexp(2.0 * logs) - math.log(n_samples))
    log_e1 = float(logsumexp(logs) - math.log(n_samples))
    return (log_e2 - 2.0 * log_e1) / n
