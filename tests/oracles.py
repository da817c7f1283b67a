"""Shared independent oracles used by the test suite.

Everything here is deliberately computed by a different route than the package
code under test: finite differences instead of closed-form derivatives, direct
Gaussian conditioning instead of pre-derived constants, high-precision special
functions instead of sampling.
"""

import functools

import numpy as np
import mpmath as mp
from scipy.special import logsumexp


def central_diff(f, x, h=1e-5):
    """Symmetric difference quotient of a scalar function."""
    return (f(x + h) - f(x - h)) / (2.0 * h)


def log_mean_char_poly(n, x):
    """log |E det(GOE_n + x I)| and its sign, via probabilists' Hermite.

    Expanding the determinant over permutations, only products of 2-cycles
    survive the GOE average, giving
    E det(GOE_n + x I) = (2n)^(-n/2) He_n(sqrt(2n) x).
    Evaluated at 60 decimal digits; exact for every finite n.
    """
    mp.mp.dps = 60
    z = mp.sqrt(2 * n) * mp.mpf(x)
    he = mp.hermite(n, z / mp.sqrt(2)) / mp.mpf(2) ** (mp.mpf(n) / 2)
    val = he * mp.mpf(2 * n) ** (-mp.mpf(n) / 2)
    if val == 0:
        return -mp.inf, 0
    return float(mp.log(abs(val))), int(mp.sign(val))


def goe_density_tail(n, x):
    """Mean spectral density rho_n(x) of GOE_n for |x| outside the bulk.

    Inverts the absolute-determinant identity
    E|det(GOE_{n-1} + x I)| = sqrt(2n) (n-1)^{-(n-1)/2} Gamma(n/2)
                              e^{(n-1)x^2/2} rho_n(sqrt((n-1)/n) x)
    using the mean characteristic polynomial for the left side, which is valid
    up to a relative error of order exp(-(n-1) I(x)) once |x| clears the bulk
    edge.  Returns a float (can underflow to 0 for extreme x).
    """
    m = n - 1
    q = np.sqrt(n / m) * abs(x)  # shift at which the m-determinant is probed
    log_det, _ = log_mean_char_poly(m, q)
    mp.mp.dps = 60
    log_pref = (
        mp.mpf(0.5) * mp.log(2 * n)
        - mp.mpf(m) / 2 * mp.log(m)
        + mp.loggamma(mp.mpf(n) / 2)
        + mp.mpf(m) * mp.mpf(q) ** 2 / 2
    )
    return float(mp.e ** (mp.mpf(log_det) - log_pref))


def _hermite_function(k, u):
    norm = mp.sqrt(mp.mpf(2) ** k * mp.factorial(k) * mp.sqrt(mp.pi))
    return mp.hermite(k, u) * mp.exp(-u * u / 2) / norm


@functools.lru_cache(maxsize=None)
def _hermite_function_integral(k):
    mp.mp.dps = 50
    return mp.quad(lambda u: _hermite_function(k, u), [-mp.inf, 0, mp.inf])


def goe_density_formula(n, x):
    """log rho_n(x) of GOE_n from Mehta's finite-n formula at 50 digits.

    rho_M(t) = sum_{k<n} phi_k(t)^2 + sqrt(n/2) phi_{n-1}(t) int sgn(t-u)/2 phi_n(u) du
    + [n odd] phi_{n-1}(t) / int phi_{n-1}, at t = sqrt(n)|x|, divided by
    sqrt(n).  The Hermite functions come from mpmath's Hermite polynomials
    and every integral from adaptive quadrature, not from recurrences.
    """
    mp.mp.dps = 50
    t = mp.sqrt(n) * abs(mp.mpf(x))
    rho = mp.fsum(_hermite_function(k, t) ** 2 for k in range(n))
    tail = mp.quad(lambda u: _hermite_function(n, u), [t, mp.inf])
    rho += mp.sqrt(mp.mpf(n) / 2) * _hermite_function(n - 1, t) * (_hermite_function_integral(n) / 2 - tail)
    if n % 2:
        rho += _hermite_function(n - 1, t) / _hermite_function_integral(n - 1)
    return float(mp.log(rho / mp.sqrt(n)))


def lrc_pointwise_covariance(model, x, y, eval_lrc):
    """Covariance of the pinned increment field at two points, from D alone.

    Cov(X(x), X(y)) = (N/2) [D(|x|^2/N) + D(|y|^2/N) - D(|x-y|^2/N)].
    """
    n = len(x)
    rx = float(np.dot(x, x)) / n
    ry = float(np.dot(y, y)) / n
    rxy = float(np.dot(x - y, x - y)) / n
    return 0.5 * n * (eval_lrc(model, rx) + eval_lrc(model, ry) - eval_lrc(model, rxy))


def lrc_conditional_moment_oracle(model, eval_lrc, mu, rho, u):
    """Conditional Hessian entry moments at radius rho*sqrt(N), by brute conditioning.

    Works directly from the joint Gaussian law of (Y, G_11, G_kk, G_ll) where
    Y = H/N - D'(rho^2)/(N D'(0)) <x, grad H> is the gradient-orthogonal radial
    observable, x = rho sqrt(N) e_1 and G is the Hessian of H at x.  Uses only
    the covariance derivatives of D (no pre-simplified constants) and standard
    Gaussian conditioning, so it is an independent check of the closed-form
    constants.  Returns scaled moments:

    dict(m1, m2, var11_times_N, cov1k_times_N, covkl_times_N, mY, sigmaY_sq_times_N)
    """
    r = rho * rho
    d0, d1, d2 = eval_lrc(model, r), eval_lrc(model, r, 1), eval_lrc(model, r, 2)
    d1_0 = eval_lrc(model, 0.0, 1)
    d2_0 = eval_lrc(model, 0.0, 2)

    # unconditional moments (dimension-scaled):
    mY = mu * r / 2 - mu * d1 * r / d1_0
    varY_N = d0 - d1 * d1 * r / d1_0  # N * Var(Y)
    # Cov(Y, G_jk) * N at x = rho sqrt(N) e_1:
    covY_G11_N = (d1 - d1_0) + 2.0 * r * d2
    covY_Gkk_N = d1 - d1_0
    # unconditional Hessian entry covariances * N:
    var_G11_N = -6.0 * d2_0
    var_Gkk_N = -6.0 * d2_0
    cov_G11_Gkk_N = -2.0 * d2_0
    cov_Gkk_Gll_N = -2.0 * d2_0

    # condition on Y = u (the gradient is independent of both Y and the Hessian):
    k11 = covY_G11_N / varY_N
    kkk = covY_Gkk_N / varY_N
    return {
        "m1": mu + k11 * (u - mY),
        "m2": mu + kkk * (u - mY),
        "var11_times_N": var_G11_N - covY_G11_N * k11,
        "cov1k_times_N": cov_G11_Gkk_N - covY_G11_N * kkk,
        "covkl_times_N": cov_Gkk_Gll_N - covY_Gkk_N * kkk,
        "varkk_times_N": var_Gkk_N - covY_Gkk_N * kkk,
        "mY": mY,
        "sigmaY_sq_times_N": varY_N,
    }


def dense_field_hessian(field, x):
    """Hessian of the feature sum at x as one dense product.

    -(sum_k s_k cos(w_k . x + phi_k) w_k w_k^T), formed as a scaled copy of
    the (K, N) feature matrix times its transpose and then symmetrized.
    """
    x = np.asarray(x, dtype=float)
    c = field.amplitudes * np.cos(field.w @ x + field.phases)
    g = -(c[:, None] * field.w).T @ field.w
    return 0.5 * (g + g.T)


def linear_shift_ladder(hess, grad, cho_factor, cho_solve):
    """Newton direction with the Cholesky shift found by walking the ladder.

    Tries tau = 0, then 1e-10*scale*2^j for j = 0, 1, ..., 58 in order and
    returns (direction, rung) at the first success, or the -grad/scale
    fallback with rung 60.
    """
    scale = float(np.abs(hess).max()) or 1.0
    tau = 0.0
    for rung in range(60):
        try:
            fac = cho_factor(hess + tau * np.eye(hess.shape[0]), check_finite=False)
            return -cho_solve(fac, grad, check_finite=False), rung
        except (np.linalg.LinAlgError, ValueError):
            tau = max(2.0 * tau, 1e-10 * scale)
    return -grad / scale, 60


def float64_descent(field, mu, x0, grad_tol, eval_hamiltonian, descent_step, max_iter=200):
    """Damped Newton descent with a float64 Hessian at every iterate.

    The reference for the minimum that the mixed-precision search of
    ``minimize`` reaches, not for its path: one start at a time, the same
    shift ladder (``descent_step``) and Armijo test on H, an undamped
    endgame on |grad|, and the Newton direction from the full float64
    evaluation at each accepted point.  Returns (x, HamiltonianEval,
    converged, Newton steps).
    """
    x = np.asarray(x0, dtype=float)
    ev = eval_hamiltonian(field, mu, x)
    endgame = max(1e-4 * np.sqrt(field.n), 1e3 * grad_tol)
    rung = steps = 0
    for _ in range(max_iter):
        gn = float(np.linalg.norm(ev.gradient))
        if gn <= grad_tol:
            return x, ev, True, steps
        step, rung = descent_step(ev.hessian, ev.gradient, rung)
        steps += 1
        if gn <= endgame:
            ev_new = eval_hamiltonian(field, mu, x + step)
            if float(np.linalg.norm(ev_new.gradient)) < gn:
                x, ev = x + step, ev_new
                continue
        slope = float(ev.gradient @ step)
        if slope >= 0.0:
            step = -ev.gradient
            slope = -gn * gn
        t = 1.0
        for _ in range(50):
            x_new = x + t * step
            value = field.field_value(x_new) + 0.5 * mu * float(x_new @ x_new)
            if value <= ev.value + 1e-4 * t * slope:
                x, ev = x_new, eval_hamiltonian(field, mu, x_new)
                break
            t *= 0.5
        else:
            break
    return x, ev, float(np.linalg.norm(ev.gradient)) <= grad_tol, steps


def dense_bordered_eigenvalues(z1p, z3p, n, d2_0, rng):
    """Spectrum of the bordered conditional Hessian assembled in the original basis.

    Draws the border xi ~ N(0, -2 D''(0)/n I) and a dense GOE_{n-1} matrix
    M = (A + A^T) / (2 sqrt(n-1)), fills
    G = [[z1', xi^T], [xi, sqrt(-4 D''(0)) (sqrt((n-1)/n) M - z3' I)]]
    entry by entry and eigensolves it densely: no bulk eigenbasis and no
    tridiagonal model are involved.
    """
    xi = rng.standard_normal(n - 1) * np.sqrt(-2.0 * d2_0 / n)
    raw = rng.standard_normal((n - 1, n - 1))
    m = (raw + raw.T) / (2.0 * np.sqrt(n - 1))
    g = np.empty((n, n))
    g[0, 0] = z1p
    g[0, 1:] = xi
    g[1:, 0] = xi
    g[1:, 1:] = np.sqrt(-4.0 * d2_0) * (np.sqrt((n - 1) / n) * m - z3p * np.eye(n - 1))
    return np.linalg.eigvalsh(g)


def goe_dense_eigenvalues(n, rng):
    """Eigenvalues of one dense GOE_n draw (G + G^T) / (2 sqrt(n)), G with iid
    N(0, 1) entries: the full-matrix ensemble itself, a law oracle for the
    package's tridiagonal sampler."""
    g = rng.standard_normal((n, n))
    return np.linalg.eigvalsh((g + g.T) / (2.0 * np.sqrt(n)))


# The eigensolve loops below are the Monte Carlo estimators as they were
# before log-determinants came from pivots: the same draws in the same order,
# reduced by one full spectrum per draw.

def eig_log_abs_dets(n, n_samples, rng, shift, goe_eigenvalues):
    """log|det(M_i + x_i I)| as sum log|lambda_k(M_i) + x_i|, one eigensolve per draw.

    ``shift`` is a float or a callable drawing x_i before M_i, as in
    ``trivlab.rmt.goe_log_abs_dets``; ``goe_eigenvalues(n, rng)`` draws
    and eigensolves M_i.
    """
    logs = np.empty(n_samples)
    for i in range(n_samples):
        x = shift() if callable(shift) else shift
        ev = goe_eigenvalues(n, rng)
        with np.errstate(divide="ignore"):
            logs[i] = float(np.sum(np.log(np.abs(ev + x))))
    return logs


def eig_expected_crt_mc(a, mu, n, n_samples, seed, goe_eigenvalues, jackknife_se):
    """``expected_crt_mc`` for Hessian scale ``a`` with eigensolved determinants."""
    am = mu / a
    x_hat = am + 1.0 / (2.0 * am) if am >= 1.0 / np.sqrt(2.0) else 2.0 * am
    zeta = np.sqrt(2.0 * n) * (x_hat - am)
    rng = np.random.default_rng(seed)
    logs = np.empty(n_samples)
    for i in range(n_samples):
        z = zeta + rng.standard_normal()
        logdet = eig_log_abs_dets(n, 1, rng, am + z / np.sqrt(2.0 * n), goe_eigenvalues)[0]
        logs[i] = logdet - zeta * z + 0.5 * zeta * zeta - n * np.log(am)
    return {"log_value": float(logsumexp(logs) - np.log(n_samples)), "se": jackknife_se(logs)}


def eig_edge_lambda_mins(sample_g, model, mu, point, n, trials, seed):
    """lambda_min of ``sample_g``'s pinned draws at ``edge_tail``'s child seeds, by eigensolving
    the full bordered Hessian: the edge route before it moved to Sturm counts on W."""
    child = np.random.SeedSequence(seed).generate_state(trials, dtype=np.uint64)
    return np.array([sample_g(model, mu, point.rho, point.u, n, int(c), y=point.y).lambda_min
                     for c in child])


def reference_tridiagonal_log_abs_det(diag, off, x=0.0):
    """log|det(T + x I)| by the LDL^T sweep exactly as ``count`` computed it
    before the pivots were shared with the Sturm count: a frozen copy, so
    the package's log-determinants can be held to the same bits.
    """
    a = np.ascontiguousarray(np.atleast_2d(diag).T) + np.asarray(x, dtype=float)
    e2 = np.ascontiguousarray(np.atleast_2d(off).T) ** 2
    n, s = a.shape
    tiny = np.finfo(float).tiny
    pivmin = tiny * np.maximum(1.0, e2.max(axis=0)) if n > 1 else np.full(s, tiny)
    neg_pivmin = -pivmin
    pivots = a
    small = np.empty(s, dtype=bool)
    for k in range(n):
        r = pivots[k]
        if k:
            r -= e2[k - 1] / pivots[k - 1]
        np.less(np.abs(r), pivmin, out=small)
        np.copyto(r, neg_pivmin, where=small)
    return np.ascontiguousarray(np.log(np.abs(pivots)).T).sum(axis=1)
