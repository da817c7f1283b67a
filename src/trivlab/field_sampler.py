"""Differentiable realizations of the random field and exact Gaussian sampling.

The field itself lives in dimension N with covariance of order N, so a
random-feature sum of K cosines with Gaussian frequencies reproduces it
with O(1/sqrt(K)) covariance error while staying globally smooth:

* stationary (SRC):   X(x) = sqrt(N c0) g0 + sum_k s cos(w_k . x + phi_k),
  s = sqrt(2 M N / K), M = sum of atom weights, w_k drawn per-feature from
  a mixture of N(0, (2 t^2 / N) I) with atom probabilities a_k / M.  The
  population covariance is exactly N * B(|x - y|^2 / N) at every K.
* isotropic increments (LRC):  X(x) = xi . x + sum_k s [cos(w_k . x + phi_k)
  - cos(phi_k)], s = sqrt(M N / K), xi_i iid N(0, A).  The cos(phi_k)
  subtraction pins X(0) = 0 bit-exactly; increments have variance
  N * D(|x - y|^2 / N) at every K (the increment loses the 1/2
  phase-averaging factor a stationary covariance has, hence the smaller
  amplitude).

``exact_sample_on_points`` bypasses the feature approximation entirely and
draws from the closed-form joint covariance on a finite point set.

scipy's BLAS is imported inside the Hessian kernel, so importing the
package (as every CLI command does) loads no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import IllConditionedCovarianceError
from .structure_functions import LrcStructure, SrcCorrelator, eval_lrc, eval_src

__all__ = [
    "FieldRealization",
    "HamiltonianEval",
    "sample_field",
    "eval_hamiltonian",
    "covariance_on_points",
    "exact_sample_on_points",
]

# rows per block of a mixed-precision evaluation (float32 points)
MIXED_BLOCK_ROWS = 256


@dataclass(frozen=True, eq=False)
class FieldRealization:
    """One frozen draw of the random-feature field, evaluable anywhere.

    All arrays are read-only; a realization is safe to share across
    threads.  ``kind`` is "src" or "lrc".  For SRC fields ``xi`` is the
    zero vector and ``g0`` is the realized constant component
    (sqrt(N c0) times a standard normal); for LRC fields ``g0`` is 0 and
    ``xi`` is the exact linear slope term.
    """

    kind: str
    n: int
    k: int
    w: np.ndarray            # (k, n) feature frequencies
    phases: np.ndarray       # (k,)
    amplitudes: np.ndarray   # (k,) all equal by construction, kept per-feature
    xi: np.ndarray           # (n,)
    g0: float
    seed: int

    @cached_property
    def _offset(self) -> float:
        """Constant term of X: g0, minus sum_k s_k cos(phi_k) for LRC fields.

        The feature sum at the origin is formed by the same row-times-vector
        product as in ``_evaluate``, so an LRC field is 0 at x = 0 bit-exactly.
        """
        if self.kind != "lrc":
            return self.g0
        return self.g0 - float((np.cos(self.phases[None, :]) @ self.amplitudes)[0])

    @cached_property
    def _float32(self) -> tuple[np.ndarray, ...]:
        """float32 copies of (w, phases) for mixed-precision phases and Hessians."""
        return _frozen(self.w, np.float32), _frozen(self.phases, np.float32)

    def field_value(self, x) -> float:
        """X(x) without the confinement term."""
        value, _, _ = _evaluate(self, 0.0, _one_point(x), value=True)
        return float(value[0])

    def field_gradient(self, x) -> np.ndarray:
        _, gradient, _ = _evaluate(self, 0.0, _one_point(x), gradient=True)
        return gradient[0]

    def field_hessian(self, x) -> np.ndarray:
        _, _, hessian = _evaluate(self, 0.0, _one_point(x), hessian=True)
        return hessian[0]


@dataclass(frozen=True)
class HamiltonianEval:
    """Value, gradient and Hessian of H(x) = X(x) + (mu/2)|x|^2 at one point."""

    value: float
    gradient: np.ndarray
    hessian: np.ndarray


def _frozen(arr: np.ndarray, dtype=float) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=dtype)
    arr.setflags(write=False)
    return arr


def sample_field(model, n: int, k: int = 4096, seed: int = 0) -> FieldRealization:
    """Draw one random-feature realization of the field in dimension n.

    ``k`` is the feature count; the covariance is unbiased at every k, with
    realization-to-realization fluctuation O(1/sqrt(k)).  Models with no
    atoms yield featureless realizations (k stored as 0) regardless of the
    requested k.  Deterministic given (model, n, k, seed).
    """
    n = int(n)
    k = int(k)
    if n < 1:
        raise ValueError(f"dimension must be at least 1, got {n}")
    if k < 0:
        raise ValueError(f"feature count must be nonnegative, got {k}")
    if isinstance(model, SrcCorrelator):
        kind = "src"
    elif isinstance(model, LrcStructure):
        kind = "lrc"
    else:
        raise TypeError(f"expected SrcCorrelator or LrcStructure, got {type(model).__name__}")

    weights = np.array([a for a, _ in model.atoms], dtype=float)
    scales = np.array([t for _, t in model.atoms], dtype=float)
    m_total = float(weights.sum()) if weights.size else 0.0
    if m_total > 0.0 and k == 0:
        raise ValueError("feature count k must be >= 1 when the model has atoms")

    rng = np.random.default_rng(seed)
    if kind == "src":
        g0 = float(rng.standard_normal()) * math.sqrt(n * model.c0)
        xi = np.zeros(n)
    else:
        g0 = 0.0
        xi = rng.standard_normal(n) * math.sqrt(model.A)

    if m_total > 0.0:
        idx = rng.choice(weights.size, size=k, p=weights / m_total)
        t_sel = scales[idx]
        w = rng.standard_normal((k, n)) * (t_sel * math.sqrt(2.0 / n))[:, None]
        phases = rng.uniform(0.0, 2.0 * math.pi, size=k)
        amp = math.sqrt((2.0 if kind == "src" else 1.0) * m_total * n / k)
        amplitudes = np.full(k, amp)
    else:
        k = 0
        w = np.zeros((0, n))
        phases = np.zeros(0)
        amplitudes = np.zeros(0)

    return FieldRealization(
        kind=kind,
        n=n,
        k=k,
        w=_frozen(w),
        phases=_frozen(phases),
        amplitudes=_frozen(amplitudes),
        xi=_frozen(xi),
        g0=g0,
        seed=int(seed),
    )


def eval_hamiltonian(field: FieldRealization, mu: float, x) -> HamiltonianEval:
    """Evaluate H = X + (mu/2)|x|^2 with analytic gradient and Hessian.

    The Hessian is exactly symmetric (a symmetric rank-K update plus mu on
    the diagonal).
    """
    mu = float(mu)
    if not (mu > 0.0):
        raise ValueError(f"mu must be positive, got {mu}")
    x = np.asarray(x, dtype=float)
    if x.shape != (field.n,):
        raise ValueError(f"x must have shape ({field.n},), got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("x must be finite")
    value, gradient, hessian = _evaluate(field, mu, x[None, :],
                                         value=True, gradient=True, hessian=True)
    return HamiltonianEval(value=float(value[0]), gradient=gradient[0], hessian=hessian[0])


def _one_point(x) -> np.ndarray:
    return np.asarray(x, dtype=float).reshape(1, -1)


def _evaluate(field: FieldRealization, mu: float, xs: np.ndarray, *,
              value: bool = False, gradient: bool = False, hessian: bool = False,
              hessian_dtype=np.float64):
    """Value, gradient and Hessian of H = X + (mu/2)|x|^2 at each row of xs.

    The one place the feature sum is evaluated: the (S, K) phase matrix
    xs @ w.T + phases is formed once, and each requested part takes only
    the transcendentals it needs.  Returns (values (S,), gradients (S, N),
    Hessians (S, N, N)), all float64, with None for each part not asked for.

    Float32 points take the census search's mixed mode: phases from float32
    w and phases, sin and cos in float32 (SIMD, about 20 times cheaper than
    float64 libm), upcast before every sum, so all else is float64; rows go
    in blocks, so no (S, K) float64 matrix is alive at once.

    ``hessian_dtype=np.float32`` assembles the Hessians of float64 points in
    float32 (``ssyrk`` against the float32 features, about half the time of
    ``dsyrk``): the cos weights are formed in float64 and rounded, and the
    result is upcast before mu is added, so the Hessians come back as
    float64 matrices with float32 accuracy (good for Newton directions, not
    for spectra).

    A row depends on the other rows of its batch only through BLAS
    blocking: GEMM kernels sum the tail of a batch in another order, so a
    row can differ from the same point evaluated alone in the last bits.
    The bound is 1e-13 * (1 + max|gradient entry|) per gradient entry; the
    worst seen is 1.4e-14 at |gradient| about 12 (N=6, K=1024, the first
    100 rows of 1000 census starts).  A lone float32 row is paired with
    itself: GEMV would round it otherwise than GEMM.  So census results on a
    prefix of the starts agree to a tolerance, not bit for bit (1e-6 in
    their tests).  Runs on the same starts batch the same way whatever the
    thread count, and agree exactly.
    """
    xs = np.asarray(xs)
    mixed = xs.dtype == np.float32
    if mixed and len(xs) > MIXED_BLOCK_ROWS:
        parts = [_evaluate(field, mu, xs[i:i + MIXED_BLOCK_ROWS], value=value, gradient=gradient,
                           hessian=hessian, hessian_dtype=hessian_dtype)
                 for i in range(0, len(xs), MIXED_BLOCK_ROWS)]
        return tuple(None if p[0] is None else np.concatenate(p) for p in zip(*parts))
    w, phases = field._float32 if mixed else (field.w, field.phases)
    points = xs if mixed else xs.astype(float, copy=False)
    xs = points.astype(float, copy=False)
    if mixed and len(points) == 1:
        points = np.repeat(points, 2, axis=0)
    phase = (points @ w.T)[:len(xs)]
    phase += phases
    values = gradients = hessians = None
    # the last transcendental taken overwrites the phases in place; float32
    # transcendentals are upcast before any sum
    if value or hessian:
        weights = np.cos(phase, out=None if gradient else phase).astype(float, copy=False)
    if gradient:
        sines = np.sin(phase, out=phase).astype(float, copy=False)
        sines *= field.amplitudes
        gradients = field.xi - sines @ field.w
        gradients += mu * xs
    if value:
        values = weights @ field.amplitudes + xs @ field.xi
        values += field._offset
        values += 0.5 * mu * np.einsum("ij,ij->i", xs, xs)
    if hessian:
        weights *= field.amplitudes
        w = field.w
        if hessian_dtype == np.float32:
            w, weights = field._float32[0], weights.astype(np.float32)
        hessians = _hessians(w, weights).astype(float, copy=False)
        diag = np.arange(field.n)
        hessians[:, diag, diag] += mu
    return values, gradients, hessians


def _hessians(w: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """-sum_k c_k w_k w_k^T for each row c of the (S, K) weights.

    When the batch has at least N(N+1)/2 points, one GEMM against the
    (K, N(N+1)/2) table of feature outer products does them all; the table
    is then no larger than the weights.  Smaller batches take the split-sign
    symmetric rank-K update per point.  Both fill the two triangles from the
    same numbers, so every Hessian is exactly symmetric.
    """
    s = weights.shape[0]
    n = w.shape[1]
    if n * (n + 1) // 2 > s:
        return np.stack([_syrk_hessian(w, c) for c in weights])
    rows, cols = np.triu_indices(n)
    out = np.empty((s, n, n), dtype=weights.dtype)
    packed = weights @ (w[:, rows] * w[:, cols])
    np.negative(packed, out=packed)
    out[:, rows, cols] = packed
    out[:, cols, rows] = packed
    return out


def _syrk_hessian(w: np.ndarray, c: np.ndarray) -> np.ndarray:
    """-sum_k c_k w_k w_k^T as two symmetric rank-K updates (BLAS syrk).

    Features with c_k < 0 add |c_k| w_k w_k^T and the rest subtract it.
    Each half's rows are gathered and scaled by sqrt(|c_k|) in place, one
    half alive at a time; syrk fills the lower triangle, which is then
    mirrored.  float32 features and weights take ``ssyrk`` and give a
    float32 matrix; everything else takes ``dsyrk``.
    """
    from scipy.linalg.blas import dsyrk, ssyrk

    n = w.shape[1]
    syrk = ssyrk if w.dtype == np.float32 else dsyrk
    neg = c < 0.0
    root = np.sqrt(np.abs(c))
    hess = np.zeros((n, n), dtype=w.dtype, order="F")
    for sign, rows in ((1.0, np.flatnonzero(neg)), (-1.0, np.flatnonzero(~neg))):
        half = w.take(rows, axis=0)
        half *= root[rows, None]
        hess = syrk(sign, half.T, beta=1.0, c=hess, lower=1, overwrite_c=1)
        del half
    # the strict upper triangle is still zero, so adding the transpose of
    # the strict lower one mirrors it exactly
    hess += np.tril(hess, -1).T
    return hess


def _pairwise_sq_dists(pts: np.ndarray) -> np.ndarray:
    sq = np.sum(pts * pts, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (pts @ pts.T)
    return np.maximum(d2, 0.0)


def covariance_on_points(model, points) -> np.ndarray:
    """Closed-form joint covariance of (X(p_1), ..., X(p_m)).

    SRC: N B(|p_i - p_j|^2 / N).  LRC (pinned increments):
    (N/2) [D(|p_i|^2/N) + D(|p_j|^2/N) - D(|p_i - p_j|^2/N)].
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n = pts.shape[1]
    d2 = _pairwise_sq_dists(pts) / n
    if isinstance(model, SrcCorrelator):
        return n * eval_src(model, d2)
    if isinstance(model, LrcStructure):
        r_self = np.sum(pts * pts, axis=1) / n
        d_self = eval_lrc(model, r_self)
        return 0.5 * n * (d_self[:, None] + d_self[None, :] - eval_lrc(model, d2))
    raise TypeError(f"expected SrcCorrelator or LrcStructure, got {type(model).__name__}")


def exact_sample_on_points(model, points, n_samples: int, seed: int = 0) -> np.ndarray:
    """Draw exact joint Gaussian samples of the field on a finite point set.

    Returns an (n_samples, m) array.  Factorization is Cholesky with
    escalating diagonal jitter up to 1e-10 * trace/m (the pinned LRC
    covariance is rank-deficient whenever the origin is among the points);
    if that fails the covariance is declared ill-conditioned.
    """
    n_samples = int(n_samples)
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    m = pts.shape[0]
    d2 = _pairwise_sq_dists(pts)
    off = d2[~np.eye(m, dtype=bool)]
    if off.size and off.min() <= 0.0:
        raise ValueError("points must be pairwise distinct")

    cov = covariance_on_points(model, pts)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n_samples, m))

    scale = float(np.trace(cov)) / m
    if scale <= 0.0:
        # PSD with zero trace is the zero matrix: the field is a.s. zero here
        # (single pinned origin, or a model with no variance at these points)
        return np.zeros((n_samples, m))
    for jitter in (0.0, 1e-13, 1e-12, 1e-11, 1e-10):
        try:
            chol = np.linalg.cholesky(cov + (jitter * scale) * np.eye(m))
        except np.linalg.LinAlgError:
            continue
        return z @ chol.T
    raise IllConditionedCovarianceError(
        f"covariance on {m} points failed Cholesky at jitter 1e-10 * trace/m = {1e-10 * scale:.3e}"
    )
