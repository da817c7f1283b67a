"""GOE sampling, spectral measures, and the bounded-Lipschitz metric.

Normalization: a GOE matrix here has entries with ``E M_ij^2 = (1 + delta_ij)
/ (2 n)``, so the empirical spectrum converges to the semicircle of radius
sqrt(2).  Every draw is the Householder-reduced tridiagonal form (normal
diagonal, chi off-diagonals; Dumitriu & Edelman 2002), which has the GOE
eigenvalue law at every n; the dense sampler is kept only as a test oracle.

Monte Carlo determinants take no eigensolve: a tridiagonal draw's
log|det(T + x I)| is the sum of its LDL^T pivots' log magnitudes
(:func:`tridiagonal_log_abs_det`, vectorized over a block of draws).
:func:`goe_log_abs_dets` draws the samples one at a time in the same stream
as :func:`goe_eigenvalues`.  The same pivot sweep also gives the inertia of
T + x I (:func:`tridiagonal_negative_pivots`): the number of eigenvalues of T
below -x, a Sturm count that decides an eigenvalue question in O(n).

The mean level density is exact at every n (:func:`goe_log_density`), and
the shifted-determinant identity evaluates against it.

scipy submodules are imported inside the functions that use them, so a
caller that needs only the laws and samplers (``trivlab predict``) starts
without loading scipy.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

# matrix entries per pivot-recurrence block: samples * n stays below this
LOGDET_BLOCK_ENTRIES = 1 << 18


@dataclass(frozen=True)
class SpectrumSample:
    """Eigenvalues of one random-matrix draw, sorted ascending."""

    n: int
    eigenvalues: np.ndarray
    seed: int | None = None

    def __post_init__(self):
        ev = np.asarray(self.eigenvalues, dtype=float)
        if ev.shape != (self.n,):
            raise ValueError(f"expected {self.n} eigenvalues, got shape {ev.shape}")
        if np.any(np.diff(ev) < 0):
            raise ValueError("eigenvalues must be sorted ascending")
        object.__setattr__(self, "eigenvalues", ev)

    @property
    def lambda_min(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def lambda_max(self) -> float:
        return float(self.eigenvalues[-1])


@dataclass(frozen=True)
class SemicircleLaw:
    """Semicircle distribution with given center and radius."""

    center: float = 0.0
    radius: float = math.sqrt(2.0)

    def __post_init__(self):
        if not (self.radius > 0.0):
            raise ValueError("radius must be positive")

    @property
    def support(self) -> tuple[float, float]:
        return (self.center - self.radius, self.center + self.radius)

    def pdf(self, x):
        u = np.asarray(x, dtype=float) - self.center
        r2 = self.radius * self.radius
        out = np.where(np.abs(u) < self.radius, 2.0 / (np.pi * r2) * np.sqrt(np.maximum(r2 - u * u, 0.0)), 0.0)
        return out if np.ndim(x) else float(out)

    def cdf(self, x):
        u = np.clip(np.asarray(x, dtype=float) - self.center, -self.radius, self.radius)
        r2 = self.radius * self.radius
        out = 0.5 + u * np.sqrt(r2 - u * u) / (np.pi * r2) + np.arcsin(u / self.radius) / np.pi
        return out if np.ndim(x) else float(out)


# ------------------------------------------------------------------ sampling

def _goe_tridiagonal(n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    diag = rng.standard_normal(n) / np.sqrt(n)
    if n == 1:
        return diag, np.empty(0)
    return diag, np.sqrt(rng.chisquare(np.arange(n - 1, 0, -1))) / np.sqrt(2.0 * n)


def goe_eigenvalues(n: int, rng: np.random.Generator) -> np.ndarray:
    """Eigenvalues of one tridiagonal GOE draw from an existing generator (hot-loop path)."""
    from scipy.linalg import eigvalsh_tridiagonal

    diag, off = _goe_tridiagonal(n, rng)
    if n == 1:
        return diag
    return eigvalsh_tridiagonal(diag, off)


def _ldl_pivots(diag, off, x) -> np.ndarray:
    """LDL^T pivots of T + x I for a stack of symmetric tridiagonal matrices T.

    ``diag`` is (S, n), ``off`` (S, n - 1) and ``x`` a scalar or (S,) shift.
    The pivots r_0 = d_0 + x, r_k = (d_k + x) - e_{k-1}^2 / r_{k-1} come
    from one sweep over k, vectorized over the samples, and are returned as
    an (n, S) array.  A pivot smaller in magnitude than
    pivmin = tiny * max(1, max_k e_k^2) is replaced by -pivmin, as LAPACK
    ``dstebz`` does, so a singular leading minor gives finite pivots.
    """
    a = np.ascontiguousarray(np.atleast_2d(diag).T) + np.asarray(x, dtype=float)
    e2 = np.ascontiguousarray(np.atleast_2d(off).T) ** 2
    n, s = a.shape
    tiny = np.finfo(float).tiny
    pivmin = tiny * np.maximum(1.0, e2.max(axis=0)) if n > 1 else np.full(s, tiny)
    neg_pivmin = -pivmin
    pivots = a  # overwritten row by row: row k of a is read only to form pivot k
    small = np.empty(s, dtype=bool)
    for k in range(n):
        r = pivots[k]
        if k:
            r -= e2[k - 1] / pivots[k - 1]
        np.less(np.abs(r), pivmin, out=small)
        np.copyto(r, neg_pivmin, where=small)
    return pivots


def tridiagonal_log_abs_det(diag, off, x=0.0) -> np.ndarray:
    """log|det(T + x I)| for a stack of symmetric tridiagonal matrices T.

    The LDL^T pivots of :func:`_ldl_pivots` multiply to the determinant, so
    one sweep over the stack replaces an eigensolve per sample.
    """
    return np.ascontiguousarray(np.log(np.abs(_ldl_pivots(diag, off, x))).T).sum(axis=1)


def tridiagonal_negative_pivots(diag, off, x=0.0) -> np.ndarray:
    """Number of eigenvalues of T + x I below zero, for a stack of tridiagonal T.

    By Sylvester's law of inertia this is the number of negative LDL^T
    pivots of :func:`_ldl_pivots` (a Sturm count, as in LAPACK ``dstebz``):
    an (S,) integer array from the same sweep as
    :func:`tridiagonal_log_abs_det`, with no eigensolve.  A pivot replaced
    by -pivmin counts as negative, so a pivot that vanishes exactly is counted.
    """
    return np.count_nonzero(_ldl_pivots(diag, off, x) < 0.0, axis=0)


def goe_log_abs_dets(n: int, n_samples: int, rng: np.random.Generator,
                     shift: float | Callable[[], float]) -> np.ndarray:
    """log|det(M_i + x_i I)| for ``n_samples`` GOE_n draws M_i from ``rng``.

    ``shift`` is a fixed x, or a callable that draws x_i (from ``rng``)
    just before M_i is drawn.  Draws are taken one at a time in the stream
    of :func:`goe_eigenvalues` and reduced by
    :func:`tridiagonal_log_abs_det` in blocks of at most
    ``LOGDET_BLOCK_ENTRIES`` matrix entries.
    """
    draw_shift = shift if callable(shift) else (lambda: shift)
    logs = np.empty(n_samples)
    block = max(1, LOGDET_BLOCK_ENTRIES // n)
    for start in range(0, n_samples, block):
        size = min(block, n_samples - start)
        xs = np.empty(size)
        d = np.empty((size, n))
        e = np.empty((size, n - 1))
        for j in range(size):
            xs[j] = draw_shift()
            d[j], e[j] = _goe_tridiagonal(n, rng)
        logs[start:start + size] = tridiagonal_log_abs_det(d, e, xs)
    return logs


def sample_goe(n: int, seed: int) -> SpectrumSample:
    """Draw one GOE spectrum: the tridiagonal draw of :func:`goe_eigenvalues`."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return SpectrumSample(n=n, eigenvalues=goe_eigenvalues(n, np.random.default_rng(seed)), seed=seed)


# --------------------------------------------------------- bounded-Lipschitz

def _atoms_of(measure):
    """Normalize a measure argument to (positions, weights) or a SemicircleLaw."""
    if isinstance(measure, SemicircleLaw):
        return measure
    if isinstance(measure, SpectrumSample):
        pos = measure.eigenvalues
    else:
        pos = np.asarray(measure, dtype=float).ravel()
        if pos.size == 0:
            raise ValueError("empty spectral measure")
    w = np.full(pos.size, 1.0 / pos.size)
    return pos, w


def _discretize_semicircle(law: SemicircleLaw, h: float):
    lo, hi = law.support
    n_cells = max(2, int(np.ceil((hi - lo) / h)))
    edges = np.linspace(lo, hi, n_cells + 1)
    weights = np.diff(law.cdf(edges))
    centers = (edges[:-1] + edges[1:]) / 2.0
    return centers, weights


def bl_distance(p, q, resolution: float | None = None) -> float:
    """Bounded-Lipschitz (Dudley) distance between two spectral measures.

    Accepts eigenvalue arrays, SpectrumSample instances, or SemicircleLaw
    instances.  Solves the dual LP ``max int f d(p - q)`` over grid functions
    with ``|f| <= 1`` and unit Lipschitz constant; continuous laws are
    discretized mass-preservingly at ``resolution`` (default: 1e-3 times the
    combined support span).  For two atomic measures the grid is the union of
    atoms and the LP value is exact.
    """
    from scipy import sparse
    from scipy.optimize import linprog

    raw = [_atoms_of(p), _atoms_of(q)]
    lo, hi = np.inf, -np.inf
    for m in raw:
        if isinstance(m, SemicircleLaw):
            lo, hi = min(lo, m.support[0]), max(hi, m.support[1])
        else:
            lo, hi = min(lo, m[0].min()), max(hi, m[0].max())
    span = hi - lo
    if span <= 0.0:
        return 0.0  # both measures are a single common atom
    h = resolution if resolution is not None else 1e-3 * span

    atoms = []
    for m in raw:
        if isinstance(m, SemicircleLaw):
            atoms.append(_discretize_semicircle(m, h))
        else:
            atoms.append(m)

    grid = np.unique(np.concatenate([a[0] for a in atoms]))
    signed = np.zeros(grid.size)
    for sign, (pos, w) in zip((1.0, -1.0), atoms):
        idx = np.searchsorted(grid, pos)
        np.add.at(signed, idx, sign * w)

    ng = grid.size
    if ng == 1:
        return 0.0
    gaps = np.diff(grid)
    # rows: +/- (f_{i+1} - f_i) <= gap_i
    ones = np.ones(ng - 1)
    rows = np.arange(ng - 1)
    d_mat = sparse.coo_matrix(
        (np.concatenate([ones, -ones]), (np.concatenate([rows, rows]), np.concatenate([rows + 1, rows]))),
        shape=(ng - 1, ng),
    ).tocsr()
    a_ub = sparse.vstack([d_mat, -d_mat])
    b_ub = np.concatenate([gaps, gaps])
    res = linprog(
        c=-signed,
        A_ub=a_ub,
        b_ub=b_ub,
        bounds=(-1.0, 1.0),
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    if not res.success:
        raise RuntimeError(f"bounded-Lipschitz LP failed: {res.message}")
    return float(-res.fun)


# ------------------------------------------------------------- level density

_RESCALE_ABOVE = 2.0 ** 250
_LOG_RESCALE = 250.0 * math.log(2.0)


def goe_log_density(n: int, x):
    """log rho_n(x), the exact mean level density of GOE_n (mass one).

    sqrt(n) GOE_n has joint eigenvalue density prop. to |Delta| e^{-sum l^2/2},
    whose one-point function of mass n is (Mehta, *Random Matrices*, ch. 7)

        rho_M(t) = sum_{k<n} phi_k(t)^2
                   + sqrt(n/2) phi_{n-1}(t) int eps(t - u) phi_n(u) du
                   + [n odd] phi_{n-1}(t) / int phi_{n-1},

    with phi_k the orthonormal Hermite functions and eps(u) = sgn(u) / 2, so
    rho_n(x) = rho_M(sqrt(n) |x|) / sqrt(n).  phi_k (three-term recurrence)
    and the tail integrals J_k(t) = int_t^inf phi_k (J_0 from erfcx,
    J_1 = sqrt(2) phi_0, J_{k+1} = sqrt(k/(k+1)) J_{k-1} + sqrt(2/(k+1)) phi_k)
    run forward together; int eps(t - u) phi_n(u) du = I_n / 2 - J_n with
    I_n = int phi_n, which vanishes for odd n.  Every term is carried as a
    multiple of a per-x scale e^s, which starts at e^{-t^2/2} and grows by
    2^250 whenever a Hermite term passes 2^250, so nothing under- or
    overflows at any n or x.
    Vectorized over ``x``; costs n sweeps over the points.
    """
    from scipy.special import erfcx, gammaln

    n = int(n)
    if n < 1:
        raise ValueError("n must be at least 1")
    xs = np.asarray(x, dtype=float)
    t = math.sqrt(n) * np.abs(xs.ravel())
    log_scale = -0.5 * t * t
    p_prev, p = np.zeros_like(t), np.full_like(t, math.pi ** -0.25)  # phi_{k-1}, phi_k
    j_prev, j = np.zeros_like(t), math.pi ** 0.25 / math.sqrt(2.0) * erfcx(t / math.sqrt(2.0))
    sq = np.zeros_like(t)  # sum_{i<k} phi_i^2, in units of e^{2s}
    for k in range(n):
        big = np.abs(p) > _RESCALE_ABOVE
        if big.any():
            for term in (p_prev, p, j_prev, j):
                term[big] /= _RESCALE_ABOVE
            sq[big] /= _RESCALE_ABOVE ** 2
            log_scale[big] += _LOG_RESCALE
        sq += p * p
        a, b = math.sqrt(2.0 / (k + 1)), math.sqrt(k / (k + 1.0))
        p_prev, p = p, a * t * p - b * p_prev
        j_prev, j = j, b * j_prev + a * p_prev
    # now p_prev = phi_{n-1} and j = J_n; I_{2m} = I_0 sqrt(Gamma(m + 1/2) / (Gamma(1/2) m!))
    m = n // 2
    full = math.sqrt(2.0) * math.pi ** 0.25 * math.exp(
        0.5 * (gammaln(m + 0.5) - gammaln(0.5) - gammaln(m + 1.0)))
    scale = np.exp(log_scale)
    if n % 2:  # I_n = 0; full = I_{n-1}
        inner = sq * scale + p_prev * (1.0 / full - math.sqrt(0.5 * n) * j * scale)
    else:  # full = I_n
        inner = sq * scale + math.sqrt(0.5 * n) * p_prev * (0.5 * full - j * scale)
    out = (log_scale + np.log(inner) - 0.5 * math.log(n)).reshape(xs.shape)
    return out if out.ndim else float(out)


# ------------------------------------------------- shifted |det| expectation

def jackknife_se_of_log_mean(logs: np.ndarray) -> float:
    from scipy.special import logsumexp

    ns = logs.size
    total = logsumexp(logs)
    # stable leave-one-out log-means
    delta = np.minimum(logs - total, -1e-300)
    loo = total + np.log1p(-np.exp(delta)) - np.log(ns - 1)
    return float(np.sqrt((ns - 1) * np.var(loo)))


def expected_abs_det_shifted_mc(n: int, x: float, n_samples: int, seed: int) -> dict:
    """Monte-Carlo estimate of log E|det(GOE_n + x I)| with a jackknife SE."""
    from scipy.special import logsumexp

    if n_samples < 2:
        raise ValueError("need at least two samples for a jackknife SE")
    logs = goe_log_abs_dets(n, n_samples, np.random.default_rng(seed), x)
    log_mean = float(logsumexp(logs) - np.log(n_samples))
    return {"log_mean": log_mean, "se": jackknife_se_of_log_mean(logs)}


def abs_det_identity_log_prefactor(n: int) -> float:
    """log of sqrt(2(n+1)) n^{-n/2} Gamma((n+1)/2)."""
    from scipy.special import gammaln

    return 0.5 * np.log(2.0 * (n + 1)) - 0.5 * n * np.log(n) + gammaln((n + 1) / 2.0)


def expected_abs_det_shifted_formula(n: int, x: float) -> float:
    """log E|det(GOE_n + x I)| via the mean-density identity.

    E|det(GOE_n + x I)| = prefactor * exp(n x^2 / 2) * rho_{n+1}(sqrt(n/(n+1)) x),
    with the exact density of :func:`goe_log_density`.
    """
    w = math.sqrt(n / (n + 1.0)) * x
    return float(abs_det_identity_log_prefactor(n) + n * x * x / 2.0 + goe_log_density(n + 1, w))
