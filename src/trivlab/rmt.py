"""GOE sampling, spectral measures, and the bounded-Lipschitz metric.

Normalization: a GOE matrix here has entries with ``E M_ij^2 = (1 + delta_ij)
/ (2 n)``, so the empirical spectrum converges to the semicircle of radius
sqrt(2).  The tridiagonal sampler draws the Householder-reduced form (chi
off-diagonals, Dumitriu-Edelman) and is the default for large n; dense and
tridiagonal samplers agree in law.

Monte Carlo determinants take no eigensolve: a tridiagonal draw's
log|det(T + x I)| is the sum of its LDL^T pivots' log magnitudes
(:func:`tridiagonal_log_abs_det`, vectorized over a block of draws), and a
dense draw's is one LU ``slogdet``.  :func:`goe_log_abs_dets` draws the
samples one at a time in the same stream as :func:`goe_eigenvalues`.

scipy submodules are imported inside the functions that use them, so a
caller that needs only the laws and samplers (``trivlab predict``) starts
without loading scipy.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import GridCoverageError

DENSE_METHOD_MAX_N = 256
# matrix entries per pivot-recurrence block: samples * n stays below this
LOGDET_BLOCK_ENTRIES = 1 << 18


@dataclass(frozen=True)
class SpectrumSample:
    """Eigenvalues of one random-matrix draw, sorted ascending."""

    n: int
    eigenvalues: np.ndarray
    method: str
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


@dataclass(frozen=True)
class DensityEstimate:
    """A density tabulated on an increasing grid; must integrate to ~1."""

    grid: np.ndarray
    values: np.ndarray
    n_samples: int

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if g.ndim != 1 or g.shape != v.shape or g.size < 2:
            raise ValueError("grid and values must be 1-d arrays of equal length >= 2")
        if np.any(np.diff(g) <= 0):
            raise ValueError("grid must be strictly increasing")
        if np.any(v < 0):
            raise ValueError("density values must be nonnegative")
        if self.n_samples <= 0:
            raise ValueError("n_samples must be positive")
        mass = float(np.trapezoid(v, g))
        if not (0.99 <= mass <= 1.01):
            raise ValueError(f"density mass {mass:.4f} outside [0.99, 1.01]")
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "values", v)

    def __call__(self, x: float) -> float:
        g, v = self.grid, self.values
        if x < g[0] or x > g[-1]:
            raise GridCoverageError(f"query {x} outside estimated range [{g[0]}, {g[-1]}]")
        return float(np.interp(x, g, v))


# ------------------------------------------------------------------ sampling

def _goe_dense(n: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((n, n))
    return (g + g.T) / (2.0 * np.sqrt(n))


def _goe_tridiagonal(n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    diag = rng.standard_normal(n) / np.sqrt(n)
    if n == 1:
        return diag, np.empty(0)
    return diag, np.sqrt(rng.chisquare(np.arange(n - 1, 0, -1))) / np.sqrt(2.0 * n)


def _resolve_method(n: int, method: str) -> str:
    if method == "auto":
        return "dense" if n <= DENSE_METHOD_MAX_N else "tridiagonal"
    if method in ("dense", "tridiagonal"):
        return method
    raise ValueError(f"unknown method {method!r}")


def goe_eigenvalues(n: int, rng: np.random.Generator, method: str = "auto") -> np.ndarray:
    """Eigenvalues of one GOE draw using an existing generator (hot-loop path)."""
    from scipy.linalg import eigh, eigvalsh_tridiagonal

    if _resolve_method(n, method) == "dense":
        return eigh(_goe_dense(n, rng), eigvals_only=True)
    diag, off = _goe_tridiagonal(n, rng)
    if n == 1:
        return diag
    return eigvalsh_tridiagonal(diag, off)


def tridiagonal_log_abs_det(diag, off, x=0.0) -> np.ndarray:
    """log|det(T + x I)| for a stack of symmetric tridiagonal matrices T.

    ``diag`` is (S, n), ``off`` (S, n - 1) and ``x`` a scalar or (S,) shift.
    The LDL^T pivots r_0 = d_0 + x, r_k = (d_k + x) - e_{k-1}^2 / r_{k-1}
    multiply to the determinant, so one sweep over k, vectorized over the
    samples, replaces an eigensolve per sample.  A pivot smaller in
    magnitude than pivmin = tiny * max(1, max_k e_k^2) is replaced by
    -pivmin, as LAPACK ``dstebz`` does, so a singular leading minor gives
    a finite result.
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
    return np.ascontiguousarray(np.log(np.abs(pivots)).T).sum(axis=1)


def goe_log_abs_dets(n: int, n_samples: int, rng: np.random.Generator,
                     shift: float | Callable[[], float], method: str = "auto") -> np.ndarray:
    """log|det(M_i + x_i I)| for ``n_samples`` GOE_n draws M_i from ``rng``.

    ``shift`` is a fixed x, or a callable that draws x_i (from ``rng``)
    just before M_i is drawn.  Draws are taken one at a time in the stream
    of :func:`goe_eigenvalues` with the same ``method``; dense draws are
    reduced by ``slogdet`` one at a time, tridiagonal ones by
    :func:`tridiagonal_log_abs_det` in blocks of at most
    ``LOGDET_BLOCK_ENTRIES`` matrix entries.
    """
    draw_shift = shift if callable(shift) else (lambda: shift)
    logs = np.empty(n_samples)
    if _resolve_method(n, method) == "dense":
        for i in range(n_samples):
            x = draw_shift()
            m = _goe_dense(n, rng)
            m.flat[:: n + 1] += x
            logs[i] = np.linalg.slogdet(m)[1]
        return logs
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


def sample_goe(n: int, seed: int, method: str = "auto") -> SpectrumSample:
    """Draw one GOE spectrum.

    ``method`` is ``dense``, ``tridiagonal`` or ``auto`` (dense up to n = 256,
    tridiagonal beyond; both sample the same law).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    resolved = _resolve_method(n, method)
    ev = goe_eigenvalues(n, rng, method=resolved)
    return SpectrumSample(n=n, eigenvalues=np.sort(ev), method=resolved, seed=seed)


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

def rho_n_estimate(
    n: int,
    n_samples: int,
    seed: int,
    bin_width: float = 0.02,
    support: tuple[float, float] = (-3.0, 3.0),
    method: str = "auto",
) -> DensityEstimate:
    """Histogram estimate of the mean GOE_n level density on a fixed window.

    All ``n * n_samples`` eigenvalues across draws are pooled; the returned
    values are per-eigenvalue density (integrates to ~1 since the spectrum is
    essentially contained in the default window).
    """
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    lo, hi = support
    if not hi > lo:
        raise ValueError("support must be a nonempty interval")
    edges = np.arange(lo, hi + bin_width / 2, bin_width)
    rng = np.random.default_rng(seed)
    pooled = np.concatenate([goe_eigenvalues(n, rng, method=method) for _ in range(n_samples)])
    counts = np.histogram(pooled, bins=edges)[0]
    total = n * n_samples
    values = counts / (total * bin_width)
    centers = (edges[:-1] + edges[1:]) / 2.0
    return DensityEstimate(grid=centers, values=values, n_samples=n_samples)


# ------------------------------------------------- shifted |det| expectation

def jackknife_se_of_log_mean(logs: np.ndarray) -> float:
    from scipy.special import logsumexp

    ns = logs.size
    total = logsumexp(logs)
    # stable leave-one-out log-means
    delta = np.minimum(logs - total, -1e-300)
    loo = total + np.log1p(-np.exp(delta)) - np.log(ns - 1)
    return float(np.sqrt((ns - 1) * np.var(loo)))


def expected_abs_det_shifted_mc(n: int, x: float, n_samples: int, seed: int, method: str = "auto") -> dict:
    """Monte-Carlo estimate of log E|det(GOE_n + x I)| with a jackknife SE."""
    from scipy.special import logsumexp

    if n_samples < 2:
        raise ValueError("need at least two samples for a jackknife SE")
    logs = goe_log_abs_dets(n, n_samples, np.random.default_rng(seed), x, method)
    log_mean = float(logsumexp(logs) - np.log(n_samples))
    return {"log_mean": log_mean, "se": jackknife_se_of_log_mean(logs)}


def abs_det_identity_log_prefactor(n: int) -> float:
    """log of sqrt(2(n+1)) n^{-n/2} Gamma((n+1)/2)."""
    from scipy.special import gammaln

    return 0.5 * np.log(2.0 * (n + 1)) - 0.5 * n * np.log(n) + gammaln((n + 1) / 2.0)


def expected_abs_det_shifted_formula(n: int, x: float, rho_estimate: DensityEstimate) -> float:
    """log E|det(GOE_n + x I)| via the mean-density identity.

    Uses ``prefactor * exp(n x^2 / 2) * rho_{n+1}(sqrt(n/(n+1)) x)`` where
    ``rho_estimate`` must tabulate the level density of the (n+1)-point
    ensemble.  The density is linearly interpolated; queries outside the grid
    or in bins with no recorded mass raise GridCoverageError.
    """
    w = np.sqrt(n / (n + 1.0)) * x
    rho = rho_estimate(w)
    if rho <= 0.0:
        raise GridCoverageError(
            f"density estimate has no mass at query {w:.4f}; the formula needs tail data there"
        )
    return float(abs_det_identity_log_prefactor(n) + n * x * x / 2.0 + np.log(rho))
