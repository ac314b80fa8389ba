"""Score-weighted kernel, Gram assembly, and the weighted discrepancy.

Given a differentiable log-density with score s(x) = grad log p(x) and a
base kernel k, the score-weighted kernel is

    k_p(x, y) = s(x)' k(x, y) s(y) + s(x)' grad_y k(x, y)
              + s(y)' grad_x k(x, y) + trace(grad_x grad_y k(x, y))

It depends on p only through the score, so any normalizing constant of p
drops out. For x drawn from p the expectation of k_p(x, y) vanishes for
every fixed y, and the quadratic form w' K_p w over a sample Gram matrix
K_p measures how far the weighted sample is from p.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from typing import Callable

import numpy as np
from scipy.linalg import blas, lapack

from .errors import GramIntegrityError, ScoreEvaluationError
from .kernels import _TILE_ROWS, RbfKernel, _exponent_tile, _sq_dist_factors, _upper_tiles

__all__ = [
    "ScoreTarget",
    "SteinGram",
    "stein_kernel_block",
    "stein_gram",
    "ksd_weighted",
    "stein_identity_check",
]

# Tolerances for Gram integrity checks, relative to matrix scale. The PSD
# check accepts a Gram whose smallest eigenvalue is at least -ridge, with
# ridge = 1e-8 * n * max(diag, 0), at every n: a Cholesky factorization of
# K + ridge * I that succeeds accepts, and only if it fails does an
# eigensolve decide.
_SYMMETRY_RTOL = 1e-12
_PSD_RTOL = 1e-8
_KSD_CLAMP_RTOL = 1e-10

# Strictly lower triangle of a diagonal tile; its leading (m, m) corner is
# that of a smaller tile.
_STRICT_LOWER = np.tri(_TILE_ROWS, k=-1, dtype=bool)


@dataclass(frozen=True)
class ScoreTarget:
    """A target distribution seen only through its score.

    The score callable maps an (n, d) array of points to an (n, d) array of
    gradients of log p. ``log_density`` maps (n, d) to (n,) and may be
    unnormalized; ``density_normalized`` records whether its values are the
    actual log-density rather than off by an additive constant.
    ``log_density_and_score`` maps (n, d) to the pair (log_density(x),
    score(x)) at the cost of one evaluation; the MALA samplers call it once
    per step when it is given.

    Attributes:
        dimension: point dimension d.
        score: batched score callable.
        log_density: optional batched log-density callable.
        density_normalized: whether ``log_density`` is normalized.
        log_density_and_score: optional callable giving both at once.
    """

    dimension: int
    score: Callable[[np.ndarray], np.ndarray]
    log_density: Callable[[np.ndarray], np.ndarray] | None = None
    density_normalized: bool = False
    log_density_and_score: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]] | None = None

    def _as_batch(self, points: np.ndarray) -> tuple[np.ndarray, bool]:
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        if single:
            pts = pts[None, :]
        if pts.ndim != 2 or pts.shape[1] != self.dimension:
            raise ValueError(
                f"expected points of dimension {self.dimension}, got shape {np.shape(points)}"
            )
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        return pts, single

    def score_at(self, points: np.ndarray) -> np.ndarray:
        """Evaluate the score; accepts a single (d,) point or an (n, d) batch."""
        pts, single = self._as_batch(points)
        out = np.asarray(self.score(pts), dtype=float)
        if out.shape != pts.shape:
            raise ValueError(
                f"score callable returned shape {out.shape}, expected {pts.shape}"
            )
        bad = ~np.all(np.isfinite(out), axis=1)
        if np.any(bad):
            idx = int(np.argmax(bad))
            raise ScoreEvaluationError(
                f"score is not finite at point index {idx}", point=pts[idx].copy()
            )
        return out[0] if single else out

    def log_density_at(self, points: np.ndarray) -> np.ndarray:
        """Evaluate log p (possibly unnormalized); scalar for a single point."""
        if self.log_density is None:
            raise ValueError("target does not expose a log-density")
        pts, single = self._as_batch(points)
        out = np.asarray(self.log_density(pts), dtype=float)
        if out.shape != (pts.shape[0],):
            raise ValueError(
                f"log-density callable returned shape {out.shape}, expected ({pts.shape[0]},)"
            )
        if np.any(np.isnan(out)) or np.any(out == np.inf):
            idx = int(np.argmax(np.isnan(out) | (out == np.inf)))
            raise ScoreEvaluationError(
                f"log-density is not usable at point index {idx}", point=pts[idx].copy()
            )
        return float(out[0]) if single else out


def _gram_product(mat: np.ndarray, x: np.ndarray) -> np.ndarray:
    """K x for an exactly symmetric, C-ordered K, reading one triangle of K.

    ``dsymv`` takes a Fortran-ordered matrix; f2py would copy a C-ordered
    one on every call. The transpose of a C-ordered K is a Fortran-ordered
    view that equals K, so that is what gets passed.
    """
    return blas.dsymv(1.0, mat.T, x)


def _ridge_inverse_ones(a: np.ndarray, ridge: float) -> np.ndarray | None:
    """(a + ridge * I)^-1 1, or None if a + ridge * I has no Cholesky factor.

    ``a`` is C-ordered and symmetric. LAPACK forms the lower Cholesky
    factor of its Fortran-ordered transpose in place, so it reads and
    overwrites only the upper triangle and the diagonal of ``a`` and leaves
    the strictly lower triangle as it was. One pair of triangular solves
    then gives the vector.
    """
    a.ravel()[:: a.shape[0] + 1] += ridge
    factor, info = lapack.dpotrf(a.T, lower=1, overwrite_a=1, clean=0)
    if info:
        return None
    u, _ = lapack.dpotrs(factor, np.ones(a.shape[0]), lower=1)
    return u


def _asymmetry(mat: np.ndarray) -> float:
    """max |K - K'|, a tile pair at a time, without an (n, n) temporary."""
    asym = 0.0
    for rows, cols in _upper_tiles(mat.shape[0]):
        diff = mat[rows, cols] - mat[cols, rows].T
        asym = max(asym, float(np.abs(diff, out=diff).max()))
        del diff
    return asym


def _symmetrize(mat: np.ndarray) -> None:
    """Overwrite K with 0.5 * (K + K'), a tile pair at a time."""
    for rows, cols in _upper_tiles(mat.shape[0]):
        sym = mat[rows, cols] + mat[cols, rows].T
        sym *= 0.5
        mat[rows, cols] = sym
        mat[cols, rows] = sym.T
        del sym


def _mirror_lower(mat: np.ndarray) -> None:
    """Copy the strictly lower triangle of K over its strictly upper one."""
    for rows, cols in _upper_tiles(mat.shape[0]):
        if rows == cols:
            block = mat[rows, rows]
            m = len(block)
            np.copyto(block, block.T, where=_STRICT_LOWER[:m, :m].T)
        else:
            mat[rows, cols] = mat[cols, rows].T


@dataclass(frozen=True, eq=False)
class SteinGram:
    """Symmetric PSD Gram matrix of the score-weighted kernel on a point set.

    The one Gram type that :func:`ksd_weighted`, the simplex solver and the
    control-functional weights take; wrap your own matrix as
    ``SteinGram(matrix)``. Construction takes a non-empty square matrix
    (any other shape is a ValueError that names it) and copies it once
    into a C-ordered ``matrix``, so the caller's array is never written
    and every BLAS ``dsymv`` takes ``matrix`` without a copy. It validates
    symmetry to 1e-12 relative to ``scale`` = max |K| of the matrix given
    and stores the symmetric part, so ``matrix`` is exactly symmetric,
    with no entry larger than ``scale`` in magnitude. At every n it then
    checks the smallest eigenvalue against -ridge, with ``ridge`` =
    1e-8 * n * max(diag, 0): one Cholesky factorization of K + ridge * I
    accepts the matrix, and only if it fails does an eigensolve decide.
    That factorization runs inside ``matrix``'s own upper triangle, which
    is then restored exactly, so a Gram holds one (n, n) array.
    ``inverse_ones`` keeps (K + ridge * I)^-1 1, the one solve with the
    factor that the control-functional weights need (None if the
    factorization failed on an accepted matrix, such as the zero matrix).
    Two Grams are equal only if they are the same object, which is also
    what a Gram hashes by.
    """

    matrix: np.ndarray
    # Set only by stein_gram, whose output is fresh, C-ordered and exactly
    # symmetric by construction: it is kept without a copy and skips the
    # O(n^2) symmetry comparison.
    _mirrored: InitVar[bool] = False
    scale: float = field(init=False)
    ridge: float = field(init=False)
    inverse_ones: np.ndarray | None = field(init=False, repr=False)

    def __post_init__(self, _mirrored: bool):
        mat = self.matrix if _mirrored else np.array(self.matrix, dtype=float, order="C")
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or not mat.size:
            raise ValueError(f"Gram matrix must be square and non-empty, got shape {mat.shape}")
        # A NaN propagates into both, an infinity into one of them.
        high, low = float(mat.max()), float(mat.min())
        if not (np.isfinite(high) and np.isfinite(low)):
            raise GramIntegrityError("Gram matrix contains non-finite entries")
        scale = max(high, -low)
        if not _mirrored:
            asym = _asymmetry(mat)
            if asym > _SYMMETRY_RTOL * max(scale, 1e-300):
                raise GramIntegrityError(
                    f"Gram matrix asymmetry {asym:.3e} exceeds tolerance for scale {scale:.3e}"
                )
            if asym:
                _symmetrize(mat)
        object.__setattr__(self, "matrix", mat)
        n = mat.shape[0]
        diag = mat.diagonal().copy()
        ridge = _PSD_RTOL * n * max(float(diag.max()), 0.0)
        inverse_ones = _ridge_inverse_ones(mat, ridge)
        mat.ravel()[:: n + 1] = diag
        _mirror_lower(mat)
        if inverse_ones is None:
            lam_min = float(np.linalg.eigvalsh(mat)[0])
            if lam_min < -ridge:
                raise GramIntegrityError(
                    f"Gram matrix min eigenvalue {lam_min:.3e} below PSD floor {-ridge:.3e}"
                )
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "ridge", ridge)
        object.__setattr__(self, "inverse_ones", inverse_ones)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def _stein_factors(
    centered: np.ndarray, scores: np.ndarray, h: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Augmented rows (A, B, P, Q) of centered points and their scores.

    A_i'B_j = -||x_i - x_j||^2 / h is the exponent of k (see
    :func:`~steinweights.kernels._sq_dist_factors`). The derivatives of k
    in k_p are

        grad_x k(x, y)            = -(2 / h) (x - y) k(x, y)
        grad_y k(x, y)            = +(2 / h) (x - y) k(x, y)
        sum_i d^2 k / dx_i dy_i   = (2 d / h - 4 ||x - y||^2 / h^2) k(x, y)

    so k_p = k * bracket, and P_i'Q_j is the bracket

        s_i's_j + (2/h)(s_i - s_j)'(x_i - x_j) + 2d/h - 4||x_i - x_j||^2/h^2,

    with rows P = [s, x, u + 2d/h, 1] and Q = [s - (2/h) x, (8/h^2) x - (2/h) s, 1, u],
    where u = (2/h) s'x - (4/h^2)||x||^2. Both expressions depend on the
    points only through x_i - x_j, so any common shift of the points leaves
    them unchanged; centering keeps the cancellation small.
    """
    n, d = centered.shape
    a, b = _sq_dist_factors(centered, h)
    u = (2.0 / h) * np.einsum("ij,ij->i", scores, centered) - (4.0 / (h * h)) * a[:, d]
    p = np.empty((n, 2 * d + 2))
    p[:, :d] = scores
    p[:, d : 2 * d] = centered
    p[:, 2 * d] = u + 2.0 * d / h
    p[:, 2 * d + 1] = 1.0
    q = np.empty((n, 2 * d + 2))
    q[:, :d] = scores - (2.0 / h) * centered
    q[:, d : 2 * d] = (8.0 / (h * h)) * centered - (2.0 / h) * scores
    q[:, 2 * d] = 1.0
    q[:, 2 * d + 1] = u
    return a, b, p, q


def _stein_tile(
    a: np.ndarray, b: np.ndarray, p: np.ndarray, q: np.ndarray, diagonal: bool
) -> np.ndarray:
    """exp(A B') * (P Q') for the factor rows of one tile's rows (A, P) and
    columns (B, Q): two GEMMs, then one clamp, one exp and one multiply.

    A ``diagonal`` tile, a point set against itself, has k = 1 exactly on
    its diagonal.
    """
    k = _exponent_tile(a, b, diagonal)
    np.exp(k, out=k)
    tile = p @ q.T
    tile *= k
    return tile


def stein_kernel_block(
    X: np.ndarray,
    Y: np.ndarray,
    S_X: np.ndarray,
    S_Y: np.ndarray,
    kernel: RbfKernel,
) -> np.ndarray:
    """k_p(x_i, y_j) for every row x_i of X and y_j of Y, shape (len X, len Y).

    ``S_X`` and ``S_Y`` are the scores at the rows of X and Y. The block is
    exp(A B') * (P Q') over the augmented rows of :func:`_stein_factors`,
    with X and Y centered on the mean of all their rows. Passing the same
    array object as X and Y gives a block of a point set against itself,
    whose self-distances are exactly zero.
    """
    h = kernel.bandwidth
    center = np.concatenate([X, Y]).mean(axis=0)
    a, _, p, _ = _stein_factors(X - center, S_X, h)
    _, b, _, q = _stein_factors(Y - center, S_Y, h)
    return _stein_tile(a, b, p, q, diagonal=Y is X)


def stein_gram(target: ScoreTarget, kernel: RbfKernel, points: np.ndarray) -> SteinGram:
    """Assemble the full score-weighted Gram matrix on a point set.

    The points are centered on their mean and turned into the augmented
    rows of :func:`_stein_factors` once; each square tile of the upper
    triangle is then two GEMMs, exp(A B') * (P Q'), the tile
    :func:`stein_kernel_block` computes, written with its transpose into
    one (n, n) output. So each pair is computed once, the scratch space is
    a few tiles, and the result is exactly symmetric; :class:`SteinGram`
    takes it without a copy, skips its symmetry comparison and runs its PSD
    check inside it, so the output is the only (n, n) buffer. Entry (i, j) is
    :func:`stein_kernel_block` of rows i and j up to rounding, and does not
    move beyond rounding when the points and the target are shifted
    together.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise ValueError(f"expected a non-empty (n, d) point array, got {pts.shape}")
    scores = target.score_at(pts)
    n = pts.shape[0]
    a, b, p, q = _stein_factors(pts - pts.mean(axis=0), scores, kernel.bandwidth)
    out = np.empty((n, n))
    for rows, cols in _upper_tiles(n):
        tile = _stein_tile(a[rows], b[cols], p[rows], q[cols], diagonal=rows == cols)
        out[rows, cols] = tile
        if rows == cols:
            # Mirror the tile's upper triangle into its lower one.
            m = len(tile)
            np.copyto(out[rows, rows], tile.T, where=_STRICT_LOWER[:m, :m])
        else:
            out[cols, rows] = tile.T
        # Free the tile before the next one is computed, so that at most
        # two tiles are live at once.
        del tile
    return SteinGram(matrix=out, _mirrored=True)


def ksd_weighted(gram: SteinGram, weights: np.ndarray) -> float:
    """Weighted squared discrepancy w' K_p w.

    The Gram's matrix is exactly symmetric and C-ordered, so K_p w is one
    BLAS ``dsymv`` that reads one triangle, without a copy. Small negative
    values from rounding, within 1e-10 * n * max(diag), clamp to zero.
    Anything more negative indicates a broken Gram matrix and raises
    :class:`GramIntegrityError`.
    """
    mat = gram.matrix
    # A strided w (a column view, say) can round differently in dsymv
    # and the dot product than its contiguous copy.
    w = np.ascontiguousarray(weights, dtype=float)
    if np.ndim(weights) != 1 or w.shape[0] != mat.shape[0]:
        raise ValueError(
            f"weights shape {w.shape} does not match Gram size {mat.shape[0]}"
        )
    if not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite")
    raw = float(w @ _gram_product(mat, w))
    n = mat.shape[0]
    slack = _KSD_CLAMP_RTOL * n * max(float(np.max(np.diag(mat))), 0.0)
    if raw < -slack:
        raise GramIntegrityError(
            f"weighted discrepancy {raw:.3e} is negative beyond tolerance {slack:.3e}"
        )
    return max(raw, 0.0)


def stein_identity_check(
    target: ScoreTarget,
    kernel: RbfKernel,
    y: np.ndarray,
    grid,
) -> float:
    """Quadrature estimate of E_{x ~ p}[k_p(x, y)], which is zero exactly.

    ``grid`` is a 1-d node array for dimension-1 targets, or a pair of node
    arrays forming a tensor product for dimension-2 targets. The target must
    expose a log-density; normalization is irrelevant because the estimate
    divides by the quadrature mass of p over the same grid.
    """
    if target.log_density is None:
        raise ValueError("identity check requires a target with a log-density")
    d = target.dimension
    if d == 1:
        nodes = np.asarray(grid, dtype=float).reshape(-1)
        if nodes.size < 2:
            raise ValueError("quadrature grid must contain at least two nodes")
        pts = nodes[:, None]

        def integrate(vals: np.ndarray) -> float:
            return float(np.trapezoid(vals, nodes))

    elif d == 2:
        if not isinstance(grid, (tuple, list)) or len(grid) != 2:
            raise ValueError("dimension-2 check needs a pair of axis node arrays")
        gx = np.asarray(grid[0], dtype=float).reshape(-1)
        gy = np.asarray(grid[1], dtype=float).reshape(-1)
        if gx.size < 2 or gy.size < 2:
            raise ValueError("quadrature grid must contain at least two nodes per axis")
        mx, my = np.meshgrid(gx, gy, indexing="ij")
        pts = np.column_stack([mx.ravel(), my.ravel()])

        def integrate(vals: np.ndarray) -> float:
            on_grid = vals.reshape(gx.size, gy.size)
            return float(np.trapezoid(np.trapezoid(on_grid, gy, axis=1), gx))

    else:
        raise ValueError("identity check supports dimension 1 or 2 targets only")
    log_p = target.log_density_at(pts)
    dens = np.exp(log_p - np.max(log_p))
    mass = integrate(dens)
    if mass <= 0.0:
        raise ValueError("quadrature grid carries no density mass")
    ys = np.asarray(y, dtype=float)[None, :]
    vals = stein_kernel_block(pts, ys, target.score_at(pts), target.score_at(ys), kernel)
    return integrate(dens * vals[:, 0]) / mass
