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
from .kernels import RbfKernel, _sq_dist_tile, _upper_tiles

__all__ = [
    "ExactMoments",
    "ScoreTarget",
    "SteinGram",
    "stein_kernel_block",
    "stein_kernel_eval",
    "stein_kernel_vector",
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


@dataclass(frozen=True)
class ExactMoments:
    """Closed-form moments of a target, used as experiment ground truth.

    Attributes:
        mean: (d,) first moment.
        second_moment: (d,) per-coordinate raw second moment E[x_i^2].
        cosine_expectation: optional callable (omega, b) -> E[cos(omega' x + b)].
    """

    mean: np.ndarray
    second_moment: np.ndarray
    cosine_expectation: Callable[[np.ndarray, float], float] | None = None


@dataclass(frozen=True)
class ScoreTarget:
    """A target distribution seen only through its score.

    The score callable maps an (n, d) array of points to an (n, d) array of
    gradients of log p. ``log_density`` maps (n, d) to (n,) and may be
    unnormalized; ``density_normalized`` records whether its values are the
    actual log-density rather than off by an additive constant.

    Attributes:
        dimension: point dimension d.
        score: batched score callable.
        log_density: optional batched log-density callable.
        density_normalized: whether ``log_density`` is normalized.
        exact_moments: optional closed-form moment oracle.
    """

    dimension: int
    score: Callable[[np.ndarray], np.ndarray]
    log_density: Callable[[np.ndarray], np.ndarray] | None = None
    density_normalized: bool = False
    exact_moments: ExactMoments | None = None

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
    """K x for an exactly symmetric, contiguous K, reading one triangle of K.

    ``dsymv`` takes a Fortran-ordered matrix; f2py would copy a C-ordered
    one on every call. The transpose of a C-ordered K is a Fortran-ordered
    view that equals K, so that is what gets passed.
    """
    return blas.dsymv(1.0, mat.T if mat.flags.c_contiguous else mat, x)


def _psd_ridge(mat: np.ndarray) -> float:
    """PSD slack of a non-empty square matrix, 1e-8 * n * max(diag, 0)."""
    return _PSD_RTOL * mat.shape[0] * max(float(np.max(np.diag(mat))), 0.0)


def _ridge_cholesky(mat: np.ndarray, ridge: float) -> np.ndarray | None:
    """Lower Cholesky factor of mat + ridge * I, or None if it does not exist.

    Factors one (n, n) copy in place. LAPACK reads one triangle only, so
    ``mat`` must be symmetric. The factor is Fortran-ordered, the layout
    ``lapack.dpotrs`` takes without a copy.
    """
    a = np.array(mat, dtype=float, order="C")
    a.ravel()[:: a.shape[0] + 1] += ridge
    factor, info = lapack.dpotrf(a.T, lower=1, overwrite_a=1)
    return factor if info == 0 else None


@dataclass(frozen=True)
class SteinGram:
    """Symmetric PSD Gram matrix of the score-weighted kernel on a point set.

    Construction validates symmetry to 1e-12 relative to the largest entry
    and stores the symmetric part, so ``matrix`` is exactly symmetric.
    At every n it then checks the smallest eigenvalue against -ridge, with
    ``ridge`` = 1e-8 * n * max(diag): one Cholesky factorization of
    K + ridge * I accepts the matrix, and only if it fails does an
    eigensolve decide. ``factor`` keeps that lower Cholesky factor (None if
    the factorization failed on an accepted matrix, such as the zero
    matrix) for solves with K + ridge * I.
    """

    matrix: np.ndarray
    kernel: RbfKernel
    # Set only by stein_gram, whose output is exactly symmetric by
    # construction, to skip the O(n^2) symmetry comparison.
    _mirrored: InitVar[bool] = False
    ridge: float = field(init=False)
    factor: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self, _mirrored: bool):
        mat = np.asarray(self.matrix, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"Gram matrix must be square, got shape {mat.shape}")
        if not np.all(np.isfinite(mat)):
            raise GramIntegrityError("Gram matrix contains non-finite entries")
        if not _mirrored and mat.size:
            scale = float(np.max(np.abs(mat)))
            asym = float(np.max(np.abs(mat - mat.T)))
            if asym > _SYMMETRY_RTOL * max(scale, 1e-300):
                raise GramIntegrityError(
                    f"Gram matrix asymmetry {asym:.3e} exceeds tolerance for scale {scale:.3e}"
                )
            if asym:
                mat = 0.5 * (mat + mat.T)
        object.__setattr__(self, "matrix", mat)
        ridge, factor = 0.0, None
        if mat.size:
            ridge = _psd_ridge(mat)
            factor = _ridge_cholesky(mat, ridge)
            if factor is None:
                lam_min = float(np.linalg.eigvalsh(mat)[0])
                if lam_min < -ridge:
                    raise GramIntegrityError(
                        f"Gram matrix min eigenvalue {lam_min:.3e} below PSD floor {-ridge:.3e}"
                    )
        object.__setattr__(self, "ridge", ridge)
        object.__setattr__(self, "factor", factor)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def stein_kernel_block(
    X: np.ndarray,
    Y: np.ndarray,
    S_X: np.ndarray,
    S_Y: np.ndarray,
    kernel: RbfKernel,
) -> np.ndarray:
    """k_p(x_i, y_j) for every row x_i of X and y_j of Y, shape (len X, len Y).

    ``S_X`` and ``S_Y`` are the scores at the rows of X and Y. Passing the
    same array object as X and Y gives a block of a point set against
    itself, whose self-distances are exactly zero.
    """
    h = kernel.bandwidth
    d = X.shape[1]
    sq = _sq_dist_tile(X, Y)
    k = np.multiply(sq, -1.0 / h)
    np.exp(k, out=k)
    # Trace term, overwriting the distance block.
    bracket = sq
    bracket *= -4.0 / (h * h)
    bracket += 2.0 * d / h
    # Score-score term.
    bracket += S_X @ S_Y.T
    # Cross terms (2/h) * (s_i'x_i + s_j'y_j - s_i'y_j - s_j'x_i).
    cross = S_X @ Y.T
    cross += (S_Y @ X.T).T
    cross *= -2.0 / h
    cross += (2.0 / h) * np.sum(S_X * X, axis=1)[:, None]
    cross += (2.0 / h) * np.sum(S_Y * Y, axis=1)[None, :]
    bracket += cross
    bracket *= k
    return bracket


def stein_kernel_eval(
    target: ScoreTarget, kernel: RbfKernel, x: np.ndarray, y: np.ndarray
) -> float:
    """Evaluate the score-weighted kernel k_p(x, y) for one pair of points."""
    xs = np.asarray(x, dtype=float)[None, :]
    ys = np.asarray(y, dtype=float)[None, :]
    block = stein_kernel_block(xs, ys, target.score_at(xs), target.score_at(ys), kernel)
    return float(block[0, 0])


def _as_point_rows(points: np.ndarray) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    return pts[:, None] if pts.ndim == 1 else pts


def stein_kernel_vector(
    target: ScoreTarget, kernel: RbfKernel, points: np.ndarray, y: np.ndarray
) -> np.ndarray:
    """Evaluate k_p(x_i, y) for every row x_i of ``points``, shape (n,)."""
    pts = _as_point_rows(points)
    ys = np.asarray(y, dtype=float)[None, :]
    return stein_kernel_block(
        pts, ys, target.score_at(pts), target.score_at(ys), kernel
    )[:, 0]


def stein_gram(target: ScoreTarget, kernel: RbfKernel, points: np.ndarray) -> SteinGram:
    """Assemble the full score-weighted Gram matrix on a point set.

    Square tiles of the upper triangle are computed by
    :func:`stein_kernel_block` and written with their transposes into one
    (n, n) output, so each pair is computed once, the scratch space is a
    few tiles, and the result is exactly symmetric; :class:`SteinGram`
    skips its symmetry comparison. Apart from the output, the only (n, n)
    buffer is the copy its PSD check factors. Entries agree with
    :func:`stein_kernel_eval` applied pairwise.
    """
    pts = _as_point_rows(points)
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise ValueError(f"expected a non-empty (n, d) point array, got {pts.shape}")
    scores = target.score_at(pts)
    n = pts.shape[0]
    out = np.empty((n, n))
    for rows, cols in _upper_tiles(n):
        x, s_x = pts[rows], scores[rows]
        if rows == cols:
            tile = stein_kernel_block(x, x, s_x, s_x, kernel)
            # Keep the upper triangle and mirror it into the lower one.
            lower = np.tri(len(tile), k=-1, dtype=bool)
            out[rows, rows] = np.where(lower, tile.T, tile)
        else:
            tile = stein_kernel_block(x, pts[cols], s_x, scores[cols], kernel)
            out[rows, cols] = tile
            out[cols, rows] = tile.T
    return SteinGram(matrix=out, kernel=kernel, _mirrored=True)


def ksd_weighted(gram: SteinGram | np.ndarray, weights: np.ndarray) -> float:
    """Weighted squared discrepancy w' K_p w.

    A :class:`SteinGram` matrix is exactly symmetric, so its K_p w is one
    BLAS ``dsymv`` that reads one triangle; a plain array is used as given.
    Small negative values from rounding, within 1e-10 * n * max(diag), clamp
    to zero. Anything more negative indicates a broken Gram matrix and
    raises :class:`GramIntegrityError`.
    """
    mat = gram.matrix if isinstance(gram, SteinGram) else np.asarray(gram, dtype=float)
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.shape[0] != mat.shape[0]:
        raise ValueError(
            f"weights shape {w.shape} does not match Gram size {mat.shape[0]}"
        )
    if not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite")
    if isinstance(gram, SteinGram):
        raw = float(w @ _gram_product(mat, w))
    else:
        raw = float(w @ mat @ w)
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
