"""Reference weighting schemes: uniform, exact ratio, control functional, KDE.

These are the comparison points for the optimized simplex weights. Exact
importance ratios need the proposal density; the control functional and
KDE schemes do not, but relax either the simplex constraint (control
functional weights may be negative and need not sum to one) or exactness
(the KDE scheme estimates the proposal from the sample itself).
"""

from __future__ import annotations

import numpy as np
from scipy.special import gamma

from .errors import (
    DegenerateBandwidthError,
    DegenerateWeightsError,
    SolverError,
    UnsupportedConfigurationError,
)
from .kernels import _exponent_tile, _sq_dist_factors, _upper_tiles
from .stein import ScoreTarget, SteinGram, _gram_product, _ridge_inverse_ones

__all__ = [
    "weights_uniform",
    "weights_exact_is",
    "weights_control_functional",
    "weights_kde",
    "kde_rule_of_thumb_bandwidth",
    "effective_sample_size",
]


def weights_uniform(n: int) -> np.ndarray:
    if n < 1:
        raise ValueError("n must be positive")
    return np.full(n, 1.0 / n)


def _self_normalized(log_ratios: np.ndarray) -> np.ndarray:
    """Normalize exp(log_ratios) stably; shared by the exact and KDE schemes."""
    peak = float(np.max(log_ratios))
    if not np.isfinite(peak):
        raise DegenerateWeightsError(
            "log density ratios are degenerate (no finite maximum)"
        )
    raw = np.exp(log_ratios - peak)
    total = float(raw.sum())
    if total <= 0.0 or not np.isfinite(total):
        raise DegenerateWeightsError("density ratios sum to zero; cannot normalize")
    return raw / total


def weights_exact_is(
    target: ScoreTarget, proposal_log_density, points: np.ndarray
) -> np.ndarray:
    """Self-normalized importance ratios p(x_i) / q(x_i).

    Ratios are computed from log densities with the maximum subtracted, so
    large offsets (for example an unnormalized target) cannot overflow.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if target.log_density is None:
        raise ValueError("exact ratio weights need a target log-density")
    log_p = np.asarray(target.log_density_at(pts), dtype=float)
    log_q = np.asarray(proposal_log_density(pts), dtype=float)
    if log_q.shape != (pts.shape[0],):
        raise ValueError(
            f"proposal log-density returned shape {log_q.shape}, expected ({pts.shape[0]},)"
        )
    if np.any(np.isnan(log_q)):
        raise ValueError("proposal log-density returned NaN")
    ratios = log_p - log_q
    if np.any(np.isnan(ratios)) or np.any(ratios == np.inf):
        raise DegenerateWeightsError(
            "proposal density vanishes at a sample point; ratio is unbounded"
        )
    return _self_normalized(ratios)


def weights_control_functional(
    gram: SteinGram,
    lam: float | None = None,
    normalize: bool = False,
) -> np.ndarray:
    """Solve (K_p + ones + lam I) w = 1 for control-functional weights.

    ``lam`` defaults to ``gram.ridge``, 1e-8 * n * max(diag K_p), the ridge
    of the Gram's PSD check. With A = K_p + lam I positive definite, the
    solve is Sherman-Morrison from a Cholesky factor of A: u = A^-1 1 and
    w = u / (1 + 1'u). At the Gram's ridge u is ``gram.inverse_ones``,
    which construction already computed, so the solve needs no
    factorization; any other lam factors a copy of A afresh. The weights
    may be negative and need not sum to one; ``normalize`` divides by the
    sum. If A has no Cholesky factor, or the residual exceeds 1e-8 * n *
    max(1, ``gram.scale`` + 1 + lam), where ``gram.scale`` + 1 + lam bounds
    max |K_p + 11' + lam I|, least squares on one (n, n) copy of the system
    takes over: a singular but consistent system at lam = 0 gets the
    minimum-norm solution; an inconsistent one raises :class:`SolverError`
    advising a positive lam.
    """
    mat = gram.matrix
    n = mat.shape[0]
    lam = gram.ridge if lam is None else float(lam)
    if lam < 0.0 or not np.isfinite(lam):
        raise ValueError("lam must be nonnegative and finite")
    u = gram.inverse_ones if lam == gram.ridge else _ridge_inverse_ones(mat.copy(), lam)
    rhs = np.ones(n)
    weights = None if u is None else u / (1.0 + float(u.sum()))

    def residual(w: np.ndarray) -> float:
        kw = _gram_product(mat, w)
        return float(np.max(np.abs(kw + float(w.sum()) + lam * w - rhs)))

    tol = 1e-8 * n * max(1.0, gram.scale + 1.0 + lam)
    if weights is None or not np.all(np.isfinite(weights)) or residual(weights) > tol:
        system = mat + 1.0
        system.ravel()[:: n + 1] += lam
        weights, *_ = np.linalg.lstsq(system, rhs, rcond=None)
        miss = residual(weights)
        if not np.all(np.isfinite(weights)) or miss > tol:
            raise SolverError(
                f"linear system is inconsistent (residual {miss:.3e}); "
                "use a positive lam"
            )
    if normalize:
        total = float(weights.sum())
        if abs(total) <= 1e-12 * float(np.sum(np.abs(weights))) or total == 0.0:
            raise DegenerateWeightsError(
                "control-functional weights sum to zero; cannot normalize"
            )
        weights = weights / total
    return weights


def kde_rule_of_thumb_bandwidth(points: np.ndarray) -> float:
    """Rule-of-thumb bandwidth for the leave-one-out density estimate.

    h = sigma * (d 2^(d+5) Gamma(d/2 + 3) / ((2d + 1) n))^(1 / (4 + d))

    where sigma is the mean of the per-coordinate sample standard
    deviations.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n, d = pts.shape
    if n < 2:
        raise ValueError("bandwidth rule needs at least two points")
    sigma = float(np.mean(np.std(pts, axis=0, ddof=1)))
    if sigma <= 0.0 or not np.isfinite(sigma):
        raise DegenerateBandwidthError("sample standard deviation is zero")
    factor = d * 2.0 ** (d + 5) * gamma(d / 2.0 + 3.0) / ((2.0 * d + 1.0) * n)
    return sigma * factor ** (1.0 / (4.0 + d))


def _loo_log_density(points: np.ndarray, bandwidth: float) -> np.ndarray:
    """Leave-one-out Gaussian kernel density estimate, in log space.

    q_i(x_i) = sum_{j != i} N(x_i; x_j, h^2 I) / n, with the sample count n
    in the denominator. Each upper-triangle tile of the kernel values is
    exp of one GEMM of the centered augmented rows of
    :func:`~steinweights.kernels._sq_dist_factors`, the exponent
    -||x_i - x_j||^2 / (2 h^2); no (n, n) array is built.
    """
    n, d = points.shape
    h2 = bandwidth * bandwidth
    a, b = _sq_dist_factors(points - points.mean(axis=0), 2.0 * h2)
    # Row sums over the upper-triangle tiles: each off-diagonal tile gives
    # its rows' sums and, through its mirror, its columns' sums.
    sums = np.zeros(n)
    for rows, cols in _upper_tiles(n):
        kernel_vals = _exponent_tile(a[rows], b[cols], diagonal=rows == cols)
        np.exp(kernel_vals, out=kernel_vals)
        if rows == cols:
            np.fill_diagonal(kernel_vals, 0.0)
        else:
            sums[cols] += kernel_vals.sum(axis=0)
        sums[rows] += kernel_vals.sum(axis=1)
    if np.any(sums <= 0.0):
        raise DegenerateWeightsError(
            "leave-one-out density vanishes at an isolated point"
        )
    log_norm = -0.5 * d * np.log(2.0 * np.pi * h2) - np.log(n)
    return np.log(sums) + log_norm


def weights_kde(
    target: ScoreTarget,
    points: np.ndarray,
    bandwidth: float | None = None,
    normalize: bool = False,
    proposal_log_density=None,
) -> np.ndarray:
    """Density-ratio weights with a leave-one-out KDE in place of q.

    w_i = p(x_i) / (n q_i(x_i)) where q_i is the Gaussian leave-one-out
    estimate from the other points. ``proposal_log_density`` substitutes a
    known log q for the estimate, in which case the normalized variant
    coincides with the exact ratio weights. The unnormalized variant needs
    the target's normalized density.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n = pts.shape[0]
    if n < 2 and proposal_log_density is None:
        raise ValueError("leave-one-out estimate needs at least two points")
    if target.log_density is None:
        raise ValueError("KDE weights need a target log-density")
    if not normalize and not target.density_normalized:
        raise UnsupportedConfigurationError(
            "unnormalized targets support only the normalized KDE variant"
        )
    if proposal_log_density is None:
        if bandwidth is None:
            bandwidth = kde_rule_of_thumb_bandwidth(pts)
        elif bandwidth <= 0.0 or not np.isfinite(bandwidth):
            raise ValueError("bandwidth must be positive and finite")
        log_q = _loo_log_density(pts, bandwidth)
    else:
        log_q = np.asarray(proposal_log_density(pts), dtype=float)
    log_p = np.asarray(target.log_density_at(pts), dtype=float)
    ratios = log_p - log_q
    if np.any(np.isnan(ratios)) or np.any(ratios == np.inf):
        raise DegenerateWeightsError("density ratio is unbounded at a sample point")
    if normalize:
        return _self_normalized(ratios)
    weights = np.exp(ratios) / n
    if not np.all(np.isfinite(weights)):
        raise DegenerateWeightsError("density ratios overflow; use the normalized variant")
    return weights


def effective_sample_size(weights: np.ndarray) -> float:
    """Kish effective sample size (sum w)^2 / sum w^2.

    Equals 1 / sum(w^2) for weights on the simplex; n for uniform weights.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("weights must be a non-empty vector")
    if not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite")
    denom = float(np.sum(w * w))
    if denom == 0.0:
        raise DegenerateWeightsError("all weights are zero")
    return float(w.sum()) ** 2 / denom
