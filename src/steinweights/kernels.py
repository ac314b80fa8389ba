"""Radial basis function kernel with analytic derivatives.

The kernel is parameterized as

    k(x, y) = exp(-||x - y||^2 / h)

where ``h`` scales the squared distance directly. Other conventions write
the exponent as -||x - y||^2 / (2 l^2); the two are related by l = sqrt(h / 2).
The squared-distance form is used throughout because the data-driven
bandwidth below is the median of pairwise squared distances and plugs into
``h`` without conversion.

Derivatives used by the score-weighted kernel construction:

    grad_x k(x, y)            = -(2 / h) (x - y) k(x, y)
    grad_y k(x, y)            = +(2 / h) (x - y) k(x, y)
    sum_i d^2 k / dx_i dy_i   = (2 d / h - 4 ||x - y||^2 / h^2) k(x, y)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import pdist

from .errors import DegenerateBandwidthError

__all__ = [
    "RbfKernel",
    "kernel_eval",
    "kernel_grad_x",
    "kernel_grad_y",
    "kernel_cross_trace",
    "median_heuristic_bandwidth",
    "pairwise_sq_dists",
]


@dataclass(frozen=True)
class RbfKernel:
    """Isotropic RBF kernel spec.

    Attributes:
        bandwidth: positive scale ``h`` applied to squared distances.
    """

    bandwidth: float

    def __post_init__(self):
        h = self.bandwidth
        if not np.isfinite(h) or h <= 0.0:
            raise ValueError(f"bandwidth must be positive and finite, got {h}")


def _check_pair(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or y.ndim != 1:
        raise ValueError(f"expected 1-d points, got shapes {x.shape} and {y.shape}")
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape[0]} vs {y.shape[0]}")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("points must be finite")
    return x, y


def kernel_eval(kernel: RbfKernel, x: np.ndarray, y: np.ndarray) -> float:
    """Evaluate k(x, y) for a single pair of points."""
    x, y = _check_pair(x, y)
    sq = float(np.dot(x - y, x - y))
    return float(np.exp(-sq / kernel.bandwidth))


def kernel_grad_x(kernel: RbfKernel, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gradient of k with respect to the first argument, shape (d,)."""
    x, y = _check_pair(x, y)
    diff = x - y
    k = np.exp(-float(np.dot(diff, diff)) / kernel.bandwidth)
    return (-2.0 / kernel.bandwidth) * diff * k


def kernel_grad_y(kernel: RbfKernel, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gradient of k with respect to the second argument, shape (d,).

    Antisymmetric to :func:`kernel_grad_x`: grad_y k(x, y) = -grad_x k(x, y).
    """
    x, y = _check_pair(x, y)
    diff = x - y
    k = np.exp(-float(np.dot(diff, diff)) / kernel.bandwidth)
    return (2.0 / kernel.bandwidth) * diff * k


def kernel_cross_trace(kernel: RbfKernel, x: np.ndarray, y: np.ndarray) -> float:
    """Trace of the mixed second derivative matrix d^2 k / dx dy.

    For the RBF kernel this is (2 d / h - 4 ||x - y||^2 / h^2) k(x, y); at
    x = y it reduces to 2 d / h.
    """
    x, y = _check_pair(x, y)
    h = kernel.bandwidth
    d = x.shape[0]
    sq = float(np.dot(x - y, x - y))
    k = np.exp(-sq / h)
    return float((2.0 * d / h - 4.0 * sq / (h * h)) * k)


# Rows per square tile of a pairwise (n, n) kernel assembled tile by tile:
# a (256, 256) float tile is 512 KiB, so the few buffers a tile needs stay
# in a core's L2 cache.
_TILE_ROWS = 256


def _upper_tiles(n: int):
    """Yield (rows, cols) slice pairs of square tiles that cover the upper
    triangle of an (n, n) matrix, each tile row starting at its diagonal
    tile, where ``rows == cols``."""
    for i0 in range(0, n, _TILE_ROWS):
        rows = slice(i0, min(i0 + _TILE_ROWS, n))
        for j0 in range(i0, n, _TILE_ROWS):
            yield rows, slice(j0, min(j0 + _TILE_ROWS, n))


def _sq_dist_tile(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Squared distances between the rows of x and of y, clamped at zero.

    A tile of a point set against itself, passed as the same array object
    (``y is x``), gets exact zero self-distances on its diagonal.
    """
    sq = x @ y.T
    sq *= -2.0
    sq += np.sum(x * x, axis=1)[:, None]
    sq += np.sum(y * y, axis=1)[None, :]
    np.maximum(sq, 0.0, out=sq)
    if y is x:
        np.fill_diagonal(sq, 0.0)
    return sq


def pairwise_sq_dists(points: np.ndarray) -> np.ndarray:
    """Full (n, n) matrix of squared Euclidean distances, clamped at zero.

    Built in place in the (n, n) output, with no (n, n) temporary. The
    package's pairwise kernels do not build this matrix: they work through
    the same squared distances one upper-triangle tile at a time.
    """
    points = np.asarray(points, dtype=float)
    return _sq_dist_tile(points, points)


def median_heuristic_bandwidth(points: np.ndarray) -> float:
    """Median of pairwise squared distances over distinct unordered pairs.

    Self-distances are excluded. For an even number of pairs the median is
    the mean of the two middle order statistics. The result feeds directly
    into :class:`RbfKernel` as ``bandwidth``.

    Raises:
        ValueError: fewer than two points, or non-finite input.
        DegenerateBandwidthError: the median distance is zero, which happens
            when at least half of the point pairs coincide.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points[:, None]
    if points.ndim != 2:
        raise ValueError(f"expected a (n, d) point array, got shape {points.shape}")
    if points.shape[0] < 2:
        raise ValueError("median heuristic needs at least two points")
    if not np.all(np.isfinite(points)):
        raise ValueError("points must be finite")
    # The pair array is fresh and finite, so one in-place selection finds
    # the median; for an even count the lower middle value is the largest
    # one left of it. (a + b) / 2 is the arithmetic np.median uses.
    sq = pdist(points, metric="sqeuclidean")
    half = sq.size // 2
    sq.partition(half)
    upper = sq[half]
    med = float(upper if sq.size % 2 else (sq[:half].max() + upper) / 2)
    if med <= 0.0:
        raise DegenerateBandwidthError(
            "median pairwise squared distance is zero; points are (mostly) duplicated"
        )
    return med
