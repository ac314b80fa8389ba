"""Radial basis function kernel: its spec, its pairwise tiles, its bandwidth.

The kernel is parameterized as

    k(x, y) = exp(-||x - y||^2 / h)

where ``h`` scales the squared distance directly. Other conventions write
the exponent as -||x - y||^2 / (2 l^2); the two are related by l = sqrt(h / 2).
The squared-distance form is used throughout because the data-driven
bandwidth below is the median of pairwise squared distances and plugs into
``h`` without conversion.

Pairwise values of k are computed one upper-triangle tile at a time, each
tile's exponent one GEMM of augmented rows of the centered points; the
Stein Gram and the KDE leave-one-out density are built this way. The
derivatives of k that the score-weighted kernel needs are written out with
its bracket in :func:`steinweights.stein._stein_factors`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import pdist

from .errors import DegenerateBandwidthError

__all__ = [
    "RbfKernel",
    "median_heuristic_bandwidth",
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


def _sq_dist_factors(centered: np.ndarray, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """Augmented rows A and B with A_i'B_j = -||x_i - x_j||^2 / scale.

    The rows are [x, ||x||^2, 1] and [(2/scale) x, -1/scale, -||x||^2/scale],
    so the exponent of a tile of RBF values is one GEMM of width d + 2.
    The expansion ||x||^2 + ||y||^2 - 2x'y cancels by about eps times the
    squared norms, so the rows of ``centered`` should be the points minus
    their mean: distances do not change, and the rounding scales with the
    spread of the cloud instead of its distance from the origin.
    """
    n, d = centered.shape
    norms = np.einsum("ij,ij->i", centered, centered)
    a = np.empty((n, d + 2))
    a[:, :d] = centered
    a[:, d] = norms
    a[:, d + 1] = 1.0
    b = np.empty((n, d + 2))
    np.multiply(centered, 2.0 / scale, out=b[:, :d])
    b[:, d] = -1.0 / scale
    np.multiply(norms, -1.0 / scale, out=b[:, d + 1])
    return a, b


def _exponent_tile(a: np.ndarray, b: np.ndarray, diagonal: bool) -> np.ndarray:
    """-||x_i - y_j||^2 / scale from rows A of :func:`_sq_dist_factors` at
    the tile's rows and rows B at its columns, clamped to at most zero.

    A ``diagonal`` tile, a point set against itself, gets exact zeros on its
    diagonal.
    """
    exponent = a @ b.T
    np.minimum(exponent, 0.0, out=exponent)
    if diagonal:
        np.fill_diagonal(exponent, 0.0)
    return exponent


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
