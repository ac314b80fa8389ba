"""Base RBF kernel: closed-form values and derivatives as the pairwise tiles
and the Stein kernel compute them, and the bandwidth rule."""

import math

import numpy as np
import pytest
from scipy.spatial.distance import pdist

from steinweights.errors import DegenerateBandwidthError
from steinweights.kernels import (
    RbfKernel,
    _exponent_tile,
    _sq_dist_factors,
    median_heuristic_bandwidth,
)
from steinweights.stein import stein_kernel_block
from support import central_difference


def self_tile_exponent(points, bandwidth=1.0):
    """-||x_i - x_j||^2 / h over one point set from the augmented rows of the
    centered points, the one GEMM each tile of a pairwise kernel makes."""
    points = np.asarray(points, dtype=float)
    a, b = _sq_dist_factors(points - points.mean(axis=0), bandwidth)
    return _exponent_tile(a, b, diagonal=True)


def rbf_derivatives(spec, x, y):
    """grad_x k, grad_y k and tr grad_x grad_y k at one pair, read off the
    Stein kernel, which is affine in each score:

        k_p = s_x's_y k + s_x'grad_y k + s_y'grad_x k + tr grad_x grad_y k.

    One block holds x and y each with the scores 0, e_1, ..., e_d.
    """
    d = len(x)
    scores = np.vstack([np.zeros(d), np.eye(d)])
    block = stein_kernel_block(
        np.tile(x, (d + 1, 1)), np.tile(y, (d + 1, 1)), scores, scores, spec
    )
    trace = block[0, 0]
    return block[0, 1:] - trace, block[1:, 0] - trace, trace


def rbf(spec, x, y):
    return math.exp(-float(np.sum((x - y) ** 2)) / spec.bandwidth)


class TestKernelEval:
    def test_coincident_points(self):
        assert np.exp(self_tile_exponent(np.zeros((2, 2))))[0, 1] == 1.0

    def test_unit_separation(self):
        val = np.exp(self_tile_exponent([[0.0], [1.0]]))[0, 1]
        assert val == pytest.approx(math.exp(-1.0), abs=1e-15)

    def test_bandwidth_scales_exponent(self):
        val = np.exp(self_tile_exponent([[0.0, 0.0], [2.0, 0.0]], 4.0))[0, 1]
        assert val == pytest.approx(math.exp(-1.0), abs=1e-15)

    def test_rejects_nonpositive_bandwidth(self):
        with pytest.raises(ValueError):
            RbfKernel(0.0)
        with pytest.raises(ValueError):
            RbfKernel(-1.0)

    def test_rejects_mismatched_dimensions(self):
        with pytest.raises(ValueError):
            stein_kernel_block(
                np.zeros((1, 2)), np.zeros((1, 3)), np.zeros((1, 2)), np.zeros((1, 3)),
                RbfKernel(1.0),
            )


class TestKernelGradients:
    def test_grad_x_vanishes_at_coincidence(self):
        spec = RbfKernel(1.0)
        x = np.array([0.3, -1.2])
        np.testing.assert_array_equal(rbf_derivatives(spec, x, x)[0], np.zeros(2))

    def test_grad_x_one_dim_value(self):
        spec = RbfKernel(1.0)
        grad = rbf_derivatives(spec, np.array([1.0]), np.array([0.0]))[0]
        np.testing.assert_allclose(grad, [-2.0 * math.exp(-1.0)], atol=1e-15)

    def test_grad_x_two_dim_value(self):
        spec = RbfKernel(2.0)
        grad = rbf_derivatives(spec, np.array([0.0, 1.0]), np.array([0.0, 0.0]))[0]
        np.testing.assert_allclose(grad, [0.0, -math.exp(-0.5)], atol=1e-15)

    def test_grad_y_vanishes_at_coincidence(self):
        spec = RbfKernel(1.0)
        x = np.array([2.0])
        np.testing.assert_array_equal(rbf_derivatives(spec, x, x)[1], np.zeros(1))

    def test_grad_y_one_dim_value(self):
        spec = RbfKernel(1.0)
        grad = rbf_derivatives(spec, np.array([1.0]), np.array([0.0]))[1]
        np.testing.assert_allclose(grad, [2.0 * math.exp(-1.0)], atol=1e-15)

    def test_grad_y_is_negated_grad_x(self):
        # The kernel depends on x - y only, so the two gradients mirror.
        for seed in range(20):
            rng = np.random.default_rng(seed)
            d = rng.integers(1, 6)
            spec = RbfKernel(float(rng.uniform(0.5, 4.0)))
            x = rng.standard_normal(d)
            y = rng.standard_normal(d)
            grad_x, grad_y, _ = rbf_derivatives(spec, x, y)
            np.testing.assert_allclose(grad_y, -grad_x, atol=1e-15)

    def test_grad_x_matches_finite_differences(self):
        for seed in range(30):
            rng = np.random.default_rng(100 + seed)
            d = int(rng.integers(1, 5))
            spec = RbfKernel(float(rng.uniform(0.5, 3.0)))
            x = rng.standard_normal(d)
            y = rng.standard_normal(d)
            fd = central_difference(lambda z: rbf(spec, z, y), x)
            np.testing.assert_allclose(rbf_derivatives(spec, x, y)[0], fd, atol=1e-7)


class TestCrossTrace:
    def test_coincident_one_dim(self):
        spec = RbfKernel(1.0)
        x = np.array([0.7])
        assert rbf_derivatives(spec, x, x)[2] == pytest.approx(2.0, abs=1e-15)

    def test_coincident_three_dim(self):
        spec = RbfKernel(2.0)
        x = np.array([1.0, -1.0, 0.5])
        assert rbf_derivatives(spec, x, x)[2] == pytest.approx(3.0, abs=1e-15)

    def test_separated_one_dim(self):
        spec = RbfKernel(1.0)
        val = rbf_derivatives(spec, np.array([1.0]), np.array([0.0]))[2]
        assert val == pytest.approx(-2.0 * math.exp(-1.0), abs=1e-15)

    def test_matches_nested_finite_differences(self):
        # trace of d^2 k / dx dy via nested central differences.
        eps = 1e-4
        for seed in range(15):
            rng = np.random.default_rng(200 + seed)
            d = int(rng.integers(1, 4))
            spec = RbfKernel(float(rng.uniform(0.8, 3.0)))
            x = rng.standard_normal(d)
            y = rng.standard_normal(d)
            trace = 0.0
            for i in range(d):
                e = np.zeros(d)
                e[i] = eps
                trace += (
                    rbf(spec, x + e, y + e)
                    - rbf(spec, x + e, y - e)
                    - rbf(spec, x - e, y + e)
                    + rbf(spec, x - e, y - e)
                ) / (4.0 * eps * eps)
            assert rbf_derivatives(spec, x, y)[2] == pytest.approx(trace, abs=1e-5)


class TestPairwiseSqDists:
    def test_matches_direct_loop(self):
        rng = np.random.default_rng(7)
        pts = rng.standard_normal((12, 3))
        dists = -self_tile_exponent(pts)
        for i in range(12):
            for j in range(12):
                expect = float(np.sum((pts[i] - pts[j]) ** 2))
                assert dists[i, j] == pytest.approx(expect, abs=1e-12)

    def test_diagonal_is_exactly_zero(self):
        rng = np.random.default_rng(8)
        pts = rng.standard_normal((30, 5)) * 100.0
        assert np.all(np.diag(self_tile_exponent(pts)) == 0.0)


class TestMedianHeuristic:
    def test_single_pair(self):
        assert median_heuristic_bandwidth(np.array([[0.0], [2.0]])) == 4.0

    def test_three_points(self):
        pts = np.array([[0.0], [1.0], [3.0]])
        assert median_heuristic_bandwidth(pts) == 4.0

    def test_even_pair_count_averages_middle(self):
        # Squared distances {1, 4, 9, 1, 4, 1}; sorted middle pair is (1, 4).
        pts = np.array([[0.0], [1.0], [2.0], [3.0]])
        assert median_heuristic_bandwidth(pts) == 2.5

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            median_heuristic_bandwidth(np.array([[1.0]]))

    def test_rejects_nonfinite(self):
        pts = np.array([[0.0], [np.nan]])
        with pytest.raises(ValueError):
            median_heuristic_bandwidth(pts)

    def test_identical_points_degenerate(self):
        pts = np.zeros((4, 2))
        with pytest.raises(DegenerateBandwidthError):
            median_heuristic_bandwidth(pts)

    def test_selection_bit_equal_to_numpy_median(self):
        # One in-place selection returns the same float as np.median over
        # the pair distances, for odd and even pair counts.
        rng = np.random.default_rng(21)
        for n in (2, 3, 4, 5, 201, 1600):
            pts = rng.standard_normal((n, 3))
            dup = pts.copy()
            dup[n // 2 :] = dup[0]
            for p in (pts, dup, np.round(pts, 1)):
                expect = float(np.median(pdist(p, metric="sqeuclidean")))
                if expect > 0.0:
                    assert median_heuristic_bandwidth(p) == expect
                else:
                    with pytest.raises(DegenerateBandwidthError):
                        median_heuristic_bandwidth(p)
