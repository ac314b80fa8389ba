"""Base RBF kernel: closed-form values, derivative identities, bandwidth rule."""

import math

import numpy as np
import pytest
from scipy.spatial.distance import pdist

from steinweights.errors import DegenerateBandwidthError
from steinweights.kernels import (
    RbfKernel,
    kernel_cross_trace,
    kernel_eval,
    kernel_grad_x,
    kernel_grad_y,
    median_heuristic_bandwidth,
    pairwise_sq_dists,
)
from support import central_difference


class TestKernelEval:
    def test_coincident_points(self):
        spec = RbfKernel(1.0)
        assert kernel_eval(spec, np.zeros(2), np.zeros(2)) == 1.0

    def test_unit_separation(self):
        spec = RbfKernel(1.0)
        val = kernel_eval(spec, np.array([0.0]), np.array([1.0]))
        assert val == pytest.approx(math.exp(-1.0), abs=1e-15)

    def test_bandwidth_scales_exponent(self):
        spec = RbfKernel(4.0)
        val = kernel_eval(spec, np.array([0.0, 0.0]), np.array([2.0, 0.0]))
        assert val == pytest.approx(math.exp(-1.0), abs=1e-15)

    def test_rejects_nonpositive_bandwidth(self):
        with pytest.raises(ValueError):
            RbfKernel(0.0)
        with pytest.raises(ValueError):
            RbfKernel(-1.0)

    def test_rejects_mismatched_dimensions(self):
        spec = RbfKernel(1.0)
        with pytest.raises(ValueError):
            kernel_eval(spec, np.zeros(2), np.zeros(3))


class TestKernelGradients:
    def test_grad_x_vanishes_at_coincidence(self):
        spec = RbfKernel(1.0)
        x = np.array([0.3, -1.2])
        np.testing.assert_array_equal(kernel_grad_x(spec, x, x), np.zeros(2))

    def test_grad_x_one_dim_value(self):
        spec = RbfKernel(1.0)
        grad = kernel_grad_x(spec, np.array([1.0]), np.array([0.0]))
        np.testing.assert_allclose(grad, [-2.0 * math.exp(-1.0)], atol=1e-15)

    def test_grad_x_two_dim_value(self):
        spec = RbfKernel(2.0)
        grad = kernel_grad_x(spec, np.array([0.0, 1.0]), np.array([0.0, 0.0]))
        np.testing.assert_allclose(grad, [0.0, -math.exp(-0.5)], atol=1e-15)

    def test_grad_y_vanishes_at_coincidence(self):
        spec = RbfKernel(1.0)
        x = np.array([2.0])
        np.testing.assert_array_equal(kernel_grad_y(spec, x, x), np.zeros(1))

    def test_grad_y_one_dim_value(self):
        spec = RbfKernel(1.0)
        grad = kernel_grad_y(spec, np.array([1.0]), np.array([0.0]))
        np.testing.assert_allclose(grad, [2.0 * math.exp(-1.0)], atol=1e-15)

    def test_grad_y_is_negated_grad_x(self):
        # The kernel depends on x - y only, so the two gradients mirror.
        for seed in range(20):
            rng = np.random.default_rng(seed)
            d = rng.integers(1, 6)
            spec = RbfKernel(float(rng.uniform(0.5, 4.0)))
            x = rng.standard_normal(d)
            y = rng.standard_normal(d)
            np.testing.assert_allclose(
                kernel_grad_y(spec, x, y), -kernel_grad_x(spec, x, y), atol=1e-15
            )

    def test_grad_x_matches_finite_differences(self):
        for seed in range(30):
            rng = np.random.default_rng(100 + seed)
            d = int(rng.integers(1, 5))
            spec = RbfKernel(float(rng.uniform(0.5, 3.0)))
            x = rng.standard_normal(d)
            y = rng.standard_normal(d)
            fd = central_difference(lambda z: kernel_eval(spec, z, y), x)
            np.testing.assert_allclose(kernel_grad_x(spec, x, y), fd, atol=1e-7)


class TestCrossTrace:
    def test_coincident_one_dim(self):
        spec = RbfKernel(1.0)
        x = np.array([0.7])
        assert kernel_cross_trace(spec, x, x) == pytest.approx(2.0, abs=1e-15)

    def test_coincident_three_dim(self):
        spec = RbfKernel(2.0)
        x = np.array([1.0, -1.0, 0.5])
        assert kernel_cross_trace(spec, x, x) == pytest.approx(3.0, abs=1e-15)

    def test_separated_one_dim(self):
        spec = RbfKernel(1.0)
        val = kernel_cross_trace(spec, np.array([1.0]), np.array([0.0]))
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
                    kernel_eval(spec, x + e, y + e)
                    - kernel_eval(spec, x + e, y - e)
                    - kernel_eval(spec, x - e, y + e)
                    + kernel_eval(spec, x - e, y - e)
                ) / (4.0 * eps * eps)
            assert kernel_cross_trace(spec, x, y) == pytest.approx(trace, abs=1e-5)


class TestPairwiseSqDists:
    def test_matches_direct_loop(self):
        rng = np.random.default_rng(7)
        pts = rng.standard_normal((12, 3))
        dists = pairwise_sq_dists(pts)
        for i in range(12):
            for j in range(12):
                expect = float(np.sum((pts[i] - pts[j]) ** 2))
                assert dists[i, j] == pytest.approx(expect, abs=1e-12)

    def test_diagonal_is_exactly_zero(self):
        rng = np.random.default_rng(8)
        pts = rng.standard_normal((30, 5)) * 100.0
        assert np.all(np.diag(pairwise_sq_dists(pts)) == 0.0)


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
