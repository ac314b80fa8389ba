"""Score-weighted kernel, Gram assembly, weighted discrepancy, identity check."""

import math
import tracemalloc

import numpy as np
import pytest

from steinweights.errors import GramIntegrityError, ScoreEvaluationError
from steinweights.kernels import (
    RbfKernel,
    _TILE_ROWS as TILE_ROWS,
    kernel_cross_trace,
    kernel_eval,
    kernel_grad_x,
    kernel_grad_y,
    pairwise_sq_dists,
)
from steinweights.stein import (
    ScoreTarget,
    SteinGram,
    ksd_weighted,
    stein_gram,
    stein_identity_check,
    stein_kernel_block,
    stein_kernel_eval,
    stein_kernel_vector,
)
from steinweights.targets import (
    GaussianMixture,
    random_gaussian_mixture,
    standard_normal_target,
)


def gaussian_target():
    return standard_normal_target(1)


class TestSteinKernelEval:
    def test_origin_pair_reduces_to_trace_term(self):
        # Score vanishes at 0, both gradients vanish at coincident points,
        # leaving 2d/h = 2.
        val = stein_kernel_eval(gaussian_target(), RbfKernel(1.0), np.zeros(1), np.zeros(1))
        assert val == pytest.approx(2.0, abs=1e-15)

    def test_separated_pair_value(self):
        # Term by term: (-1)(0)e^-1 + (-1)(2e^-1) + 0(-2e^-1) + (2-4)e^-1.
        val = stein_kernel_eval(
            gaussian_target(), RbfKernel(1.0), np.array([1.0]), np.array([0.0])
        )
        assert val == pytest.approx(-4.0 * math.exp(-1.0), abs=1e-15)

    def test_zero_score_point_reduces_to_cross_trace(self):
        spec = RbfKernel(1.5)
        x = np.zeros(3)
        val = stein_kernel_eval(standard_normal_target(3), spec, x, x)
        assert val == pytest.approx(kernel_cross_trace(spec, x, x), abs=1e-15)

    def test_symmetric_in_arguments(self):
        target = standard_normal_target(2)
        spec = RbfKernel(2.0)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            x = rng.standard_normal(2)
            y = rng.standard_normal(2)
            a = stein_kernel_eval(target, spec, x, y)
            b = stein_kernel_eval(target, spec, y, x)
            assert a == pytest.approx(b, rel=1e-12)


class TestSteinGram:
    def test_single_point_matrix(self):
        gram = stein_gram(gaussian_target(), RbfKernel(1.0), np.array([[0.0]]))
        np.testing.assert_allclose(gram.matrix, [[2.0]], atol=1e-15)

    def test_matches_pairwise_eval(self):
        target = standard_normal_target(3)
        spec = RbfKernel(1.7)
        rng = np.random.default_rng(5)
        pts = rng.standard_normal((6, 3))
        gram = stein_gram(target, spec, pts)
        for i in range(6):
            for j in range(6):
                expect = stein_kernel_eval(target, spec, pts[i], pts[j])
                assert gram.matrix[i, j] == pytest.approx(expect, rel=1e-10, abs=1e-12)

    def test_symmetry_on_random_sets(self):
        target = standard_normal_target(2)
        for seed in range(10):
            rng = np.random.default_rng(300 + seed)
            pts = rng.standard_normal((5, 2))
            gram = stein_gram(target, RbfKernel(1.0), pts)
            np.testing.assert_array_equal(gram.matrix, gram.matrix.T)

    def test_psd_on_random_sets(self):
        target = standard_normal_target(2)
        for seed in range(10):
            rng = np.random.default_rng(400 + seed)
            n = int(rng.integers(3, 30))
            pts = rng.standard_normal((n, 2)) * 2.0
            gram = stein_gram(target, RbfKernel(float(rng.uniform(0.5, 5.0))), pts)
            eigs = np.linalg.eigvalsh(gram.matrix)
            assert eigs.min() >= -1e-8 * n * gram.matrix.diagonal().max()

    def test_rejects_asymmetric_matrix(self):
        mat = np.array([[1.0, 0.5], [0.4, 1.0]])
        with pytest.raises(GramIntegrityError):
            SteinGram(matrix=mat, kernel=RbfKernel(1.0))

    def test_rejects_indefinite_matrix(self):
        mat = np.array([[1.0, 0.0], [0.0, -1.0]])
        with pytest.raises(GramIntegrityError):
            SteinGram(matrix=mat, kernel=RbfKernel(1.0))

    def test_score_failure_carries_point(self):
        def bad_score(points):
            out = -np.asarray(points)
            out[points[:, 0] > 1.0] = np.nan
            return out

        target = ScoreTarget(dimension=1, score=bad_score)
        pts = np.array([[0.0], [2.0]])
        with pytest.raises(ScoreEvaluationError) as info:
            stein_gram(target, RbfKernel(1.0), pts)
        np.testing.assert_array_equal(info.value.point, [2.0])


def unblocked_stein_matrix(target, kernel, pts):
    """The Gram assembly with the cross terms' symmetric add done in one
    whole-matrix np.add, mirrored from its upper triangle."""
    scores = target.score_at(pts)
    h = kernel.bandwidth
    n, d = pts.shape
    sq = pairwise_sq_dists(pts)
    k = np.exp(np.multiply(sq, -1.0 / h))
    bracket = sq
    bracket *= -4.0 / (h * h)
    bracket += 2.0 * d / h
    bracket += scores @ scores.T
    row_dot = np.sum(scores * pts, axis=1)
    s_x = scores @ pts.T
    np.add(s_x, s_x.T, out=s_x)
    s_x *= -2.0 / h
    s_x += (2.0 / h) * row_dot[:, None]
    s_x += (2.0 / h) * row_dot[None, :]
    bracket += s_x
    bracket *= k
    for i in range(n - 1):
        bracket[i + 1 :, i] = bracket[i, i + 1 :]
    return bracket


def mixture_points(n, seed):
    mixture = random_gaussian_mixture(
        n_components=20, dimension=2, seed=3, mean_range=(-3.0, 3.0)
    )
    pts = np.random.default_rng(seed).standard_normal((n, 2)) * 2.0
    return mixture.as_target(), pts


class TestBlockedSymmetricAdd:
    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 129, 300])
    def test_bit_identical_to_whole_matrix_add(self, n):
        # Within one tile the tiled assembly runs the reference's operations
        # in the same order. Past one tile, BLAS may round the products of
        # an edge tile differently from the whole-matrix product.
        target, pts = mixture_points(n, seed=n)
        kernel = RbfKernel(1.3)
        gram = stein_gram(target, kernel, pts)
        expect = unblocked_stein_matrix(target, kernel, pts)
        if n <= TILE_ROWS:
            np.testing.assert_array_equal(gram.matrix, expect)
        else:
            bound = 4.0 * np.finfo(float).eps * np.max(np.abs(expect))
            assert np.max(np.abs(gram.matrix - expect)) <= bound

    def test_peak_memory_at_most_three_point_three_buffers(self):
        # Distances, kernel values, cross terms, and one row block of
        # scratch; the whole-matrix add held a fourth (n, n) buffer.
        n = 800
        target, pts = mixture_points(n, seed=11)
        tracemalloc.start()
        try:
            stein_gram(target, RbfKernel(2.0), pts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3.3 * 8 * n * n


class TestSteinKernelBlock:
    def rectangular_block(self):
        target = standard_normal_target(3)
        spec = RbfKernel(1.7)
        rng = np.random.default_rng(21)
        x = rng.standard_normal((7, 3))
        y = rng.standard_normal((5, 3)) * 1.5
        block = stein_kernel_block(
            x, y, target.score_at(x), target.score_at(y), spec
        )
        return target, spec, x, y, block

    def test_matches_pair_eval_on_rectangular_block(self):
        target, spec, x, y, block = self.rectangular_block()
        assert block.shape == (7, 5)
        for i in range(7):
            for j in range(5):
                assert block[i, j] == pytest.approx(
                    stein_kernel_eval(target, spec, x[i], y[j]), rel=1e-12, abs=1e-14
                )

    def test_matches_base_kernel_derivatives(self):
        # k_p = s_x's_y k + s_x'grad_y k + s_y'grad_x k + trace, assembled
        # from the single-pair RBF functions.
        target, spec, x, y, block = self.rectangular_block()
        for i in range(7):
            for j in range(5):
                sx, sy = target.score_at(x[i]), target.score_at(y[j])
                expect = (
                    float(sx @ sy) * kernel_eval(spec, x[i], y[j])
                    + float(sx @ kernel_grad_y(spec, x[i], y[j]))
                    + float(sy @ kernel_grad_x(spec, x[i], y[j]))
                    + kernel_cross_trace(spec, x[i], y[j])
                )
                assert block[i, j] == pytest.approx(expect, rel=1e-12, abs=1e-14)


class TestTiledGram:
    @pytest.mark.parametrize("n", [1, 255, 256, 257, 513])
    def test_exactly_symmetric(self, n):
        target, pts = mixture_points(n, seed=n + 1)
        mat = stein_gram(target, RbfKernel(1.1), pts).matrix
        np.testing.assert_array_equal(mat, mat.T)

    def test_peak_memory_is_gram_and_cholesky_copy(self):
        # The output and the copy the PSD check factors, plus a few tiles.
        n = 800
        target, pts = mixture_points(n, seed=12)
        tracemalloc.start()
        try:
            stein_gram(target, RbfKernel(2.0), pts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.3 * 8 * n * n


class TestSteinKernelVector:
    def test_matches_scalar_evals(self):
        target = standard_normal_target(2)
        spec = RbfKernel(1.3)
        rng = np.random.default_rng(11)
        pts = rng.standard_normal((8, 2))
        y = rng.standard_normal(2)
        vec = stein_kernel_vector(target, spec, pts, y)
        for i in range(8):
            assert vec[i] == pytest.approx(
                stein_kernel_eval(target, spec, pts[i], y), rel=1e-12
            )


class TestKsdWeighted:
    def make_gram(self, mat):
        return SteinGram(matrix=np.asarray(mat, dtype=float), kernel=RbfKernel(1.0))

    def test_basis_vector_reads_diagonal(self):
        gram = self.make_gram([[3.0, 1.0], [1.0, 2.0]])
        assert ksd_weighted(gram, np.array([1.0, 0.0])) == 3.0

    def test_half_half_expansion(self):
        a, b, c = 2.0, 0.5, 1.0
        gram = self.make_gram([[a, b], [b, c]])
        val = ksd_weighted(gram, np.array([0.5, 0.5]))
        assert val == pytest.approx((a + 2 * b + c) / 4.0, abs=1e-15)

    def test_zero_weights_zero_value(self):
        gram = self.make_gram([[1.0, 0.0], [0.0, 1.0]])
        assert ksd_weighted(gram, np.zeros(2)) == 0.0

    def test_tiny_negative_rounds_to_zero(self):
        # A PSD matrix with a null direction: roundoff can put the quadratic
        # form slightly below zero and the clamp returns exactly zero.
        gram = self.make_gram([[1.0, -1.0], [-1.0, 1.0]])
        val = ksd_weighted(gram, np.array([0.5, 0.5]))
        assert val == 0.0

    def test_symmetric_product_matches_full_quadratic_form(self):
        # A SteinGram's w' K w reads one triangle through dsymv; it moves
        # the full product only by rounding, for C- and F-ordered Grams.
        target = random_gaussian_mixture(3, 2, seed=1).as_target()
        rng = np.random.default_rng(12)
        for n in (1, 2, 50, 300):
            gram = stein_gram(target, RbfKernel(1.5), rng.standard_normal((n, 2)))
            fortran = self.make_gram(np.asfortranarray(gram.matrix))
            for w in (np.full(n, 1.0 / n), rng.dirichlet(np.ones(n))):
                full = float(w @ gram.matrix @ w)
                for g in (gram, fortran):
                    assert ksd_weighted(g, w) == pytest.approx(full, rel=1e-12, abs=0.0)

    def test_large_negative_is_integrity_error(self):
        gram = SteinGram.__new__(SteinGram)
        object.__setattr__(gram, "matrix", np.array([[1.0, -2.0], [-2.0, 1.0]]))
        object.__setattr__(gram, "kernel", RbfKernel(1.0))
        with pytest.raises(GramIntegrityError):
            ksd_weighted(gram, np.array([0.5, 0.5]))


class TestSteinIdentity:
    def test_standard_normal_quadrature(self):
        target = gaussian_target()
        nodes = np.linspace(-10.0, 10.0, 4001)
        for y in (-3.0, -1.0, 0.0, 0.5, 3.0):
            val = stein_identity_check(target, RbfKernel(1.0), np.array([y]), nodes)
            assert abs(val) < 1e-6

    def test_two_component_mixture_quadrature(self):
        mix = GaussianMixture(
            weights=np.array([0.5, 0.5]),
            means=np.array([[-1.5], [1.5]]),
            variances=np.array([0.8, 0.8]),
        )
        nodes = np.linspace(-12.0, 12.0, 4001)
        val = stein_identity_check(mix.as_target(), RbfKernel(1.0), np.array([0.0]), nodes)
        assert abs(val) < 1e-6

    def test_single_node_grid_rejected(self):
        with pytest.raises(ValueError):
            stein_identity_check(
                gaussian_target(), RbfKernel(1.0), np.array([0.0]), np.array([0.0])
            )


def rank_one_dip(n, dip):
    """I - (1 + dip) u u' for a dense unit u with u_0 = 0.

    Its eigenvalues are 1 (n - 1 times) and -dip, and its diagonal peaks at
    exactly 1, so the PSD floor is -1e-8 * n.
    """
    u = np.random.default_rng(n).standard_normal(n)
    u[0] = 0.0
    u /= np.linalg.norm(u)
    return np.eye(n) - (1.0 + dip) * np.outer(u, u)


class TestCholeskyPsdCheck:
    @pytest.mark.parametrize("n", [40, 1100])
    def test_floor_is_exact_on_both_sides_of_1024(self, n):
        floor = 1e-8 * n
        with pytest.raises(GramIntegrityError, match="below PSD floor"):
            SteinGram(matrix=rank_one_dip(n, 1.001 * floor), kernel=RbfKernel(1.0))
        gram = SteinGram(matrix=rank_one_dip(n, 0.999 * floor), kernel=RbfKernel(1.0))
        assert gram.ridge == floor
        assert gram.factor is not None

    @pytest.mark.parametrize("n", [1, 4, 1100])
    def test_zero_matrix_accepted(self, n):
        gram = SteinGram(matrix=np.zeros((n, n)), kernel=RbfKernel(1.0))
        assert gram.ridge == 0.0
        assert gram.factor is None

    def test_factor_is_cholesky_of_ridged_gram(self):
        rng = np.random.default_rng(8)
        pts = rng.standard_normal((60, 2))
        gram = stein_gram(standard_normal_target(2), RbfKernel(1.5), pts)
        lower = gram.factor
        np.testing.assert_array_equal(lower, np.tril(lower))
        np.testing.assert_allclose(
            lower @ lower.T, gram.matrix + gram.ridge * np.eye(60), rtol=0, atol=1e-12
        )

    def test_near_symmetric_input_stored_exactly_symmetric(self):
        mat = np.array([[2.0, 1.0], [1.0 + 1e-14, 2.0]])
        gram = SteinGram(matrix=mat, kernel=RbfKernel(1.0))
        np.testing.assert_array_equal(gram.matrix, gram.matrix.T)
        assert gram.matrix[0, 1] == 0.5 * (1.0 + (1.0 + 1e-14))

    def test_one_factorization_per_stein_gram(self, monkeypatch):
        from scipy.linalg import lapack

        calls = []
        potrf = lapack.dpotrf

        def counting_potrf(*args, **kwargs):
            calls.append(args[0].shape)
            return potrf(*args, **kwargs)

        def forbidden(*args, **kwargs):
            raise AssertionError("a valid Gram needs no eigensolve")

        monkeypatch.setattr(lapack, "dpotrf", counting_potrf)
        monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
        rng = np.random.default_rng(9)
        for n in (5, 80):
            stein_gram(standard_normal_target(2), RbfKernel(1.0), rng.standard_normal((n, 2)))
        assert calls == [(5, 5), (80, 80)]
