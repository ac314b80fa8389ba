"""Score-weighted kernel, Gram assembly, weighted discrepancy, identity check."""

import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import blas, lapack
from scipy.spatial.distance import cdist

from steinweights.errors import GramIntegrityError, ScoreEvaluationError
from steinweights.kernels import RbfKernel, _upper_tiles, median_heuristic_bandwidth
from steinweights.simplex_qp import QpProblem, solve
from steinweights.stein import (
    ScoreTarget,
    SteinGram,
    _stein_factors,
    _stein_tile,
    ksd_weighted,
    stein_gram,
    stein_identity_check,
    stein_kernel_block,
)
from steinweights.targets import (
    GaussianMixture,
    random_gaussian_mixture,
    standard_normal_target,
)

from support import GMM_RANGES, longdouble_stein_gram

# A float64 Gram entry may differ from the extended-precision pair formula
# by this many eps times the largest entry of the Gram.
GRAM_ACCURACY_EPS = 32.0


def gaussian_target():
    return standard_normal_target(1)


def block_of(target, spec, x, y):
    """:func:`stein_kernel_block` of the point rows x and y, with the
    target's scores."""
    return stein_kernel_block(x, y, target.score_at(x), target.score_at(y), spec)


class TestSteinKernelEval:
    def test_origin_pair_reduces_to_trace_term(self):
        # Score vanishes at 0, both gradients vanish at coincident points,
        # leaving 2d/h = 2.
        origin = np.zeros((1, 1))
        val = block_of(gaussian_target(), RbfKernel(1.0), origin, np.zeros((1, 1)))[0, 0]
        assert val == pytest.approx(2.0, abs=1e-15)

    def test_separated_pair_value(self):
        # Term by term: (-1)(0)e^-1 + (-1)(2e^-1) + 0(-2e^-1) + (2-4)e^-1.
        x, y = np.array([[1.0]]), np.array([[0.0]])
        val = block_of(gaussian_target(), RbfKernel(1.0), x, y)[0, 0]
        assert val == pytest.approx(-4.0 * math.exp(-1.0), abs=1e-15)

    def test_zero_score_point_reduces_to_cross_trace(self):
        # At a zero score only tr grad_x grad_y k(x, x) = 2d/h is left.
        spec = RbfKernel(1.5)
        origin = np.zeros((1, 3))
        val = block_of(standard_normal_target(3), spec, origin, np.zeros((1, 3)))[0, 0]
        assert val == pytest.approx(2.0 * 3 / 1.5, abs=1e-15)

    def test_symmetric_in_arguments(self):
        target = standard_normal_target(2)
        spec = RbfKernel(2.0)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            x = rng.standard_normal((1, 2))
            y = rng.standard_normal((1, 2))
            a = block_of(target, spec, x, y)[0, 0]
            b = block_of(target, spec, y, x)[0, 0]
            assert a == pytest.approx(b, rel=1e-12)


class TestSteinGram:
    def test_single_point_matrix(self):
        gram = stein_gram(gaussian_target(), RbfKernel(1.0), np.array([[0.0]]))
        np.testing.assert_allclose(gram.matrix, [[2.0]], atol=1e-15)

    def test_equality_is_identity_and_hashable(self):
        # Comparing the matrix field would raise on any Gram with more than
        # one entry; two Grams of equal matrices are distinct objects.
        a, b = SteinGram(np.eye(3)), SteinGram(np.eye(3))
        assert a == a and not (a == b) and a != b
        assert len({a, b, a}) == 2
        assert {a: 1}[a] == 1

    def test_matches_pairwise_eval(self):
        target = standard_normal_target(3)
        spec = RbfKernel(1.7)
        rng = np.random.default_rng(5)
        pts = rng.standard_normal((6, 3))
        gram = stein_gram(target, spec, pts)
        pairwise = longdouble_stein_gram(pts, target.score_at(pts), spec.bandwidth)
        for i in range(6):
            for j in range(6):
                expect = pairwise[i, j]
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
            SteinGram(mat)

    def test_rejects_indefinite_matrix(self):
        mat = np.array([[1.0, 0.0], [0.0, -1.0]])
        with pytest.raises(GramIntegrityError):
            SteinGram(mat)

    @pytest.mark.parametrize("shape", [(0, 0), (0,), (2, 3)])
    def test_rejects_empty_or_non_square_matrix(self, shape):
        # An empty Gram would otherwise fail later, inside BLAS or numpy's
        # reductions, in the discrepancy and the control-functional weights.
        with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
            SteinGram(np.zeros(shape))

    def test_strided_matrix_stored_contiguous_and_used_without_copy(self, monkeypatch):
        # A strided view is copied once, into a contiguous matrix, when the
        # Gram is built; the solver and the discrepancy then pass that
        # matrix to dsymv as is, where f2py would copy a strided one.
        rng = np.random.default_rng(13)
        big = rng.standard_normal((40, 40))
        big = big @ big.T
        big = big + big.T  # exactly symmetric, so stored unsymmetrized
        strided = big[::2, ::2]
        gram = SteinGram(strided)
        assert gram.matrix.flags.c_contiguous or gram.matrix.flags.f_contiguous
        assert not np.shares_memory(gram.matrix, big)
        np.testing.assert_array_equal(gram.matrix, strided)
        problem = QpProblem(gram=gram)
        assert problem.gram is gram.matrix
        seen = []
        dsymv = blas.dsymv

        def checking_dsymv(alpha, a, x, *args, **kwargs):
            seen.append(a)
            return dsymv(alpha, a, x, *args, **kwargs)

        monkeypatch.setattr(blas, "dsymv", checking_dsymv)
        w = np.full(20, 1.0 / 20)
        assert ksd_weighted(gram, w) == pytest.approx(w @ strided @ w, rel=1e-12)
        solve(problem, max_iters=3)
        assert len(seen) > 1
        for a in seen:
            assert a.flags.f_contiguous
            assert np.shares_memory(a, gram.matrix)

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
    sq = cdist(pts, pts, "sqeuclidean")
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


def mixture_points(n, seed, d=2, shift=0.0):
    """A mixture target and a point cloud, both shifted by ``shift``."""
    mixture = random_gaussian_mixture(
        n_components=20, dimension=d, seed=3, mean_range=(-3.0, 3.0), variance_range=(0.3, 1.0)
    )
    shifted = GaussianMixture(
        weights=mixture.weights, means=mixture.means + shift, variances=mixture.variances
    )
    pts = np.random.default_rng(seed).standard_normal((n, d)) * 2.0
    return shifted.as_target(), pts + shift


class TestBlockedSymmetricAdd:
    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 129, 300])
    def test_within_bound_of_whole_matrix_add(self, n):
        # The tiled assembly forms each tile from two products of centered,
        # augmented rows, so it rounds differently from the whole-matrix
        # reference; it agrees within the bound of the accuracy test.
        target, pts = mixture_points(n, seed=n)
        kernel = RbfKernel(1.3)
        gram = stein_gram(target, kernel, pts)
        expect = unblocked_stein_matrix(target, kernel, pts)
        bound = GRAM_ACCURACY_EPS * np.finfo(float).eps * np.max(np.abs(expect))
        assert np.max(np.abs(gram.matrix - expect)) <= bound


class TestGramAccuracy:
    @pytest.mark.parametrize("d", [2, 10])
    @pytest.mark.parametrize("n", [1, 2, 63, 64, 129, 256, 257, 300, 800])
    def test_within_bound_of_extended_precision_oracle(self, n, d):
        target, pts = mixture_points(n, seed=n + d, d=d)
        bandwidth = median_heuristic_bandwidth(pts) if n > 1 else 1.3
        gram = stein_gram(target, RbfKernel(bandwidth), pts).matrix
        expect = longdouble_stein_gram(pts, target.score_at(pts), bandwidth)
        bound = GRAM_ACCURACY_EPS * np.finfo(float).eps * np.max(np.abs(expect))
        assert np.max(np.abs(gram - expect)) <= bound

    @pytest.mark.parametrize("shift", [1e2, 1e3, 1e4])
    def test_translation_moves_gram_by_rounding_only(self, shift):
        # k_p depends on x - y and the scores only; shifting the points
        # and the target together leaves it unchanged.
        kernel = RbfKernel(1.3)
        target, pts = mixture_points(300, seed=5)
        base = stein_gram(target, kernel, pts).matrix
        target, pts = mixture_points(300, seed=5, shift=shift)
        moved = stein_gram(target, kernel, pts).matrix
        assert np.max(np.abs(moved - base)) <= 1e-12 * np.max(np.abs(base))


class TestSteinKernelBlock:
    def rectangular_block(self):
        target = standard_normal_target(3)
        spec = RbfKernel(1.7)
        rng = np.random.default_rng(21)
        x = rng.standard_normal((7, 3))
        y = rng.standard_normal((5, 3)) * 1.5
        return target, spec, x, y, block_of(target, spec, x, y)

    def test_matches_pair_eval_on_rectangular_block(self):
        target, spec, x, y, block = self.rectangular_block()
        assert block.shape == (7, 5)
        for i in range(7):
            for j in range(5):
                pair = block_of(target, spec, x[i : i + 1], y[j : j + 1])
                assert block[i, j] == pytest.approx(pair[0, 0], rel=1e-12, abs=1e-14)

    def test_matches_base_kernel_derivatives(self):
        # k_p = s_x's_y k + s_x'grad_y k + s_y'grad_x k + trace, with the
        # RBF derivatives written out in extended precision.
        target, spec, x, y, block = self.rectangular_block()
        pts = np.concatenate([x, y])
        expect = longdouble_stein_gram(pts, target.score_at(pts), spec.bandwidth)[:7, 7:]
        for i in range(7):
            for j in range(5):
                assert block[i, j] == pytest.approx(expect[i, j], rel=1e-12, abs=1e-14)


class TestTiledGram:
    @pytest.mark.parametrize("n", [1, 255, 256, 257, 513])
    def test_exactly_symmetric(self, n):
        target, pts = mixture_points(n, seed=n + 1)
        mat = stein_gram(target, RbfKernel(1.1), pts).matrix
        np.testing.assert_array_equal(mat, mat.T)

    @pytest.mark.parametrize("n", [1, 255, 256, 257, 513])
    def test_diagonal_tiles_equal_where_mirror(self, n):
        # Each diagonal tile keeps its upper triangle and mirrors it, as
        # np.where(lower, tile.T, tile) does.
        target, pts = mixture_points(n, seed=n + 1)
        kernel = RbfKernel(1.1)
        a, b, p, q = _stein_factors(
            pts - pts.mean(axis=0), target.score_at(pts), kernel.bandwidth
        )
        expect = np.empty((n, n))
        for rows, cols in _upper_tiles(n):
            tile = _stein_tile(a[rows], b[cols], p[rows], q[cols], diagonal=rows == cols)
            if rows == cols:
                lower = np.tri(len(tile), k=-1, dtype=bool)
                expect[rows, rows] = np.where(lower, tile.T, tile)
            else:
                expect[rows, cols] = tile
                expect[cols, rows] = tile.T
        np.testing.assert_array_equal(stein_gram(target, kernel, pts).matrix, expect)

    def test_peak_memory_is_one_gram(self):
        # The output, which the PSD check factors in place, plus a few tiles.
        n = 800
        target, pts = mixture_points(n, seed=12)
        tracemalloc.start()
        try:
            stein_gram(target, RbfKernel(2.0), pts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * 8 * n * n


class TestSteinKernelVector:
    def test_matches_scalar_evals(self):
        # k_p(x_i, y) for every row, the (n, 1) block the identity check
        # integrates.
        target = standard_normal_target(2)
        spec = RbfKernel(1.3)
        rng = np.random.default_rng(11)
        pts = rng.standard_normal((8, 2))
        y = rng.standard_normal((1, 2))
        vec = block_of(target, spec, pts, y)[:, 0]
        for i in range(8):
            pair = block_of(target, spec, pts[i : i + 1], y)
            assert vec[i] == pytest.approx(pair[0, 0], rel=1e-12)


class TestKsdWeighted:
    def make_gram(self, mat):
        return SteinGram(np.asarray(mat, dtype=float))

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
        target = random_gaussian_mixture(3, 2, seed=1, **GMM_RANGES).as_target()
        rng = np.random.default_rng(12)
        for n in (1, 2, 50, 300):
            gram = stein_gram(target, RbfKernel(1.5), rng.standard_normal((n, 2)))
            fortran = self.make_gram(np.asfortranarray(gram.matrix))
            for w in (np.full(n, 1.0 / n), rng.dirichlet(np.ones(n))):
                full = float(w @ gram.matrix @ w)
                for g in (gram, fortran):
                    assert ksd_weighted(g, w) == pytest.approx(full, rel=1e-12, abs=0.0)

    def test_column_view_matches_contiguous_copy(self):
        # Weights read as a column of a table are strided; dsymv and the dot
        # product can round them differently from their contiguous copy.
        target = random_gaussian_mixture(3, 2, seed=1, **GMM_RANGES).as_target()
        rng = np.random.default_rng(5)
        for n in (7, 40, 200):
            gram = stein_gram(target, RbfKernel(1.5), rng.standard_normal((n, 2)))
            for _ in range(10):
                table = np.column_stack((rng.standard_normal(n), rng.dirichlet(np.ones(n))))
                view = table[:, 1]
                assert not view.flags.c_contiguous
                assert ksd_weighted(gram, view) == ksd_weighted(gram, view.copy())

    def test_large_negative_is_integrity_error(self):
        gram = SteinGram.__new__(SteinGram)
        object.__setattr__(gram, "matrix", np.array([[1.0, -2.0], [-2.0, 1.0]]))
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
    def test_floor_is_exact_at_small_and_large_n(self, n):
        floor = 1e-8 * n
        with pytest.raises(GramIntegrityError, match="below PSD floor"):
            SteinGram(rank_one_dip(n, 1.001 * floor))
        gram = SteinGram(rank_one_dip(n, 0.999 * floor))
        assert gram.ridge == floor
        assert gram.inverse_ones is not None

    @pytest.mark.parametrize("n", [1, 4, 1100])
    def test_zero_matrix_accepted(self, n):
        gram = SteinGram(np.zeros((n, n)))
        assert gram.ridge == 0.0
        assert gram.inverse_ones is None

    @pytest.mark.parametrize("n", [2, 300])
    @pytest.mark.parametrize("entry", [0.0, 1e-320])
    def test_failed_factorization_restores_matrix(self, n, entry):
        # The zero matrix, whose factorization fails at its first column,
        # and t 11' with t subnormal: PSD and singular, with a ridge that
        # underflows to zero, so its factorization fails at the second
        # column after writing the first. The eigensolve accepts both, and
        # the matrix the factorization ran in is restored.
        mat = np.full((n, n), entry)
        gram = SteinGram(mat)
        assert gram.ridge == 0.0
        assert gram.inverse_ones is None
        np.testing.assert_array_equal(gram.matrix, mat)

    def ridged_gram(self):
        rng = np.random.default_rng(8)
        pts = rng.standard_normal((60, 2))
        return stein_gram(standard_normal_target(2), RbfKernel(1.5), pts)

    def test_inverse_ones_matches_separate_factorization(self):
        gram = self.ridged_gram()
        copy = gram.matrix + gram.ridge * np.eye(60)
        lower, info = lapack.dpotrf(copy, lower=1)
        assert info == 0
        expect, _ = lapack.dpotrs(lower, np.ones(60), lower=1)
        np.testing.assert_array_equal(gram.inverse_ones, expect)

    def test_inverse_ones_solves_ridged_system(self):
        gram = self.ridged_gram()
        residual = (gram.matrix + gram.ridge * np.eye(60)) @ gram.inverse_ones - 1.0
        assert np.max(np.abs(residual)) <= 1e-10

    def test_read_only_matrix_copied_and_unchanged(self):
        gram = self.ridged_gram()
        mat = gram.matrix.copy()
        mat.flags.writeable = False
        copy = SteinGram(mat)
        assert not np.shares_memory(copy.matrix, mat)
        np.testing.assert_array_equal(mat, gram.matrix)
        np.testing.assert_array_equal(copy.matrix, gram.matrix)
        np.testing.assert_array_equal(copy.inverse_ones, gram.inverse_ones)

    @pytest.mark.parametrize("asymmetric", [False, True])
    def test_caller_matrix_peak_memory_is_one_copy(self, asymmetric):
        # The copy of the caller's matrix, plus a few tiles: the symmetry
        # check, the symmetrization and the PSD check all run in that copy.
        n = 800
        target, pts = mixture_points(n, seed=12)
        mat = stein_gram(target, RbfKernel(2.0), pts).matrix.copy()
        if asymmetric:
            mat[0, n - 1] += 1e-14 * np.max(np.abs(mat))
        tracemalloc.start()
        try:
            gram = SteinGram(mat)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert asymmetric == (gram.matrix[0, n - 1] != mat[0, n - 1])
        assert peak <= 1.3 * 8 * n * n

    def test_near_symmetric_input_stored_exactly_symmetric(self):
        mat = np.array([[2.0, 1.0], [1.0 + 1e-14, 2.0]])
        gram = SteinGram(mat)
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


class TestGramScale:
    @pytest.mark.parametrize("n", [7, 300])
    def test_scale_is_max_abs_entry_bit_for_bit(self, n):
        target, pts = mixture_points(n, seed=14)
        gram = stein_gram(target, RbfKernel(2.0), pts)
        assert gram.scale == np.max(np.abs(gram.matrix))
        symmetric = gram.matrix.copy()
        assert SteinGram(symmetric).scale == np.max(np.abs(symmetric))
        asymmetric = gram.matrix.copy()
        asymmetric[0, n - 1] += 1e-14 * gram.scale
        near = SteinGram(asymmetric)
        assert near.matrix[0, n - 1] != asymmetric[0, n - 1]
        assert near.scale == np.max(np.abs(asymmetric))

    def test_scale_is_of_matrix_given_and_read_only(self):
        # The asymmetric entry is the largest; its symmetrized value is
        # smaller, and scale keeps the largest magnitude of the input.
        mat = np.array([[1.0, 1.0 + 1e-8], [1.0 + 1e-8 + 1e-13, 1.0]])
        gram = SteinGram(mat)
        assert gram.scale == mat[1, 0]
        assert np.max(np.abs(gram.matrix)) < gram.scale
        with pytest.raises(dataclasses.FrozenInstanceError):
            gram.scale = 0.0
