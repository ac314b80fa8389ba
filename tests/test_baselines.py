"""Comparator weighting schemes: exact IS, control functional, KDE, ESS."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.spatial.distance import cdist
from scipy.special import gamma

from steinweights.baselines import (
    _loo_log_density,
    effective_sample_size,
    kde_rule_of_thumb_bandwidth,
    weights_control_functional,
    weights_exact_is,
    weights_kde,
    weights_uniform,
)
from steinweights.errors import (
    DegenerateWeightsError,
    SolverError,
    UnsupportedConfigurationError,
)
from steinweights.kernels import RbfKernel
from steinweights.stein import SteinGram, stein_gram
from steinweights.targets import random_gaussian_mixture, standard_normal_target

from support import GMM_RANGES


class TestUniform:
    def test_values(self):
        np.testing.assert_array_equal(weights_uniform(1), [1.0])
        np.testing.assert_array_equal(weights_uniform(4), np.full(4, 0.25))

    def test_power_of_two_sums_exactly(self):
        for n in (2, 8, 64, 1024):
            assert weights_uniform(n).sum() == 1.0


class TestExactIs:
    def test_matching_proposal_gives_uniform(self):
        target = standard_normal_target(2)
        pts = np.random.default_rng(0).standard_normal((6, 2))
        w = weights_exact_is(target, target.log_density, pts)
        np.testing.assert_allclose(w, np.full(6, 1.0 / 6.0), atol=1e-15)

    def test_log_ratio_gap_softmax(self):
        target = standard_normal_target(1)

        def proposal_log_density(pts):
            # Log-ratio difference between the two points is log 3.
            base = target.log_density(pts)
            return base - np.where(pts[:, 0] > 0.5, math.log(3.0), 0.0)

        pts = np.array([[1.0], [0.0]])
        w = weights_exact_is(target, proposal_log_density, pts)
        np.testing.assert_allclose(w, [0.75, 0.25], atol=1e-12)

    def test_extreme_log_ratio_no_overflow(self):
        target = standard_normal_target(1)

        def proposal_log_density(pts):
            return target.log_density(pts) - np.where(pts[:, 0] > 0.5, 1000.0, 0.0)

        pts = np.array([[1.0], [0.0]])
        w = weights_exact_is(target, proposal_log_density, pts)
        np.testing.assert_allclose(w, [1.0, 0.0], atol=1e-300)


class TestControlFunctional:
    def make_gram(self, mat):
        return SteinGram(np.asarray(mat, dtype=float))

    def test_zero_kernel_min_norm_solution(self):
        gram = self.make_gram(np.zeros((2, 2)))
        w = weights_control_functional(gram, lam=0.0)
        np.testing.assert_allclose(w, [0.5, 0.5], atol=1e-10)

    def test_identity_kernel_solution(self):
        gram = self.make_gram(np.eye(2))
        w = weights_control_functional(gram, lam=0.0)
        np.testing.assert_allclose(w, [1.0 / 3.0, 1.0 / 3.0], atol=1e-10)
        assert w.sum() == pytest.approx(2.0 / 3.0, abs=1e-10)
        wn = weights_control_functional(gram, lam=0.0, normalize=True)
        np.testing.assert_allclose(wn, [0.5, 0.5], atol=1e-10)

    def test_huge_ridge_shrinks_to_zero(self):
        gram = self.make_gram(np.eye(3))
        w = weights_control_functional(gram, lam=1e12)
        assert np.all(np.abs(w) < 1e-9)
        wn = weights_control_functional(gram, lam=1e12, normalize=True)
        np.testing.assert_allclose(wn, np.full(3, 1.0 / 3.0), atol=1e-9)

    def test_solves_stated_linear_system(self):
        target = standard_normal_target(2)
        for seed in range(10):
            rng = np.random.default_rng(1100 + seed)
            n = int(rng.integers(3, 25))
            pts = rng.standard_normal((n, 2))
            gram = stein_gram(target, RbfKernel(2.0), pts)
            lam = 10.0 ** rng.uniform(-8, -2)
            w = weights_control_functional(gram, lam=lam)
            system = gram.matrix + 1.0 + lam * np.eye(n)
            residual = np.max(np.abs(system @ w - 1.0))
            assert residual < 1e-8 * n


class TestControlFunctionalFromFactor:
    def seeded_gram(self, n=200):
        target = random_gaussian_mixture(6, 2, seed=3, **GMM_RANGES).as_target()
        pts = np.random.default_rng(2024).standard_normal((n, 2)) * 1.5
        return stein_gram(target, RbfKernel(1.0), pts)

    def test_default_lam_matches_dense_solve(self):
        # The system's condition number is about 4e6, so two correct solvers
        # agree to about 1e-10 of max|w|, not of each small entry.
        gram = self.seeded_gram()
        lam = 1e-8 * gram.n * gram.matrix.diagonal().max()
        assert lam == gram.ridge
        expect = np.linalg.solve(gram.matrix + 1.0 + lam * np.eye(gram.n), np.ones(gram.n))
        for normalize, ref in ((False, expect), (True, expect / expect.sum())):
            w = weights_control_functional(gram, normalize=normalize)
            assert np.max(np.abs(w - ref)) <= 1e-8 * np.max(np.abs(ref))

    def test_plain_array_matches_dense_solve(self):
        mat = self.seeded_gram(50).matrix.copy()
        gram = SteinGram(mat)
        for lam in (None, 0.0, 1e-3):
            ridge = 1e-8 * 50 * mat.diagonal().max() if lam is None else lam
            expect = np.linalg.solve(mat + 1.0 + ridge * np.eye(50), np.ones(50))
            w = weights_control_functional(gram, lam=lam)
            assert np.max(np.abs(w - expect)) <= 1e-8 * np.max(np.abs(expect))

    def test_inconsistent_system_raises_solver_error(self):
        # K + 11' is the zero matrix: no w solves 0 w = 1. K is not PSD, so
        # the Gram is set up past its validation, with no ridge solve.
        gram = SteinGram.__new__(SteinGram)
        object.__setattr__(gram, "matrix", -np.ones((2, 2)))
        object.__setattr__(gram, "scale", 1.0)
        object.__setattr__(gram, "ridge", 0.0)
        object.__setattr__(gram, "inverse_ones", None)
        with pytest.raises(SolverError, match="positive lam"):
            weights_control_functional(gram, lam=0.0)

    def test_least_squares_fallback_holds_one_system_copy(self):
        # The zero Gram has no Cholesky factor, so least squares runs on
        # K + 11' + lam I, built as one (n, n) buffer beyond the Gram.
        n = 800
        gram = SteinGram(np.zeros((n, n)))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            w = weights_control_functional(gram)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * 8 * n * n
        dense = gram.matrix + 1.0 + gram.ridge * np.eye(n)
        np.testing.assert_array_equal(w, np.linalg.lstsq(dense, np.ones(n), rcond=None)[0])

    def test_no_refactorization_eigensolve_or_lu(self, monkeypatch):
        from scipy import linalg
        from scipy.linalg import lapack

        calls = []
        potrf = lapack.dpotrf

        def counting_potrf(*args, **kwargs):
            calls.append(args[0].shape)
            return potrf(*args, **kwargs)

        def forbidden(*args, **kwargs):
            raise AssertionError("a valid Gram needs no eigensolve or LU solve")

        monkeypatch.setattr(lapack, "dpotrf", counting_potrf)
        for owner, attr in [(np.linalg, "eigvalsh"), (np.linalg, "solve"),
                            (np.linalg, "lstsq"), (linalg, "solve"),
                            (lapack, "dgesv"), (lapack, "dgetrf")]:
            monkeypatch.setattr(owner, attr, forbidden)
        gram = self.seeded_gram(120)
        weights_control_functional(gram, normalize=True)
        assert calls == [(120, 120)]

    def test_other_lam_factors_afresh_once(self, monkeypatch):
        # The Gram's own solve serves lam == gram.ridge only; any other lam
        # factors K + lam I once more, and the solve still matches.
        from scipy.linalg import lapack

        gram = self.seeded_gram(60)
        calls = []
        potrf = lapack.dpotrf

        def counting_potrf(*args, **kwargs):
            calls.append(args[0].shape)
            return potrf(*args, **kwargs)

        monkeypatch.setattr(lapack, "dpotrf", counting_potrf)
        w = weights_control_functional(gram, lam=1e-3)
        assert calls == [(60, 60)]
        expect = np.linalg.solve(gram.matrix + 1.0 + 1e-3 * np.eye(60), np.ones(60))
        assert np.max(np.abs(w - expect)) <= 1e-8 * np.max(np.abs(expect))


def system_abs_max(gram, lam):
    """max |K + 11' + lam I| over the dense system. The control-functional
    residual tolerance, 1e-8 * n * max(1, scale + 1 + lam), takes its
    scale + 1 + lam in its place."""
    return float(np.max(np.abs(gram.matrix + 1.0 + lam * np.eye(gram.n))))


class TestResidualTolerance:
    @pytest.mark.parametrize("n", [2, 50])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_bounds_system_when_largest_entry_off_diagonal(self, n, sign):
        # uu' with u = (1, sign, 1, ..., 1), then entry (0, 1) and its
        # mirror moved out by d: symmetric, PSD within the floor 1e-8 * n,
        # and its largest entry off the diagonal, the largest (sign 1) or
        # the smallest (sign -1) entry of K.
        u = np.ones(n)
        u[1] = sign
        for d in (2e-9, 1e-8):
            mat = np.outer(u, u)
            mat[0, 1] = mat[1, 0] = sign * (1.0 + d)
            gram = SteinGram(mat)
            assert gram.scale == 1.0 + d
            for lam in (0.0, 1e-9, 1e-3):
                exact = system_abs_max(gram, lam)
                assert gram.scale + 1.0 + lam >= exact
                weights_control_functional(gram, lam=lam)

    def test_equals_system_max_on_stein_gram(self):
        target = random_gaussian_mixture(6, 2, seed=3, **GMM_RANGES).as_target()
        for n, seed in ((30, 1), (200, 2)):
            pts = np.random.default_rng(seed).standard_normal((n, 2)) * 1.5
            gram = stein_gram(target, RbfKernel(1.0), pts)
            for lam in (0.0, gram.ridge, 1e-3):
                assert gram.scale + 1.0 + lam == system_abs_max(gram, lam)


class TestKdeBandwidth:
    def test_closed_form_value(self):
        # d=1, n=100, sigma=1: (2^6 Gamma(3.5) / (3 * 100))^(1/5) with
        # Gamma(3.5) = 15 sqrt(pi) / 8.
        pts = np.random.default_rng(1).standard_normal((100, 1))
        sigma = pts.std(ddof=1)
        expect = sigma * (64.0 * (15.0 * math.sqrt(math.pi) / 8.0) / 300.0) ** 0.2
        assert kde_rule_of_thumb_bandwidth(pts) == pytest.approx(expect, rel=1e-12)
        assert gamma(3.5) == pytest.approx(15.0 * math.sqrt(math.pi) / 8.0, rel=1e-14)

    def test_scaling_in_sigma(self):
        pts = np.random.default_rng(2).standard_normal((50, 2))
        assert kde_rule_of_thumb_bandwidth(2.0 * pts) == pytest.approx(
            2.0 * kde_rule_of_thumb_bandwidth(pts), rel=1e-12
        )

    def test_scaling_in_n(self):
        # Same spread, 16x the points: bandwidth shrinks by 16^(1/5) in d=1.
        rng = np.random.default_rng(3)
        small = rng.standard_normal((100, 1))
        big = np.repeat(small, 16, axis=0)
        ratio = kde_rule_of_thumb_bandwidth(small) / kde_rule_of_thumb_bandwidth(big)
        # Repeating points preserves the sample standard deviation only up
        # to the ddof correction, so compare loosely.
        assert ratio == pytest.approx(16.0 ** 0.2, rel=1e-2)


class TestKdeWeights:
    def test_symmetric_configuration_symmetric_weights(self):
        # Flat target density: the weights depend on the leave-one-out
        # estimate alone, which is mirror symmetric for {-a, 0, a}.
        from steinweights.stein import ScoreTarget

        flat = ScoreTarget(
            dimension=1,
            score=lambda pts: np.zeros_like(pts),
            log_density=lambda pts: np.zeros(pts.shape[0]),
        )
        pts = np.array([[-1.2], [0.0], [1.2]])
        w = weights_kde(flat, pts, normalize=True)
        assert w[0] == pytest.approx(w[2], rel=1e-14)

    def test_normalized_sums_to_one(self):
        mix = random_gaussian_mixture(3, 2, seed=7, **GMM_RANGES)
        pts = np.random.default_rng(4).standard_normal((40, 2))
        w = weights_kde(mix.as_target(), pts, normalize=True)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)

    def test_true_proposal_reproduces_exact_is(self):
        mix = random_gaussian_mixture(3, 2, seed=8, **GMM_RANGES)
        target = mix.as_target()
        pts = np.random.default_rng(5).standard_normal((30, 2))
        w_kde = weights_kde(
            target, pts, normalize=True, proposal_log_density=target.log_density
        )
        w_is = weights_exact_is(target, target.log_density, pts)
        np.testing.assert_array_equal(w_kde, w_is)

    def test_unnormalized_needs_normalized_density(self):
        from steinweights.targets import probit_simulate

        model = probit_simulate(n_data=10, dimension=2, seed=3, prior_variance=0.1)
        pts = np.random.default_rng(6).standard_normal((10, 2))
        with pytest.raises(UnsupportedConfigurationError):
            weights_kde(model.as_target(), pts, normalize=False)

    def test_coincident_points_degenerate(self):
        mix = random_gaussian_mixture(2, 1, seed=9, **GMM_RANGES)
        pts = np.zeros((5, 1))
        with pytest.raises((DegenerateWeightsError, ValueError)):
            weights_kde(mix.as_target(), pts, normalize=True)


def whole_matrix_loo_log_density(pts, bandwidth):
    """The leave-one-out density from one (n, n) kernel matrix."""
    n, d = pts.shape
    h2 = bandwidth * bandwidth
    kernel_vals = np.exp(-cdist(pts, pts, "sqeuclidean") / (2.0 * h2))
    np.fill_diagonal(kernel_vals, 0.0)
    sums = kernel_vals.sum(axis=1)
    return np.log(sums) - 0.5 * d * np.log(2.0 * np.pi * h2) - np.log(n)


class TestTiledLooDensity:
    @pytest.mark.parametrize("n", [2, 255, 256, 257, 513])
    def test_matches_whole_matrix_reference(self, n):
        pts = np.random.default_rng(n).standard_normal((n, 3))
        bandwidth = kde_rule_of_thumb_bandwidth(pts)
        np.testing.assert_allclose(
            _loo_log_density(pts, bandwidth),
            whole_matrix_loo_log_density(pts, bandwidth),
            rtol=1e-14,
        )

    @pytest.mark.parametrize("n", [1, 255, 256, 257, 513])
    def test_isolated_point_raises(self, n):
        # The last point is far beyond the reach of the kernel, so its
        # density underflows to zero; for n > 256 it sits in a later tile.
        pts = np.random.default_rng(n).standard_normal((n, 2))
        pts[-1] = 1e3
        with pytest.raises(DegenerateWeightsError, match="isolated point"):
            _loo_log_density(pts, 0.5)

    def test_peak_memory_below_half_a_buffer(self):
        n = 800
        pts = np.random.default_rng(2).standard_normal((n, 2))
        tracemalloc.start()
        try:
            _loo_log_density(pts, 0.4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 0.5 * 8 * n * n


class TestLooTranslation:
    @pytest.mark.parametrize("shift", [1e3, 1e4])
    def test_translation_moves_log_density_by_rounding_only(self, shift):
        pts = np.random.default_rng(6).standard_normal((513, 3))
        bandwidth = kde_rule_of_thumb_bandwidth(pts)
        moved = _loo_log_density(pts + shift, bandwidth) - _loo_log_density(pts, bandwidth)
        assert np.max(np.abs(moved)) <= 1e-11


class TestEffectiveSampleSize:
    def test_uniform_weights_full_size(self):
        assert effective_sample_size(np.full(10, 0.1)) == pytest.approx(10.0, abs=1e-12)

    def test_point_mass_is_one(self):
        w = np.zeros(8)
        w[3] = 1.0
        assert effective_sample_size(w) == pytest.approx(1.0, abs=1e-12)
