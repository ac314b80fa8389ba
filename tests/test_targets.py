"""Built-in targets: mixture moments and scores, interpolation, probit posterior."""

import math

import numpy as np
import pytest
from scipy.special import log_ndtr

from steinweights import targets
from steinweights.targets import (
    GaussianMixture,
    ProbitModel,
    gaussianity_interpolation,
    probit_simulate,
    random_gaussian_mixture,
    read_probit_dataset,
    standard_normal_target,
    write_probit_dataset,
)
from support import central_difference


def two_sided_mixture(mu=1.0, var=0.01):
    return GaussianMixture(
        weights=np.array([0.5, 0.5]),
        means=np.array([[-mu], [mu]]),
        variances=np.array([var, var]),
    )


class TestMixtureBasics:
    def test_single_component_score_is_gaussian(self):
        mix = GaussianMixture(
            weights=np.array([1.0]),
            means=np.array([[2.0, -1.0]]),
            variances=np.array([4.0]),
        )
        pts = np.array([[3.0, 0.0]])
        np.testing.assert_allclose(mix.score(pts), [[-0.25, -0.25]], atol=1e-12)

    def test_symmetric_mixture_score_vanishes_at_origin(self):
        mix = two_sided_mixture(mu=1.3, var=0.5)
        np.testing.assert_allclose(mix.score(np.array([[0.0]])), [[0.0]], atol=1e-12)

    def test_score_matches_finite_differences(self):
        for seed in range(10):
            mix = random_gaussian_mixture(3, 2, seed=seed)
            rng = np.random.default_rng(1000 + seed)
            for _ in range(10):
                x = rng.uniform(-5, 5, size=2)
                fd = central_difference(
                    lambda z: mix.log_density(z[None, :])[0], x
                )
                np.testing.assert_allclose(mix.score(x[None, :])[0], fd, atol=1e-5)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            GaussianMixture(
                weights=np.array([0.6, 0.6]),
                means=np.zeros((2, 1)),
                variances=np.ones(2),
            )

    def test_variances_must_be_positive(self):
        with pytest.raises(ValueError):
            GaussianMixture(
                weights=np.array([1.0]),
                means=np.zeros((1, 1)),
                variances=np.array([0.0]),
            )


class TestMixtureMoments:
    def test_standard_normal_moments(self):
        mix = GaussianMixture(
            weights=np.array([1.0]), means=np.zeros((1, 1)), variances=np.array([1.0])
        )
        mom = mix.moments()
        np.testing.assert_allclose(mom.mean, [0.0], atol=1e-15)
        np.testing.assert_allclose(mom.second_moment, [1.0], atol=1e-15)
        omega = np.array([0.7])
        expect = math.exp(-0.49 / 2.0) * math.cos(0.3)
        assert mom.cosine_expectation(omega, 0.3) == pytest.approx(expect, abs=1e-12)

    def test_two_component_moments(self):
        mom = two_sided_mixture(mu=1.0, var=0.01).moments()
        np.testing.assert_allclose(mom.mean, [0.0], atol=1e-15)
        np.testing.assert_allclose(mom.second_moment, [1.01], atol=1e-15)

    def test_moments_match_monte_carlo(self):
        mix = random_gaussian_mixture(4, 2, seed=11)
        mom = mix.moments()
        rng = np.random.default_rng(99)
        n = 1_000_000
        comp = rng.choice(mix.weights.size, size=n, p=mix.weights)
        draws = mix.means[comp] + np.sqrt(mix.variances[comp])[:, None] * rng.standard_normal((n, 2))
        for axis in range(2):
            se = draws[:, axis].std() / math.sqrt(n)
            assert abs(draws[:, axis].mean() - mom.mean[axis]) < 4 * se
            sq = draws[:, axis] ** 2
            se2 = sq.std() / math.sqrt(n)
            assert abs(sq.mean() - mom.second_moment[axis]) < 4 * se2
        omega = np.array([0.4, -0.2])
        vals = np.cos(draws @ omega + 0.5)
        se3 = vals.std() / math.sqrt(n)
        assert abs(vals.mean() - mom.cosine_expectation(omega, 0.5)) < 4 * se3


class TestGaussianityInterpolation:
    def test_lambda_zero_is_same_object(self):
        mix = random_gaussian_mixture(3, 2, seed=0)
        assert gaussianity_interpolation(mix, 0.0) is mix

    def test_lambda_one_is_standard_normal(self):
        mix = random_gaussian_mixture(5, 2, seed=1)
        out = gaussianity_interpolation(mix, 1.0)
        np.testing.assert_array_equal(out.means, np.zeros_like(out.means))
        np.testing.assert_array_equal(out.variances, np.ones_like(out.variances))
        mom = out.moments()
        np.testing.assert_allclose(mom.mean, np.zeros(2), atol=1e-15)
        np.testing.assert_allclose(mom.second_moment, np.ones(2), atol=1e-15)

    def test_halfway_component_algebra(self):
        mix = GaussianMixture(
            weights=np.array([1.0]), means=np.array([[2.0]]), variances=np.array([1.0])
        )
        out = gaussianity_interpolation(mix, 0.5)
        np.testing.assert_allclose(out.means, [[1.0]], atol=1e-15)
        np.testing.assert_allclose(out.variances, [0.5], atol=1e-15)

    def test_rejects_out_of_range(self):
        mix = random_gaussian_mixture(2, 1, seed=2)
        with pytest.raises(ValueError):
            gaussianity_interpolation(mix, 1.5)


class TestRandomMixture:
    def test_seed_determinism(self):
        a = random_gaussian_mixture(6, 3, seed=42)
        b = random_gaussian_mixture(6, 3, seed=42)
        np.testing.assert_array_equal(a.weights, b.weights)
        np.testing.assert_array_equal(a.means, b.means)
        np.testing.assert_array_equal(a.variances, b.variances)

    def test_ranges_respected(self):
        mix = random_gaussian_mixture(20, 2, seed=5, mean_range=(-3.0, 3.0))
        assert mix.means.min() >= -3.0 and mix.means.max() <= 3.0
        assert mix.variances.min() >= 0.3 and mix.variances.max() <= 1.0
        assert mix.weights.sum() == pytest.approx(1.0, abs=1e-12)


class TestProbitModel:
    def test_prior_only_score(self):
        model = ProbitModel(
            features=np.zeros((0, 3)),
            labels=np.zeros(0, dtype=int),
            prior_variance=0.1,
        )
        x = np.array([[1.0, 0.0, 0.0]])
        np.testing.assert_allclose(model.score(x), [[-10.0, 0.0, 0.0]], atol=1e-12)

    def test_single_observation_mills_ratio(self):
        model = ProbitModel(
            features=np.array([[1.0, 0.0]]),
            labels=np.array([1]),
            prior_variance=0.1,
        )
        x = np.zeros((1, 2))
        expect = math.sqrt(2.0 / math.pi)
        np.testing.assert_allclose(model.score(x), [[expect, 0.0]], atol=1e-10)

    def test_score_matches_finite_differences(self):
        model = probit_simulate(n_data=20, dimension=3, seed=9)
        rng = np.random.default_rng(17)
        for _ in range(20):
            x = rng.standard_normal(3) * 0.5
            fd = central_difference(lambda z: model.log_density(z[None, :])[0], x)
            np.testing.assert_allclose(model.score(x[None, :])[0], fd, atol=1e-5)

    def test_deep_tail_is_finite_and_asymptotic(self):
        # One observation with chi = e1; stress t = x'chi = -40 where the
        # naive ratio phi/Phi is 0/0. Asymptotics: phi/Phi(t) ~ -t - 1/t + 2/t^3.
        model = ProbitModel(
            features=np.array([[1.0]]),
            labels=np.array([1]),
            prior_variance=1.0,
        )
        t = -40.0
        score = model.score(np.array([[t]]))[0, 0]
        assert np.isfinite(score)
        mills = score - (-t / 1.0)
        expect = -t - 1.0 / t + 2.0 / t**3
        assert mills == pytest.approx(expect, rel=1e-6)
        # The opposite label at +40 mirrors to the tiny tail of the other side.
        model_neg = ProbitModel(
            features=np.array([[1.0]]),
            labels=np.array([0]),
            prior_variance=1.0,
        )
        score_neg = model_neg.score(np.array([[-t]]))[0, 0]
        assert np.isfinite(score_neg)
        assert score_neg == pytest.approx(-score, rel=1e-6)

    def test_labels_validated(self):
        with pytest.raises(ValueError):
            ProbitModel(
                features=np.ones((1, 1)),
                labels=np.array([2]),
                prior_variance=0.1,
            )


def both_sign_coefficients(model, t):
    """Per-observation d/dt log-likelihood, evaluated at both signs then selected."""
    pos = model.labels[None, :] == 1
    return np.where(pos, targets._mills_ratio(t), -targets._mills_ratio(-t))


def full_data_minibatch_score(model, pts, idx):
    """Minibatch data score gathered from coefficients over all N observations."""
    coef = both_sign_coefficients(model, pts @ model.features.T)
    coef = np.take_along_axis(coef, idx, axis=1)
    return np.einsum("cm,cmd->cd", coef, model.features[idx])


class TestProbitSingleSign:
    def setup_method(self):
        self.model = probit_simulate(n_data=60, dimension=4, seed=21)
        # Wide enough to reach both Mills-ratio tails for either label.
        self.pts = np.random.default_rng(5).standard_normal((7, 4)) * 3.0

    def batches(self, m, seed=8):
        rng = np.random.default_rng(seed)
        n = self.model.n_data
        return np.stack([rng.choice(n, size=m, replace=False) for _ in self.pts])

    @pytest.mark.parametrize("m", [5, 60])
    def test_minibatch_matches_full_data_gather(self, m):
        idx = self.batches(m)
        np.testing.assert_allclose(
            self.model.data_score_minibatch(self.pts, idx),
            full_data_minibatch_score(self.model, self.pts, idx),
            rtol=1e-12,
        )

    def test_full_batch_sums_to_data_score(self):
        idx = np.tile(np.arange(self.model.n_data), (len(self.pts), 1))
        data_score = self.model.score(self.pts) - self.model.prior_score(self.pts)
        np.testing.assert_allclose(
            self.model.data_score_minibatch(self.pts, idx), data_score,
            rtol=1e-12, atol=1e-12 * np.max(np.abs(data_score)),
        )

    def test_score_and_log_density_bit_identical_to_both_sign_formulas(self):
        model, pts = self.model, self.pts
        t = pts @ model.features.T
        prior_var = model.prior_variance
        score = both_sign_coefficients(model, t) @ model.features - pts / prior_var
        loglik = np.where(model.labels[None, :] == 1, log_ndtr(t), log_ndtr(-t))
        log_density = np.sum(loglik, axis=1) - 0.5 * np.sum(pts * pts, axis=1) / prior_var
        np.testing.assert_array_equal(model.score(pts), score)
        np.testing.assert_array_equal(model.log_density(pts), log_density)

    def test_minibatch_evaluates_only_gathered_entries(self, monkeypatch):
        sizes = []
        mills = targets._mills_ratio

        def recording(t):
            sizes.append(np.size(t))
            return mills(t)

        monkeypatch.setattr(targets, "_mills_ratio", recording)
        m = 5
        self.model.data_score_minibatch(self.pts, self.batches(m))
        assert sum(sizes) == len(self.pts) * m


class TestProbitSimulate:
    def test_seed_determinism(self):
        a = probit_simulate(n_data=30, dimension=4, seed=3)
        b = probit_simulate(n_data=30, dimension=4, seed=3)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(a.true_coefficients, b.true_coefficients)

    def test_zero_coefficients_balanced_labels(self):
        model = probit_simulate(
            n_data=10_000, dimension=2, seed=8, coefficients=np.zeros(2)
        )
        rate = model.labels.mean()
        sigma = math.sqrt(0.25 / 10_000)
        assert abs(rate - 0.5) < 4 * sigma

    def test_dataset_round_trip(self, tmp_path):
        model = probit_simulate(n_data=25, dimension=3, seed=12)
        path = tmp_path / "probit.csv"
        write_probit_dataset(str(path), model)
        clone = read_probit_dataset(str(path), prior_variance=model.prior_variance)
        np.testing.assert_allclose(clone.features, model.features, atol=1e-12)
        np.testing.assert_array_equal(clone.labels, model.labels)


class TestStandardNormalTarget:
    def test_score_and_density(self):
        target = standard_normal_target(2)
        pts = np.array([[1.0, -2.0]])
        np.testing.assert_allclose(target.score(pts), [[-1.0, 2.0]], atol=1e-15)
        expect = -0.5 * 5.0 - math.log(2.0 * math.pi)
        assert target.log_density(pts)[0] == pytest.approx(expect, abs=1e-12)
