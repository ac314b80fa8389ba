"""Built-in targets: mixture moments and scores, interpolation, probit posterior."""

import math

import numpy as np
import pytest
from scipy.special import erfcx, log_ndtr

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
from support import GMM_RANGES, central_difference


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
            mix = random_gaussian_mixture(3, 2, seed=seed, **GMM_RANGES)
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
        assert mom.cosine(omega, 0.3) == pytest.approx(expect, abs=1e-12)

    def test_two_component_moments(self):
        mom = two_sided_mixture(mu=1.0, var=0.01).moments()
        np.testing.assert_allclose(mom.mean, [0.0], atol=1e-15)
        np.testing.assert_allclose(mom.second_moment, [1.01], atol=1e-15)

    def test_moments_match_monte_carlo(self):
        mix = random_gaussian_mixture(4, 2, seed=11, **GMM_RANGES)
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
        assert abs(vals.mean() - mom.cosine(omega, 0.5)) < 4 * se3


class TestGaussianityInterpolation:
    def test_lambda_zero_is_same_object(self):
        mix = random_gaussian_mixture(3, 2, seed=0, **GMM_RANGES)
        assert gaussianity_interpolation(mix, 0.0) is mix

    def test_lambda_one_is_standard_normal(self):
        mix = random_gaussian_mixture(5, 2, seed=1, **GMM_RANGES)
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
        mix = random_gaussian_mixture(2, 1, seed=2, **GMM_RANGES)
        with pytest.raises(ValueError):
            gaussianity_interpolation(mix, 1.5)


class TestRandomMixture:
    def test_seed_determinism(self):
        a = random_gaussian_mixture(6, 3, seed=42, **GMM_RANGES)
        b = random_gaussian_mixture(6, 3, seed=42, **GMM_RANGES)
        np.testing.assert_array_equal(a.weights, b.weights)
        np.testing.assert_array_equal(a.means, b.means)
        np.testing.assert_array_equal(a.variances, b.variances)

    def test_ranges_respected(self):
        mix = random_gaussian_mixture(
            20, 2, seed=5, mean_range=(-3.0, 3.0), variance_range=(0.3, 1.0))
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
        model = probit_simulate(n_data=20, dimension=3, seed=9, prior_variance=0.1)
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

    def test_log_phi_terms_match_log_ndtr(self):
        # One observation whose signed latent value at point t is t; erfcx
        # overflows above 37.6, and t = -40 and 40 are included. The prior
        # variance is so wide that the prior term, below 1e-296, leaves
        # each log-density equal to its one log-likelihood term.
        t = np.concatenate((np.linspace(-40.0, 40.0, 160_001),
                            np.random.default_rng(3).uniform(-40.0, 40.0, 100_000)))
        for label, sign in ((1, 1.0), (0, -1.0)):
            model = ProbitModel(features=np.array([[sign]]), labels=np.array([label]),
                                prior_variance=1e300)
            term, _ = model.log_density_and_score(t[:, None])
            np.testing.assert_array_equal(term, model.log_density(t[:, None]))
            ref = log_ndtr(t)
            assert np.all(np.isfinite(term)) and np.all(term <= 0.0)
            np.testing.assert_allclose(term, ref, rtol=0.0, atol=1e-12)
            low = t <= 0.0
            np.testing.assert_allclose(term[low], ref[low], rtol=1e-14, atol=0.0)
        # Past |s| = 1.3e154, s^2 / 2 overflows too; the terms keep log_ndtr's limits.
        wide = ProbitModel(features=np.array([[1e155]]), labels=np.array([1]),
                           prior_variance=1e300)
        x = np.array([-10.0, 10.0])
        with np.errstate(over="ignore", invalid="ignore"):
            got = wide.log_density(x[:, None])
        np.testing.assert_array_equal(got, log_ndtr(1e155 * x) - 0.5 * x * x / 1e300)

    def test_labels_validated(self):
        with pytest.raises(ValueError):
            ProbitModel(
                features=np.ones((1, 1)),
                labels=np.array([2]),
                prior_variance=0.1,
            )


def mills_ratio(t):
    """phi(t) / Phi(t) through the scaled complementary error function."""
    return np.sqrt(2.0 / np.pi) / erfcx(-t / np.sqrt(2.0))


def both_sign_coefficients(model, t):
    """Per-observation d/dt log-likelihood, evaluated at both signs then selected."""
    pos = model.labels[None, :] == 1
    return np.where(pos, mills_ratio(t), -mills_ratio(-t))


def full_data_minibatch_score(model, pts, idx):
    """Minibatch data score gathered from coefficients over all N observations."""
    coef = both_sign_coefficients(model, pts @ model.features.T)
    coef = np.take_along_axis(coef, idx, axis=1)
    return np.einsum("cm,cmd->cd", coef, model.features[idx])


class TestProbitSingleSign:
    def setup_method(self):
        self.model = probit_simulate(n_data=60, dimension=4, seed=21, prior_variance=0.1)
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
        # log Phi(s) at the signed latent s, from the erfcx that also gives
        # the Mills ratio; test_log_phi_terms_match_log_ndtr bounds its error.
        s = np.where(model.labels[None, :] == 1, t, -t)
        loglik = np.minimum(np.log(erfcx(-s / np.sqrt(2.0)) / 2) - s * s / 2, 0.0)
        log_density = np.sum(loglik, axis=1) - 0.5 * np.sum(pts * pts, axis=1) / prior_var
        np.testing.assert_array_equal(model.score(pts), score)
        np.testing.assert_array_equal(model.log_density(pts), log_density)

    def test_joint_call_bit_identical_to_separate_calls(self):
        log_density, score = self.model.log_density_and_score(self.pts)
        np.testing.assert_array_equal(score, self.model.score(self.pts))
        np.testing.assert_array_equal(log_density, self.model.log_density(self.pts))

    def test_minibatch_evaluates_only_gathered_entries(self, monkeypatch):
        sizes = []

        def recording(x, **kwargs):
            sizes.append(np.size(x))
            return erfcx(x, **kwargs)

        monkeypatch.setattr(targets, "erfcx", recording)
        m = 5
        self.model.data_score_minibatch(self.pts, self.batches(m))
        assert sum(sizes) == len(self.pts) * m


class TestProbitSimulate:
    def test_seed_determinism(self):
        a = probit_simulate(n_data=30, dimension=4, seed=3, prior_variance=0.1)
        b = probit_simulate(n_data=30, dimension=4, seed=3, prior_variance=0.1)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(a.true_coefficients, b.true_coefficients)

    def test_zero_coefficients_balanced_labels(self):
        model = probit_simulate(
            n_data=10_000, dimension=2, seed=8, coefficients=np.zeros(2), prior_variance=0.1
        )
        rate = model.labels.mean()
        sigma = math.sqrt(0.25 / 10_000)
        assert abs(rate - 0.5) < 4 * sigma

    def test_dataset_round_trip(self, tmp_path):
        model = probit_simulate(n_data=25, dimension=3, seed=12, prior_variance=0.1)
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


class TestMixtureLogSumExp:
    def test_equals_scipy_with_ties_and_infinities(self):
        from scipy.special import logsumexp

        rng = np.random.default_rng(17)
        for _ in range(500):
            rows, cols = int(rng.integers(1, 6)), int(rng.integers(1, 12))
            a = rng.standard_normal((rows, cols)) * rng.choice([1e-3, 1.0, 30.0, 800.0])
            if rng.random() < 0.5:
                a = np.round(a, 1)  # ties at the row maximum
            if rng.random() < 0.3:
                a[rng.random((rows, cols)) < 0.3] = -np.inf
            np.testing.assert_array_equal(
                targets._logsumexp_rows(a), logsumexp(a, axis=1, keepdims=True)
            )

    def test_all_minus_inf_rows_equal_scipy(self):
        from scipy.special import logsumexp

        a = np.array([[-np.inf, -np.inf, -np.inf], [0.5, -np.inf, 0.5], [-np.inf] * 3])
        out = targets._logsumexp_rows(a)
        np.testing.assert_array_equal(out, logsumexp(a, axis=1, keepdims=True))
        assert out[0, 0] == -np.inf and out[2, 0] == -np.inf

    def test_mixture_calls_equal_scipy_path(self):
        from scipy.special import logsumexp

        mix = random_gaussian_mixture(7, 3, seed=4, **GMM_RANGES)
        pts = np.random.default_rng(5).standard_normal((40, 3)) * 3.0
        comp = mix._component_log_densities(pts) + np.log(mix.weights)[None, :]
        np.testing.assert_array_equal(mix.log_density(pts), logsumexp(comp, axis=1))
        resp = np.exp(comp - logsumexp(comp, axis=1, keepdims=True))
        pull = (mix.means[None, :, :] - pts[:, None, :]) / mix.variances[None, :, None]
        np.testing.assert_array_equal(mix.score(pts), np.einsum("nj,njd->nd", resp, pull))
