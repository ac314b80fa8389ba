"""Point generators: i.i.d. mixture draws, MALA chains, SGLD chains."""

import math
import re
import warnings

import numpy as np
import pytest

from steinweights.errors import NonFinitePointsError
from steinweights.samplers import (
    ChainConfig,
    mala_chain_moments,
    mala_chains,
    mala_log_acceptance,
    sample_gmm_iid,
    sgld_chains,
    tune_mala_step,
)
from steinweights.targets import probit_simulate, random_gaussian_mixture, standard_normal_target


class TestChainConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ChainConfig(n_chains=0, n_steps=1, step_size=0.1)
        with pytest.raises(ValueError):
            ChainConfig(n_chains=1, n_steps=-1, step_size=0.1)
        with pytest.raises(ValueError):
            ChainConfig(n_chains=1, n_steps=1, step_size=-0.5)
        with pytest.raises(ValueError):
            ChainConfig(n_chains=1, n_steps=1, step_size=0.1, init_scale=-1.0)


class TestIidSampling:
    def test_seed_determinism(self):
        mix = random_gaussian_mixture(3, 2, seed=4)
        a = sample_gmm_iid(mix, 50, np.random.default_rng(9))
        b = sample_gmm_iid(mix, 50, np.random.default_rng(9))
        np.testing.assert_array_equal(a, b)

    def test_tight_component_concentrates_on_mean(self):
        mix = random_gaussian_mixture(1, 2, seed=0, variance_range=(1e-4, 1e-4 + 1e-12))
        pts = sample_gmm_iid(mix, 100_000, np.random.default_rng(3))
        for axis in range(2):
            se = 4.0 * math.sqrt(1e-4) / math.sqrt(100_000)
            assert abs(pts[:, axis].mean() - mix.means[0, axis]) < 4 * se + 1e-6

    def test_second_moment_matches_oracle(self):
        mix = random_gaussian_mixture(4, 2, seed=21)
        mom = mix.moments()
        pts = sample_gmm_iid(mix, 100_000, np.random.default_rng(5))
        for axis in range(2):
            sq = pts[:, axis] ** 2
            se = sq.std() / math.sqrt(sq.size)
            assert abs(sq.mean() - mom.second_moment[axis]) < 4 * se


class TestMalaChains:
    def test_zero_steps_returns_scaled_inits(self):
        target = standard_normal_target(3)
        cfg = ChainConfig(n_chains=5, n_steps=0, step_size=0.5, init_scale=2.5, seed=31)
        pts = mala_chains(target, cfg)
        cfg_unit = ChainConfig(n_chains=5, n_steps=0, step_size=0.5, init_scale=1.0, seed=31)
        unit = mala_chains(target, cfg_unit)
        np.testing.assert_allclose(pts, 2.5 * unit, atol=1e-12)

    def test_seeded_determinism(self):
        target = standard_normal_target(2)
        cfg = ChainConfig(n_chains=4, n_steps=25, step_size=0.3, seed=8)
        np.testing.assert_array_equal(mala_chains(target, cfg), mala_chains(target, cfg))

    def test_chain_prefix_stable_under_more_chains(self):
        # Chain c draws from its own spawned stream, so adding chains must
        # not disturb the earlier ones.
        target = standard_normal_target(2)
        small = ChainConfig(n_chains=3, n_steps=10, step_size=0.4, seed=5)
        big = ChainConfig(n_chains=8, n_steps=10, step_size=0.4, seed=5)
        np.testing.assert_array_equal(
            mala_chains(target, small), mala_chains(target, big)[:3]
        )

    def test_degenerate_proposal_accepts(self):
        # At a mode the drift vanishes; with zero noise the proposal equals
        # the current point and the acceptance probability is exactly one.
        target = standard_normal_target(1)
        current = np.zeros((1, 1))
        log_alpha = mala_log_acceptance(target, current, current, 0.5)
        assert log_alpha[0] == 0.0

    @pytest.mark.slow
    def test_long_run_equilibrium_variance(self):
        target = standard_normal_target(1)
        out = mala_chain_moments(
            target, n_draws=100_000, burn_in=1_000, step_size=0.5, seed=77
        )
        var = out["second_moment"][0] - out["mean"][0] ** 2
        assert abs(var - 1.0) < 0.05
        assert out["acceptance_rate"] > 0.2


class TestSgldChains:
    def test_zero_step_size_returns_inits(self):
        # With eps = 0 both the drift and the injected noise vanish, so the
        # chains sit at their initial draws for any number of steps.
        model = probit_simulate(n_data=40, dimension=3, seed=2)
        cfg = ChainConfig(
            n_chains=6, n_steps=20, step_size=0.0, minibatch_size=10, seed=13
        )
        pts = sgld_chains(model, cfg)
        from numpy.random import SeedSequence, default_rng

        inits = np.empty((6, 3))
        for c in range(6):
            rng = default_rng(SeedSequence(entropy=13, spawn_key=(c,)))
            inits[c] = cfg.init_scale * rng.standard_normal(3)
        np.testing.assert_array_equal(pts, inits)

    def test_full_batch_matches_manual_langevin(self):
        model = probit_simulate(n_data=15, dimension=2, seed=6)
        cfg = ChainConfig(
            n_chains=3, n_steps=8, step_size=0.01, minibatch_size=15, seed=19
        )
        pts = sgld_chains(model, cfg)

        # Replay the documented draw order per chain: init, then per step
        # d noise normals followed by the minibatch choice.
        from numpy.random import SeedSequence, default_rng

        replay = np.empty((3, 2))
        for c in range(3):
            rng = default_rng(SeedSequence(entropy=19, spawn_key=(c,)))
            x = cfg.init_scale * rng.standard_normal(2)
            noises = []
            for _ in range(8):
                noises.append(rng.standard_normal(2))
                rng.choice(15, size=15, replace=False)
            for step in range(8):
                drift = model.prior_score(x[None, :])[0] + model.score(
                    x[None, :]
                )[0] - model.prior_score(x[None, :])[0]
                x = x + 0.5 * 0.01 * drift + math.sqrt(0.01) * noises[step]
            replay[c] = x
        np.testing.assert_allclose(pts, replay, atol=1e-10)

    def test_minibatch_larger_than_data_rejected(self):
        model = probit_simulate(n_data=10, dimension=2, seed=1)
        cfg = ChainConfig(
            n_chains=2, n_steps=5, step_size=0.01, minibatch_size=11, seed=3
        )
        with pytest.raises(ValueError):
            sgld_chains(model, cfg)

    def test_missing_minibatch_rejected(self):
        model = probit_simulate(n_data=10, dimension=2, seed=1)
        cfg = ChainConfig(n_chains=2, n_steps=5, step_size=0.01, seed=3)
        with pytest.raises(ValueError):
            sgld_chains(model, cfg)

    def test_seeded_determinism(self):
        model = probit_simulate(n_data=30, dimension=4, seed=14)
        cfg = ChainConfig(
            n_chains=5, n_steps=15, step_size=0.02, minibatch_size=10, seed=23
        )
        np.testing.assert_array_equal(sgld_chains(model, cfg), sgld_chains(model, cfg))


class CountingModel:
    """Delegates to a model and counts its minibatch score calls."""

    def __init__(self, model):
        self.model = model
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self.model, name)

    def data_score_minibatch(self, points, batch_indices):
        self.calls += 1
        return self.model.data_score_minibatch(points, batch_indices)


class TestSgldDivergence:
    def config(self, n_steps):
        return ChainConfig(
            n_chains=20, n_steps=n_steps, step_size=1e3, minibatch_size=50, seed=5
        )

    def test_stops_at_first_non_finite_step(self):
        model = CountingModel(probit_simulate(n_data=50, dimension=3, seed=42))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFinitePointsError) as info:
                sgld_chains(model, self.config(100))
        found = re.search(r"chain (\d+) became non-finite at step (\d+) of 100",
                          str(info.value))
        assert found
        step = int(found.group(2))
        assert model.calls == step < 100
        # One step fewer leaves every chain finite.
        assert np.all(np.isfinite(sgld_chains(model.model, self.config(step - 1))))


class TestStepTuning:
    def test_returns_positive_step_near_target_rate(self):
        target = standard_normal_target(2)
        eps, state = tune_mala_step(target, seed=3)
        assert eps > 0.0
        out = mala_chain_moments(
            target, n_draws=5_000, burn_in=500, step_size=eps, seed=4, init=state
        )
        assert 0.3 < out["acceptance_rate"] < 0.8
