"""Point generators: i.i.d. mixture draws, MALA chains, SGLD chains."""

import math
import re
import warnings

import numpy as np
import pytest

from support import frozen_many_chain_moments, reference_mala_chains
from steinweights.errors import NonFinitePointsError
from steinweights.samplers import (
    ChainConfig,
    mala_chain_moments,
    mala_chains,
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

    def test_zero_step_size_stays_at_inits(self):
        # With eps = 0 the proposal equals the current point, its acceptance
        # ratio is exactly one, and every chain keeps its initial draw.
        target = standard_normal_target(2)
        moved = ChainConfig(n_chains=4, n_steps=15, step_size=0.0, seed=12)
        still = ChainConfig(n_chains=4, n_steps=0, step_size=0.0, seed=12)
        np.testing.assert_array_equal(mala_chains(target, moved), mala_chains(target, still))

    def test_zero_step_size_accepts_every_proposal(self):
        target = standard_normal_target(2)
        out = mala_chain_moments(target, n_draws=200, burn_in=20, step_size=0.0, seed=3)
        assert out["acceptance_rate"] == 1.0

    def test_long_run_equilibrium_variance(self):
        target = standard_normal_target(1)
        out = mala_chain_moments(
            target, n_draws=100_000, burn_in=1_000, step_size=0.5, seed=77
        )
        var = out["second_moment"][0] - out["mean"][0] ** 2
        assert abs(var - 1.0) < 0.05
        assert out["acceptance_rate"] > 0.2


class TestMalaReference:
    """The package's MALA chains against the loops in tests/support.py."""

    PROBIT = probit_simulate(n_data=100, dimension=10, seed=42).as_target()
    MIXTURE = random_gaussian_mixture(4, 3, seed=9).as_target()

    @pytest.mark.parametrize(
        "target, step_size, init",
        [
            (PROBIT, 0.01, None),  # accepts about 70% of proposals
            (MIXTURE, 0.4, np.array([0.5, -1.0, 2.0])),
            (PROBIT, 0.0, None),
        ],
        ids=["probit", "mixture", "zero_step"],
    )
    def test_oracle_matches_frozen_loop(self, target, step_size, init):
        args = dict(n_draws=10_000, burn_in=1_000, step_size=step_size, seed=17,
                    init=init, store_every=7)
        got = mala_chain_moments(target, **args)
        want = frozen_many_chain_moments(target, **args)
        assert got.keys() == want.keys()
        for key in want:
            np.testing.assert_array_equal(got[key], want[key], err_msg=key)
        assert 0.0 < got["acceptance_rate"] < 1.0 or step_size == 0.0

    @pytest.mark.parametrize(
        "target, n_chains, step_size",
        [
            (MIXTURE, 6, 0.4),
            # One chain: a probit row's log-density and score round
            # differently in a batch of one than in a batch of six.
            (PROBIT, 1, 0.01),
            (MIXTURE, 6, 0.0),
        ],
        ids=["mixture", "probit", "zero_step"],
    )
    def test_chains_match_per_chain_reference(self, target, n_chains, step_size):
        cfg = ChainConfig(n_chains=n_chains, n_steps=300, step_size=step_size,
                          init_scale=1.5, seed=21)
        np.testing.assert_array_equal(mala_chains(target, cfg), reference_mala_chains(target, cfg))


class HalfPlaneTarget:
    """Flat on x_0 <= 0, zero density above, with a zero score.

    A MALA proposal is then accepted exactly when its first coordinate is
    <= 0. The target records every batch it is asked for, so a test can
    replay the chains: the first batch holds the starting rows, and each
    later one the proposals of one step.
    """

    dimension = 2

    def __init__(self):
        self.batches = []

    def log_density(self, points):
        self.batches.append(np.array(points))
        return np.where(points[:, 0] <= 0.0, 0.0, -np.inf)

    def score(self, points):
        return np.zeros_like(points)

    def replay(self):
        """The accept mask and the states after each step, (steps, C) and (steps, C, d)."""
        state = self.batches[0]
        accepts, states = [], []
        for proposal in self.batches[1:]:
            accept = proposal[:, 0] <= 0.0
            state = np.where(accept[:, None], proposal, state)
            accepts.append(accept)
            states.append(state)
        return np.array(accepts), np.array(states)


class TestMalaOracleAccounting:
    """Rows, not steps: C = min(64, n_draws) chains share n_draws and burn_in."""

    @pytest.mark.parametrize("burn_in", [0, 1, 100])
    @pytest.mark.parametrize(
        "n_draws, chains, kept_steps",
        [(1, 1, 1), (63, 63, 1), (64, 64, 1), (65, 64, 2), (500, 64, 8)],
    )
    def test_rows_kept_burnt_thinned_and_counted(self, n_draws, chains, kept_steps, burn_in):
        burn_steps = math.ceil(burn_in / chains)
        outs = {}
        for store_every in (1, 7):
            target = HalfPlaneTarget()
            outs[store_every] = mala_chain_moments(
                target, n_draws=n_draws, burn_in=burn_in, step_size=0.5, seed=5,
                init=np.array([-0.5, 0.25]), store_every=store_every,
            )
            assert [len(b) for b in target.batches] == [chains] * (1 + burn_steps + kept_steps)
            np.testing.assert_array_equal(target.batches[0], [[-0.5, 0.25]] * chains)
        # Thinning does not touch the chains, so one replay serves both calls.
        accepts, states = target.replay()
        kept = states[burn_steps:].reshape(-1, 2)  # step-major, chain-minor
        assert len(kept) == chains * kept_steps
        np.testing.assert_array_equal(outs[1]["thinned"], kept)
        np.testing.assert_array_equal(outs[7]["thinned"], kept[6::7])
        assert len(outs[7]["thinned"]) == chains * kept_steps // 7
        out = outs[7]
        np.testing.assert_allclose(out["mean"], kept.mean(axis=0), rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(
            out["second_moment"], (kept * kept).mean(axis=0), rtol=1e-12, atol=1e-15)
        assert out["acceptance_rate"] == accepts.sum() / (chains * (burn_steps + kept_steps))
        np.testing.assert_array_equal(out["final_state"], states[-1, 0])

    def test_zero_draws_rejected(self):
        with pytest.raises(ValueError, match="n_draws"):
            mala_chain_moments(standard_normal_target(2), n_draws=0, burn_in=10,
                               step_size=0.1, seed=1)


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
