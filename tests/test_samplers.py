"""Point generators: i.i.d. mixture draws, MALA chains, SGLD chains."""

import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from support import (
    GMM_RANGES,
    frozen_many_chain_moments,
    frozen_sgld_chains,
    frozen_sgld_minibatches,
    reference_mala_chains,
)
from steinweights import samplers, targets
from steinweights.errors import NonFinitePointsError
from steinweights.samplers import (
    ChainConfig,
    _sgld_draws,
    mala_chain_moments,
    mala_chains,
    sample_gmm_iid,
    sgld_chains,
    tune_mala_step,
)
from steinweights.stein import ScoreTarget
from steinweights.targets import probit_simulate, random_gaussian_mixture, standard_normal_target


class TestChainConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ChainConfig(n_chains=0, n_steps=1, step_size=0.1, init_scale=1.0)
        with pytest.raises(ValueError):
            ChainConfig(n_chains=1, n_steps=-1, step_size=0.1, init_scale=1.0)
        with pytest.raises(ValueError):
            ChainConfig(n_chains=1, n_steps=1, step_size=-0.5, init_scale=1.0)
        with pytest.raises(ValueError):
            ChainConfig(n_chains=1, n_steps=1, step_size=0.1, init_scale=-1.0)


class TestIidSampling:
    def test_seed_determinism(self):
        mix = random_gaussian_mixture(3, 2, seed=4, **GMM_RANGES)
        a = sample_gmm_iid(mix, 50, np.random.default_rng(9))
        b = sample_gmm_iid(mix, 50, np.random.default_rng(9))
        np.testing.assert_array_equal(a, b)

    def test_tight_component_concentrates_on_mean(self):
        mix = random_gaussian_mixture(
            1, 2, seed=0, mean_range=(-5.0, 5.0), variance_range=(1e-4, 1e-4 + 1e-12))
        pts = sample_gmm_iid(mix, 100_000, np.random.default_rng(3))
        for axis in range(2):
            se = 4.0 * math.sqrt(1e-4) / math.sqrt(100_000)
            assert abs(pts[:, axis].mean() - mix.means[0, axis]) < 4 * se + 1e-6

    def test_second_moment_matches_oracle(self):
        mix = random_gaussian_mixture(4, 2, seed=21, **GMM_RANGES)
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
        cfg = ChainConfig(n_chains=4, n_steps=25, step_size=0.3, seed=8, init_scale=1.0)
        np.testing.assert_array_equal(mala_chains(target, cfg), mala_chains(target, cfg))

    def test_chain_prefix_stable_under_more_chains(self):
        # Chain c draws from its own spawned stream, so adding chains must
        # not disturb the earlier ones.
        target = standard_normal_target(2)
        small = ChainConfig(n_chains=3, n_steps=10, step_size=0.4, seed=5, init_scale=1.0)
        big = ChainConfig(n_chains=8, n_steps=10, step_size=0.4, seed=5, init_scale=1.0)
        np.testing.assert_array_equal(
            mala_chains(target, small), mala_chains(target, big)[:3]
        )

    def test_zero_step_size_stays_at_inits(self):
        # With eps = 0 the proposal equals the current point, its acceptance
        # ratio is exactly one, and every chain keeps its initial draw.
        target = standard_normal_target(2)
        moved = ChainConfig(n_chains=4, n_steps=15, step_size=0.0, seed=12, init_scale=1.0)
        still = ChainConfig(n_chains=4, n_steps=0, step_size=0.0, seed=12, init_scale=1.0)
        np.testing.assert_array_equal(mala_chains(target, moved), mala_chains(target, still))

    def test_zero_step_size_accepts_every_proposal(self):
        target = standard_normal_target(2)
        out = mala_chain_moments(
            target, n_draws=200, burn_in=20, step_size=0.0, seed=3, store_every=10)
        assert out["acceptance_rate"] == 1.0

    def test_long_run_equilibrium_variance(self):
        target = standard_normal_target(1)
        out = mala_chain_moments(
            target, n_draws=100_000, burn_in=1_000, step_size=0.5, seed=77, store_every=10
        )
        var = out["second_moment"][0] - out["mean"][0] ** 2
        assert abs(var - 1.0) < 0.05
        assert out["acceptance_rate"] > 0.2


class TestMalaReference:
    """The package's MALA chains against the loops in tests/support.py."""

    PROBIT = probit_simulate(n_data=100, dimension=10, seed=42, prior_variance=0.1).as_target()
    MIXTURE = random_gaussian_mixture(4, 3, seed=9, **GMM_RANGES).as_target()

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


class TestMalaTargetCalls:
    """Each MALA step evaluates the target once, on all its proposals."""

    MODEL = probit_simulate(n_data=50, dimension=3, seed=2, prior_variance=0.1)

    def joint_only_target(self, monkeypatch):
        """The model's target, whose erfcx calls are recorded by size and
        whose separate log_density and score calls fail the test."""
        def separate(model, pts):
            raise AssertionError("a MALA step called log_density or score")

        monkeypatch.setattr(targets.ProbitModel, "log_density", separate)
        monkeypatch.setattr(targets.ProbitModel, "score", separate)
        sizes = []
        erfcx = targets.erfcx

        def recording(x, *args, **kwargs):
            sizes.append(np.size(x))
            return erfcx(x, *args, **kwargs)

        monkeypatch.setattr(targets, "erfcx", recording)
        return self.MODEL.as_target(), sizes

    def test_one_step_is_one_erfcx_pass(self, monkeypatch):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((6, 3))
        log_p, score = self.MODEL.log_density(x), self.MODEL.score(x)
        target, sizes = self.joint_only_target(monkeypatch)
        samplers._mala_step(target, x, log_p, score, 0.01, rng.standard_normal((6, 3)),
                            rng.uniform(size=6))
        assert sizes == [6 * self.MODEL.n_data]

    def test_chains_and_oracle_evaluate_once_per_step(self, monkeypatch):
        target, sizes = self.joint_only_target(monkeypatch)
        mala_chains(target, ChainConfig(n_chains=5, n_steps=3, step_size=0.01,
                                        init_scale=1.0, seed=4))
        assert sizes == [5 * self.MODEL.n_data] * 4  # the starts, then 3 steps
        sizes.clear()
        mala_chain_moments(target, n_draws=20, burn_in=40, step_size=0.01, seed=4,
                           store_every=0)
        assert sizes == [20 * self.MODEL.n_data] * 4  # the starts, 2 burn-in and 1 kept step

    @pytest.mark.parametrize("model", [MODEL, random_gaussian_mixture(4, 3, seed=9, **GMM_RANGES)],
                             ids=["probit", "mixture"])
    def test_target_without_joint_call_gives_the_same_chains(self, model):
        full = model.as_target()
        separate = ScoreTarget(dimension=3, score=model.score, log_density=model.log_density)
        cfg = ChainConfig(n_chains=7, n_steps=50, step_size=0.05, init_scale=1.0, seed=8)
        np.testing.assert_array_equal(mala_chains(full, cfg), mala_chains(separate, cfg))
        args = dict(n_draws=700, burn_in=70, step_size=0.05, seed=3, store_every=3)
        got, want = mala_chain_moments(full, **args), mala_chain_moments(separate, **args)
        for key in want:
            np.testing.assert_array_equal(got[key], want[key], err_msg=key)


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
                               step_size=0.1, seed=1, store_every=10)


class TestSgldChains:
    def test_zero_step_size_returns_inits(self):
        # With eps = 0 both the drift and the injected noise vanish, so the
        # chains sit at their initial draws for any number of steps.
        model = probit_simulate(n_data=40, dimension=3, seed=2, prior_variance=0.1)
        cfg = ChainConfig(
            n_chains=6, n_steps=20, step_size=0.0, minibatch_size=10, seed=13, init_scale=1.0
        )
        pts = sgld_chains(model, cfg)
        from numpy.random import SeedSequence, default_rng

        inits = np.empty((6, 3))
        for c in range(6):
            rng = default_rng(SeedSequence(entropy=13, spawn_key=(c,)))
            inits[c] = cfg.init_scale * rng.standard_normal(3)
        np.testing.assert_array_equal(pts, inits)

    def test_full_batch_matches_manual_langevin(self):
        model = probit_simulate(n_data=15, dimension=2, seed=6, prior_variance=0.1)
        cfg = ChainConfig(
            n_chains=3, n_steps=8, step_size=0.01, minibatch_size=15, seed=19, init_scale=1.0
        )
        pts = sgld_chains(model, cfg)

        # Replay the documented draw order per chain: init, then per step
        # d noise normals. A full batch draws no minibatch indices.
        from numpy.random import SeedSequence, default_rng

        replay = np.empty((3, 2))
        for c in range(3):
            rng = default_rng(SeedSequence(entropy=19, spawn_key=(c,)))
            x = cfg.init_scale * rng.standard_normal(2)
            noises = []
            for _ in range(8):
                noises.append(rng.standard_normal(2))
            for step in range(8):
                drift = model.prior_score(x[None, :])[0] + model.score(
                    x[None, :]
                )[0] - model.prior_score(x[None, :])[0]
                x = x + 0.5 * 0.01 * drift + math.sqrt(0.01) * noises[step]
            replay[c] = x
        np.testing.assert_allclose(pts, replay, atol=1e-10)

    def test_full_batch_drift_is_one_score_call(self):
        # At the full batch the drift is score(x), never the minibatch
        # gather; it matches prior_score + data_score_minibatch over every
        # index to rounding.
        model = probit_simulate(n_data=40, dimension=3, seed=8, prior_variance=0.1)
        cfg = ChainConfig(
            n_chains=5, n_steps=12, step_size=0.01, minibatch_size=40, seed=29, init_scale=1.0
        )

        class FullScoreOnly:
            n_data = model.n_data
            dimension = model.dimension
            score = staticmethod(model.score)

        pts = sgld_chains(FullScoreOnly(), cfg)

        from numpy.random import SeedSequence, default_rng

        everything = np.broadcast_to(np.arange(40), (5, 40))
        x = np.empty((5, 3))
        rngs = []
        for c in range(5):
            rng = default_rng(SeedSequence(entropy=29, spawn_key=(c,)))
            x[c] = cfg.init_scale * rng.standard_normal(3)
            rngs.append(rng)
        for _ in range(12):
            noise = np.stack([rng.standard_normal(3) for rng in rngs])
            drift = model.prior_score(x) + model.data_score_minibatch(x, everything)
            x = x + 0.5 * 0.01 * drift + 0.1 * noise
        np.testing.assert_allclose(pts, x, rtol=1e-12, atol=1e-14)

    def test_minibatch_larger_than_data_rejected(self):
        model = probit_simulate(n_data=10, dimension=2, seed=1, prior_variance=0.1)
        cfg = ChainConfig(
            n_chains=2, n_steps=5, step_size=0.01, minibatch_size=11, seed=3, init_scale=1.0
        )
        with pytest.raises(ValueError):
            sgld_chains(model, cfg)

    def test_missing_minibatch_rejected(self):
        model = probit_simulate(n_data=10, dimension=2, seed=1, prior_variance=0.1)
        cfg = ChainConfig(n_chains=2, n_steps=5, step_size=0.01, seed=3, init_scale=1.0)
        with pytest.raises(ValueError):
            sgld_chains(model, cfg)

    def test_seeded_determinism(self):
        model = probit_simulate(n_data=30, dimension=4, seed=14, prior_variance=0.1)
        cfg = ChainConfig(
            n_chains=5, n_steps=15, step_size=0.02, minibatch_size=10, seed=23, init_scale=1.0
        )
        np.testing.assert_array_equal(sgld_chains(model, cfg), sgld_chains(model, cfg))


class TestSgldReference:
    """The step-major SGLD sampler against the run-up-front loop in tests/support.py."""

    MODEL = probit_simulate(n_data=30, dimension=4, seed=14, prior_variance=0.1)

    @pytest.mark.parametrize("n_steps", [0, 1, 25])
    @pytest.mark.parametrize("n_chains", [1, 3, 17])
    def test_matches_frozen_pregeneration(self, n_chains, n_steps):
        cfg = ChainConfig(n_chains=n_chains, n_steps=n_steps, step_size=0.02,
                          init_scale=1.5, minibatch_size=10, seed=23)
        np.testing.assert_array_equal(
            sgld_chains(self.MODEL, cfg), frozen_sgld_chains(self.MODEL, cfg))

    # Over 512 chains a draw batch is one step; 100 chains draw batches of
    # 5 steps, the last one part-filled; m = 1 and m = n_data - 1, which
    # reshuffles every step; m = 7 leaves 2 entries of each pass unread;
    # the full batch draws no indices.
    @pytest.mark.parametrize("n_chains, n_steps, m",
                             [(520, 3, 10), (100, 23, 10), (17, 25, 1), (17, 25, 29),
                              (17, 25, 7), (17, 25, 30)])
    def test_batch_edges_match_frozen(self, n_chains, n_steps, m):
        cfg = ChainConfig(n_chains=n_chains, n_steps=n_steps, step_size=0.02,
                          init_scale=1.5, minibatch_size=m, seed=23)
        np.testing.assert_array_equal(
            sgld_chains(self.MODEL, cfg), frozen_sgld_chains(self.MODEL, cfg))


def _drawn(seed, n_chains, n_steps, n_data, m, dimension=2):
    """Copies of every step's noise and minibatches from ``_sgld_draws``,
    (n_steps, n_chains, d) and (n_steps, n_chains, m)."""
    rngs = [samplers._chain_generator(seed, c) for c in range(n_chains)]
    steps = [(noise.copy(), batch.copy())
             for noise, batch in _sgld_draws(rngs, seed, dimension, n_data, m, n_steps)]
    assert len(steps) == n_steps
    return np.array([noise for noise, _ in steps]), np.array([batch for _, batch in steps])


class TestReshuffledMinibatches:
    """Each chain's minibatches are consecutive blocks of its own reshuffles."""

    def test_minibatches_hold_distinct_indices(self):
        for n_data, m in ((30, 7), (30, 29), (500, 50)):
            _, batches = _drawn(5, n_chains=4, n_steps=40, n_data=n_data, m=m)
            assert batches.min() >= 0 and batches.max() < n_data
            ordered = np.sort(batches, axis=2)
            assert np.all(ordered[..., 1:] > ordered[..., :-1]), (n_data, m)

    @pytest.mark.parametrize("n_data, m", [(30, 10), (30, 7), (30, 1), (31, 2)])
    def test_pass_uses_each_point_at_most_once(self, n_data, m):
        # A pass is n_data // m steps; when m divides n_data it uses every
        # point exactly once.
        per_pass = n_data // m
        _, batches = _drawn(9, n_chains=3, n_steps=4 * per_pass + 1, n_data=n_data, m=m)
        for p in range(4):
            for c in range(3):
                used = batches[p * per_pass:(p + 1) * per_pass, c].ravel()
                assert len(np.unique(used)) == per_pass * m
        # Each chain's passes are reshuffled: no two passes of one chain
        # run in the same order.
        first, second = batches[:per_pass], batches[per_pass:2 * per_pass]
        assert not np.array_equal(first, second)

    def test_draws_match_frozen_minibatches(self):
        noise, batches = _drawn(13, n_chains=5, n_steps=23, n_data=30, m=7)
        np.testing.assert_array_equal(
            batches.transpose(1, 0, 2), frozen_sgld_minibatches(13, 5, 23, 30, 7))
        for c in range(5):
            rng = samplers._chain_generator(13, c)
            np.testing.assert_array_equal(noise[:, c], rng.standard_normal((23, 2)))

    def test_chain_does_not_depend_on_chain_count(self):
        # Three chains draw 170-step noise blocks and 17 chains 30-step
        # ones; chain c's noise, indices and points are the same.
        small = _drawn(23, n_chains=3, n_steps=200, n_data=30, m=7)
        big = _drawn(23, n_chains=17, n_steps=200, n_data=30, m=7)
        for a, b in zip(small, big):
            np.testing.assert_array_equal(a, b[:, :3])
        model = probit_simulate(n_data=30, dimension=4, seed=14, prior_variance=0.1)

        def points(n_chains):
            cfg = ChainConfig(n_chains=n_chains, n_steps=40, step_size=0.02,
                              init_scale=1.5, minibatch_size=7, seed=23)
            return sgld_chains(model, cfg)

        np.testing.assert_array_equal(points(3), points(17)[:3])

    def test_full_batch_never_touches_index_generator(self, monkeypatch):
        # Every index generator, spawn key (c, 0), fails the test on any use.
        class Untouchable:
            def __getattr__(self, name):
                raise AssertionError(f"an index generator was used: {name}")

        make = samplers._chain_generator

        def generator(seed, *spawn_key):
            return Untouchable() if len(spawn_key) > 1 else make(seed, *spawn_key)

        monkeypatch.setattr(samplers, "_chain_generator", generator)
        model = probit_simulate(n_data=15, dimension=2, seed=6, prior_variance=0.1)
        cfg = dict(n_chains=3, n_steps=8, step_size=0.01, init_scale=1.0, seed=19)
        sgld_chains(model, ChainConfig(minibatch_size=15, **cfg))
        with pytest.raises(AssertionError, match="index generator"):
            sgld_chains(model, ChainConfig(minibatch_size=14, **cfg))


def _peak_bytes(run) -> int:
    """Peak traced allocation of one ``run()`` call, above what was live before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        run()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


class TestChainMemory:
    """A chain run holds one step of randomness, whatever its number of steps."""

    MODEL = probit_simulate(n_data=50, dimension=3, seed=42, prior_variance=0.1)

    @pytest.mark.parametrize("sampler", ["sgld", "mala"])
    def test_peak_does_not_grow_with_steps(self, sampler):
        def run(n_steps):
            cfg = ChainConfig(n_chains=100, n_steps=n_steps, step_size=0.001,
                              init_scale=0.1, minibatch_size=20, seed=3)
            if sampler == "sgld":
                return sgld_chains(self.MODEL, cfg)
            return mala_chains(self.MODEL.as_target(), cfg)

        run(2)  # warm up one-time allocations
        short = _peak_bytes(lambda: run(20))
        long = _peak_bytes(lambda: run(400))
        assert long < 2 * short, (short, long)


class TestSgldIndexMemory:
    """Each chain holds one int32 permutation of the data, 4 n n_data bytes."""

    @pytest.mark.parametrize("n_chains, m", [(50, 50), (200, 20)])
    def test_peak_is_permutations_plus_step_buffers(self, n_chains, m):
        n_data, d = 20_000, 2
        model = probit_simulate(n_data=n_data, dimension=d, seed=1, prior_variance=0.1)
        cfg = ChainConfig(n_chains=n_chains, n_steps=30, step_size=1e-4, init_scale=0.1,
                          minibatch_size=m, seed=3)
        sgld_chains(model, cfg)  # warm up one-time allocations
        peak = _peak_bytes(lambda: sgld_chains(model, cfg))
        # The permutations, one more in flight, the two generators of each
        # chain, and O(max(n, 512) (d + m)) numbers of noise and step work.
        bound = (4 * n_chains * n_data + 8 * n_data + 2048 * n_chains
                 + 4 * 8 * max(n_chains, 512) * (d + m))
        assert peak <= bound, (peak, bound)


class CountingModel:
    """Delegates to a model and counts its score calls, one per full-batch step."""

    def __init__(self, model):
        self.model = model
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self.model, name)

    def score(self, points):
        self.calls += 1
        return self.model.score(points)


class TestSgldDivergence:
    def config(self, n_steps):
        return ChainConfig(
            n_chains=20, n_steps=n_steps, step_size=1e3, minibatch_size=50, seed=5, init_scale=1.0
        )

    def test_stops_at_first_non_finite_step(self):
        model = CountingModel(probit_simulate(n_data=50, dimension=3, seed=42, prior_variance=0.1))
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
            target, n_draws=5_000, burn_in=500, step_size=eps, seed=4, init=state, store_every=10
        )
        assert 0.3 < out["acceptance_rate"] < 0.8
