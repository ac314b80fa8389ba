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
    lemire_rejection_steps,
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
    # 5 steps, the last one part-filled; m = 1 and m = n_data - 1.
    @pytest.mark.parametrize("n_chains, n_steps, m",
                             [(520, 3, 10), (100, 23, 10), (17, 25, 1), (17, 25, 29)])
    def test_batch_edges_match_frozen(self, n_chains, n_steps, m):
        cfg = ChainConfig(n_chains=n_chains, n_steps=n_steps, step_size=0.02,
                          init_scale=1.5, minibatch_size=m, seed=23)
        np.testing.assert_array_equal(
            sgld_chains(self.MODEL, cfg), frozen_sgld_chains(self.MODEL, cfg))

    def test_lemire_rejection_matches_frozen(self):
        # At seed 5 chain 60's last minibatch draw rejects a 32-bit half.
        # Its 128 chains draw 4-step batches, and that step falls in the
        # part-filled last one, after every chain's state was saved at step
        # 64, so the chain redraws steps 65 to 70 with choice.
        model = probit_simulate(n_data=2048, dimension=2, seed=3, prior_variance=0.1)
        cfg = ChainConfig(n_chains=128, n_steps=70, step_size=1e-3, init_scale=1.0,
                          minibatch_size=64, seed=5)
        assert lemire_rejection_steps(cfg, model.n_data, model.dimension, chain=60) == [70]
        np.testing.assert_array_equal(sgld_chains(model, cfg), frozen_sgld_chains(model, cfg))


def _assert_draws_match_choice(n_data, m, seed, n_chains=3, n_steps=4, dimension=2):
    """``_sgld_draws`` against d normals then ``choice`` per step on twin
    generators: the same draws, and the same generator states after them.

    Odd seeds start every generator with a kept 32-bit half.
    """
    rngs, twins = [], []
    for c in range(n_chains):
        pair = [np.random.default_rng([seed, c]) for _ in range(2)]
        if seed % 2:
            for rng in pair:
                rng.integers(0, 7)
            assert pair[0].bit_generator.state["has_uint32"] == 1
        rngs.append(pair[0])
        twins.append(pair[1])
    drawn = [(noise.copy(), batch.copy())
             for noise, batch in _sgld_draws(rngs, dimension, n_data, m, n_steps)]
    assert len(drawn) == n_steps
    for noise, batch in drawn:
        for c, twin in enumerate(twins):
            np.testing.assert_array_equal(noise[c], twin.standard_normal(dimension))
            np.testing.assert_array_equal(batch[c], twin.choice(n_data, size=m, replace=False))
    for rng, twin in zip(rngs, twins):
        assert rng.bit_generator.state == twin.bit_generator.state


def _emulate_every_floyd_size(monkeypatch):
    """Lift the size limits of ``_FloydChoice``, which the sampler keeps to
    the sizes where it is faster than ``choice``."""
    monkeypatch.setattr(samplers, "_FLOYD_MAX_N", 2**32)
    monkeypatch.setattr(samplers, "_FLOYD_MAX_M", 2**32)


class TestChoiceEmulation:
    """SGLD minibatch indices equal ``Generator.choice``'s bit for bit.

    Where numpy's choice is Floyd's selection, small enough minibatches are
    built from raw words; a numpy whose choice draws differently fails here.
    """

    @pytest.mark.parametrize("n_data, m", [(500, 50), (500, 1), (500, 499), (500, 500),
                                           (10000, 5000), (20000, 400), (10001, 200)])
    def test_floyd_sizes_match_choice(self, n_data, m, monkeypatch):
        _emulate_every_floyd_size(monkeypatch)
        for seed in range(50):
            _assert_draws_match_choice(n_data, m, seed)

    def test_no_rejection_no_redraw(self, monkeypatch):
        # These seeds reject no draw, so no chain redraws with choice: the
        # sampler builds 50 of 500 from raw words. Words read out of order
        # would look like rejections and hide in redraws.
        def no_redraw(*args):
            raise AssertionError("a chain redrew its batch with choice")

        monkeypatch.setattr(samplers, "_draw_steps", no_redraw)
        for seed in range(50):
            _assert_draws_match_choice(500, 50, seed)

    @pytest.mark.parametrize("n_data, m", [(10001, 201), (20000, 401)])
    def test_tail_shuffle_sizes_draw_with_choice(self, n_data, m, monkeypatch):
        # numpy's choice is Floyd's selection at every n_data <= 10000, so
        # the emulation's limit stays there; here numpy shuffles the tail of
        # arange(n_data) instead, and the sampler must draw with choice.
        assert samplers._FLOYD_MAX_N <= 10_000
        for seed in range(2):
            _assert_draws_match_choice(n_data, m, seed)
        _emulate_every_floyd_size(monkeypatch)
        with pytest.raises(AssertionError):
            _assert_draws_match_choice(n_data, m, 0)

    def test_rejected_batches_redraw_with_choice(self, monkeypatch):
        # Flag about half of all chain-steps as rejected, so chains redraw
        # from their saved states all the time: with one chain and 512-step
        # batches, with 5-step batches across a save at step 64, and with
        # one-step batches.
        init = samplers._FloydChoice.__init__

        def flag_often(self, *args):
            init(self, *args)
            self.thresholds[:] = 1 << 25

        monkeypatch.setattr(samplers._FloydChoice, "__init__", flag_often)
        for n_chains, n_steps in ((1, 600), (100, 80), (600, 3)):
            _assert_draws_match_choice(500, 50, 7, n_chains, n_steps)


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
