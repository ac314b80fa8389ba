"""Point-set generators: i.i.d. mixture draws, parallel MALA, parallel SGLD.

Chain randomness is split per chain: chain c draws from a generator seeded
by SeedSequence(entropy=seed, spawn_key=(c,)). Chain c's trajectory is
therefore invariant to the total chain count and to execution order, and
every sampler is bit-reproducible from its config.

Per-chain draw order is part of the contract:

* init: d standard normals scaled by ``init_scale``;
* MALA step: d proposal normals, then one acceptance uniform;
* SGLD step: d noise normals, then the minibatch index draw. A full batch
  (``minibatch_size == n_data``) draws no indices: every chain's batch is
  all the data, and a step draws only its noise.

MALA draws this randomness step by step, chain by chain, into buffers
that each step reuses. SGLD draws it chain by chain in batches of at most
512 chain-steps (one step of every chain when there are more chains),
into buffers that each batch reuses. So a run of n chains in d dimensions
with minibatches of m holds O(max(n, 512) (d + m)) numbers of randomness
whatever its number of steps.

An SGLD minibatch equals ``Generator.choice(n_data, m, replace=False)``
from the chain's generator bit for bit. For m <= 64 and n_data <= 2048,
where numpy's ``choice`` is Floyd's selection, the indices of a batch are
built at once from each chain's raw PCG64 words (``_FloydChoice``). A
chain whose batch holds a draw that numpy rejects and draws again, about
one chain-step in 370k at 50 of 500, goes back to its state saved fewer
than 64 steps before that batch and redraws with ``choice`` itself. Larger
sizes always draw with ``choice``, which is as fast there.

The moment oracle ``mala_chain_moments`` instead runs C = min(64,
``n_draws``) chains from the one generator ``default_rng(seed)``. Every
chain starts at ``init`` (or at zeros), and each step draws a (C, d) block
of proposal normals, then C acceptance uniforms.

Each MALA step, in ``mala_chains`` and ``mala_chain_moments`` alike,
evaluates the target once on all its proposals: one call to the target's
``log_density_and_score`` when it has one, else ``log_density`` and then
``score``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import NonFinitePointsError
from .stein import ScoreTarget
from .targets import GaussianMixture

__all__ = [
    "ChainConfig",
    "sample_gmm_iid",
    "mala_chains",
    "sgld_chains",
    "mala_chain_moments",
    "tune_mala_step",
]


@dataclass(frozen=True)
class ChainConfig:
    """Configuration shared by the chain-based samplers.

    ``minibatch_size`` only matters for SGLD. ``init_scale`` scales the
    standard normal initialization of every chain.
    """

    n_chains: int
    n_steps: int
    step_size: float
    init_scale: float
    minibatch_size: int | None = None
    seed: int = 0

    def __post_init__(self):
        _check_number("n_chains", self.n_chains, numbers.Integral, 1)
        _check_number("n_steps", self.n_steps, numbers.Integral, 0)
        _check_number("step_size", self.step_size, numbers.Real, 0.0)
        _check_number("init_scale", self.init_scale, numbers.Real, 0.0)
        if self.minibatch_size is not None:
            _check_number("minibatch_size", self.minibatch_size, numbers.Integral, 1)


def _check_number(name: str, value, kind: type, minimum: float) -> None:
    """ValueError unless ``value`` is a finite ``kind`` (not a bool) >= minimum."""
    if (isinstance(value, bool) or not isinstance(value, kind)
            or not math.isfinite(value) or value < minimum):
        noun = "an integer" if kind is numbers.Integral else "a finite number"
        raise ValueError(f"{name} must be {noun} >= {minimum:g}; got {value!r}")


# Chains in one mala_chain_moments batch; fewer draws run one chain each.
_ORACLE_CHAINS = 64
# tune_mala_step's first step size and the acceptance rate it steers
# toward, the optimal MALA rate of Roberts & Rosenthal (1998).
_TUNE_INITIAL_STEP = 0.1
_TUNE_TARGET_ACCEPT = 0.574
# Chain-steps whose SGLD draws are made as one batch; with more chains a
# batch is one step of every chain.
_DRAW_BATCH = 512
# _FloydChoice builds SGLD minibatches of at most _FLOYD_MAX_M indices
# from at most _FLOYD_MAX_N data points. Its cost grows with m, and its
# flag table, one byte per chain-step and data point, with n_data. At
# d = 10 and n_data from 500 to 8192 it took 0.4-0.8 of choice's time at
# m = 50 and 0.6-1.0 at m = 100-150 with 200 chains; with 20 chains,
# 0.6-0.8 at m <= 50 and up to 1.3 above. numpy's choice is Floyd's
# selection at every m when n_data <= 10000, and shuffles instead above
# that once m > n_data // 50, so _FLOYD_MAX_N must stay at or below 10000.
_FLOYD_MAX_N = 2048
_FLOYD_MAX_M = 64
# Steps between _FloydChoice's saves of every chain's state. A save costs
# about 2 us a chain; a rejection redraws the steps since the last one.
_RESAVE_STEPS = 64


def _chain_generator(seed: int, chain: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(chain,))
    )


def sample_gmm_iid(mixture: GaussianMixture, n: int, seed) -> np.ndarray:
    """Draw n independent points from the mixture, shape (n, d)."""
    if n < 1:
        raise ValueError("n must be positive")
    rng = np.random.default_rng(seed)  # a Generator is used as it is
    comp = rng.choice(mixture.n_components, size=n, p=mixture.weights)
    eps = rng.standard_normal((n, mixture.dimension))
    return mixture.means[comp] + np.sqrt(mixture.variances[comp])[:, None] * eps


def _chain_starts(config: ChainConfig, dimension: int):
    """Each chain's generator and its init, the start of the draw order.

    Chain c's init is d standard normals from its generator, scaled by
    ``init_scale``. The samplers then draw each step's randomness from the
    generators chain by chain: d noise normals, then the step draw. Each
    draw fills a row view with ``out=``; passing the size as well costs
    about a microsecond per call.
    """
    rngs = [_chain_generator(config.seed, c) for c in range(config.n_chains)]
    inits = np.empty((config.n_chains, dimension))
    for rng, row in zip(rngs, inits):
        rng.standard_normal(out=row)
    return rngs, config.init_scale * inits


def _log_density_and_score(target: ScoreTarget, points):
    """The target's log-density, (c,), and score, (c, d), at ``points``.

    One call to the target's ``log_density_and_score`` when it has one;
    otherwise ``log_density``, then ``score``.
    """
    joint = getattr(target, "log_density_and_score", None)
    if joint is not None:
        log_p, score = joint(points)
    else:
        log_p, score = target.log_density(points), target.score(points)
    return np.asarray(log_p, dtype=float), np.asarray(score, dtype=float)


def _mala_step(target: ScoreTarget, x, log_p, score, eps: float, xi, uniforms):
    """One MALA step of each row of ``x``, (c, d), with normals ``xi``, (c, d).

    The proposal x + eps * score + sqrt(2 eps) xi replaces a row when the
    log of its uniform is below the log Metropolis acceptance ratio. The
    correction vanishes at ``eps = 0``, where the proposal is ``x`` itself.
    The target is evaluated once, on all c proposals. Returns the new rows,
    their log-densities and scores, and the (c,) acceptance mask.
    """
    proposal = x + eps * score + np.sqrt(2.0 * eps) * xi
    log_p_prop, score_prop = _log_density_and_score(target, proposal)
    log_alpha = log_p_prop - log_p
    if eps > 0.0:
        fwd = proposal - x - eps * score
        bwd = x - proposal - eps * score_prop
        log_alpha += np.sum(fwd * fwd - bwd * bwd, axis=1) / (4.0 * eps)
    accept = np.log(uniforms) < log_alpha
    return (
        np.where(accept[:, None], proposal, x),
        np.where(accept, log_p_prop, log_p),
        np.where(accept[:, None], score_prop, score),
        accept,
    )


def mala_chains(target: ScoreTarget, config: ChainConfig) -> np.ndarray:
    """Run parallel MALA chains; returns the final state of each, (n_chains, d).

    Proposal: x + eps * score(x) + sqrt(2 eps) xi, accepted with the usual
    Metropolis correction. ``n_steps = 0`` returns the initial points.
    """
    if target.log_density is None:
        raise ValueError("MALA needs a target log-density for the accept step")
    d = target.dimension
    rngs, x = _chain_starts(config, d)
    noise = np.empty((config.n_chains, d))
    uniforms = np.empty(config.n_chains)
    chains = list(enumerate(zip(rngs, noise)))
    eps = config.step_size
    log_p, score = _log_density_and_score(target, x)
    for _ in range(config.n_steps):
        for c, (rng, row) in chains:
            rng.standard_normal(out=row)
            uniforms[c] = rng.uniform()
        x, log_p, score, _ = _mala_step(target, x, log_p, score, eps, noise, uniforms)
    return x


def _draw_steps(rng, noise, batches, n_data: int, m: int) -> None:
    """One chain's draws for ``len(noise)`` steps, each d normals into its
    row of ``noise``, then ``choice(n_data, m, replace=False)`` into its
    row of ``batches``; m = 0 draws no indices."""
    for row, batch in zip(noise, batches):
        rng.standard_normal(out=row)
        if m:
            batch[...] = rng.choice(n_data, size=m, replace=False)


def _sgld_draws(rngs, dimension: int, n_data: int, m: int, n_steps: int):
    """Yield each SGLD step's noise, (c, d), and minibatch indices, (c, m).

    Chain c draws from ``rngs[c]``, step after step, d normals and then
    ``choice(n_data, m, replace=False)``; m = 0 draws no indices. The steps
    are drawn in batches of at most _DRAW_BATCH chain-steps, or of one step
    of every chain when there are more chains, into buffers that every
    batch reuses; each yielded pair is a view of them. Up to
    _FLOYD_MAX_M indices from up to _FLOYD_MAX_N data points, where numpy's
    ``choice`` is Floyd's selection, ``_FloydChoice`` builds a batch's
    indices from the chains' raw words. Once the last step is drawn, every
    generator is in the state that the direct draws leave it in.
    """
    n_chains = len(rngs)
    span = max(1, min(n_steps, _DRAW_BATCH // n_chains))
    noise = np.empty((span, n_chains, dimension))
    batches = np.empty((span, n_chains, m), dtype=np.int64)
    floyd = None
    if 0 < m <= _FLOYD_MAX_M and n_data <= _FLOYD_MAX_N:
        floyd = _FloydChoice(rngs, n_data, m, noise, batches)
    for start in range(0, n_steps, span):
        steps = min(span, n_steps - start)
        if floyd is not None:
            floyd.draw(steps)
        else:
            for c, rng in enumerate(rngs):
                _draw_steps(rng, noise[:steps, c], batches[:steps, c], n_data, m)
        yield from zip(noise[:steps], batches[:steps])
    if floyd is not None:
        floyd.settle()


class _FloydChoice:
    """``choice(n_data, m, replace=False)`` of many PCG64 chain-steps at once.

    Up to n_data = 10000, and above that for m <= n_data // 50 while
    n_data < 2**32, numpy's ``choice`` is Floyd's selection: for
    j = n_data - m, ..., n_data - 1 it draws v in [0, j] and takes v, or
    j when v is already taken. It then shuffles the m picks by
    swapping position i = m - 1, ..., 1 with a draw in [0, i]. A draw below
    a bound b > 1 is Lemire's (x * b) >> 32 of the next 32-bit half x of
    the chain's PCG64 words, a word's low half first and its high half
    kept, pending, for the next draw; a bound of 1 draws nothing. Lemire
    rejects x and draws again when (x * b) mod 2**32 is below (2**32 - b)
    mod b, about once in 370k chain-steps at 50 of 500.

    Per chain-step ``draw`` makes two calls, d normals into the step's
    noise row and the raw words its draws need, and then builds the
    indices of every chain-step of the batch at once. A chain whose batch
    has a rejection is put back to its last saved state, from at most
    _RESAVE_STEPS steps before the batch, and draws those steps and the
    batch with ``choice`` itself. Between batches a chain's pending half
    is kept here, not in its generator; ``settle`` hands it back.
    """

    def __init__(self, rngs, n_data: int, m: int, noise, batches):
        self.rngs = rngs
        self.n_data, self.m = n_data, m
        self.noise, self.batches = noise, batches
        span, n_chains = noise.shape[:2]
        # At m = n_data Floyd's first bound is 1, which draws nothing.
        bounds = np.concatenate((np.arange(max(n_data - m + 1, 2), n_data + 1),
                                 np.arange(m, 1, -1))).astype(np.uint64)
        self.bounds = bounds[:, None]
        self.thresholds = ((2**32 - bounds) % bounds).astype(np.uint32)[:, None]
        # Words a chain draws for its first j steps, with no pending half
        # (row 0) or with one (row 1).
        self.words_needed = [[max(0, -(-(j * bounds.size - p) // 2)) for j in range(span + 1)]
                             for p in (0, 1)]
        # A chain's halves run from index 1: its pending half, if it has
        # one, then its words, which therefore start at index 1 or 2.
        self.halves = np.zeros((n_chains, 2 + 2 * self.words_needed[0][span]), dtype=np.uint32)
        # plans[p][c]: for each step of chain c, starting with no pending
        # half (p = 0) or with one (p = 1), its noise row, the words it
        # draws as a view of ``halves`` and their count.
        self.plans = [
            [list(zip(noise[:, c],
                      [self.halves[c, 1 + p + 2 * a:1 + p + 2 * b].view(np.uint64)
                       for a, b in zip(need, need[1:])],
                      np.diff(need).tolist()))
             for c in range(n_chains)]
            for p, need in enumerate(self.words_needed)
        ]
        # Floyd's flags of taken values, on flat keys row * n_data + value.
        self.taken = np.zeros(span * n_chains * n_data, dtype=bool)
        # Each chain's state, pending half included, before the last
        # ``since_saved`` steps; a rejection redraws them from it.
        self.saved = [rng.bit_generator.state for rng in rngs]
        self.since_saved = 0
        self.pending = np.array([state["has_uint32"] for state in self.saved], dtype=bool)
        self.uinteger = np.array([state["uinteger"] for state in self.saved], dtype=np.uint32)

    def draw(self, steps: int) -> None:
        """Fill the first ``steps`` rows of the noise and index buffers."""
        n_data, m = self.n_data, self.m
        if self.since_saved >= _RESAVE_STEPS:
            self.saved = [self._state(c) for c in range(len(self.rngs))]
            self.since_saved = 0
        pending = self.pending.copy()
        self.halves[:, 1] = self.uinteger
        for rng, plan0, plan1, p in zip(self.rngs, *self.plans, pending.tolist()):
            bits = rng.bit_generator
            for row, words, count in (plan1 if p else plan0)[:steps]:
                rng.standard_normal(out=row)
                words[...] = bits.random_raw(count)

        # Position-major: x[k] holds the k-th draw of every chain-step,
        # ordered chain by step.
        n_chains = len(self.rngs)
        per_step = len(self.bounds)
        rows = n_chains * steps
        x = np.empty((per_step, rows), dtype=np.uint64)
        np.copyto(x, self.halves[:, 1:1 + steps * per_step].reshape(rows, per_step).T)
        x *= self.bounds
        rejected = x.astype(np.uint32) < self.thresholds
        x >>= 32
        picks = x.view(np.int64)
        if m == n_data:
            picks = np.concatenate((np.zeros((1, rows), dtype=np.int64), picks))
        chosen = picks[:m]
        self._floyd(chosen)
        self._shuffle(chosen, picks[m:])
        np.copyto(self.batches[:steps], chosen.T.reshape(n_chains, steps, m).transpose(1, 0, 2))

        for p in (False, True):
            on = pending == p
            last = p + 2 * self.words_needed[p][steps]
            self.pending[on] = last - steps * per_step
            if last > p:
                self.uinteger[on] = self.halves[on, last]
        self.since_saved += steps
        if not rejected.any():
            return
        span = len(self.noise)
        rejected = rejected.reshape(per_step, n_chains, steps).any(axis=(0, 2))
        for c in np.flatnonzero(rejected):
            rng = self.rngs[c]
            rng.bit_generator.state = self.saved[c]
            for done in range(0, self.since_saved, span):
                redraw = min(span, self.since_saved - done)
                _draw_steps(rng, self.noise[:redraw, c], self.batches[:redraw, c], n_data, m)
            state = rng.bit_generator.state
            self.pending[c], self.uinteger[c] = state["has_uint32"], state["uinteger"]

    def _floyd(self, chosen) -> None:
        """Floyd's selection, in place, on the (m, rows) draws ``chosen``."""
        n_data, m = self.n_data, self.m
        taken = self.taken
        base = np.arange(chosen.shape[1]) * n_data
        keys = chosen + base
        # The key of j = n_data - m, ..., n_data - 1 in each row.
        fallbacks = base + np.arange(n_data - m, n_data)[:, None]
        for key, fallback in zip(keys, fallbacks):
            np.copyto(key, fallback, where=taken[key])
            taken[key] = True
        np.subtract(keys, base, out=chosen)
        taken[:] = False

    @staticmethod
    def _shuffle(chosen, draws) -> None:
        """Fisher-Yates on each column of ``chosen``, (m, rows), in place:
        position i = m - 1, ..., 1 swaps with position ``draws[m - 1 - i]``."""
        rows = chosen.shape[1]
        flat = chosen.reshape(-1)
        targets = draws * rows + np.arange(rows)
        for i, target in zip(range(len(chosen) - 1, 0, -1), targets):
            other = flat.take(target)
            flat[target] = chosen[i]
            chosen[i] = other

    def _state(self, chain: int) -> dict:
        """Chain ``chain``'s generator state with its pending half."""
        state = self.rngs[chain].bit_generator.state
        state["has_uint32"] = int(self.pending[chain])
        state["uinteger"] = int(self.uinteger[chain])
        return state

    def settle(self) -> None:
        """Hand each chain's pending half back to its generator."""
        for c, rng in enumerate(self.rngs):
            rng.bit_generator.state = self._state(c)


def sgld_chains(model, config: ChainConfig) -> np.ndarray:
    """Run parallel stochastic-gradient Langevin chains, (n_chains, d).

    The update is

        x <- x + (eps / 2) [prior_score(x) + (N / m) sum_batch grad loglik]
               + sqrt(eps) xi

    with a fresh without-replacement minibatch per chain per step. The model
    must expose ``n_data``, ``dimension`` and ``score`` (prior plus
    full-data log-likelihood gradient), and, for ``minibatch_size <
    n_data``, ``prior_score`` and ``data_score_minibatch``. With
    ``minibatch_size == n_data`` the drift is ``score(x)``, the full-data
    gradient, and no indices are drawn; with ``step_size == 0`` points do
    not move.

    Raises :class:`~steinweights.errors.NonFinitePointsError`, naming the
    step and the first such chain, as soon as any chain is non-finite.
    """
    m = config.minibatch_size
    if m is None:
        raise ValueError("SGLD requires minibatch_size")
    n_data = model.n_data
    if m > n_data:
        raise ValueError(f"minibatch_size {m} exceeds data size {n_data}")
    d = model.dimension
    rngs, x = _chain_starts(config, d)
    minibatch = m < n_data
    eps = config.step_size
    scale = n_data / m
    # At the full batch every chain's batch is all the data, so no indices
    # are drawn and the drift is the full score.
    draws = _sgld_draws(rngs, d, n_data, m if minibatch else 0, config.n_steps)
    # A step that overflows leaves a non-finite chain, which raises below;
    # the error replaces numpy's floating-point warnings for that step.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for step, (noise, batches) in enumerate(draws):
            if minibatch:
                drift = model.prior_score(x) + scale * model.data_score_minibatch(x, batches)
            else:
                drift = model.score(x)
            x = x + 0.5 * eps * drift + np.sqrt(eps) * noise
            finite = np.all(np.isfinite(x), axis=1)
            if not finite.all():
                chain = int(np.argmin(finite))
                raise NonFinitePointsError(
                    f"SGLD chain {chain} became non-finite at step {step + 1} "
                    f"of {config.n_steps}"
                )
    return x


def mala_chain_moments(
    target: ScoreTarget,
    n_draws: int,
    burn_in: int,
    step_size: float,
    seed: int,
    store_every: int,
    init: np.ndarray | None = None,
) -> dict:
    """MALA moments from C = min(64, ``n_draws``) chains run as one batch.

    ``n_draws`` and ``burn_in`` count rows across chains: every chain starts
    at ``init`` (or at zeros), discards its first ceil(``burn_in`` / C)
    steps and keeps the next ceil(``n_draws`` / C). All chains draw from
    ``default_rng(seed)``: per step a (C, d) block of proposal normals, then
    C acceptance uniforms.

    Returns a dict with ``mean`` and ``second_moment`` over every kept row,
    ``acceptance_rate`` (accepted rows over all rows, burn-in included),
    ``final_state`` (chain 0's last state) and ``thinned``: every
    ``store_every``-th kept row, counted step-major and chain-minor, for
    expectations beyond the first two moments.
    """
    if target.log_density is None:
        raise ValueError("MALA needs a target log-density for the accept step")
    if n_draws < 1:
        raise ValueError(f"n_draws must be at least 1; got {n_draws!r}")
    d = target.dimension
    chains = min(_ORACLE_CHAINS, n_draws)
    burn_steps = -(-burn_in // chains)
    kept_steps = -(-n_draws // chains)
    rng = np.random.default_rng(seed)
    start = np.zeros(d) if init is None else np.asarray(init, dtype=float).reshape(d)
    x = np.tile(start, (chains, 1))
    eps = float(step_size)
    log_p, score = _log_density_and_score(target, x)
    # Per-chain sums, added over chains once at the end.
    sum_x = np.zeros((chains, d))
    sum_sq = np.zeros((chains, d))
    accepted = 0
    thinned = [np.empty((0, d))]
    for step in range(burn_steps + kept_steps):
        xi = rng.standard_normal((chains, d))
        uniforms = rng.uniform(size=chains)
        x, log_p, score, accept = _mala_step(target, x, log_p, score, eps, xi, uniforms)
        accepted += np.count_nonzero(accept)
        kept = step - burn_steps
        if kept < 0:
            continue
        sum_x += x
        sum_sq += x * x
        if store_every:
            # Kept row kept * chains + c is stored when its 1-based count
            # is a multiple of store_every.
            first = (-kept * chains - 1) % store_every
            thinned.append(x[first::store_every].copy())
    rows = chains * kept_steps
    return {
        "mean": sum_x.sum(axis=0) / rows,
        "second_moment": sum_sq.sum(axis=0) / rows,
        "acceptance_rate": accepted / (chains * (burn_steps + kept_steps)),
        "final_state": x[0].copy(),
        "thinned": np.concatenate(thinned),
    }


def tune_mala_step(
    target: ScoreTarget,
    seed: int,
    pilot_steps: int = 500,
    rounds: int = 12,
) -> tuple[float, np.ndarray]:
    """Adapt the MALA step size toward the acceptance rate 0.574.

    Starting from step 0.1 at the origin, runs ``rounds`` pilot calls of
    ``mala_chain_moments``, each of ``pilot_steps`` rows across its batch
    of chains, and after each nudges log(step) by the acceptance error.
    Every round starts all its chains at chain 0's last state from the
    round before. Returns the tuned step and that state of the last round,
    which makes a warm start for the production run.
    """
    eps = _TUNE_INITIAL_STEP
    state = np.zeros(target.dimension)
    for r in range(rounds):
        result = mala_chain_moments(
            target,
            n_draws=pilot_steps,
            burn_in=0,
            step_size=eps,
            seed=seed + r,
            init=state,
            store_every=0,
        )
        state = result["final_state"]
        eps *= float(np.exp(result["acceptance_rate"] - _TUNE_TARGET_ACCEPT))
    return eps, state
