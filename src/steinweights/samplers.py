"""Point-set generators: i.i.d. mixture draws, parallel MALA, parallel SGLD.

Chain randomness is split per chain: chain c draws from a generator seeded
by SeedSequence(entropy=seed, spawn_key=(c,)). Chain c's trajectory is
therefore invariant to the total chain count and to execution order, and
every sampler is bit-reproducible from its config.

Per-chain draw order is part of the contract:

* init: d standard normals scaled by ``init_scale``;
* MALA step: d proposal normals, then one acceptance uniform;
* SGLD step: d noise normals. A step's minibatch comes from the chain's
  second generator, seeded by SeedSequence(entropy=seed, spawn_key=(c, 0)):
  it is the next ``minibatch_size`` entries of that generator's latest
  ``permutation(n_data)``, read in order, and once fewer than
  ``minibatch_size`` entries are left every chain draws a fresh
  permutation. So each minibatch is a uniform draw without replacement,
  and no data point repeats within a pass over the data (random
  reshuffling). A full batch (``minibatch_size == n_data``) draws no
  indices: every chain's batch is all the data, and a step draws only its
  noise.

MALA draws its randomness step by step, chain by chain, into buffers that
each step reuses. SGLD draws its noise chain by chain, as one (steps, d)
block per batch of at most 512 chain-steps (one step of every chain when
there are more chains), into a buffer that each batch reuses: the same
numbers as d normals a step. Each chain keeps one int32 permutation of the
data. So a run of n chains in d dimensions with minibatches of m holds
O(max(n, 512) (d + m)) numbers of randomness plus 4 n n_data bytes of
indices, whatever its number of steps.

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


def _chain_generator(seed: int, *spawn_key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=spawn_key))


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
    generators chain by chain: MALA d proposal normals and a uniform, SGLD
    its noise in blocks of steps. Each draw fills a view with ``out=``;
    passing the size as well costs about a microsecond per call.
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


def _sgld_draws(rngs, seed: int, dimension: int, n_data: int, m: int, n_steps: int):
    """Yield each SGLD step's noise, (c, d), and minibatch indices, (c, m).

    Chain c draws its noise from ``rngs[c]``, d normals per step, as one
    (steps, d) block per batch of at most _DRAW_BATCH chain-steps (one step
    of every chain when there are more chains). Its indices come from its
    index generator, SeedSequence(entropy=seed, spawn_key=(c, 0)): each
    minibatch is the next m entries of the chain's current permutation of
    range(n_data), and when fewer than m entries are left every chain draws
    a fresh ``permutation(n_data)``. m = 0 draws no indices. Each yielded
    pair is a view of buffers that later steps overwrite.
    """
    n_chains = len(rngs)
    span = max(1, min(n_steps, _DRAW_BATCH // n_chains))
    noise = np.empty((n_chains, span, dimension))
    index_rngs = [_chain_generator(seed, c, 0) for c in range(n_chains)] if m else []
    perms = np.empty((n_chains, n_data if m else 0), dtype=np.int32)
    pos = n_data  # every chain's cursor into its permutation
    for start in range(0, n_steps, span):
        steps = min(span, n_steps - start)
        for rng, block in zip(rngs, noise):
            rng.standard_normal(out=block[:steps])
        for step in range(steps):
            if pos + m > n_data:  # never at m = 0
                for rng, row in zip(index_rngs, perms):
                    row[...] = rng.permutation(n_data)
                pos = 0
            yield noise[:, step], perms[:, pos:pos + m]
            pos += m


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
    draws = _sgld_draws(rngs, config.seed, d, n_data, m if minibatch else 0, config.n_steps)
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
