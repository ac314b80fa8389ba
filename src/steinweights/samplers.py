"""Point-set generators: i.i.d. mixture draws, parallel MALA, parallel SGLD.

Chain randomness is split per chain: chain c draws from a generator seeded
by SeedSequence(entropy=seed, spawn_key=(c,)). Chain c's trajectory is
therefore invariant to the total chain count and to execution order, and
every sampler is bit-reproducible from its config.

Per-chain draw order is part of the contract:

* init: d standard normals scaled by ``init_scale``;
* MALA step: d proposal normals, then one acceptance uniform;
* SGLD step: d noise normals, then the minibatch index draw.
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
    init_scale: float = 1.0
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


def _pregenerate(
    config: ChainConfig, dimension: int, step_draw, draw_shape=(), draw_dtype=float
):
    """Draw per-chain randomness up front so the dynamics can run chain-batched.

    Chain c draws its init, then per step d noise normals followed by
    ``step_draw(rng)``, one value of shape ``draw_shape`` (the acceptance
    uniform for MALA, the minibatch indices for SGLD).
    """
    c, t, d = config.n_chains, config.n_steps, dimension
    inits = np.empty((c, d))
    noise = np.empty((c, t, d))
    draws = np.empty((c, t) + tuple(draw_shape), dtype=draw_dtype)
    for i in range(c):
        rng = _chain_generator(config.seed, i)
        inits[i] = config.init_scale * rng.standard_normal(d)
        for step in range(t):
            noise[i, step] = rng.standard_normal(d)
            draws[i, step] = step_draw(rng)
    return inits, noise, draws


def _mala_proposal(target: ScoreTarget, x, log_p, score, eps: float, xi):
    """One MALA proposal from each row of ``x``, (c, d), with normals ``xi``.

    Returns the proposal x + eps * score + sqrt(2 eps) xi, its log-density
    and score, and the log acceptance ratio of each row. The Metropolis
    correction vanishes at ``eps = 0``, where the proposal is ``x`` itself.
    """
    proposal = x + eps * score + np.sqrt(2.0 * eps) * xi
    log_p_prop = np.asarray(target.log_density(proposal), dtype=float)
    score_prop = np.asarray(target.score(proposal), dtype=float)
    log_alpha = log_p_prop - log_p
    if eps > 0.0:
        fwd = proposal - x - eps * score
        bwd = x - proposal - eps * score_prop
        # np.add.reduce is np.sum without its Python-level wrapper, whose
        # cost the oracle's one-row batch would pay on every step.
        log_alpha += np.add.reduce(fwd * fwd - bwd * bwd, axis=1) / (4.0 * eps)
    return proposal, log_p_prop, score_prop, log_alpha


def mala_chains(target: ScoreTarget, config: ChainConfig) -> np.ndarray:
    """Run parallel MALA chains; returns the final state of each, (n_chains, d).

    Proposal: x + eps * score(x) + sqrt(2 eps) xi, accepted with the usual
    Metropolis correction. ``n_steps = 0`` returns the initial points.
    """
    if target.log_density is None:
        raise ValueError("MALA needs a target log-density for the accept step")
    d = target.dimension
    inits, noise, uniforms = _pregenerate(config, d, lambda rng: rng.uniform())
    x = inits
    eps = config.step_size
    log_p = np.asarray(target.log_density(x), dtype=float)
    score = np.asarray(target.score(x), dtype=float)
    for step in range(config.n_steps):
        proposal, log_p_prop, score_prop, log_alpha = _mala_proposal(
            target, x, log_p, score, eps, noise[:, step]
        )
        accept = np.log(uniforms[:, step]) < log_alpha
        x = np.where(accept[:, None], proposal, x)
        log_p = np.where(accept, log_p_prop, log_p)
        score = np.where(accept[:, None], score_prop, score)
    return x


def sgld_chains(model, config: ChainConfig) -> np.ndarray:
    """Run parallel stochastic-gradient Langevin chains, (n_chains, d).

    The update is

        x <- x + (eps / 2) [prior_score(x) + (N / m) sum_batch grad loglik]
               + sqrt(eps) xi

    with a fresh without-replacement minibatch per chain per step. The model
    must expose ``n_data``, ``dimension``, ``prior_score`` and
    ``data_score_minibatch``. With ``minibatch_size == n_data`` the drift is
    the full-data gradient; with ``step_size == 0`` points do not move.

    Raises :class:`~steinweights.errors.NonFinitePointsError`, naming the
    step and the first such chain, as soon as any chain is non-finite.
    """
    m = config.minibatch_size
    if m is None:
        raise ValueError("SGLD requires minibatch_size")
    n_data = model.n_data
    if m > n_data:
        raise ValueError(f"minibatch_size {m} exceeds data size {n_data}")
    x, noise, batches = _pregenerate(
        config,
        model.dimension,
        lambda rng: rng.choice(n_data, size=m, replace=False),
        draw_shape=(m,),
        draw_dtype=np.int64,
    )
    eps = config.step_size
    scale = n_data / m
    # A step that overflows leaves a non-finite chain, which raises below;
    # the error replaces numpy's floating-point warnings for that step.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for step in range(config.n_steps):
            drift = model.prior_score(x) + scale * model.data_score_minibatch(
                x, batches[:, step]
            )
            x = x + 0.5 * eps * drift + np.sqrt(eps) * noise[:, step]
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
    init: np.ndarray | None = None,
    store_every: int = 10,
) -> dict:
    """Single long MALA chain with streaming moment accumulation.

    Returns a dict with ``mean``, ``second_moment``, ``acceptance_rate``,
    ``final_state`` and ``thinned`` (every ``store_every``-th post-burn-in
    draw, for expectations beyond the first two moments).
    """
    if target.log_density is None:
        raise ValueError("MALA needs a target log-density for the accept step")
    d = target.dimension
    rng = np.random.default_rng(seed)
    # The chain is a one-row batch, (1, d); it accepts with a scalar test.
    x = np.zeros((1, d)) if init is None else np.array(init, dtype=float).reshape(1, d)
    eps = float(step_size)
    log_p = np.asarray(target.log_density(x), dtype=float)
    score = np.asarray(target.score(x), dtype=float)
    sum_x = np.zeros((1, d))
    sum_sq = np.zeros((1, d))
    accepted = 0
    kept = 0
    thinned = []
    total = burn_in + n_draws
    for step in range(total):
        xi = rng.standard_normal(d)
        proposal, log_p_prop, score_prop, log_alpha = _mala_proposal(
            target, x, log_p, score, eps, xi
        )
        if np.log(rng.uniform()) < log_alpha[0]:
            x = proposal
            log_p = log_p_prop
            score = score_prop
            accepted += 1
        if step >= burn_in:
            kept += 1
            sum_x += x
            sum_sq += x * x
            if store_every and kept % store_every == 0:
                thinned.append(x[0])
    return {
        "mean": sum_x[0] / max(kept, 1),
        "second_moment": sum_sq[0] / max(kept, 1),
        "acceptance_rate": accepted / max(total, 1),
        "final_state": x[0],
        "thinned": np.array(thinned) if thinned else np.empty((0, d)),
    }


def tune_mala_step(
    target: ScoreTarget,
    seed: int,
    init: np.ndarray | None = None,
    initial_step: float = 0.1,
    target_accept: float = 0.574,
    pilot_steps: int = 500,
    rounds: int = 12,
) -> tuple[float, np.ndarray]:
    """Adapt the MALA step size toward a target acceptance rate.

    Runs short pilot stretches, nudging log(step) by the acceptance error
    after each. Returns the tuned step and the final chain state, which
    makes a warm start for the production run.
    """
    d = target.dimension
    eps = float(initial_step)
    state = np.zeros(d) if init is None else np.asarray(init, dtype=float)
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
        eps *= float(np.exp(result["acceptance_rate"] - target_accept))
    return eps, state
