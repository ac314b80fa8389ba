"""Shared oracles for the test suite.

The QP oracles here are deliberately independent of the package solvers:
``enumerate_qp_optimum`` solves the equality-constrained KKT system for every
support subset and keeps the best feasible candidate, which is exact for the
small matrices used in tests. ``grid_qp_optimum`` is a literal simplex grid
scan with local refinement; it is only practical for n <= 3 but serves to
cross-check the enumeration oracle.

``longdouble_stein_gram`` evaluates the Stein kernel pair by pair from its
defining formula in extended precision, as an accuracy oracle for the
package's float64 Gram.

``frozen_mala_chain_moments`` is the single-chain MALA loop written out on a
(d,) state, with its own proposal and Metropolis correction, and
``reference_mala_chains`` replays parallel MALA chains one at a time with
it. ``frozen_many_chain_moments`` is the moment oracle's batch of chains,
updated one row at a time with the same formulas. ``frozen_sgld_chains``
draws every chain's whole run up front, chain by chain, and then steps all
chains as one batch. The package's samplers must match them bit for bit.
"""

import itertools
import math

import numpy as np

from steinweights.errors import NonFinitePointsError

# The gmm_fixture target's default ranges, for tests that draw their own
# mixtures with random_gaussian_mixture.
GMM_RANGES = {"mean_range": (-5.0, 5.0), "variance_range": (0.3, 1.0)}


def enumerate_qp_optimum(mat):
    """Exact minimizer of w' K w over {sum w = 1, w >= 0}.

    Enumerates candidate active sets: every subset S of indices is tried as
    the free support, with the complement pinned at zero. The
    stationarity system on S is solved with a least-squares fallback so
    singular blocks do not abort the scan.
    """
    mat = np.asarray(mat, dtype=float)
    n = mat.shape[0]
    best_w = None
    best_obj = np.inf
    for size in range(1, n + 1):
        for support in itertools.combinations(range(n), size):
            free = np.array(support)
            k_ss = mat[np.ix_(free, free)]
            system = np.zeros((free.size + 1, free.size + 1))
            system[: free.size, : free.size] = 2.0 * k_ss
            system[: free.size, -1] = -1.0
            system[-1, : free.size] = 1.0
            rhs = np.append(np.zeros(free.size), 1.0)
            sol, *_ = np.linalg.lstsq(system, rhs, rcond=None)
            w_free = sol[: free.size]
            if np.any(w_free < -1e-9):
                continue
            w = np.zeros(n)
            w[free] = w_free
            total = w.sum()
            if abs(total - 1.0) > 1e-8:
                continue
            w = w / total
            obj = float(w @ mat @ w)
            if obj < best_obj:
                best_obj = obj
                best_w = w
    return best_w, best_obj


def grid_qp_optimum(mat, resolution=1e-3):
    """Brute-force simplex grid scan followed by coordinate refinement.

    Only supports n in {2, 3}; larger grids are astronomically big at this
    resolution, which is why the enumeration oracle above exists.
    """
    mat = np.asarray(mat, dtype=float)
    n = mat.shape[0]
    if n not in (2, 3):
        raise ValueError("grid oracle only supports n in {2, 3}")

    def objective(w):
        return float(w @ mat @ w)

    grid = np.arange(0.0, 1.0 + resolution / 2, resolution)
    if n == 2:
        cands = np.column_stack([grid, 1.0 - grid])
    else:
        inner = [
            np.arange(0.0, 1.0 - w1 + resolution / 2, resolution)
            for w1 in grid
        ]
        w1 = np.repeat(grid, [len(w2) for w2 in inner])
        w2 = np.concatenate(inner)
        cands = np.column_stack([w1, w2, 1.0 - w1 - w2])
    cands = cands[cands[:, -1] >= -1e-12]
    # Batched, w @ mat @ w rounds as it does one w at a time, and argmin
    # keeps the first strict minimum in grid order, as a loop over it would.
    objs = ((cands @ mat)[:, None, :] @ cands[:, :, None])[:, 0, 0]
    best_w = cands[np.argmin(objs)]
    best_obj = objective(best_w)

    # Local refinement: shrink a coordinate-pair pattern search until the
    # step is far below the requested resolution.
    step = resolution
    w = best_w.copy()
    while step > 1e-12:
        improved = False
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                cand = w.copy()
                cand[i] += step
                cand[j] -= step
                if cand[j] < -1e-15:
                    continue
                obj = objective(cand)
                if obj < best_obj - 1e-18:
                    best_obj, w = obj, cand
                    improved = True
        if not improved:
            step /= 2.0
    return w, best_obj


def random_psd(rng, n, scale=1.0):
    """Random PSD matrix with eigenvalues spread over a few decades."""
    basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = scale * 10.0 ** rng.uniform(-2, 1, size=n)
    return (basis * eigs) @ basis.T


def central_difference(f, x, eps=1e-5):
    """Componentwise central finite difference of a scalar function."""
    x = np.asarray(x, dtype=float)
    grad = np.empty_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = eps
        grad[i] = (f(x + step) - f(x - step)) / (2.0 * eps)
    return grad


def longdouble_stein_gram(points, scores, bandwidth):
    """Stein Gram of the RBF kernel exp(-||x - y||^2 / h), pair by pair.

    Each entry is exp(-||r||^2 / h) (s_i's_j + (2/h)(s_i - s_j)'r + 2d/h
    - 4||r||^2 / h^2) with r = x_i - x_j, evaluated in np.longdouble from the
    float64 points and scores and rounded to float64 once at the end.
    """
    x = np.asarray(points, dtype=np.longdouble)
    s = np.asarray(scores, dtype=np.longdouble)
    h = np.longdouble(bandwidth)
    n, d = x.shape
    out = np.empty((n, n))
    for i in range(n):
        r = x[i] - x
        sq = np.sum(r * r, axis=1)
        bracket = (
            np.sum(s[i] * s, axis=1)
            + (2 / h) * np.sum((s[i] - s) * r, axis=1)
            + 2 * d / h
            - 4 * sq / (h * h)
        )
        out[i] = np.exp(-sq / h) * bracket
    return out


def frozen_mala_chain_moments(
    target, n_draws, burn_in, step_size, seed, init=None, store_every=10
):
    """One long MALA chain with streaming moments, on a (d,) state.

    Per step: d proposal normals, then one acceptance uniform, both from
    ``np.random.default_rng(seed)`` (a Generator is used as it is). Returns
    the keys of ``samplers.mala_chain_moments``; ``reference_mala_chains``
    runs one such chain per parallel chain.
    """
    d = target.dimension
    rng = np.random.default_rng(seed)
    x = np.zeros(d) if init is None else np.asarray(init, dtype=float).copy()
    eps = float(step_size)
    root = np.sqrt(2.0 * eps)
    log_p = float(target.log_density(x[None, :])[0])
    score = np.asarray(target.score(x[None, :])[0], dtype=float)
    sum_x = np.zeros(d)
    sum_sq = np.zeros(d)
    accepted = 0
    kept = 0
    thinned = []
    total = burn_in + n_draws
    for step in range(total):
        xi = rng.standard_normal(d)
        proposal = x + eps * score + root * xi
        log_p_prop = float(target.log_density(proposal[None, :])[0])
        score_prop = np.asarray(target.score(proposal[None, :])[0], dtype=float)
        fwd = proposal - x - eps * score
        bwd = x - proposal - eps * score_prop
        if eps > 0.0:
            log_alpha = log_p_prop - log_p + (fwd @ fwd - bwd @ bwd) / (4.0 * eps)
        else:
            log_alpha = log_p_prop - log_p
        if np.log(rng.uniform()) < log_alpha:
            x = proposal
            log_p = log_p_prop
            score = score_prop
            accepted += 1
        if step >= burn_in:
            kept += 1
            sum_x += x
            sum_sq += x * x
            if store_every and kept % store_every == 0:
                thinned.append(x.copy())
    return {
        "mean": sum_x / max(kept, 1),
        "second_moment": sum_sq / max(kept, 1),
        "acceptance_rate": accepted / max(total, 1),
        "final_state": x,
        "thinned": np.array(thinned) if thinned else np.empty((0, d)),
    }


def frozen_many_chain_moments(
    target, n_draws, burn_in, step_size, seed, init=None, store_every=10, chains=64
):
    """The moment oracle's C = min(chains, n_draws) MALA chains, row by row.

    Every chain starts at ``init`` (or zeros). Each step draws a (C, d) block
    of proposal normals, then C acceptance uniforms, from
    ``np.random.default_rng(seed)``, and updates chain 0, 1, ..., C - 1 in
    turn with the formulas of ``frozen_mala_chain_moments``. The target is
    evaluated once per step on all C proposals, since a probit row rounds
    differently alone than in a batch. Each chain discards its first
    ceil(burn_in / C) steps and keeps the next ceil(n_draws / C); kept rows
    are counted step-major, chain-minor, and each chain's sums are added in
    chain order. Returns the same dict as ``samplers.mala_chain_moments``.
    """
    d = target.dimension
    c_count = min(chains, n_draws)
    burn_steps = math.ceil(burn_in / c_count)
    kept_steps = math.ceil(n_draws / c_count)
    rng = np.random.default_rng(seed)
    start = np.zeros(d) if init is None else np.asarray(init, dtype=float)
    xs = [start.copy() for _ in range(c_count)]
    log_ps = list(np.asarray(target.log_density(np.array(xs)), dtype=float))
    scores = list(np.asarray(target.score(np.array(xs)), dtype=float))
    eps = float(step_size)
    root = np.sqrt(2.0 * eps)
    sums = [np.zeros(d) for _ in range(c_count)]
    sums_sq = [np.zeros(d) for _ in range(c_count)]
    accepted = 0
    kept = 0
    thinned = []
    for step in range(burn_steps + kept_steps):
        xi = rng.standard_normal((c_count, d))
        uniforms = rng.uniform(size=c_count)
        proposals = np.array([xs[c] + eps * scores[c] + root * xi[c] for c in range(c_count)])
        log_p_props = np.asarray(target.log_density(proposals), dtype=float)
        score_props = np.asarray(target.score(proposals), dtype=float)
        for c in range(c_count):
            fwd = proposals[c] - xs[c] - eps * scores[c]
            bwd = xs[c] - proposals[c] - eps * score_props[c]
            if eps > 0.0:
                log_alpha = (log_p_props[c] - log_ps[c]
                             + (fwd @ fwd - bwd @ bwd) / (4.0 * eps))
            else:
                log_alpha = log_p_props[c] - log_ps[c]
            if np.log(uniforms[c]) < log_alpha:
                xs[c] = proposals[c]
                log_ps[c] = log_p_props[c]
                scores[c] = score_props[c]
                accepted += 1
            if step >= burn_steps:
                kept += 1
                sums[c] += xs[c]
                sums_sq[c] += xs[c] * xs[c]
                if store_every and kept % store_every == 0:
                    thinned.append(xs[c].copy())
    total, total_sq = sums[0].copy(), sums_sq[0].copy()
    for c in range(1, c_count):
        total += sums[c]
        total_sq += sums_sq[c]
    return {
        "mean": total / kept,
        "second_moment": total_sq / kept,
        "acceptance_rate": accepted / (c_count * (burn_steps + kept_steps)),
        "final_state": xs[0],
        "thinned": np.array(thinned) if thinned else np.empty((0, d)),
    }


def reference_mala_chains(target, config):
    """Final states of ``config.n_chains`` MALA chains, run one at a time.

    Chain c draws from SeedSequence(entropy=config.seed, spawn_key=(c,)):
    its d-dimensional init scaled by ``config.init_scale``, then per step d
    proposal normals and one acceptance uniform.
    """
    finals = []
    for c in range(config.n_chains):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=config.seed, spawn_key=(c,))
        )
        init = config.init_scale * rng.standard_normal(target.dimension)
        chain = frozen_mala_chain_moments(
            target, n_draws=config.n_steps, burn_in=0, step_size=config.step_size,
            seed=rng, init=init, store_every=0,
        )
        finals.append(chain["final_state"])
    return np.array(finals)


def frozen_sgld_minibatches(seed, n_chains, n_steps, n_data, m):
    """Every chain's minibatch indices, (n_chains, n_steps, m), drawn up front.

    Chain c's indices come from SeedSequence(entropy=seed, spawn_key=(c, 0)).
    A pass over the data is one ``permutation(n_data)`` cut into its first
    n_data // m blocks of m entries, in order; the n_data mod m entries left
    over are never used. Step t takes block t mod (n_data // m) of pass
    t // (n_data // m).
    """
    per_pass = n_data // m
    passes = -(-n_steps // per_pass)
    batches = np.empty((n_chains, passes * per_pass, m), dtype=np.int64)
    for c in range(n_chains):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(c, 0)))
        for p in range(passes):
            perm = rng.permutation(n_data)
            batches[c, p * per_pass:(p + 1) * per_pass] = perm[:per_pass * m].reshape(per_pass, m)
    return batches[:, :n_steps]


def frozen_sgld_chains(model, config):
    """SGLD chains with every chain's whole run drawn before the first step.

    Chain c draws its init and then d noise normals per step, one step at a
    time, from SeedSequence(entropy=config.seed, spawn_key=(c,)), into
    (n, T, d) arrays. Below the full batch its minibatches are
    ``frozen_sgld_minibatches``, and the drift is prior_score + (N / m) times
    the minibatch score; at ``minibatch_size == n_data`` it draws no indices
    and the drift is the full score. The steps then run all chains as one
    batch.
    """
    m = config.minibatch_size
    n_data = model.n_data
    c, t, d = config.n_chains, config.n_steps, model.dimension
    x = np.empty((c, d))
    noise = np.empty((c, t, d))
    for i in range(c):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=config.seed, spawn_key=(i,)))
        x[i] = config.init_scale * rng.standard_normal(d)
        for step in range(t):
            noise[i, step] = rng.standard_normal(d)
    if m < n_data:
        batches = frozen_sgld_minibatches(config.seed, c, t, n_data, m)
    eps = config.step_size
    scale = n_data / m
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for step in range(t):
            if m < n_data:
                drift = model.prior_score(x) + scale * model.data_score_minibatch(
                    x, batches[:, step]
                )
            else:
                drift = model.score(x)
            x = x + 0.5 * eps * drift + np.sqrt(eps) * noise[:, step]
            finite = np.all(np.isfinite(x), axis=1)
            if not finite.all():
                chain = int(np.argmin(finite))
                raise NonFinitePointsError(
                    f"SGLD chain {chain} became non-finite at step {step + 1} "
                    f"of {config.n_steps}"
                )
    return x
