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
it. The package's samplers must match both bit for bit.
"""

import itertools

import numpy as np


def enumerate_qp_optimum(mat, lower_bound=0.0):
    """Exact minimizer of w' K w over {sum w = 1, w >= lower_bound}.

    Enumerates candidate active sets: every subset S of indices is tried as
    the free support, with the complement pinned at the lower bound. The
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
            fixed = np.array([i for i in range(n) if i not in support])
            budget = 1.0 - lower_bound * fixed.size
            k_ss = mat[np.ix_(free, free)]
            rhs_lin = np.zeros(free.size)
            if fixed.size:
                rhs_lin = -2.0 * lower_bound * mat[np.ix_(free, fixed)].sum(axis=1)
            system = np.zeros((free.size + 1, free.size + 1))
            system[: free.size, : free.size] = 2.0 * k_ss
            system[: free.size, -1] = -1.0
            system[-1, : free.size] = 1.0
            rhs = np.append(rhs_lin, budget)
            sol, *_ = np.linalg.lstsq(system, rhs, rcond=None)
            w_free = sol[: free.size]
            if np.any(w_free < lower_bound - 1e-9):
                continue
            w = np.full(n, lower_bound)
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


def grid_qp_optimum(mat, lower_bound=0.0, resolution=1e-3):
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

    hi = 1.0 - (n - 1) * lower_bound
    grid = np.arange(lower_bound, hi + resolution / 2, resolution)
    if n == 2:
        cands = np.column_stack([grid, 1.0 - grid])
    else:
        inner = [
            np.arange(lower_bound, 1.0 - w1 - lower_bound + resolution / 2, resolution)
            for w1 in grid
        ]
        w1 = np.repeat(grid, [len(w2) for w2 in inner])
        w2 = np.concatenate(inner)
        cands = np.column_stack([w1, w2, 1.0 - w1 - w2])
    cands = cands[cands[:, -1] >= lower_bound - 1e-12]
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
                if cand[j] < lower_bound - 1e-15:
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
    the same dict as ``samplers.mala_chain_moments``.
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
