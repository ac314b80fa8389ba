"""Minimize w' K w over the probability simplex.

Two solvers cover the two feasible regions that come up when fitting
sample weights:

* entropic mirror descent (multiplicative updates) for the standard
  simplex, weights nonnegative and summing to one;
* Frank-Wolfe with exact line search for the relaxed region where every
  weight may drop to a common lower bound, possibly negative, while still
  summing to one.

Both start from uniform weights and only ever accept steps that do not
increase the objective, so the recorded objective trace is non-increasing
and the uniform-weight objective is an upper bound on the result.

The (n, n) products with K dominate the cost. Each solver forms K w once
per iterate and uses it twice: the objective is w' (K w) and the next
gradient is 2 K w. Mirror descent therefore costs one product per
candidate step it scores, and Frank-Wolfe two per iteration (the line
search curvature and K w at the new iterate), plus one product at the
uniform start. Mirror descent grows its step size by 1.25 after each
accepted step, so an iteration scores about 1 + log2(1.25) = 1.32
candidates rather than the 2 a doubling step size costs. Every matrix a
:class:`QpProblem` holds is exactly symmetric, so each product is a BLAS
``dsymv`` that reads one triangle of K, half the bytes of a general
matrix-vector product.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import SolverError, UnsupportedConfigurationError
from .stein import SteinGram, _gram_product

__all__ = [
    "QpProblem",
    "QpSolution",
    "solve_mirror_descent",
    "solve_frank_wolfe",
    "solve",
]

_MAX_BACKTRACKS = 60
# Fraction of the linearized decrease a mirror-descent step must deliver.
_ARMIJO_FRACTION = 0.25
# Step-size growth after an accepted mirror-descent step. Doubling makes
# the next iteration reject its first candidate almost every time, one
# wasted product per iteration; 1.25 wastes a candidate about every
# 1 / log2(1.25) = 3.1 iterations (one halving undoes three growths).
# Without growth the step size only shrinks and the early-stopped
# weights estimate worse.
_ETA_GROWTH = 1.25


@dataclass(frozen=True)
class QpProblem:
    """Quadratic program min w' K w subject to sum(w) = 1, w_i >= lower_bound.

    ``gram`` may be a :class:`SteinGram` or a plain square array; a plain
    array is stored as its symmetric part 0.5 (K + K'), which is all that
    enters the quadratic form and is exactly symmetric. A SteinGram's
    matrix is used as is: it is already finite and exactly symmetric. The
    stored matrix is C- or F-contiguous, so the solvers' symmetric products
    take it without a copy; a SteinGram matrix in any other layout is made
    contiguous once, here. ``lower_bound`` must satisfy n * lower_bound <= 1
    so the region is non-empty; zero gives the probability simplex.
    """

    gram: np.ndarray
    lower_bound: float = 0.0

    def __post_init__(self):
        validated = isinstance(self.gram, SteinGram)
        mat = self.gram.matrix if validated else np.asarray(self.gram, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] < 1:
            raise ValueError(f"gram must be a non-empty square matrix, got {mat.shape}")
        if not validated:
            if not np.all(np.isfinite(mat)):
                raise ValueError("gram must be finite")
            mat = 0.5 * (mat + mat.T)
        if not (mat.flags.c_contiguous or mat.flags.f_contiguous):
            mat = np.ascontiguousarray(mat)
        object.__setattr__(self, "gram", mat)
        lb = float(self.lower_bound)
        if not np.isfinite(lb):
            raise ValueError("lower_bound must be finite")
        if lb * mat.shape[0] > 1.0:
            raise ValueError(
                f"lower_bound {lb} infeasible for n = {mat.shape[0]} (n * lb > 1)"
            )
        object.__setattr__(self, "lower_bound", lb)

    @property
    def n(self) -> int:
        return self.gram.shape[0]


@dataclass(frozen=True)
class QpSolution:
    """Solver output.

    ``gap`` is the linear-minimization (Frank-Wolfe) gap <w - v, grad f(w)>
    at the final iterate, an upper bound on the suboptimality f(w) - f*.
    ``objective_trace`` holds the accepted objective values, starting with
    the initial iterate.
    """

    weights: np.ndarray
    objective: float
    iterations: int
    converged: bool
    gap: float
    objective_trace: np.ndarray = field(repr=False)


def _lmo_vertex(gradient: np.ndarray, lower_bound: float) -> tuple[int, np.ndarray]:
    """Linear minimization over the feasible region.

    Vertices are lb * ones + (1 - n * lb) e_i; the minimizer puts the free
    mass on the lowest-index coordinate with minimal gradient.
    """
    n = gradient.shape[0]
    i = int(np.argmin(gradient))
    vertex = np.full(n, lower_bound)
    vertex[i] = 1.0 - (n - 1) * lower_bound
    return i, vertex


def _fw_gap(weights: np.ndarray, gradient: np.ndarray, lower_bound: float) -> float:
    _, vertex = _lmo_vertex(gradient, lower_bound)
    return float(gradient @ (weights - vertex))


def _abs_max(mat: np.ndarray) -> float:
    """max |K| without an (n, n) temporary; the same value as np.abs(K).max()."""
    return max(float(mat.max()), -float(mat.min()))


def _trivial_solution(problem: QpProblem) -> QpSolution | None:
    mat = problem.gram
    n = problem.n
    if n == 1:
        w = np.array([1.0])
        obj = float(mat[0, 0])
        return QpSolution(w, obj, 0, True, 0.0, np.array([obj]))
    if _abs_max(mat) == 0.0:
        w = np.full(n, 1.0 / n)
        return QpSolution(w, 0.0, 0, True, 0.0, np.array([0.0]))
    return None


def solve_mirror_descent(
    problem: QpProblem,
    max_iters: int | None = None,
    tol: float = 1e-10,
) -> QpSolution:
    """Entropic mirror descent (multiplicative weights) on the simplex.

    Steps w <- w * exp(-eta * grad) / Z with backtracking on the step size:
    eta starts at 1 / (2 max|K|), halves whenever a step fails a
    sufficient-decrease check, and grows by ``_ETA_GROWTH`` = 1.25 after
    each accepted step. Plain accept-on-any-decrease stalls by reflecting
    across the optimum with vanishing progress, so acceptance demands a
    fixed fraction of the decrease the linearization predicts. Convergence
    is declared when the relative objective decrease over one accepted step
    falls below ``tol``. Exhausting ``max_iters`` returns the best iterate
    with ``converged`` False rather than raising.

    Each scored candidate costs one product K c, which gives both its
    objective c' (K c) and, if the step is accepted, the next gradient
    2 K c. A grown step is rejected about once every three iterations, so
    an iteration costs about 1.3 products. Each product reads one triangle
    of K. The loop works in preallocated buffers: an accepted candidate
    becomes the iterate by swapping the two buffers.

    Only ``lower_bound == 0`` is supported; the multiplicative update cannot
    leave the open simplex.
    """
    if problem.lower_bound != 0.0:
        raise UnsupportedConfigurationError(
            "mirror descent handles only lower_bound = 0; use frank_wolfe"
        )
    trivial = _trivial_solution(problem)
    if trivial is not None:
        return trivial
    mat = problem.gram
    n = problem.n
    if max_iters is None:
        max_iters = max(2000, 50 * n)
    w = np.full(n, 1.0 / n)
    grad = _gram_product(mat, w)
    obj = float(w @ grad)
    grad *= 2.0
    trace = [obj]
    eta = 1.0 / (2.0 * _abs_max(mat))
    converged = False
    iterations = 0
    candidate = np.empty(n)
    z = np.empty(n)
    step = np.empty(n)
    finite = np.empty(n, dtype=bool)
    for _ in range(max_iters):
        if not np.isfinite(grad, out=finite).all():
            raise SolverError("mirror descent gradient is not finite")
        accepted = False
        for _ in range(_MAX_BACKTRACKS):
            np.multiply(grad, -eta, out=z)
            z -= z.max()
            np.exp(z, out=z)
            np.multiply(w, z, out=candidate)
            total = float(candidate.sum())
            if total <= 0.0 or not np.isfinite(total):
                eta *= 0.5
                continue
            candidate /= total
            kc = _gram_product(mat, candidate)
            cand_obj = float(candidate @ kc)
            predicted = float(grad @ np.subtract(w, candidate, out=step))
            if cand_obj <= obj - _ARMIJO_FRACTION * predicted:
                accepted = True
                break
            eta *= 0.5
        if not accepted:
            converged = True
            break
        iterations += 1
        decrease = obj - cand_obj
        w, candidate = candidate, w
        obj = cand_obj
        trace.append(obj)
        kc *= 2.0
        grad = kc
        eta *= _ETA_GROWTH
        if decrease <= tol * max(abs(obj), 1e-300):
            converged = True
            break
    w = w / float(w.sum())
    gap = _fw_gap(w, grad, 0.0)
    return QpSolution(w, obj, iterations, converged, gap, np.asarray(trace))


def solve_frank_wolfe(
    problem: QpProblem,
    max_iters: int | None = None,
    tol: float | None = None,
) -> QpSolution:
    """Frank-Wolfe with closed-form exact line search and away steps.

    The descent vertex is the feasible vertex minimizing the current
    linearization (lowest index on ties) and steps use the exact quadratic
    line search clipped to the feasible range. Plain toward-vertex steps
    alone stall at 1/t when the optimum sits on a face, so when the away
    direction (reducing the largest-gradient active coordinate) is steeper
    it is taken instead; that restores linear convergence without changing
    the feasible region or the stopping rule. Convergence is declared when
    the Frank-Wolfe gap <w - v, grad f> drops to ``tol``, which defaults to
    1e-10 * n * max(diag K); the gap bounds the remaining suboptimality.

    Each iteration costs two products with K, each reading one triangle:
    one for the line-search curvature d' (K d) and one for K w at the new
    iterate, which gives both the recorded objective w' (K w) and the next
    gradient 2 K w.
    """
    trivial = _trivial_solution(problem)
    if trivial is not None:
        return trivial
    mat = problem.gram
    n = problem.n
    lb = problem.lower_bound
    span = 1.0 - n * lb
    if span <= 0.0:
        w = np.full(n, lb)
        obj = float(w @ _gram_product(mat, w))
        return QpSolution(w, obj, 0, True, 0.0, np.array([obj]))
    if max_iters is None:
        max_iters = max(2000, 50 * n)
    if tol is None:
        tol = 1e-10 * n * max(float(np.max(np.diag(mat))), 0.0)
    w = np.full(n, 1.0 / n)
    kw = _gram_product(mat, w)
    obj = float(w @ kw)
    trace = [obj]
    converged = False
    iterations = 0
    gap = np.inf
    for _ in range(max_iters):
        grad = 2.0 * kw
        if not np.all(np.isfinite(grad)):
            raise SolverError("frank-wolfe gradient is not finite")
        s_idx, vertex = _lmo_vertex(grad, lb)
        gap = float(grad @ (w - vertex))
        if gap <= tol:
            converged = True
            break
        fw_direction = vertex - w
        active = w > lb
        masked = np.where(active, grad, -np.inf)
        a_idx = int(np.argmax(masked))
        away_vertex = np.full(n, lb)
        away_vertex[a_idx] = lb + span
        away_gap = float(grad @ (away_vertex - w))
        if gap >= away_gap:
            direction = fw_direction
            step_cap = 1.0
            drop_idx = None
            directional = gap
        else:
            direction = w - away_vertex
            u_a = (w[a_idx] - lb) / span
            if u_a >= 1.0:
                direction = fw_direction
                step_cap = 1.0
                drop_idx = None
                directional = gap
            else:
                step_cap = u_a / (1.0 - u_a)
                drop_idx = a_idx
                directional = away_gap
        curvature = float(direction @ _gram_product(mat, direction))
        if curvature <= 0.0:
            step = step_cap
        else:
            step = min(step_cap, directional / (2.0 * curvature))
        if step <= 0.0:
            converged = True
            break
        w = w + step * direction
        if drop_idx is not None and step == step_cap:
            w[drop_idx] = lb
        elif drop_idx is None and step == 1.0:
            w = vertex.copy()
        kw = _gram_product(mat, w)
        obj = float(w @ kw)
        iterations += 1
        trace.append(obj)
    w = w / float(w.sum())
    return QpSolution(w, obj, iterations, converged, float(gap), np.asarray(trace))


def solve(
    problem: QpProblem,
    max_iters: int | None = None,
    tol: float | None = None,
) -> QpSolution:
    """Mirror descent on the plain simplex, and Frank-Wolfe as soon as the
    lower bound departs from zero."""
    if problem.lower_bound == 0.0:
        kwargs = {} if tol is None else {"tol": tol}
        return solve_mirror_descent(problem, max_iters=max_iters, **kwargs)
    return solve_frank_wolfe(problem, max_iters=max_iters, tol=tol)
