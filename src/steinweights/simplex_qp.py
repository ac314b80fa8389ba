"""Minimize w' K w over the probability simplex, or a shifted one.

The feasible region is {w : sum(w) = 1, w_i >= lb} for a common lower
bound lb with n * lb <= 1: zero gives the probability simplex, and a
negative lb lets weights drop mildly below zero. One solver covers every
lb: entropic mirror descent (multiplicative updates) on u = w - lb, which
lives on the simplex scaled to sum 1 - n * lb. It starts from uniform
weights and only accepts steps that do not increase the objective, so the
recorded objective trace is non-increasing and the uniform-weight
objective is an upper bound on the result.

The (n, n) products with K dominate the cost. The solver forms K w once
per iterate and uses it twice: the objective is w' (K w) and the next
gradient is 2 K w. So it costs one product per candidate step it scores,
plus one at the uniform start. It grows its step size by 1.25 after each
accepted step, so an iteration scores about 1 + log2(1.25) = 1.32
candidates rather than the 2 a doubling step size costs. Every matrix a
:class:`QpProblem` holds is exactly symmetric, so each product is a BLAS
``dsymv`` that reads one triangle of K, half the bytes of a general
matrix-vector product.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import SolverError
from .stein import SteinGram, _gram_product

__all__ = ["QpProblem", "QpSolution", "solve"]

_MAX_BACKTRACKS = 60
# Fraction of the linearized decrease a step must deliver.
_ARMIJO_FRACTION = 0.25
# Step-size growth after an accepted step. Doubling makes the next
# iteration reject its first candidate almost every time, one wasted
# product per iteration; 1.25 wastes a candidate about every
# 1 / log2(1.25) = 3.1 iterations (one halving undoes three growths).
# Without growth the step size only shrinks and the early-stopped
# weights estimate worse.
_ETA_GROWTH = 1.25


@dataclass(frozen=True)
class QpProblem:
    """Quadratic program min w' K w subject to sum(w) = 1, w_i >= lower_bound.

    ``gram`` is a :class:`SteinGram`, whose matrix is already finite,
    exactly symmetric and contiguous. Construction replaces ``gram`` with
    that matrix, which the solver's symmetric products take without a
    copy. Wrap any other matrix as ``SteinGram(matrix)``. ``lower_bound``
    must satisfy n * lower_bound <= 1 so the region is non-empty; zero
    gives the probability simplex.
    """

    gram: SteinGram
    lower_bound: float = 0.0

    def __post_init__(self):
        mat = self.gram.matrix
        if mat.shape[0] < 1:
            raise ValueError(f"gram must be non-empty, got shape {mat.shape}")
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


def _abs_max(mat: np.ndarray) -> float:
    """max |K| without an (n, n) temporary; the same value as np.abs(K).max()."""
    return max(float(mat.max()), -float(mat.min()))


def _fw_gap(weights: np.ndarray, gradient: np.ndarray, lower_bound: float) -> float:
    """The Frank-Wolfe gap <w - v, grad f(w)>, v the feasible vertex that
    minimizes the linearization.

    Vertices are lb * ones + (1 - n * lb) e_i; v puts the free mass on the
    lowest-index coordinate with minimal gradient.
    """
    n = gradient.shape[0]
    vertex = np.full(n, lower_bound)
    vertex[int(np.argmin(gradient))] = 1.0 - (n - 1) * lower_bound
    return float(gradient @ (weights - vertex))


def _trivial_solution(problem: QpProblem) -> QpSolution | None:
    """The solution of a problem whose answer needs no iteration: one point,
    a region that is the one point lb * ones (n * lb = 1), or K = 0."""
    mat = problem.gram
    n = problem.n
    lb = problem.lower_bound
    if n == 1 or n * lb >= 1.0:
        w = np.array([1.0]) if n == 1 else np.full(n, lb)
        obj = float(w @ _gram_product(mat, w))
        return QpSolution(w, obj, 0, True, 0.0, np.array([obj]))
    if _abs_max(mat) == 0.0:
        w = np.full(n, 1.0 / n)
        return QpSolution(w, 0.0, 0, True, 0.0, np.array([0.0]))
    return None


def solve(
    problem: QpProblem,
    max_iters: int | None = None,
    tol: float | None = None,
) -> QpSolution:
    """Entropic mirror descent (multiplicative weights) on the shifted simplex.

    With u = w - lb on the simplex scaled to sum span = 1 - n * lb, it steps
    u <- span * u * exp(-eta * grad f(w)) / Z, with backtracking on the step
    size: eta starts at 1 / (2 span max|K|), halves whenever a step fails a
    sufficient-decrease check, and grows by ``_ETA_GROWTH`` = 1.25 after
    each accepted step. Plain accept-on-any-decrease stalls by reflecting
    across the optimum with vanishing progress, so acceptance demands a
    fixed fraction of the decrease the linearization predicts. Convergence
    is declared when the relative objective decrease over one accepted step
    falls below ``tol`` (default 1e-10). Exhausting ``max_iters`` (default
    max(2000, 50 n)) returns the best iterate with ``converged`` False
    rather than raising. At lb = 0 the shift is exact: u is w, and span 1.

    Each scored candidate costs one product K c, which gives both its
    objective c' (K c) and, if the step is accepted, the next gradient
    2 K c. A grown step is rejected about once every three iterations, so
    an iteration costs about 1.3 products. Each product reads one triangle
    of K. The loop works in preallocated buffers: an accepted candidate
    becomes the iterate by swapping the buffers.
    """
    trivial = _trivial_solution(problem)
    if trivial is not None:
        return trivial
    mat = problem.gram
    n = problem.n
    lb = problem.lower_bound
    span = 1.0 - n * lb
    if max_iters is None:
        max_iters = max(2000, 50 * n)
    if tol is None:
        tol = 1e-10
    w = np.full(n, 1.0 / n)
    u = w - lb
    grad = _gram_product(mat, w)
    obj = float(w @ grad)
    grad *= 2.0
    trace = [obj]
    eta = 1.0 / (2.0 * span * _abs_max(mat))
    converged = False
    iterations = 0
    candidate = np.empty(n)
    cand_u = np.empty(n)
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
            np.multiply(u, z, out=cand_u)
            total = float(cand_u.sum())
            if total <= 0.0 or not np.isfinite(total):
                eta *= 0.5
                continue
            cand_u /= total / span
            np.add(cand_u, lb, out=candidate)
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
        u, cand_u = cand_u, u
        obj = cand_obj
        trace.append(obj)
        kc *= 2.0
        grad = kc
        eta *= _ETA_GROWTH
        if decrease <= tol * max(abs(obj), 1e-300):
            converged = True
            break
    w = w / float(w.sum())
    gap = _fw_gap(w, grad, lb)
    return QpSolution(w, obj, iterations, converged, gap, np.asarray(trace))
