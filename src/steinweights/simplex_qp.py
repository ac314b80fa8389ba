"""Minimize w' K w over the probability simplex.

The feasible region is {w : sum(w) = 1, w_i >= 0}. The solver is entropic
mirror descent (multiplicative updates). It starts from uniform weights
and only accepts steps that do not increase the objective, so the
uniform-weight objective is an upper bound on the result.

The (n, n) products with K dominate the cost. The solver forms K w once
per iterate and uses it twice: the objective is w' (K w) and the next
gradient is 2 K w. It grows its step size by 1.25 after each accepted
step, so an iteration tries about 1 + log2(1.25) = 1.32 candidates rather
than the 2 a doubling step size costs. Most candidates that fail the
sufficient-decrease check are known to fail before their product: a
Cauchy-Schwarz bound through the last accepted step, whose image under K
is the difference of two known gradients, rules them out. So an iteration
costs about one product, plus one at the uniform start, and takes the same
steps as a loop that forms K c for every candidate. Every matrix a
:class:`QpProblem` holds is exactly symmetric, so each product is a BLAS
``dsymv`` that reads one triangle of K, half the bytes of a general
matrix-vector product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
# Screening a candidate before its product. With s = w - c, the check
# c' K c <= w' K w - _ARMIJO_FRACTION * g's (g = 2 K w) is s' K s <=
# (1 - _ARMIJO_FRACTION) g's. For PSD K, Cauchy-Schwarz bounds
# s' K s >= (s' K s_p)^2 / (s_p' K s_p) for the last accepted step s_p,
# whose image K s_p = (g_old - g) / 2 is known without a product. A
# candidate whose bound exceeds the right-hand side must fail, so the loop
# halves eta without forming K c. In terms of u = 2 K s_p the screen is
# (s'u)^2 > (s_p'u) (_SCREEN_FACTOR g's + slack): the factor is
# 2 (1 - _ARMIJO_FRACTION) widened by 1e-6 relative, and the slack,
# _SCREEN_SLACK n eps max|K|, covers rounding in the products and dots,
# which could otherwise screen a candidate that the check accepts. It
# applies only when g's > 0 and s_p'u > 0; otherwise the bound says
# nothing. A wrong skip, say on a K with eigenvalues below zero by more
# than rounding, would change the path, but every accepted step still
# passes the check itself.
_SCREEN_FACTOR = 2.0 * (1.0 - _ARMIJO_FRACTION) * (1.0 + 1e-6)
_SCREEN_SLACK = 16.0


@dataclass(frozen=True)
class QpProblem:
    """Quadratic program min w' K w subject to sum(w) = 1, w_i >= 0.

    ``gram`` is a :class:`SteinGram`, whose matrix is already finite,
    exactly symmetric and C-ordered. Construction replaces ``gram`` with
    that matrix, which the solver's symmetric products take without a
    copy. Wrap any other matrix as ``SteinGram(matrix)``.
    """

    gram: SteinGram

    def __post_init__(self):
        object.__setattr__(self, "gram", self.gram.matrix)

    @property
    def n(self) -> int:
        return self.gram.shape[0]


@dataclass(frozen=True)
class QpSolution:
    """Solver output.

    ``gap`` is the linear-minimization (Frank-Wolfe) gap <w - v, grad f(w)>
    at the final iterate, an upper bound on the suboptimality f(w) - f*.
    """

    weights: np.ndarray
    objective: float
    iterations: int
    converged: bool
    gap: float


def _fw_gap(weights: np.ndarray, gradient: np.ndarray) -> float:
    """The Frank-Wolfe gap <w - v, grad f(w)>, v the simplex vertex that
    minimizes the linearization: e_i at the lowest-index coordinate with
    minimal gradient.
    """
    vertex = np.zeros(gradient.shape[0])
    vertex[int(np.argmin(gradient))] = 1.0
    return float(gradient @ (weights - vertex))


def _trivial_solution(mat: np.ndarray, scale: float) -> QpSolution | None:
    """The solution of a problem whose answer needs no iteration: one point,
    or K = 0 (``scale`` = max|K| = 0)."""
    n = mat.shape[0]
    if n == 1:
        w = np.array([1.0])
        return QpSolution(w, float(w @ _gram_product(mat, w)), 0, True, 0.0)
    if scale == 0.0:
        return QpSolution(np.full(n, 1.0 / n), 0.0, 0, True, 0.0)
    return None


def solve(
    problem: QpProblem,
    max_iters: int | None = None,
    tol: float | None = None,
) -> QpSolution:
    """Entropic mirror descent (multiplicative weights) on the simplex.

    It steps w <- w * exp(-eta * grad f(w)) / Z, with backtracking on the
    step size: eta starts at 1 / (2 max|K|), halves whenever a step fails a
    sufficient-decrease check, and grows by ``_ETA_GROWTH`` = 1.25 after
    each accepted step. Plain accept-on-any-decrease stalls by reflecting
    across the optimum with vanishing progress, so acceptance demands a
    fixed fraction of the decrease the linearization predicts. Convergence
    is declared when the relative objective decrease over one accepted step
    falls below ``tol`` (default 1e-10). Exhausting ``max_iters`` (default
    max(2000, 50 n)) returns the best iterate with ``converged`` False
    rather than raising. A matrix with 4 max|K| beyond the float range
    raises :class:`SolverError`, since its gradients could overflow.

    A scored candidate costs one product K c, which gives both its
    objective c' (K c) and, if the step is accepted, the next gradient
    2 K c. A grown step fails the check about once every three iterations,
    and most of those failures are known before the product (see
    ``_SCREEN_FACTOR``), so an iteration costs about one product. Each
    product reads one triangle of K. The loop works in preallocated
    buffers: an accepted candidate becomes the iterate by swapping the
    buffers.
    """
    mat = problem.gram
    n = problem.n
    # max|K| without an (n, n) temporary; the same value as np.abs(K).max().
    scale = max(float(mat.max()), -float(mat.min()))
    trivial = _trivial_solution(mat, scale)
    if trivial is not None:
        return trivial
    # Every iterate is on the simplex, so |K w| <= max|K| up to rounding and
    # each gradient 2 K w is finite whenever 4 max|K| is.
    if not math.isfinite(4.0 * scale):
        raise SolverError(f"max|K| = {scale:.3e} is too large for finite gradients")
    if max_iters is None:
        max_iters = max(2000, 50 * n)
    if tol is None:
        tol = 1e-10
    w = np.full(n, 1.0 / n)
    grad = _gram_product(mat, w)
    obj = float(w @ grad)
    grad *= 2.0
    eta = 1.0 / (2.0 * scale)
    slack = _SCREEN_SLACK * n * np.finfo(float).eps * scale
    converged = False
    iterations = 0
    candidate = np.empty(n)
    z = np.empty(n)
    step = np.empty(n)
    # prev_image = 2 K s_p for the last accepted step s_p = w_old - w, and
    # prev_curv = s_p' (2 K s_p); no screen until a step is accepted.
    prev_image = None
    prev_curv = 0.0
    for _ in range(max_iters):
        # The loop calls the ufunc reductions behind ndarray.min and
        # ndarray.sum: the same bits without the method wrappers' overhead,
        # which counts at small n.
        low = float(np.minimum.reduce(grad))
        accepted = False
        for _ in range(_MAX_BACKTRACKS):
            np.multiply(grad, -eta, out=z)
            # Subtract max(z), which is -eta * min(grad) exactly, as rounding
            # is monotone.
            z -= -eta * low
            np.exp(z, out=z)
            np.multiply(w, z, out=candidate)
            total = float(np.add.reduce(candidate))
            if total <= 0.0 or not math.isfinite(total):
                eta *= 0.5
                continue
            candidate /= total
            predicted = float(grad @ np.subtract(w, candidate, out=step))
            if prev_curv > 0.0 and predicted > 0.0:
                cross = float(step @ prev_image)
                if cross * cross > prev_curv * (_SCREEN_FACTOR * predicted + slack):
                    eta *= 0.5
                    continue
            kc = _gram_product(mat, candidate)
            cand_obj = float(candidate @ kc)
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
        kc *= 2.0
        grad -= kc
        prev_image, grad = grad, kc
        prev_curv = float(step @ prev_image)
        eta *= _ETA_GROWTH
        if decrease <= tol * max(abs(obj), 1e-300):
            converged = True
            break
    w = w / float(w.sum())
    return QpSolution(w, obj, iterations, converged, _fw_gap(w, grad))
