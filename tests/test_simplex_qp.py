"""Simplex-constrained QP: closed-form cases, solver cross-checks, oracles."""

import numpy as np
import pytest
from scipy.linalg import blas

from steinweights import simplex_qp
from steinweights.errors import SolverError
from steinweights.kernels import RbfKernel, median_heuristic_bandwidth
from steinweights.samplers import sample_gmm_iid
from steinweights.simplex_qp import _ARMIJO_FRACTION, _MAX_BACKTRACKS, QpProblem, solve
from steinweights.stein import SteinGram, _gram_product, stein_gram
from steinweights.targets import random_gaussian_mixture, standard_normal_target
from support import GMM_RANGES, enumerate_qp_optimum, grid_qp_optimum, random_psd


class TestClosedFormCases:
    def test_identity_two(self):
        sol = solve(QpProblem(gram=SteinGram(np.eye(2))))
        np.testing.assert_allclose(sol.weights, [0.5, 0.5], atol=1e-8)
        assert sol.objective == pytest.approx(0.5, abs=1e-9)

    def test_diagonal_one_three(self):
        # The line optimum (3/4, 1/4) is interior to the simplex.
        sol = solve(QpProblem(gram=SteinGram(np.diag([1.0, 3.0]))))
        np.testing.assert_allclose(sol.weights, [0.75, 0.25], atol=1e-7)
        assert sol.objective == pytest.approx(0.75, abs=1e-9)

    def test_single_point(self):
        sol = solve(QpProblem(gram=SteinGram(np.array([[4.0]]))))
        np.testing.assert_array_equal(sol.weights, [1.0])
        assert sol.iterations == 0
        assert sol.objective == 4.0

    def test_identity_three(self):
        sol = solve(QpProblem(gram=SteinGram(np.eye(3))))
        np.testing.assert_allclose(sol.weights, np.full(3, 1.0 / 3.0), atol=1e-8)

    def test_zero_matrix_returns_uniform(self):
        sol = solve(QpProblem(gram=SteinGram(np.zeros((4, 4)))))
        np.testing.assert_allclose(sol.weights, np.full(4, 0.25), atol=1e-12)
        assert sol.objective == 0.0

    def test_sum_is_exactly_one(self):
        # The multiplicative update keeps w >= 0 exactly.
        for seed in range(10):
            rng = np.random.default_rng(seed)
            sol = solve(QpProblem(gram=SteinGram(random_psd(rng, 5))))
            assert sol.weights.sum() == pytest.approx(1.0, abs=1e-12)
            assert sol.weights.min() >= 0.0


class TestDispatch:
    def test_zero_bound_defaults_match_mirror_descent_reference(self):
        # The defaults are mirror descent's: max(2000, 50 n) iterations and
        # a relative decrease tol of 1e-10.
        rng = np.random.default_rng(1)
        mat = random_psd(rng, 6)
        problem = QpProblem(gram=SteinGram(mat))
        _assert_matches_reference(solve(problem), _reference_mirror_descent(problem, 2000))

    def test_stein_gram_matrix_used_without_copy(self):
        target = random_gaussian_mixture(3, 2, seed=1, **GMM_RANGES).as_target()
        pts = np.random.default_rng(3).standard_normal((30, 2))
        gram = stein_gram(target, RbfKernel(1.0), pts)
        assert QpProblem(gram=gram).gram is gram.matrix


class TestSolverAgreement:
    def test_cross_solver_objective_match(self):
        # Against the enumeration oracle at n = 10, beyond the small
        # instances of TestEnumerationOracle.
        for seed in range(20):
            rng = np.random.default_rng(500 + seed)
            mat = random_psd(rng, 10)
            md = solve(QpProblem(gram=SteinGram(mat)), max_iters=10000, tol=1e-14)
            _, best = enumerate_qp_optimum(mat)
            scale = max(abs(md.objective), abs(best), 1e-30)
            assert abs(md.objective - best) / scale < 1e-6

    def test_objective_at_most_uniform(self):
        # The solver starts at uniform weights and accepts only decreasing
        # steps, so uniform's objective bounds its result.
        grams = [SteinGram(random_psd(np.random.default_rng(3), 8)), _mixture_gram()]
        for gram in grams:
            n = gram.matrix.shape[0]
            uniform = np.full(n, 1.0 / n)
            sol = solve(QpProblem(gram=gram))
            assert sol.objective <= float(uniform @ _gram_product(gram.matrix, uniform))


class TestEnumerationOracle:
    def test_oracle_agrees_with_grid_scan(self):
        # The exact active-set enumeration must match a literal 1e-3 grid
        # scan with refinement where the grid is affordable.
        for seed in range(8):
            rng = np.random.default_rng(600 + seed)
            for n in (2, 3):
                mat = random_psd(rng, n)
                _, enum_obj = enumerate_qp_optimum(mat)
                _, grid_obj = grid_qp_optimum(mat, resolution=1e-3)
                scale = max(abs(enum_obj), 1e-30)
                assert abs(enum_obj - grid_obj) / scale < 1e-6

    def test_solvers_match_oracle_small_instances(self):
        for seed in range(25):
            rng = np.random.default_rng(700 + seed)
            n = int(rng.integers(2, 5))
            mat = random_psd(rng, n)
            _, best = enumerate_qp_optimum(mat)
            md = solve(QpProblem(gram=SteinGram(mat)), max_iters=20000, tol=1e-16)
            scale = max(abs(best), 1e-30)
            assert (md.objective - best) / scale < 1e-6
            # The oracle can never be beaten by a feasible iterate.
            assert md.objective >= best - 1e-9 * scale


def _matmul_product(mat, x):
    return mat @ x


def _reference_mirror_descent(
    problem, max_iters, tol=1e-10, product=None, growth=None, scored=None
):
    """The mirror-descent loop as it was before products with K were shared,
    candidates screened and buffers reused: it scores every candidate with
    c' (K c), recomputes K w after acceptance, and allocates fresh arrays
    for every step. Products go through ``product``, the solver's helper
    unless given; the step size grows by ``growth``, the solver's
    ``_ETA_GROWTH`` unless given. If ``scored`` is a list, each scored
    candidate is appended to it as (candidate, accepted).
    Returns (weights, objective, iterations, converged, gap)."""
    product = product or simplex_qp._gram_product
    growth = growth or simplex_qp._ETA_GROWTH
    mat = problem.gram
    n = problem.n
    w = np.full(n, 1.0 / n)
    obj = float(w @ product(mat, w))
    eta = 1.0 / (2.0 * float(np.max(np.abs(mat))))
    converged = False
    iterations = 0
    grad = 2.0 * product(mat, w)
    for _ in range(max_iters):
        accepted = False
        for _ in range(_MAX_BACKTRACKS):
            z = -eta * grad
            z -= np.max(z)
            candidate = w * np.exp(z)
            total = float(candidate.sum())
            if total <= 0.0 or not np.isfinite(total):
                eta *= 0.5
                continue
            candidate /= total
            cand_obj = float(candidate @ product(mat, candidate))
            predicted = float(grad @ (w - candidate))
            accepted = cand_obj <= obj - _ARMIJO_FRACTION * predicted
            if scored is not None:
                scored.append((candidate, accepted))
            if accepted:
                break
            eta *= 0.5
        if not accepted:
            converged = True
            break
        iterations += 1
        decrease = obj - cand_obj
        w = candidate
        obj = cand_obj
        grad = 2.0 * product(mat, w)
        eta *= growth
        if decrease <= tol * max(abs(obj), 1e-300):
            converged = True
            break
    w = w / float(w.sum())
    vertex = np.zeros(n)
    vertex[int(np.argmin(grad))] = 1.0
    return w, obj, iterations, converged, float(grad @ (w - vertex))


def _mixture_gram(n=100, seed=0):
    """SteinGram on iid draws from the criterion-05 target."""
    target = random_gaussian_mixture(
        n_components=20, dimension=2, seed=3, mean_range=(-3.0, 3.0), variance_range=(0.3, 1.0)
    )
    points = sample_gmm_iid(target, n, np.random.default_rng(seed))
    kernel = RbfKernel(median_heuristic_bandwidth(points))
    return stein_gram(target.as_target(), kernel, points)


def _reference_cases():
    yield _mixture_gram(), 300
    for seed in range(6):
        rng = np.random.default_rng(900 + seed)
        yield SteinGram(random_psd(rng, int(rng.integers(3, 30)))), 500


@pytest.fixture
def product_calls(monkeypatch):
    """Records a copy of x for each call K x to the solver's product helper,
    references included."""
    calls = []
    product = simplex_qp._gram_product

    def counting(mat, x):
        calls.append(x.copy())
        return product(mat, x)

    monkeypatch.setattr(simplex_qp, "_gram_product", counting)
    return calls


def _assert_matches_reference(sol, reference):
    weights, objective, iterations, converged, gap = reference
    np.testing.assert_array_equal(sol.weights, weights)
    assert sol.iterations == iterations
    assert sol.converged == converged
    assert sol.gap == gap
    assert sol.objective == objective


class TestSharedGramProduct:
    """Sharing K w between the objective and the next gradient must leave
    every decision of the pre-sharing loop unchanged."""

    def test_mirror_descent_matches_reference(self):
        for gram, iters in _reference_cases():
            problem = QpProblem(gram=gram)
            sol = solve(problem, max_iters=iters)
            _assert_matches_reference(sol, _reference_mirror_descent(problem, iters))

    def test_mirror_descent_one_product_per_scored_candidate(self, product_calls):
        # The reference loop scores every candidate and forms K w afresh
        # after each accepted step. The solver forms K x once for the
        # uniform start and once per candidate it scores: every accepted
        # one, and each rejected one that its screen lets through, in the
        # reference's order. So it forms 1 + accepted + unscreened
        # rejections products.
        problem = QpProblem(gram=_mixture_gram())
        sol = solve(problem, max_iters=300)
        products = list(product_calls)
        scored = []
        _reference_mirror_descent(problem, 300, scored=scored)
        assert sol.iterations == 300
        np.testing.assert_array_equal(products[0], np.full(problem.n, 1.0 / problem.n))
        next_product = 1
        unscreened = 0
        for candidate, accepted in scored:
            if next_product < len(products) and np.array_equal(products[next_product], candidate):
                next_product += 1
                unscreened += not accepted
            else:
                assert not accepted
        assert next_product == len(products)
        assert len(products) == 1 + sol.iterations + unscreened
        rejected = len(scored) - sol.iterations
        assert 0 < rejected and unscreened < rejected / 4


@pytest.fixture(scope="module")
def criterion_05_problem():
    """The criterion-05 target's Gram at n = 800, the larger `iid_stein` size."""
    return QpProblem(gram=_mixture_gram(n=800, seed=1))


class TestCandidateScreen:
    """The solver skips the product of a candidate that the sufficient-
    decrease check must reject. It must still take exactly the steps of
    the reference loop, which scores every candidate."""

    def test_matches_reference_at_n_800(self, criterion_05_problem):
        sol = solve(criterion_05_problem, max_iters=2000)
        _assert_matches_reference(sol, _reference_mirror_descent(criterion_05_problem, 2000))

    def test_matches_reference_near_convergence(self):
        # Steps shrink to rounding here, so the screen's slack decides:
        # without it, seeds 10, 16 and 17 leave the reference's path.
        for seed in range(20):
            rng = np.random.default_rng(20_000 + seed)
            problem = QpProblem(gram=SteinGram(random_psd(rng, int(rng.integers(3, 30)))))
            sol = solve(problem, max_iters=5000, tol=1e-14)
            _assert_matches_reference(sol, _reference_mirror_descent(problem, 5000, tol=1e-14))

    def test_about_one_product_per_iteration(self, criterion_05_problem, product_calls):
        # Without the screen, 1.32: a grown step fails about once every
        # three iterations.
        sol = solve(criterion_05_problem, max_iters=2000)
        assert sol.iterations == 2000
        assert len(product_calls) - 1 <= 1.05 * sol.iterations

    def test_gradient_overflow_rejected_before_iterating(self, product_calls):
        with pytest.raises(SolverError, match="too large"):
            solve(QpProblem(gram=SteinGram(np.diag([1e308, 5e307]))))
        assert not product_calls


class TestSymmetricProduct:
    """Every product reads one triangle through BLAS dsymv, takes the
    stored matrix without a copy, and moves solver output only by
    rounding."""

    def test_matches_matmul(self):
        rng = np.random.default_rng(40)
        grams = [_mixture_gram(n=150, seed=4)]
        grams += [SteinGram(random_psd(rng, int(n))) for n in (1, 2, 7, 64, 129)]
        for gram in grams:
            stored = QpProblem(gram=gram).gram
            for _ in range(3):
                x = rng.standard_normal(stored.shape[0])
                bound = 1e-12 * np.max(np.abs(stored)) * np.sum(np.abs(x))
                err = np.max(np.abs(_gram_product(stored, x) - stored @ x))
                assert err <= bound

    def test_dsymv_takes_stored_matrix_without_copy(self, monkeypatch):
        rng = np.random.default_rng(41)
        pts = rng.standard_normal((30, 2))
        stein = stein_gram(standard_normal_target(2), RbfKernel(1.0), pts)
        # Sums with their transposes are exactly symmetric, so SteinGram
        # stores them without symmetrizing; it copies the strided view into
        # a contiguous matrix.
        plain = random_psd(rng, 25)
        plain = plain + plain.T
        big = random_psd(rng, 60)
        big = big + big.T
        cases = {
            "stein_gram": stein,
            "c_order": SteinGram(plain),
            "f_order": SteinGram(np.asfortranarray(plain)),
            "strided_view": SteinGram(big[::2, ::2]),
        }
        seen = []
        dsymv = blas.dsymv

        def checking_dsymv(alpha, a, x, *args, **kwargs):
            seen.append(a)
            return dsymv(alpha, a, x, *args, **kwargs)

        monkeypatch.setattr(blas, "dsymv", checking_dsymv)
        for name, gram in cases.items():
            problem = QpProblem(gram=gram)
            seen.clear()
            solve(problem, max_iters=5)
            assert seen, name
            for a in seen:
                assert a.flags.f_contiguous, name
                assert np.shares_memory(a, problem.gram), name
        for name, gram in cases.items():
            assert QpProblem(gram=gram).gram is gram.matrix, name

    def test_drift_against_matmul_loops(self):
        # The pre-dsymv solver, products through @, on the criterion-05
        # target at n = 200: same iterations and convergence flag, weights
        # within rounding.
        problem = QpProblem(gram=_mixture_gram(n=200, seed=5))
        sol = solve(problem, max_iters=2000)
        weights, _, iterations, converged, _ = _reference_mirror_descent(
            problem, 2000, product=_matmul_product
        )
        assert sol.iterations == iterations
        assert sol.converged == converged
        scale = float(np.max(np.abs(weights)))
        assert np.max(np.abs(sol.weights - weights)) <= 1e-10 * scale


class TestStepSizeGrowth:
    """Mirror descent grows eta by 1.25, not 2, after an accepted step."""

    def test_grown_step_rarely_rejected(self):
        # Doubling made the next candidate fail almost every time, about
        # 2 candidates per iteration. The candidates are counted through
        # the reference loop, which takes the solver's steps and scores
        # every candidate; the solver skips the product of most that fail.
        scored = []
        _, _, iterations, _, _ = _reference_mirror_descent(
            QpProblem(gram=_mixture_gram()), 300, scored=scored
        )
        assert iterations == 300
        assert len(scored) <= 1.4 * iterations

    def test_drift_against_doubling(self):
        # The step-size policy moves the early-stopped iterate, not where
        # it heads: on the criterion-05 target at n = 200, 2000 iterations
        # growing eta by 1.25 land near the iterate of doubling it.
        problem = QpProblem(gram=_mixture_gram(n=200, seed=5))
        sol = solve(problem, max_iters=2000)
        weights, objective, _, _, _ = _reference_mirror_descent(problem, 2000, growth=2.0)
        assert np.sum(np.abs(sol.weights - weights)) <= 0.05
        assert abs(sol.objective - objective) <= 0.05 * objective
