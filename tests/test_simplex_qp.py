"""Simplex-constrained QP: closed-form cases, solver cross-checks, oracles."""

import numpy as np
import pytest
from scipy.linalg import blas

from steinweights import simplex_qp
from steinweights.kernels import RbfKernel, median_heuristic_bandwidth
from steinweights.samplers import sample_gmm_iid
from steinweights.simplex_qp import _ARMIJO_FRACTION, _MAX_BACKTRACKS, QpProblem, solve
from steinweights.stein import SteinGram, _gram_product, stein_gram
from steinweights.targets import random_gaussian_mixture, standard_normal_target
from support import enumerate_qp_optimum, grid_qp_optimum, random_psd


class TestClosedFormCases:
    def test_identity_two(self):
        # (1/2, 1/2) is interior for lb < 1/2 and the only feasible point
        # at lb = 1/2, where n * lb = 1.
        for lb in (0.0, -0.5, 0.5):
            sol = solve(QpProblem(gram=np.eye(2), lower_bound=lb))
            np.testing.assert_allclose(sol.weights, [0.5, 0.5], atol=1e-8)
            assert sol.objective == pytest.approx(0.5, abs=1e-9)

    def test_diagonal_one_three(self):
        # The line optimum (3/4, 1/4) is interior for lb < 1/4; at
        # n * lb = 1 the region is the one point (1/2, 1/2). The relaxed
        # bound is solved to tol 1e-16, as in the oracle tests: the default
        # tol stops it 2e-7 short of the optimum.
        cases = [
            (0.0, None, [0.75, 0.25], 0.75),
            (-0.5, 1e-16, [0.75, 0.25], 0.75),
            (0.5, None, [0.5, 0.5], 1.0),
        ]
        for lb, tol, weights, objective in cases:
            sol = solve(QpProblem(gram=np.diag([1.0, 3.0]), lower_bound=lb), tol=tol)
            np.testing.assert_allclose(sol.weights, weights, atol=1e-7)
            assert sol.objective == pytest.approx(objective, abs=1e-9)

    def test_single_point(self):
        sol = solve(QpProblem(gram=np.array([[4.0]])))
        np.testing.assert_array_equal(sol.weights, [1.0])
        assert sol.iterations == 0
        assert sol.objective == 4.0

    def test_identity_three(self):
        sol = solve(QpProblem(gram=np.eye(3)))
        np.testing.assert_allclose(sol.weights, np.full(3, 1.0 / 3.0), atol=1e-8)

    def test_zero_matrix_returns_uniform(self):
        sol = solve(QpProblem(gram=np.zeros((4, 4))))
        np.testing.assert_allclose(sol.weights, np.full(4, 0.25), atol=1e-12)
        assert sol.objective == 0.0

    def test_relaxed_lower_bound_interior_optimum(self):
        # minimize w1^2 + 100 (1 - w1)^2 has its line optimum at 100/101,
        # interior to the relaxed box, so the bound does not bind.
        problem = QpProblem(gram=np.diag([1.0, 100.0]), lower_bound=-1.0)
        sol = solve(problem, max_iters=20000, tol=1e-16)
        np.testing.assert_allclose(sol.weights, [100.0 / 101.0, 1.0 / 101.0], atol=1e-7)

    def test_sum_is_exactly_one(self):
        # (lower bound, slack below it): the multiplicative update keeps
        # w >= 0 exactly at lb = 0, the final renormalization may move a
        # weight at a negative lb by rounding, and n * lb = 1 is exact.
        for seed in range(10):
            rng = np.random.default_rng(seed)
            mat = random_psd(rng, 5)
            for lb, slack in ((0.0, 0.0), (-0.3, 1e-12), (0.2, 0.0)):
                sol = solve(QpProblem(gram=mat, lower_bound=lb))
                assert sol.weights.sum() == pytest.approx(1.0, abs=1e-12)
                assert sol.weights.min() >= lb - slack


class TestDispatch:
    def test_auto_zero_bound_matches_mirror_descent(self):
        # The defaults are mirror descent's: max(2000, 50 n) iterations and
        # a relative decrease tol of 1e-10.
        rng = np.random.default_rng(1)
        mat = random_psd(rng, 6)
        problem = QpProblem(gram=mat)
        _assert_matches_reference(solve(problem), _reference_mirror_descent(problem, 2000))

    def test_auto_negative_bound_uses_frank_wolfe(self):
        # A relaxed bound runs the same loop on the shifted simplex.
        rng = np.random.default_rng(2)
        mat = random_psd(rng, 4)
        sol = solve(QpProblem(gram=mat, lower_bound=-0.5))
        assert sol.weights.min() >= -0.5 - 1e-12

    def test_infeasible_bound_rejected(self):
        with pytest.raises(ValueError):
            QpProblem(gram=np.eye(3), lower_bound=0.5)

    def test_stein_gram_matrix_used_without_copy(self):
        target = random_gaussian_mixture(3, 2, seed=1).as_target()
        pts = np.random.default_rng(3).standard_normal((30, 2))
        gram = stein_gram(target, RbfKernel(1.0), pts)
        assert QpProblem(gram=gram).gram is gram.matrix
        plain = QpProblem(gram=gram.matrix)
        assert plain.gram is not gram.matrix
        np.testing.assert_array_equal(plain.gram, gram.matrix)


class TestSolverAgreement:
    def test_cross_solver_objective_match(self):
        # Against the enumeration oracle at n = 10, beyond the small
        # instances of TestEnumerationOracle.
        for seed in range(20):
            rng = np.random.default_rng(500 + seed)
            mat = random_psd(rng, 10)
            md = solve(QpProblem(gram=mat), max_iters=10000, tol=1e-14)
            _, best = enumerate_qp_optimum(mat)
            scale = max(abs(md.objective), abs(best), 1e-30)
            assert abs(md.objective - best) / scale < 1e-6

    def test_mirror_descent_trace_monotone(self):
        rng = np.random.default_rng(3)
        mat = random_psd(rng, 8)
        for lb in (0.0, -0.2, 0.125):
            sol = solve(QpProblem(gram=mat, lower_bound=lb))
            trace = np.asarray(sol.objective_trace)
            assert np.all(np.diff(trace) <= 1e-15)


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
            md = solve(QpProblem(gram=mat), max_iters=20000, tol=1e-16)
            scale = max(abs(best), 1e-30)
            assert (md.objective - best) / scale < 1e-6
            # The oracle can never be beaten by a feasible iterate.
            assert md.objective >= best - 1e-9 * scale

    def test_relaxed_bound_against_oracle(self):
        for seed in range(10):
            rng = np.random.default_rng(800 + seed)
            n = int(rng.integers(2, 5))
            mat = random_psd(rng, n)
            lb = float(rng.uniform(-1.0, 0.0))
            _, best = enumerate_qp_optimum(mat, lower_bound=lb)
            sol = solve(QpProblem(gram=mat, lower_bound=lb), max_iters=20000, tol=1e-16)
            scale = max(abs(best), 1e-30)
            assert abs(sol.objective - best) / scale < 1e-6
            assert sol.weights.min() >= lb - 1e-12


def _matmul_product(mat, x):
    return mat @ x


def _reference_mirror_descent(problem, max_iters, tol=1e-10, product=None, growth=None):
    """The mirror-descent loop as it was before products with K were shared
    and buffers reused: it scores a candidate with c' (K c), recomputes K w
    after acceptance, and allocates fresh arrays for every step. Products
    go through ``product``, the solver's helper unless given; the step size
    grows by ``growth``, the solver's ``_ETA_GROWTH`` unless given.
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
            if cand_obj <= obj - _ARMIJO_FRACTION * predicted:
                accepted = True
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


def _stein_gram_matrix(n=100, seed=0):
    """Stein Gram on iid draws from the criterion-05 target."""
    target = random_gaussian_mixture(
        n_components=20, dimension=2, seed=3, mean_range=(-3.0, 3.0)
    )
    points = sample_gmm_iid(target, n, np.random.default_rng(seed))
    kernel = RbfKernel(median_heuristic_bandwidth(points))
    return stein_gram(target.as_target(), kernel, points).matrix


def _reference_cases():
    yield _stein_gram_matrix(), 300
    for seed in range(6):
        rng = np.random.default_rng(900 + seed)
        yield random_psd(rng, int(rng.integers(3, 30))), 500


@pytest.fixture
def product_calls(monkeypatch):
    """Counts calls to the solver's product helper, references included."""
    calls = []
    product = simplex_qp._gram_product

    def counting(mat, x):
        calls.append(x.shape)
        return product(mat, x)

    monkeypatch.setattr(simplex_qp, "_gram_product", counting)
    return calls


def _assert_matches_reference(sol, reference):
    weights, objective, iterations, converged, gap = reference
    np.testing.assert_array_equal(sol.weights, weights)
    assert sol.iterations == iterations
    assert sol.converged == converged
    assert sol.gap == gap
    assert sol.objective == pytest.approx(objective, rel=1e-12)
    assert sol.objective_trace[-1] == sol.objective


class TestSharedGramProduct:
    """Sharing K w between the objective and the next gradient must leave
    every decision of the pre-sharing loop unchanged."""

    def test_mirror_descent_matches_reference(self):
        for mat, iters in _reference_cases():
            problem = QpProblem(gram=mat)
            sol = solve(problem, max_iters=iters)
            _assert_matches_reference(sol, _reference_mirror_descent(problem, iters))

    def test_mirror_descent_one_product_per_scored_candidate(self, product_calls):
        # With c scored candidates and i accepted steps, the reference
        # loop forms 2 + c + i products: the start's objective and
        # gradient, one per candidate and one fresh gradient per accepted
        # step. Sharing K c leaves 1 + c.
        problem = QpProblem(gram=_stein_gram_matrix())
        sol = solve(problem, max_iters=300)
        shared = len(product_calls)
        product_calls.clear()
        _reference_mirror_descent(problem, 300)
        assert sol.iterations == 300
        assert shared == len(product_calls) - sol.iterations - 1


class TestSymmetricProduct:
    """Every product reads one triangle through BLAS dsymv, takes the
    stored matrix without a copy, and moves solver output only by
    rounding."""

    def test_matches_matmul(self):
        rng = np.random.default_rng(40)
        mats = [_stein_gram_matrix(n=150, seed=4)]
        mats += [random_psd(rng, int(n)) for n in (1, 2, 7, 64, 129)]
        for mat in mats:
            stored = QpProblem(gram=mat).gram
            for _ in range(3):
                x = rng.standard_normal(stored.shape[0])
                bound = 1e-12 * np.max(np.abs(stored)) * np.sum(np.abs(x))
                err = np.max(np.abs(_gram_product(stored, x) - stored @ x))
                assert err <= bound

    def test_dsymv_takes_stored_matrix_without_copy(self, monkeypatch):
        rng = np.random.default_rng(41)
        pts = rng.standard_normal((30, 2))
        stein = stein_gram(standard_normal_target(2), RbfKernel(1.0), pts)
        plain = random_psd(rng, 25)
        big = random_psd(rng, 60)
        big = big + big.T  # exactly symmetric, so SteinGram keeps the view
        strided = big[::2, ::2]
        cases = {
            "stein_gram": stein,
            "c_order": plain,
            "f_order": np.asfortranarray(plain),
            "strided_view": strided,
            "strided_stein_gram": SteinGram(matrix=strided, kernel=RbfKernel(1.0)),
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
        # A SteinGram keeps an exactly symmetric strided view as is; the
        # problem copies it once, at construction.
        assert np.shares_memory(cases["strided_stein_gram"].matrix, big)
        assert not np.shares_memory(QpProblem(gram=cases["strided_stein_gram"]).gram, big)
        assert QpProblem(gram=stein).gram is stein.matrix

    def test_drift_against_matmul_loops(self):
        # The pre-dsymv solver, products through @, on the criterion-05
        # target at n = 200: same iterations and convergence flag, weights
        # within rounding.
        problem = QpProblem(gram=_stein_gram_matrix(n=200, seed=5))
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

    def test_grown_step_rarely_rejected(self, product_calls):
        # Doubling made the next candidate fail almost every time, about
        # 2 products per iteration.
        sol = solve(QpProblem(gram=_stein_gram_matrix()), max_iters=300)
        assert sol.iterations == 300
        assert len(product_calls) <= 1.4 * sol.iterations

    def test_drift_against_doubling(self):
        # The step-size policy moves the early-stopped iterate, not where
        # it heads: on the criterion-05 target at n = 200, 2000 iterations
        # growing eta by 1.25 land near the iterate of doubling it.
        problem = QpProblem(gram=_stein_gram_matrix(n=200, seed=5))
        sol = solve(problem, max_iters=2000)
        weights, objective, _, _, _ = _reference_mirror_descent(problem, 2000, growth=2.0)
        assert np.sum(np.abs(sol.weights - weights)) <= 0.05
        assert abs(sol.objective - objective) <= 0.05 * objective
