"""Simplex-constrained QP: closed-form cases, solver cross-checks, oracles."""

import numpy as np
import pytest
from scipy.linalg import blas

from steinweights import simplex_qp
from steinweights.errors import UnsupportedConfigurationError
from steinweights.kernels import RbfKernel, median_heuristic_bandwidth
from steinweights.samplers import sample_gmm_iid
from steinweights.simplex_qp import (
    _ARMIJO_FRACTION,
    _MAX_BACKTRACKS,
    QpProblem,
    _lmo_vertex,
    solve,
    solve_frank_wolfe,
    solve_mirror_descent,
)
from steinweights.stein import SteinGram, _gram_product, stein_gram
from steinweights.targets import random_gaussian_mixture, standard_normal_target
from support import enumerate_qp_optimum, grid_qp_optimum, random_psd


class TestClosedFormCases:
    def test_identity_two(self):
        problem = QpProblem(gram=np.eye(2))
        for solver in (solve_mirror_descent, solve_frank_wolfe):
            sol = solver(problem)
            np.testing.assert_allclose(sol.weights, [0.5, 0.5], atol=1e-8)
            assert sol.objective == pytest.approx(0.5, abs=1e-9)

    def test_diagonal_one_three(self):
        problem = QpProblem(gram=np.diag([1.0, 3.0]))
        for solver in (solve_mirror_descent, solve_frank_wolfe):
            sol = solver(problem)
            np.testing.assert_allclose(sol.weights, [0.75, 0.25], atol=1e-7)
            assert sol.objective == pytest.approx(0.75, abs=1e-9)

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
        sol = solve_frank_wolfe(problem, max_iters=20000)
        np.testing.assert_allclose(sol.weights, [100.0 / 101.0, 1.0 / 101.0], atol=1e-7)

    def test_sum_is_exactly_one(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            mat = random_psd(rng, 5)
            for solver in (solve_mirror_descent, solve_frank_wolfe):
                sol = solver(QpProblem(gram=mat))
                assert sol.weights.sum() == pytest.approx(1.0, abs=1e-12)
                assert sol.weights.min() >= 0.0


class TestDispatch:
    def test_auto_zero_bound_matches_mirror_descent(self):
        rng = np.random.default_rng(1)
        mat = random_psd(rng, 6)
        auto = solve(QpProblem(gram=mat))
        md = solve_mirror_descent(QpProblem(gram=mat))
        np.testing.assert_array_equal(auto.weights, md.weights)

    def test_auto_negative_bound_uses_frank_wolfe(self):
        # Mirror descent cannot handle a relaxed bound, so auto succeeding
        # proves the Frank-Wolfe branch was taken.
        rng = np.random.default_rng(2)
        mat = random_psd(rng, 4)
        sol = solve(QpProblem(gram=mat, lower_bound=-0.5))
        assert sol.weights.min() >= -0.5 - 1e-12

    def test_mirror_descent_rejects_nonzero_bound(self):
        with pytest.raises(UnsupportedConfigurationError):
            solve_mirror_descent(QpProblem(gram=np.eye(2), lower_bound=-0.1))

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            solve(QpProblem(gram=np.eye(2)), method="newton")

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
        for seed in range(20):
            rng = np.random.default_rng(500 + seed)
            mat = random_psd(rng, 10)
            md = solve_mirror_descent(QpProblem(gram=mat), max_iters=10000, tol=1e-14)
            fw = solve_frank_wolfe(QpProblem(gram=mat), max_iters=10000)
            scale = max(abs(md.objective), abs(fw.objective), 1e-30)
            assert abs(md.objective - fw.objective) / scale < 1e-6

    def test_mirror_descent_trace_monotone(self):
        rng = np.random.default_rng(3)
        mat = random_psd(rng, 8)
        sol = solve_mirror_descent(QpProblem(gram=mat))
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
            md = solve_mirror_descent(QpProblem(gram=mat), max_iters=20000, tol=1e-16)
            fw = solve_frank_wolfe(QpProblem(gram=mat), max_iters=20000, tol=1e-16)
            scale = max(abs(best), 1e-30)
            assert (md.objective - best) / scale < 1e-6
            assert (fw.objective - best) / scale < 1e-6
            # The oracle can never be beaten by a feasible iterate.
            assert md.objective >= best - 1e-9 * scale
            assert fw.objective >= best - 1e-9 * scale

    def test_relaxed_bound_against_oracle(self):
        for seed in range(10):
            rng = np.random.default_rng(800 + seed)
            n = int(rng.integers(2, 5))
            mat = random_psd(rng, n)
            lb = float(rng.uniform(-1.0, 0.0))
            _, best = enumerate_qp_optimum(mat, lower_bound=lb)
            fw = solve_frank_wolfe(QpProblem(gram=mat, lower_bound=lb), max_iters=20000, tol=1e-16)
            scale = max(abs(best), 1e-30)
            assert abs(fw.objective - best) / scale < 1e-6
            assert fw.weights.min() >= lb - 1e-12


def _matmul_product(mat, x):
    return mat @ x


def _reference_mirror_descent(problem, max_iters, tol=1e-10, product=None, growth=None):
    """The mirror-descent loop as it was before products with K were shared
    and buffers reused: it scores a candidate with c' (K c), recomputes K w
    after acceptance, and allocates fresh arrays for every step. Products
    go through ``product``, the solvers' helper unless given; the step size
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
    _, vertex = _lmo_vertex(grad, 0.0)
    return w, obj, iterations, converged, float(grad @ (w - vertex))


def _reference_frank_wolfe(problem, max_iters, tol, product=None):
    """The Frank-Wolfe loop as it was before products with K were shared:
    it recomputes K w for the gradient and w' (K w) for the objective.
    Products go through ``product``, the solvers' helper unless given.
    Returns (weights, objective, iterations, converged, gap)."""
    product = product or simplex_qp._gram_product
    mat = problem.gram
    n = problem.n
    lb = problem.lower_bound
    span = 1.0 - n * lb
    w = np.full(n, 1.0 / n)
    obj = float(w @ product(mat, w))
    converged = False
    iterations = 0
    gap = np.inf
    for _ in range(max_iters):
        grad = 2.0 * product(mat, w)
        _, vertex = _lmo_vertex(grad, lb)
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
            direction, step_cap, drop_idx, directional = fw_direction, 1.0, None, gap
        else:
            direction = w - away_vertex
            u_a = (w[a_idx] - lb) / span
            if u_a >= 1.0:
                direction, step_cap, drop_idx, directional = fw_direction, 1.0, None, gap
            else:
                step_cap = u_a / (1.0 - u_a)
                drop_idx = a_idx
                directional = away_gap
        curvature = float(direction @ product(mat, direction))
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
        obj = float(w @ product(mat, w))
        iterations += 1
    w = w / float(w.sum())
    return w, obj, iterations, converged, float(gap)


def _fw_default_tol(problem):
    return 1e-10 * problem.n * max(float(np.max(np.diag(problem.gram))), 0.0)


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
    """Counts calls to the solvers' product helper, references included."""
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
    every decision of the pre-sharing loops unchanged."""

    def test_mirror_descent_matches_reference(self):
        for mat, iters in _reference_cases():
            problem = QpProblem(gram=mat)
            sol = solve_mirror_descent(problem, max_iters=iters)
            _assert_matches_reference(sol, _reference_mirror_descent(problem, iters))

    def test_frank_wolfe_matches_reference(self):
        for mat, iters in _reference_cases():
            n = mat.shape[0]
            for lb in (0.0, -0.5 / n):
                problem = QpProblem(gram=mat, lower_bound=lb)
                sol = solve_frank_wolfe(problem, max_iters=iters)
                _assert_matches_reference(
                    sol, _reference_frank_wolfe(problem, iters, _fw_default_tol(problem))
                )

    def test_mirror_descent_one_product_per_scored_candidate(self, product_calls):
        # With c scored candidates and i accepted steps, the reference
        # loop forms 2 + c + i products: the start's objective and
        # gradient, one per candidate and one fresh gradient per accepted
        # step. Sharing K c leaves 1 + c.
        problem = QpProblem(gram=_stein_gram_matrix())
        sol = solve_mirror_descent(problem, max_iters=300)
        shared = len(product_calls)
        product_calls.clear()
        _reference_mirror_descent(problem, 300)
        assert sol.iterations == 300
        assert shared == len(product_calls) - sol.iterations - 1

    def test_frank_wolfe_two_products_per_iteration(self, product_calls):
        mat = _stein_gram_matrix()
        for lb in (0.0, -0.005):
            product_calls.clear()
            sol = solve_frank_wolfe(QpProblem(gram=mat, lower_bound=lb), max_iters=300)
            assert sol.iterations == 300
            assert len(product_calls) == 1 + 2 * sol.iterations


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
            solve_mirror_descent(problem, max_iters=5)
            solve_frank_wolfe(problem, max_iters=5)
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
        # The pre-dsymv solvers, products through @, on the criterion-05
        # target at n = 200: same iterations and convergence flags, weights
        # within rounding.
        problem = QpProblem(gram=_stein_gram_matrix(n=200, seed=5))
        iters = 2000
        cases = [
            (solve_mirror_descent(problem, max_iters=iters),
             _reference_mirror_descent(problem, iters, product=_matmul_product)),
            (solve_frank_wolfe(problem, max_iters=iters),
             _reference_frank_wolfe(
                 problem, iters, _fw_default_tol(problem), product=_matmul_product
             )),
        ]
        for sol, (weights, _, iterations, converged, _) in cases:
            assert sol.iterations == iterations
            assert sol.converged == converged
            scale = float(np.max(np.abs(weights)))
            assert np.max(np.abs(sol.weights - weights)) <= 1e-10 * scale


class TestStepSizeGrowth:
    """Mirror descent grows eta by 1.25, not 2, after an accepted step."""

    def test_grown_step_rarely_rejected(self, product_calls):
        # Doubling made the next candidate fail almost every time, about
        # 2 products per iteration.
        sol = solve_mirror_descent(QpProblem(gram=_stein_gram_matrix()), max_iters=300)
        assert sol.iterations == 300
        assert len(product_calls) <= 1.4 * sol.iterations

    def test_drift_against_doubling(self):
        # The step-size policy moves the early-stopped iterate, not where
        # it heads: on the criterion-05 target at n = 200, 2000 iterations
        # growing eta by 1.25 land near the iterate of doubling it.
        problem = QpProblem(gram=_stein_gram_matrix(n=200, seed=5))
        sol = solve_mirror_descent(problem, max_iters=2000)
        weights, objective, _, _, _ = _reference_mirror_descent(problem, 2000, growth=2.0)
        assert np.sum(np.abs(sol.weights - weights)) <= 0.05
        assert abs(sol.objective - objective) <= 0.05 * objective
