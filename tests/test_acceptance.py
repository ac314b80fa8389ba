"""Release gate: one check per shipping requirement, at pinned tolerances.

Each test prints a single line with the measured values next to their
gates before asserting, so a failing run still shows how far off it was.
The two convergence-rate checks are the long ones; their experiment
configs are pinned, seeds included, and rehearsed well inside the budget.
"""

import time

import numpy as np
import pytest

from steinweights import baselines, simplex_qp
from steinweights.harness import (
    ExperimentConfig,
    build_target_model,
    rate_fit,
    run_experiment,
)
from steinweights.kernels import RbfKernel
from steinweights.samplers import sample_gmm_iid
from steinweights.stein import SteinGram, stein_gram, stein_identity_check, stein_kernel_block
from steinweights.targets import (
    GaussianMixture,
    gaussianity_interpolation,
    probit_simulate,
    random_gaussian_mixture,
    standard_normal_target,
)

from support import (
    GMM_RANGES,
    central_difference,
    enumerate_qp_optimum,
    grid_qp_optimum,
    random_psd,
)


def test_criterion_01_identity_quadrature():
    # E_{x~p}[k_p(x, y)] vanishes for every y; quadrature over a wide grid
    # must say so for a Gaussian and for a bimodal mixture.
    start = time.perf_counter()
    nodes = np.linspace(-12.0, 12.0, 4001)
    y_values = np.linspace(-3.0, 3.0, 21)
    targets = {
        "normal": standard_normal_target(1),
        "bimodal": GaussianMixture(
            weights=np.array([0.5, 0.5]),
            means=np.array([[-1.5], [1.5]]),
            variances=np.array([0.8, 0.8]),
        ).as_target(),
    }
    worst = 0.0
    for target in targets.values():
        for y in y_values:
            val = stein_identity_check(target, RbfKernel(1.0), np.array([y]), nodes)
            worst = max(worst, abs(val))
    elapsed = time.perf_counter() - start
    line = (
        f"criterion 01: max |quadrature of E k_p(., y)| = {worst:.3e} (gate 1e-6) "
        f"over 21 y-values x 2 targets, {elapsed:.2f} s (gate 5 s)"
    )
    print(line)
    assert worst < 1e-6, line
    assert elapsed < 5.0, line


def test_criterion_02_kernel_derivatives_match_finite_differences():
    # The Stein kernel block the Gram is built from, against its definition
    # s_x's_y k + s_x'grad_y k + s_y'grad_x k + tr grad_x grad_y k with
    # every derivative of k = exp(-||x - y||^2 / h) a central difference.
    start = time.perf_counter()
    rng = np.random.default_rng(20260822)
    dims = [1, 2, 5, 10]
    targets = {d: random_gaussian_mixture(5, d, seed=d, **GMM_RANGES).as_target() for d in dims}
    worst = 0.0
    eps = 1e-4
    for i in range(100):
        d = dims[i % len(dims)]
        h = float(10.0 ** rng.uniform(-0.5, 0.7))
        x = rng.standard_normal(d)
        y = rng.standard_normal(d)

        def k(a, b):
            return float(np.exp(-np.sum((a - b) ** 2) / h))

        s_x = targets[d].score_at(x)
        s_y = targets[d].score_at(y)
        grad_x = central_difference(lambda t: k(t, y), x)
        grad_y = central_difference(lambda t: k(x, t), y)
        trace = sum(
            (k(x + e, y + e) - k(x + e, y - e) - k(x - e, y + e) + k(x - e, y - e))
            / (4.0 * eps * eps)
            for e in eps * np.eye(d)
        )
        expect = float(s_x @ s_y) * k(x, y) + s_x @ grad_y + s_y @ grad_x + trace
        block = stein_kernel_block(x[None], y[None], s_x[None], s_y[None], RbfKernel(h))
        worst = max(worst, abs(float(block[0, 0]) - expect))
    elapsed = time.perf_counter() - start
    line = (
        f"criterion 02: max Stein-kernel-vs-FD gap = {worst:.3e} (gate 1e-5) "
        f"on 100 triples, d in {{1,2,5,10}}, {elapsed:.2f} s (gate 2 s)"
    )
    print(line)
    assert worst < 1e-5, line
    assert elapsed < 2.0, line


def test_criterion_03_solvers_match_brute_force_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(31)
    worst_gap = 0.0
    worst_feas = 0.0
    worst_oracle_agreement = 0.0
    grid_checked = 0
    for i in range(100):
        n = 2 + (i % 3)
        mat = random_psd(rng, n)
        oracle_w, oracle_obj = enumerate_qp_optimum(mat)
        if n in (2, 3) and grid_checked < 12:
            _, grid_obj = grid_qp_optimum(mat)
            worst_oracle_agreement = max(
                worst_oracle_agreement, abs(grid_obj - oracle_obj)
            )
            grid_checked += 1
        sol = simplex_qp.solve(
            simplex_qp.QpProblem(gram=SteinGram(mat)), max_iters=20_000, tol=1e-16
        )
        scale = max(1.0, abs(oracle_obj))
        worst_gap = max(worst_gap, (sol.objective - oracle_obj) / scale)
        worst_feas = max(
            worst_feas,
            abs(float(np.sum(sol.weights)) - 1.0),
            float(max(0.0, -np.min(sol.weights))),
        )
    elapsed = time.perf_counter() - start
    line = (
        f"criterion 03: max relative objective gap vs oracle = {worst_gap:.3e} "
        f"(gate 1e-6), max feasibility residual = {worst_feas:.3e} (gate 1e-12), "
        f"grid-vs-refined-oracle agreement = {worst_oracle_agreement:.3e} on "
        f"{grid_checked} instances, 100 instances total, {elapsed:.2f} s (gate 30 s)"
    )
    print(line)
    assert worst_gap < 1e-6, line
    assert worst_feas <= 1e-12, line
    assert worst_oracle_agreement < 1e-6, line
    assert elapsed < 30.0, line


def test_criterion_04_minimized_discrepancy_dominates_feasible_baselines():
    cfg = ExperimentConfig.from_dict({
        "seed": 77,
        "target": {"kind": "gmm_fixture", "seed": 3, "components": 6,
                   "dimension": 2, "mean_range": [-2.0, 2.0]},
        "sampler": {"kind": "iid", "proposal": {"kind": "interpolated", "lam": 0.4}},
        "ground_truth": {"kind": "exact"},
        "n_grid": [40, 80],
        "trials": 20,
        "schemes": [
            {"kind": "uniform"},
            {"kind": "exact_is"},
            {"kind": "stein", "max_iters": 2000, "tol": 1e-10},
        ],
        "test_functions": ["coordinate_mean"],
    })
    result = run_experiment(cfg)
    ksd = {}
    for rec in result.records:
        assert rec.status == "ok"
        ksd.setdefault((rec.n, rec.trial), {})[rec.scheme] = rec.ksd
    assert len(ksd) == 40
    worst_vs_uniform = max(v["stein"] - v["uniform"] for v in ksd.values())
    worst_vs_is = max(v["stein"] - v["exact_is"] for v in ksd.values())
    line = (
        f"criterion 04: max ksd(stein) - ksd(uniform) = {worst_vs_uniform:.3e}, "
        f"max ksd(stein) - ksd(exact_is) = {worst_vs_is:.3e} (gate 1e-12) "
        f"over 40 trials"
    )
    print(line)
    assert worst_vs_uniform <= 1e-12, line
    assert worst_vs_is <= 1e-12, line


def test_criterion_11_stein_mse_beats_exact_importance_sampling():
    # The abstract's claim, "estimation accuracy beyond typical importance
    # sampling": on criterion 04's target and proposal, stein's MSE is below
    # exact IS's at every n for both test functions. Control functionals and
    # KDE are printed next to it; the claim says nothing about them.
    start = time.perf_counter()
    cfg = ExperimentConfig.from_dict({
        "seed": 77,
        "target": {"kind": "gmm_fixture", "seed": 3, "components": 6,
                   "dimension": 2, "mean_range": [-2.0, 2.0]},
        "sampler": {"kind": "iid", "proposal": {"kind": "interpolated", "lam": 0.4}},
        "ground_truth": {"kind": "exact"},
        "n_grid": [50, 200],
        "trials": 30,
        "schemes": [
            {"kind": "uniform"},
            {"kind": "exact_is"},
            {"kind": "stein", "max_iters": 2000, "tol": 1e-10},
            {"kind": "control_functional_normalized"},
            {"kind": "kde_normalized"},
        ],
        "test_functions": ["coordinate_mean", "coordinate_square"],
    })
    result = run_experiment(cfg)
    elapsed = time.perf_counter() - start
    failed = sum(row.trials_failed for row in result.summary)
    mse = {(row.scheme, row.test_fn, row.n): row.mse for row in result.summary}
    cells = [(fn, n) for fn in cfg.test_functions for n in cfg.n_grid]
    beats_is = all(mse["stein", fn, n] < mse["exact_is", fn, n] for fn, n in cells)

    def ratios(scheme):
        return " ".join(
            f"{fn}@{n}:{mse[scheme, fn, n] / mse['uniform', fn, n]:.2f}" for fn, n in cells)

    line = (
        f"criterion 11: MSE over uniform's, stein {ratios('stein')}; exact_is "
        f"{ratios('exact_is')} (gate stein < exact_is in every cell); "
        f"ungated: control_functional_normalized {ratios('control_functional_normalized')}; "
        f"kde_normalized {ratios('kde_normalized')}; failed trials = {failed} (gate 0), "
        f"{elapsed:.1f} s"
    )
    print(line)
    assert beats_is, line
    assert failed == 0, line


@pytest.mark.slow
def test_criterion_05_iid_rate_uniform_minus_one_stein_at_most():
    start = time.perf_counter()
    cfg = ExperimentConfig.from_dict({
        "seed": 2025,
        "target": {"kind": "gmm_fixture", "seed": 3, "components": 20,
                   "dimension": 2, "mean_range": [-3.0, 3.0]},
        "sampler": {"kind": "iid"},
        "ground_truth": {"kind": "exact"},
        "n_grid": [50, 100, 200, 400, 800],
        "trials": 100,
        "schemes": [
            {"kind": "uniform"},
            {"kind": "stein", "max_iters": 2000, "tol": 1e-10},
        ],
        "test_functions": ["coordinate_square"],
    })
    result = run_experiment(cfg)
    elapsed = time.perf_counter() - start
    assert all(row.trials_failed == 0 for row in result.summary)
    fit_u = rate_fit(result.summary, "uniform", test_fn="coordinate_square")
    fit_s = rate_fit(result.summary, "stein", test_fn="coordinate_square")
    mse = {(row.scheme, row.n): row.mse for row in result.summary}
    ordering_ok = all(
        mse[("stein", n)] <= mse[("uniform", n)] for n in (100, 200, 400, 800)
    )
    ratios = " ".join(
        f"n={n}:{mse[('stein', n)] / mse[('uniform', n)]:.3f}"
        for n in (100, 200, 400, 800)
    )
    line = (
        f"criterion 05: uniform slope = {fit_u.slope:.3f} (gate -1.0 +/- 0.2), "
        f"stein slope = {fit_s.slope:.3f} (gate <= -1.0), stein/uniform MSE "
        f"{ratios} (gate <= 1 at n >= 100), {elapsed:.1f} s (gate 600 s)"
    )
    print(line)
    assert abs(fit_u.slope + 1.0) <= 0.2, line
    assert fit_s.slope <= -1.0, line
    assert ordering_ok, line
    assert elapsed < 600.0, line


def test_criterion_06_interpolation_endpoints():
    mix = build_target_model({
        "kind": "gmm_fixture", "seed": 3, "components": 20, "dimension": 2,
        "mean_range": [-3.0, 3.0],
    })
    at_zero = gaussianity_interpolation(mix, 0.0)
    params_identical = (
        np.array_equal(at_zero.weights, mix.weights)
        and np.array_equal(at_zero.means, mix.means)
        and np.array_equal(at_zero.variances, mix.variances)
    )
    at_one = gaussianity_interpolation(mix, 1.0)
    gaussian_exact = np.array_equal(
        at_one.means, np.zeros_like(at_one.means)
    ) and np.array_equal(at_one.variances, np.ones_like(at_one.variances))
    mom = at_one.moments()
    mean_gap = float(np.max(np.abs(mom.mean)))
    second_gap = float(np.max(np.abs(mom.second_moment - 1.0)))
    line = (
        f"criterion 06: lam=0 parameters bit-identical = {params_identical}, "
        f"lam=1 parameters exactly standard normal = {gaussian_exact}, "
        f"moment gaps mean {mean_gap:.1e} / second {second_gap:.1e} "
        f"(gates: identical, exact, <= 1e-15)"
    )
    print(line)
    assert params_identical, line
    assert gaussian_exact, line
    assert mean_gap == 0.0, line
    assert second_gap <= 1e-15, line


@pytest.mark.slow
def test_criterion_07_sgld_refinement_beats_uniform():
    start = time.perf_counter()
    cfg = ExperimentConfig.from_dict({
        "seed": 4242,
        "target": {"kind": "probit_simulated", "n_data": 100, "dimension": 10,
                   "seed": 42},
        "sampler": {"kind": "sgld", "step_size": 0.02, "n_steps": 100,
                    "minibatch_size": 100, "init_scale": 1.0},
        "ground_truth": {"kind": "mala_oracle", "draws": 1_000_000,
                         "burn_in": 10_000, "seed": 7},
        "n_grid": [50, 100, 200],
        "trials": 50,
        "schemes": [
            {"kind": "uniform"},
            {"kind": "stein", "max_iters": 2000, "tol": 1e-10},
        ],
        "test_functions": ["coordinate_mean"],
    })
    result = run_experiment(cfg)
    elapsed = time.perf_counter() - start
    failed = sum(row.trials_failed for row in result.summary)
    mse = {(row.scheme, row.n): row.mse for row in result.summary}
    strict = all(mse[("stein", n)] < mse[("uniform", n)] for n in (50, 100, 200))
    ratios = " ".join(
        f"n={n}:{mse[('stein', n)] / mse[('uniform', n)]:.3f}" for n in (50, 100, 200)
    )
    line = (
        f"criterion 07: stein/uniform posterior-mean MSE {ratios} "
        f"(gate < 1 at every n), failed trials = {failed} (gate 0), "
        f"{elapsed:.1f} s (gate 900 s)"
    )
    print(line)
    assert strict, line
    assert failed == 0, line
    assert elapsed < 900.0, line


def test_criterion_08_baseline_formula_fidelity():
    rng = np.random.default_rng(88)
    target = standard_normal_target(2)
    worst_residual_ratio = 0.0
    for _ in range(5):
        pts = rng.standard_normal((30, 2))
        gram = stein_gram(target, RbfKernel(1.0), pts)
        n = gram.n
        for lam in (0.0, float(10.0 ** rng.uniform(-8.0, -2.0))):
            w = baselines.weights_control_functional(gram, lam=lam)
            system = gram.matrix + np.ones((n, n)) + lam * np.eye(n)
            residual = float(np.max(np.abs(system @ w - 1.0)))
            worst_residual_ratio = max(worst_residual_ratio, residual / (1e-8 * n))
    mix = build_target_model({
        "kind": "gmm_fixture", "seed": 3, "components": 4, "dimension": 2,
        "mean_range": [-2.0, 2.0],
    })
    proposal = gaussianity_interpolation(mix, 0.5)
    pts = sample_gmm_iid(proposal, 60, 5)
    kde_true_q = baselines.weights_kde(
        mix.as_target(), pts, normalize=True,
        proposal_log_density=proposal.log_density,
    )
    exact = baselines.weights_exact_is(mix.as_target(), proposal.log_density, pts)
    kde_gap = float(np.max(np.abs(kde_true_q - exact)))
    line = (
        f"criterion 08: worst control-functional residual / (1e-8 n) = "
        f"{worst_residual_ratio:.3e} (gate < 1), max |kde(true q) - exact IS| = "
        f"{kde_gap:.3e} (gate 1e-12)"
    )
    print(line)
    assert worst_residual_ratio < 1.0, line
    assert kde_gap <= 1e-12, line


def test_criterion_09_repeat_run_byte_identical(tmp_path):
    base = {
        "seed": 11,
        "target": {"kind": "gmm_fixture", "seed": 3, "components": 4,
                   "dimension": 2, "mean_range": [-2.0, 2.0]},
        "sampler": {"kind": "iid"},
        "ground_truth": {"kind": "exact"},
        "n_grid": [20, 40],
        "trials": 3,
        "schemes": [{"kind": "uniform"}, {"kind": "stein", "max_iters": 500}],
        "test_functions": ["coordinate_mean", "random_cosine"],
    }
    run_experiment(ExperimentConfig.from_dict(dict(base, output_dir=str(tmp_path / "a"))))
    run_experiment(ExperimentConfig.from_dict(dict(base, output_dir=str(tmp_path / "b"))))
    bytes_a = (tmp_path / "a" / "records.csv").read_bytes()
    bytes_b = (tmp_path / "b" / "records.csv").read_bytes()
    line = (
        f"criterion 09: records byte-identical across reruns = {bytes_a == bytes_b} "
        f"({len(bytes_a)} bytes)"
    )
    print(line)
    assert bytes_a == bytes_b, line


def test_criterion_10_scores_match_finite_differences():
    rng = np.random.default_rng(1234)
    probit = probit_simulate(n_data=40, dimension=6, seed=12, prior_variance=0.1)
    fixture = build_target_model({
        "kind": "gmm_fixture", "seed": 3, "components": 20, "dimension": 2,
        "mean_range": [-3.0, 3.0],
    })
    cases = [
        ("standard_normal", standard_normal_target(3),
         rng.standard_normal((100, 3))),
        ("gmm_fixture", fixture.as_target(),
         rng.uniform(-4.0, 4.0, size=(100, 2))),
        ("random_mixture", random_gaussian_mixture(5, 3, seed=9, **GMM_RANGES).as_target(),
         rng.standard_normal((100, 3)) * 2.0),
        ("interpolated", gaussianity_interpolation(fixture, 0.35).as_target(),
         rng.uniform(-3.0, 3.0, size=(100, 2))),
        ("probit", probit.as_target(),
         rng.standard_normal((100, 6)) * 0.5),
    ]
    chi = probit.features[0]
    tail = 40.0 * chi / float(chi @ chi)
    tail_points = np.vstack([tail, -tail])
    cases.append(("probit_tail", probit.as_target(), tail_points))
    worst = 0.0
    worst_name = ""
    for name, target, pts in cases:
        def log_p(v, target=target):
            return float(target.log_density_at(v[None, :])[0])

        for x in pts:
            fd = central_difference(log_p, x)
            score = target.score_at(x)
            gap = float(np.max(np.abs(score - fd) / np.maximum(1.0, np.abs(score))))
            if gap > worst:
                worst, worst_name = gap, name
    line = (
        f"criterion 10: worst score-vs-FD gap = {worst:.3e} on {worst_name} "
        f"(gate 1e-5), all built-in targets, tails at |x'chi| = 40 included"
    )
    print(line)
    assert worst < 1e-5, line
