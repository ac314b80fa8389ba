"""Experiment driver: config validation, records, summaries, determinism."""

import copy
import json
import math
import os
import pickle
import re
from pathlib import Path

import numpy as np
import pytest

from steinweights import harness, simplex_qp, targets
from steinweights.errors import DominanceError
from steinweights.harness import (
    ExperimentConfig,
    ExperimentRecord,
    GroundTruth,
    build_target_model,
    rate_fit,
    read_points,
    run_experiment,
    summarize,
    evaluate_test_function,
    write_points,
    write_records_csv,
)
from steinweights.targets import GaussianMixture


# SGLD with a huge step sends every chain to infinity.
DIVERGING_SGLD = {
    "seed": 1,
    "target": {"kind": "probit_simulated", "n_data": 50, "dimension": 3, "seed": 42},
    "sampler": {"kind": "sgld", "step_size": 1e3, "n_steps": 100, "minibatch_size": 50},
    "ground_truth": {"kind": "mala_oracle", "draws": 2_000, "burn_in": 200, "seed": 7},
    "n_grid": [20],
    "trials": 1,
    "schemes": [{"kind": "uniform"}, {"kind": "stein"}],
    "test_functions": ["coordinate_mean"],
}


# MALA points scored by a MALA oracle on a small probit target.
PROBIT_MALA = {
    "seed": 1,
    "target": {"kind": "probit_simulated", "n_data": 20, "dimension": 2, "seed": 4},
    "sampler": {"kind": "mala", "step_size": 0.05, "n_steps": 5},
    "ground_truth": {"kind": "mala_oracle", "draws": 200, "burn_in": 20, "seed": 6},
    "n_grid": [10],
    "trials": 1,
    "schemes": [{"kind": "uniform"}],
    "test_functions": ["coordinate_mean"],
}


def small_config(**overrides):
    base = {
        "seed": 11,
        "target": {"kind": "gmm_fixture", "seed": 3, "components": 4, "dimension": 2,
                   "mean_range": [-2.0, 2.0]},
        "sampler": {"kind": "iid"},
        "ground_truth": {"kind": "exact"},
        "n_grid": [20, 40],
        "trials": 3,
        "schemes": [{"kind": "uniform"}, {"kind": "stein", "max_iters": 500}],
        "test_functions": ["coordinate_mean", "random_cosine"],
    }
    base.update(overrides)
    return ExperimentConfig.from_dict(base)


class TestConfigValidation:
    def test_round_trip(self):
        cfg = small_config()
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again.to_dict() == cfg.to_dict()

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            small_config(typo_key=1)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            small_config(schemes=[{"kind": "zingwhistle"}])

    def test_unknown_test_function_rejected(self):
        with pytest.raises(ValueError):
            small_config(test_functions=["cubes"])

    def test_duplicate_scheme_labels_rejected(self):
        with pytest.raises(ValueError):
            small_config(schemes=[{"kind": "uniform"}, {"kind": "uniform"}])

    def test_nonpositive_grid_rejected(self):
        with pytest.raises(ValueError):
            small_config(n_grid=[0, 10])

    def test_misspelled_scheme_option_rejected_before_sampling(self, monkeypatch):
        # A typo must not leave the scheme to run on its defaults.
        drawn = []
        monkeypatch.setattr(harness, "_sample_points", lambda *args: drawn.append(args))
        monkeypatch.delenv("STEINWEIGHTS_PARALLEL", raising=False)
        schemes = [{"kind": "stein", "max_iters": 5, "solvr": "frank_wolfe"}]
        with pytest.raises(ValueError, match="solvr"):
            run_experiment(small_config(schemes=schemes))
        assert drawn == []

    @pytest.mark.parametrize(
        "scheme",
        [
            {"kind": "uniform", "max_iters": 5},
            {"kind": "exact_is", "lam": 1.0},
            {"kind": "stein", "lam": 1.0},
            {"kind": "control_functional", "bandwidth": 1.0},
            {"kind": "kde_normalized", "tol": 1e-8},
        ],
    )
    def test_option_of_another_kind_rejected(self, scheme):
        bad = next(key for key in scheme if key != "kind")
        with pytest.raises(ValueError, match=bad):
            small_config(schemes=[scheme])

    def test_every_declared_option_accepted(self):
        schemes = [
            {"kind": "uniform", "label": "flat"},
            {"kind": "stein", "lower_bound": 0.0, "max_iters": 5, "tol": 1e-10},
            {"kind": "control_functional", "lam": 1e-3},
            {"kind": "control_functional_normalized", "lam": 1e-3},
            {"kind": "kde", "bandwidth": 0.5},
            {"kind": "kde_normalized", "bandwidth": 0.5},
        ]
        assert small_config(schemes=schemes).schemes == tuple(schemes)

    @pytest.mark.parametrize(
        "scheme, n_grid, bad",
        [
            ({"kind": "stein", "max_iters": "2000"}, [20], "max_iters"),
            ({"kind": "stein", "max_iters": 20.5}, [20], "max_iters"),
            ({"kind": "stein", "max_iters": True}, [20], "max_iters"),
            ({"kind": "stein", "tol": -1.0}, [20], "tol"),
            ({"kind": "control_functional", "lam": "abc"}, [20], "lam"),
            ({"kind": "kde_normalized", "bandwidth": -1.0}, [20], "bandwidth"),
            ({"kind": "stein", "lower_bound": 0.5}, [50], "lower_bound"),
        ],
    )
    def test_bad_scheme_value_rejected_before_sampling(
        self, monkeypatch, scheme, n_grid, bad
    ):
        drawn = []
        monkeypatch.setattr(harness, "_sample_points", lambda *args: drawn.append(args))
        monkeypatch.delenv("STEINWEIGHTS_PARALLEL", raising=False)
        data = small_config().to_dict()
        data.update(schemes=[scheme], n_grid=n_grid)
        with pytest.raises(ValueError, match=bad):
            ExperimentConfig.from_dict(data)
        with pytest.raises(ValueError, match=bad):
            run_experiment(data)
        assert drawn == []

    @pytest.mark.parametrize(
        "key, value",
        [
            ("record_timing", "false"),
            ("record_timing", 0),
            ("trials", 2.7),
            ("trials", True),
            ("seed", 1.5),
            ("seed", "11"),
            ("seed", False),
            ("n_grid", [10.9]),
            ("n_grid", [True, 20]),
            ("n_grid", 5),
            ("sampler", None),
            ("target", 3),
            ("ground_truth", "exact"),
            ("schemes", [3]),
            ("schemes", {"kind": "uniform"}),
            ("test_functions", "coordinate_mean"),
        ],
    )
    def test_top_level_value_not_coerced(self, key, value):
        data = small_config().to_dict()
        data[key] = value
        with pytest.raises(ValueError, match=key):
            ExperimentConfig.from_dict(data)

    @pytest.mark.parametrize(
        "key, value",
        [("n_grid", [10, 10]), ("test_functions", ["coordinate_mean", "coordinate_mean"])],
    )
    def test_repeated_entry_rejected(self, key, value):
        # A repeat would run the same cells or test function twice and pool
        # the duplicate records in the summary.
        with pytest.raises(ValueError, match=f"{key} entries must be distinct"):
            small_config(**{key: value})

    def test_number_option_takes_an_int(self):
        # JSON has one number type: 1 is as good a ridge as 1.0.
        scheme = {"kind": "control_functional", "lam": 1}
        assert harness.parse_spec("scheme", scheme)["lam"] == 1.0
        assert small_config(schemes=[scheme]).schemes == (scheme,)

    @staticmethod
    def run_refusing_draws(monkeypatch, data):
        """Run ``data`` with point sampling and the probit oracle stubbed to fail."""
        def refuse(*args, **kwargs):
            raise AssertionError("a draw started before the config was checked")

        monkeypatch.setattr(harness, "_sample_points", refuse)
        monkeypatch.setattr(harness, "probit_ground_truth", refuse)
        monkeypatch.delenv("STEINWEIGHTS_PARALLEL", raising=False)
        run_experiment(data)

    @pytest.mark.parametrize(
        "base, section, extra, bad",
        [
            ("small", "target", {"dimensoin": 5}, "dimensoin"),
            ("small", "ground_truth", {"draws": 5}, "draws"),
            ("small", "sampler", {"n_steps": 5}, "n_steps"),
            ("small", "sampler", {"proposal": {"kind": "interpolated", "lam": 0.4, "mix": 1}},
             "mix"),
            ("small", "sampler", {"proposal": {"kind": "standard_normal", "dimension": 2,
                                               "scale": 2.0}}, "scale"),
            ("probit", "target", {"prior_varaince": 0.5}, "prior_varaince"),
            ("probit", "sampler", {"n_step": 500}, "n_step"),
            ("probit", "sampler", {"minibatch_size": 10}, "minibatch_size"),
            ("probit", "ground_truth", {"draw": 500}, "draw"),
        ],
    )
    def test_unknown_spec_key_rejected_before_sampling(
        self, monkeypatch, base, section, extra, bad
    ):
        # A typo must not leave the target, sampler or oracle on its defaults.
        data = small_config().to_dict() if base == "small" else copy.deepcopy(PROBIT_MALA)
        data[section] = {**data[section], **extra}
        with pytest.raises(ValueError, match=bad):
            self.run_refusing_draws(monkeypatch, data)

    @pytest.mark.parametrize(
        "sampler, bad",
        [
            ({"kind": "mala", "step_size": -0.01}, "step_size"),
            ({"kind": "mala", "step_size": 0.05, "n_steps": "ten"}, "n_steps"),
            ({"kind": "mala", "step_size": 0.05, "n_steps": 2.5}, "n_steps"),
            ({"kind": "mala", "step_size": 0.05, "init_scale": True}, "init_scale"),
            ({"kind": "mala"}, "step_size"),
            ({"kind": "sgld", "step_size": 0.01, "minibatch_size": 0}, "minibatch_size"),
            ({"kind": "sgld", "step_size": 0.01}, "minibatch_size"),
            ({"kind": "hmc", "step_size": 0.01}, "hmc"),
            ({"kind": "sgld", "step_size": 0.01, "minibatch_size": 21},
             "minibatch_size 21 exceeds data size 20"),
        ],
    )
    def test_bad_sampler_value_rejected_before_oracle(self, monkeypatch, sampler, bad):
        with pytest.raises(ValueError, match=bad):
            self.run_refusing_draws(monkeypatch, {**PROBIT_MALA, "sampler": sampler})

    @pytest.mark.parametrize(
        "oracle, test_functions, bad",
        [
            ({"draws": 0}, ["coordinate_mean"], "draws"),
            ({"draws": "200"}, ["coordinate_mean"], "draws"),
            ({"burn_in": -5}, ["coordinate_mean"], "burn_in"),
            ({"burn_in": 2.5}, ["coordinate_mean"], "burn_in"),
            ({"store_every": -1}, ["coordinate_mean"], "store_every"),
            ({"step_size": 0.0}, ["coordinate_mean"], "step_size"),
            ({"step_size": math.inf}, ["coordinate_mean"], "step_size"),
            ({"store_every": 0}, ["coordinate_mean", "random_cosine"], "store_every"),
            ({"store_every": 201}, ["random_cosine"], "store_every"),
            ({"seed": 1.5}, ["coordinate_mean"], "seed"),
        ],
    )
    def test_bad_oracle_value_rejected_before_oracle(
        self, monkeypatch, oracle, test_functions, bad
    ):
        # PROBIT_MALA's oracle takes 200 draws.
        data = {**PROBIT_MALA, "ground_truth": {**PROBIT_MALA["ground_truth"], **oracle},
                "test_functions": test_functions}
        with pytest.raises(ValueError, match=bad):
            self.run_refusing_draws(monkeypatch, data)

    @pytest.mark.parametrize(
        "base, target, bad",
        [
            ("small", {"kind": "standard_normal", "dimension": 2.7}, "dimension"),
            ("small", {"kind": "standard_normal", "dimension": True}, "dimension"),
            ("small", {"kind": "standard_normal", "dimension": "3"}, "dimension"),
            ("small", {"kind": "standard_normal", "dimension": 0}, "dimension"),
            ("small", {"kind": "standard_normal", "dimension": None}, "dimension"),
            ("small", {"seed": 3.9}, "seed"),
            ("small", {"components": 2.5}, "components"),
            ("probit", {"n_data": 20.9}, "n_data"),
            ("probit", {"prior_variance": "0.5"}, "prior_variance"),
            ("small", {"mean_range": 5}, "mean_range"),
            ("small", {"variance_range": [1]}, "variance_range"),
        ],
    )
    def test_bad_target_value_rejected_before_sampling(self, monkeypatch, base, target, bad):
        # A target number is checked as scheme options are, not coerced.
        data = small_config().to_dict() if base == "small" else copy.deepcopy(PROBIT_MALA)
        data["target"] = target if "kind" in target else {**data["target"], **target}
        with pytest.raises(ValueError, match=bad):
            self.run_refusing_draws(monkeypatch, data)

    @pytest.mark.parametrize("lam", ["0.4", True, [0.4], 1.5, -0.1])
    def test_bad_interpolated_lam_rejected_before_sampling(self, monkeypatch, lam):
        # lam is checked as a number in [0, 1], not coerced.
        data = small_config().to_dict()
        data["sampler"] = {"kind": "iid", "proposal": {"kind": "interpolated", "lam": lam}}
        with pytest.raises(ValueError, match="lam"):
            self.run_refusing_draws(monkeypatch, data)

    @pytest.mark.parametrize(
        "section, spec, message",
        [
            ("target", {"kind": "standard_normal", "dimension": 0},
             "target kind 'standard_normal': dimension must be"),
            ("sampler", {"kind": "iid", "proposal": {"kind": "interpolated", "lam": 2.0}},
             "proposal kind 'interpolated': lam must be"),
            ("sampler", {"kind": "iid", "proposal": {"kind": "gmm_fixture", "seed": -3}},
             "proposal kind 'gmm_fixture': seed must be"),
            ("sampler", {"kind": "mala", "step_size": -0.01}, "step_size must be"),
            ("ground_truth", {"kind": "mala_oracle", "draws": 0},
             "ground_truth kind 'mala_oracle': draws must be"),
        ],
    )
    def test_from_dict_parses_every_section(self, section, spec, message):
        # The config is checked when it is built, not when the run starts.
        data = small_config().to_dict()
        data[section] = spec
        with pytest.raises(ValueError, match=message):
            ExperimentConfig.from_dict(data)

    def test_oracle_keeping_one_draw_for_random_cosine_runs(self, monkeypatch):
        data = {**PROBIT_MALA, "test_functions": ["random_cosine"],
                "ground_truth": {**PROBIT_MALA["ground_truth"], "store_every": 200}}
        with pytest.raises(AssertionError, match="a draw started"):
            self.run_refusing_draws(monkeypatch, data)

    @pytest.mark.parametrize("value", ["abc", "-1", "1.5"])
    def test_bad_parallel_degree_rejected_before_oracle(self, monkeypatch, value):
        calls = []
        monkeypatch.setattr(harness, "probit_ground_truth",
                            lambda *args, **kwargs: calls.append(args))
        monkeypatch.setenv("STEINWEIGHTS_PARALLEL", value)
        with pytest.raises(ValueError, match="STEINWEIGHTS_PARALLEL"):
            run_experiment(PROBIT_MALA)
        assert calls == []

    def test_missing_required_key_named_in_error(self):
        data = small_config().to_dict()
        del data["seed"]
        with pytest.raises(ValueError, match="seed"):
            ExperimentConfig.from_dict(data)


class TestReadmeSpecKeys:
    README = Path(__file__).resolve().parents[1] / "README.md"

    def test_every_row_is_the_table(self):
        # Schemes have their own option table; a proposal of a target kind
        # is that target's row.
        rows = re.findall(
            r"^\| `(config|target|proposal|sampler|ground_truth)` \| (?:`(\w+)` )?\|(.*)\|(.*)\|$",
            self.README.read_text(), flags=re.MULTILINE)
        documented = {
            (section, kind or None): (re.findall(r"`(\w+)`", required),
                                      re.findall(r"`(\w+)` \(([^)]*)\)", optional))
            for section, kind, required, optional in rows
        }
        table = {
            (section, kind): options for (section, kind), options in harness.SPECS.items()
            if section != "scheme"
            and not (section == "proposal" and ("target", kind) in harness.SPECS)
        }
        assert documented.keys() == table.keys()
        for row, options in table.items():
            doc_required, doc_optional = documented[row]
            required = [name for name, o in options.items() if o.default is harness.REQUIRED]
            assert doc_required == required, row
            assert [name for name, _ in doc_optional] == [
                name for name in options if name not in required], row
            for name, default in doc_optional:
                if options[name].default is not None:  # None reads "the target", "tuned"
                    assert default == json.dumps(options[name].default), (row, name)


class TestTestFunctions:
    def test_coordinate_square_values(self):
        pts = np.array([[2.0, -1.0]])
        ids, vals = evaluate_test_function("coordinate_square", pts, np.array([1.0]))
        assert ids == ["coordinate_square.0", "coordinate_square.1"]
        np.testing.assert_allclose(vals, [4.0, 1.0], atol=1e-15)

    def test_degenerate_cosine_is_constant_one(self):
        pts = np.random.default_rng(0).standard_normal((7, 3))
        ids, vals = evaluate_test_function(
            "random_cosine", pts, np.full(7, 1.0 / 7.0),
            omega=np.zeros(3), offset=0.0,
        )
        assert ids == ["random_cosine"]
        assert vals[0] == pytest.approx(1.0, abs=1e-15)

    def test_cosine_matches_characteristic_function(self):
        mix = GaussianMixture(
            weights=np.array([0.4, 0.6]),
            means=np.array([[0.5], [-1.0]]),
            variances=np.array([0.7, 1.2]),
        )
        rng = np.random.default_rng(3)
        omega = rng.standard_normal(1)
        offset = float(rng.uniform(0.0, 2.0 * math.pi))
        from steinweights.samplers import sample_gmm_iid

        pts = sample_gmm_iid(mix, 200_000, rng)
        _, vals = evaluate_test_function(
            "random_cosine", pts, np.full(pts.shape[0], 1.0 / pts.shape[0]),
            omega=omega, offset=offset,
        )
        expect = mix.cosine_expectation(omega, offset)
        assert vals[0] == pytest.approx(expect, abs=0.01)


class TestGroundTruth:
    def test_exact_cosine_uses_characteristic_function(self):
        mix = GaussianMixture(
            weights=np.array([1.0]), means=np.zeros((1, 1)), variances=np.array([1.0])
        )
        gt = mix.moments()
        omega = np.array([0.9])
        assert gt.cosine(omega, 0.1) == pytest.approx(
            math.exp(-0.81 / 2.0) * math.cos(0.1), abs=1e-12
        )

    def test_thinned_fallback(self):
        draws = np.random.default_rng(1).standard_normal((50_000, 1))
        gt = GroundTruth(
            mean=np.zeros(1), second_moment=np.ones(1), thinned=draws
        )
        omega = np.array([0.5])
        expect = math.exp(-0.125)
        assert gt.cosine(omega, 0.0) == pytest.approx(expect, abs=0.02)


class TestRunExperiment:
    def test_single_uniform_trial_clt_band(self):
        cfg = ExperimentConfig.from_dict({
            "seed": 5,
            "target": {"kind": "standard_normal", "dimension": 1},
            "sampler": {"kind": "iid"},
            "ground_truth": {"kind": "exact"},
            "n_grid": [10_000],
            "trials": 1,
            "schemes": [{"kind": "uniform"}],
            "test_functions": ["coordinate_mean"],
        })
        result = run_experiment(cfg)
        rec = [r for r in result.records if r.test_fn == "coordinate_mean.0"][0]
        assert abs(rec.estimate) < 4.0 / math.sqrt(10_000)

    def test_repeat_run_identical_records(self, tmp_path):
        cfg = small_config()
        res_a = run_experiment(cfg)
        res_b = run_experiment(cfg)
        path_a = tmp_path / "a.csv"
        path_b = tmp_path / "b.csv"
        write_records_csv(path_a, res_a.records)
        write_records_csv(path_b, res_b.records)
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_stein_ksd_never_above_uniform(self):
        cfg = small_config()
        result = run_experiment(cfg)
        by_key = {}
        for rec in result.records:
            by_key.setdefault((rec.n, rec.trial, rec.scheme), rec.ksd)
        for (n, trial, scheme), ksd in by_key.items():
            if scheme == "stein":
                assert ksd <= by_key[(n, trial, "uniform")] + 1e-12

    def test_stein_losing_to_uniform_raises(self, monkeypatch):
        # A stein solve worse than uniform's weights aborts the run.
        def vertex(problem, **kwargs):
            weights = np.zeros(problem.n)
            weights[np.argmax(np.diag(problem.gram))] = 1.0
            return simplex_qp.QpSolution(weights, 0.0, 1, False, 0.0, np.zeros(1))

        monkeypatch.setattr(simplex_qp, "solve", vertex)
        monkeypatch.delenv("STEINWEIGHTS_PARALLEL", raising=False)
        with pytest.raises(DominanceError, match="stein weights lost to uniform"):
            run_experiment(small_config())

    def test_failed_trials_marked_not_raised(self):
        # SGLD with zero step size and zero init scale parks every chain on
        # the origin, so the bandwidth degenerates on each trial. The run
        # must keep going and mark the records failed, not raise.
        cfg = ExperimentConfig.from_dict({
            "seed": 2,
            "target": {"kind": "probit_simulated", "n_data": 20, "dimension": 2,
                       "seed": 4},
            "sampler": {"kind": "sgld", "step_size": 0.0, "n_steps": 1,
                        "init_scale": 0.0, "minibatch_size": 20},
            "ground_truth": {"kind": "mala_oracle", "draws": 2_000, "burn_in": 500,
                             "seed": 6},
            "n_grid": [15],
            "trials": 2,
            "schemes": [{"kind": "uniform"}, {"kind": "stein"}],
            "test_functions": ["coordinate_mean"],
        })
        result = run_experiment(cfg)
        assert result.records
        assert {r.status for r in result.records} == {"failed"}
        assert {r.scheme for r in result.records} == {"uniform", "stein"}
        assert all(math.isnan(r.estimate) for r in result.records)
        rows = summarize(result.records)
        assert all(row.trials_ok == 0 and row.trials_failed == 2 for row in rows)
        assert all(math.isnan(row.mse) for row in rows)

    def test_diverging_chain_marked_failed(self):
        # The non-finite points must fail the trial, not abort the run.
        cfg = ExperimentConfig.from_dict(DIVERGING_SGLD)
        with np.errstate(all="ignore"):
            result = run_experiment(cfg)
        assert len(result.records) == 2 * 3
        assert {r.status for r in result.records} == {"failed"}

    def test_diverging_chain_stops_early(self, monkeypatch):
        # The same diverging config: SGLD stops at the first non-finite
        # step instead of running all 100, and the rows still read failed.
        calls = []
        minibatch = targets.ProbitModel.data_score_minibatch

        def counting(self, points, batch_indices):
            calls.append(len(points))
            return minibatch(self, points, batch_indices)

        monkeypatch.setattr(targets.ProbitModel, "data_score_minibatch", counting)
        monkeypatch.delenv("STEINWEIGHTS_PARALLEL", raising=False)
        result = run_experiment(DIVERGING_SGLD)
        assert 0 < len(calls) < 100
        assert {r.status for r in result.records} == {"failed"}

    def test_workers_do_not_rewrite_dataset(self, tmp_path, monkeypatch):
        dataset = tmp_path / "probit.csv"
        stamps = []
        write = harness.write_probit_dataset

        def write_and_stamp(path, model):
            write(path, model)
            stamps.append(os.stat(path).st_mtime_ns)

        monkeypatch.setattr(harness, "write_probit_dataset", write_and_stamp)
        monkeypatch.setenv("STEINWEIGHTS_PARALLEL", "2")
        run_experiment({
            "seed": 3,
            "target": {"kind": "probit_simulated", "n_data": 20, "dimension": 2,
                       "seed": 4, "dataset_out": str(dataset)},
            "sampler": {"kind": "sgld", "step_size": 0.01, "n_steps": 5,
                        "minibatch_size": 10},
            "ground_truth": {"kind": "mala_oracle", "draws": 500, "burn_in": 100,
                             "seed": 6},
            "n_grid": [10],
            "trials": 2,
            "schemes": [{"kind": "uniform"}],
            "test_functions": ["coordinate_mean"],
        })
        assert len(stamps) == 1
        assert os.stat(dataset).st_mtime_ns == stamps[0]

    @pytest.mark.parametrize(
        "data",
        [
            small_config().to_dict(),
            # The oracle's thinned draws score random_cosine in the workers;
            # nine jobs make two chunks of at most eight.
            {**PROBIT_MALA, "trials": 9, "test_functions": ["coordinate_mean", "random_cosine"]},
        ],
        ids=["exact", "mala_oracle"],
    )
    def test_parallel_matches_serial(self, tmp_path, monkeypatch, data):
        records = {}
        for degree in ("1", "2"):
            monkeypatch.setenv("STEINWEIGHTS_PARALLEL", degree)
            out = tmp_path / degree
            run_experiment({**data, "output_dir": str(out)})
            records[degree] = (out / "records.csv").read_bytes()
        assert records["1"] == records["2"]

    @pytest.mark.parametrize(
        "target, sampler, ground_truth",
        [
            ({"kind": "standard_normal", "dimension": 2},
             {"kind": "iid", "proposal": {"kind": "interpolated", "lam": 0.3}},
             {"kind": "exact"}),
            ({"kind": "gmm", "weights": [0.3, 0.7], "means": [[-1.0, 0.0], [1.0, 0.5]],
              "variances": [0.5, 1.0]},
             {"kind": "mala", "step_size": 0.1},
             {"kind": "exact"}),
            ({"kind": "gmm_fixture", "seed": 3, "components": 4},
             {"kind": "iid", "proposal": {"kind": "interpolated", "lam": 0.4}},
             {"kind": "exact"}),
            (PROBIT_MALA["target"],
             {"kind": "sgld", "step_size": 0.01, "n_steps": 5, "minibatch_size": 10},
             PROBIT_MALA["ground_truth"]),
        ],
        ids=["standard_normal", "gmm", "gmm_fixture", "probit_simulated"],
    )
    def test_context_survives_pickle(self, target, sampler, ground_truth):
        # Pool workers receive the parent's context pickled, and must score
        # trials exactly as the parent would.
        cfg = ExperimentConfig.from_dict({
            **PROBIT_MALA, "target": target, "sampler": sampler, "ground_truth": ground_truth,
            "test_functions": ["coordinate_mean", "random_cosine"],
        })
        ctx = harness._build_context(cfg)
        copied = pickle.loads(pickle.dumps(ctx))
        assert harness._trial_records(copied, 10, 0) == harness._trial_records(ctx, 10, 0)


class TestSummaries:
    def make_records(self, mse_by_n, scheme="uniform", test_fn="coordinate_mean.0"):
        records = []
        for n, mse in mse_by_n.items():
            err = math.sqrt(mse)
            for trial in range(4):
                records.append(ExperimentRecord(
                    scheme=scheme, n=n, trial=trial, test_fn=test_fn,
                    estimate=err, sq_error=mse, ksd=0.0, iterations=0,
                    wall_ms=0.0, status="ok",
                ))
        return records

    def test_exact_inverse_law_slope(self):
        records = self.make_records({n: 1.0 / n for n in (50, 100, 200, 400)})
        summary = summarize(records)
        fit = rate_fit(summary, scheme="uniform", test_fn="coordinate_mean")
        assert fit.slope == pytest.approx(-1.0, abs=1e-12)
        assert fit.stderr == pytest.approx(0.0, abs=1e-10)

    def test_three_halves_law_slope(self):
        records = self.make_records({n: n ** -1.5 for n in (50, 100, 200, 400)})
        fit = rate_fit(summarize(records), scheme="uniform", test_fn="coordinate_mean")
        assert fit.slope == pytest.approx(-1.5, abs=1e-12)

    def test_coordinates_pool_into_one_family(self):
        records = self.make_records({100: 0.5}, test_fn="coordinate_mean.0")
        records += self.make_records({100: 0.1}, test_fn="coordinate_mean.1")
        summary = summarize(records)
        rows = [r for r in summary if r.test_fn == "coordinate_mean"]
        assert len(rows) == 1
        assert rows[0].mse == pytest.approx(0.3, abs=1e-12)


class TestPointsCsv:
    def test_round_trip(self, tmp_path):
        pts = np.random.default_rng(8).standard_normal((9, 3))
        path = tmp_path / "points.csv"
        write_points(str(path), pts)
        clone = read_points(str(path))
        np.testing.assert_allclose(clone, pts, atol=1e-12)


class TestBuildTarget:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            build_target_model({"kind": "laplace"})

    def test_fixture_determinism(self):
        a = build_target_model({"kind": "gmm_fixture", "seed": 3})
        b = build_target_model({"kind": "gmm_fixture", "seed": 3})
        np.testing.assert_array_equal(a.means, b.means)
