"""End-to-end checks of the command-line entry points."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from steinweights import harness
from steinweights.cli import main
from steinweights.harness import RECORD_COLUMNS, SCHEMES, write_points
from steinweights.kernels import RbfKernel, median_heuristic_bandwidth
from steinweights.stein import ksd_weighted, stein_gram
from steinweights.targets import standard_normal_target


def _write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def _points_file(tmp_path, n=12, d=2, seed=0):
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((n, d))
    path = tmp_path / "points.csv"
    write_points(path, pts)
    return str(path), pts


class TestRunCommand:
    def test_writes_records_and_summary(self, tmp_path, capsys):
        cfg = {
            "seed": 9,
            "target": {"kind": "gmm_fixture", "seed": 3, "components": 3,
                       "dimension": 2, "mean_range": [-2.0, 2.0]},
            "sampler": {"kind": "iid"},
            "ground_truth": {"kind": "exact"},
            "n_grid": [15, 30],
            "trials": 2,
            "schemes": [{"kind": "uniform"}, {"kind": "stein", "max_iters": 300}],
            "test_functions": ["coordinate_mean"],
        }
        cfg_path = _write_json(tmp_path / "config.json", cfg)
        out_dir = tmp_path / "out"
        code = main(["run", "--config", cfg_path, "--output-dir", str(out_dir)])
        assert code == 0
        records = (out_dir / "records.csv").read_text().splitlines()
        assert records[0] == ",".join(RECORD_COLUMNS)
        # 2 schemes x 2 sizes x 2 trials x 2 coordinates of the mean
        assert len(records) == 1 + 16
        summary = (out_dir / "summary.csv").read_text().splitlines()
        assert summary[0] == "scheme,test_fn,n,mse,trials_ok,trials_failed"
        assert len(summary) == 1 + 4
        out = capsys.readouterr().out
        assert "records written to" in out

    def test_output_dir_from_config(self, tmp_path, capsys):
        out_dir = tmp_path / "from_config"
        cfg = {
            "seed": 1,
            "target": {"kind": "standard_normal", "dimension": 1},
            "sampler": {"kind": "iid"},
            "ground_truth": {"kind": "exact"},
            "n_grid": [10],
            "trials": 1,
            "schemes": [{"kind": "uniform"}],
            "test_functions": ["coordinate_mean"],
            "output_dir": str(out_dir),
        }
        cfg_path = _write_json(tmp_path / "config.json", cfg)
        assert main(["run", "--config", cfg_path]) == 0
        assert (out_dir / "records.csv").exists()
        assert (out_dir / "summary.csv").exists()
        capsys.readouterr()


class TestWeightsCommand:
    def test_uniform_weights_csv(self, tmp_path):
        points_path, pts = _points_file(tmp_path)
        target_path = _write_json(
            tmp_path / "target.json", {"kind": "standard_normal", "dimension": 2}
        )
        out_path = tmp_path / "w.csv"
        code = main([
            "weights", "--points", points_path, "--target", target_path,
            "--scheme", "uniform", "--output", str(out_path),
        ])
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "index,weight"
        weights = np.array([float(line.split(",")[1]) for line in lines[1:]])
        assert weights.shape[0] == pts.shape[0]
        np.testing.assert_allclose(weights, 1.0 / pts.shape[0])

    def test_stein_weights_feasible(self, tmp_path):
        points_path, pts = _points_file(tmp_path, n=20, seed=3)
        target_path = _write_json(
            tmp_path / "target.json", {"kind": "standard_normal", "dimension": 2}
        )
        out_path = tmp_path / "w.csv"
        code = main([
            "weights", "--points", points_path, "--target", target_path,
            "--scheme", "stein", "--output", str(out_path),
        ])
        assert code == 0
        lines = out_path.read_text().splitlines()
        weights = np.array([float(line.split(",")[1]) for line in lines[1:]])
        assert weights.shape[0] == 20
        assert abs(weights.sum() - 1.0) < 1e-12
        assert weights.min() >= 0.0

    def test_stdout_when_no_output(self, tmp_path, capsys):
        points_path, _ = _points_file(tmp_path, n=5, d=1, seed=1)
        target_path = _write_json(
            tmp_path / "target.json", {"kind": "standard_normal", "dimension": 1}
        )
        assert main([
            "weights", "--points", points_path, "--target", target_path,
            "--scheme", "uniform",
        ]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "index,weight"
        assert len(out) == 6


# A value other than the default for every scheme option in the table.
OPTION_VALUES = {"max_iters": 40, "tol": 1e-12, "lam": 1e-3, "bandwidth": 0.7}


class TestWeightsMatchHarness:
    TARGET = {"kind": "gmm_fixture", "seed": 3, "components": 4, "dimension": 2,
              "mean_range": [-2.0, 2.0]}
    PROPOSAL = {"kind": "gmm", "weights": [0.5, 0.5],
                "means": [[-1.0, 0.0], [1.0, 0.5]], "variances": [1.5, 2.0]}

    def test_every_option_has_a_value(self):
        assert set(OPTION_VALUES) == {
            name for scheme in SCHEMES.values() for name in scheme.options
        }

    @pytest.mark.parametrize("given", [False, True], ids=["defaults", "options"])
    @pytest.mark.parametrize("kind", sorted(SCHEMES))
    def test_cli_weights_equal_table_weights(self, tmp_path, kind, given):
        spec = {"kind": kind}
        if given:
            spec.update({name: OPTION_VALUES[name] for name in SCHEMES[kind].options})
        cfg = harness.ExperimentConfig.from_dict({
            "seed": 1, "target": self.TARGET,
            "sampler": {"kind": "iid", "proposal": self.PROPOSAL},
            "n_grid": [30], "trials": 1, "schemes": [spec],
            "test_functions": ["coordinate_mean"],
        })
        ctx = harness._build_context(cfg)
        points = harness._sample_points(ctx, 30, np.random.SeedSequence(5))
        [(_, entry, options)] = ctx.schemes
        gram = stein_gram(ctx.target, RbfKernel(median_heuristic_bandwidth(points)), points)
        expected, _ = entry.weights(
            ctx.target, points, gram, ctx.proposal_log_density, entry.normalize, **options
        )

        points_path = tmp_path / "points.csv"
        write_points(points_path, points)
        argv = [
            "weights", "--points", str(points_path), "--scheme", kind,
            "--target", _write_json(tmp_path / "target.json", self.TARGET),
            "--output", str(tmp_path / "w.csv"),
        ]
        if entry.needs_proposal:
            argv += ["--proposal", _write_json(tmp_path / "q.json", self.PROPOSAL)]
        for name in SCHEMES[kind].options if given else ():
            argv.append(f"--{name.replace('_', '-')}={OPTION_VALUES[name]}")
        assert main(argv) == 0
        lines = (tmp_path / "w.csv").read_text().splitlines()[1:]
        weights = np.array([float(line.split(",")[1]) for line in lines])
        np.testing.assert_array_equal(weights, expected)

    def test_interpolated_proposal_is_the_harness_proposal(self, tmp_path):
        proposal = {"kind": "interpolated", "lam": 0.3}
        cfg = harness.ExperimentConfig.from_dict({
            "seed": 1, "target": self.TARGET,
            "sampler": {"kind": "iid", "proposal": proposal},
            "n_grid": [30], "trials": 1, "schemes": [{"kind": "exact_is"}],
            "test_functions": ["coordinate_mean"],
        })
        ctx = harness._build_context(cfg)
        points = harness._sample_points(ctx, 30, np.random.SeedSequence(5))
        [(_, entry, _)] = ctx.schemes
        expected, _ = entry.weights(
            ctx.target, points, None, ctx.proposal_log_density, entry.normalize)

        points_path = tmp_path / "points.csv"
        write_points(points_path, points)
        assert main([
            "weights", "--points", str(points_path), "--scheme", "exact_is",
            "--target", _write_json(tmp_path / "target.json", self.TARGET),
            "--proposal", _write_json(tmp_path / "q.json", proposal),
            "--output", str(tmp_path / "w.csv"),
        ]) == 0
        lines = (tmp_path / "w.csv").read_text().splitlines()[1:]
        weights = np.array([float(line.split(",")[1]) for line in lines])
        np.testing.assert_array_equal(weights, expected)


class TestKsdCommand:
    def test_matches_library_value(self, tmp_path, capsys):
        points_path, pts = _points_file(tmp_path, n=15, d=2, seed=5)
        target_path = _write_json(
            tmp_path / "target.json", {"kind": "standard_normal", "dimension": 2}
        )
        weights_path = tmp_path / "w.csv"
        assert main([
            "weights", "--points", points_path, "--target", target_path,
            "--scheme", "uniform", "--output", str(weights_path),
        ]) == 0
        assert main([
            "ksd", "--points", points_path, "--weights", str(weights_path),
            "--target", target_path,
        ]) == 0
        printed = float(capsys.readouterr().out.strip())
        target = standard_normal_target(2)
        gram = stein_gram(target, RbfKernel(median_heuristic_bandwidth(pts)), pts)
        expected = ksd_weighted(gram, np.full(15, 1.0 / 15))
        assert printed == expected


class TestErrorPaths:
    def test_missing_points_file_exits_two(self, tmp_path, capsys):
        target_path = _write_json(
            tmp_path / "target.json", {"kind": "standard_normal", "dimension": 1}
        )
        code = main([
            "weights", "--points", str(tmp_path / "absent.csv"),
            "--target", target_path,
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_target_kind_exits_two(self, tmp_path, capsys):
        points_path, _ = _points_file(tmp_path, n=5, d=1)
        target_path = _write_json(tmp_path / "target.json", {"kind": "zorp"})
        code = main([
            "weights", "--points", points_path, "--target", target_path,
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_exact_is_without_proposal_exits_two(self, tmp_path, capsys):
        points_path, _ = _points_file(tmp_path, n=5, d=1)
        target_path = _write_json(
            tmp_path / "target.json", {"kind": "standard_normal", "dimension": 1}
        )
        code = main([
            "weights", "--points", points_path, "--target", target_path,
            "--scheme", "exact_is",
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["probit_simulated", "probit"])
    def test_probit_proposal_exits_two_and_writes_nothing(self, tmp_path, capsys, kind):
        points_path, _ = _points_file(tmp_path, n=5, d=2)
        target_path = _write_json(
            tmp_path / "target.json", {"kind": "standard_normal", "dimension": 2}
        )
        dataset = tmp_path / "proposal_data.csv"
        spec = {"kind": kind, "prior_variance": 1.0}
        if kind == "probit_simulated":
            spec.update({"n_data": 20, "dimension": 2, "seed": 4, "dataset_out": str(dataset)})
        else:
            spec["dataset"] = str(dataset)
        code = main([
            "weights", "--points", points_path, "--target", target_path,
            "--scheme", "exact_is", "--proposal", _write_json(tmp_path / "q.json", spec),
        ])
        assert code == 2
        assert f"unknown proposal kind {kind!r}" in capsys.readouterr().err
        assert not dataset.exists()

    def test_interpolated_proposal_of_probit_target_exits_two_and_writes_nothing(
        self, tmp_path, capsys
    ):
        points_path, _ = _points_file(tmp_path, n=5, d=2)
        dataset = tmp_path / "target_data.csv"
        target_path = _write_json(tmp_path / "target.json", {
            "kind": "probit_simulated", "n_data": 20, "dimension": 2, "seed": 4,
            "dataset_out": str(dataset),
        })
        code = main([
            "weights", "--points", points_path, "--target", target_path, "--scheme", "exact_is",
            "--proposal", _write_json(tmp_path / "q.json", {"kind": "interpolated", "lam": 0.3}),
        ])
        assert code == 2
        assert "needs a mixture target" in capsys.readouterr().err
        assert not dataset.exists()

    def test_target_missing_required_key_exits_two(self, tmp_path, capsys):
        points_path, _ = _points_file(tmp_path, n=5, d=2)
        target_path = _write_json(tmp_path / "target.json", {"kind": "standard_normal"})
        code = main([
            "weights", "--points", points_path, "--target", target_path,
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "dimension" in err

    @pytest.mark.parametrize("scheme", ["stein", "control_functional"])
    def test_weights_zero_bandwidth_exits_two(self, tmp_path, capsys, scheme):
        # 0 is a given bandwidth, not a request for the median heuristic.
        points_path, _ = _points_file(tmp_path, n=6)
        target_path = _write_json(
            tmp_path / "target.json", {"kind": "standard_normal", "dimension": 2}
        )
        code = main([
            "weights", "--points", points_path, "--target", target_path,
            "--scheme", scheme, "--bandwidth", "0",
        ])
        assert code == 2
        assert "error: bandwidth must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "scheme, flags",
        [
            ("uniform", ["--lam", "5"]),
            ("uniform", ["--bandwidth", "1"]),
            ("stein", ["--lam", "5"]),
            ("kde", ["--max-iters", "10"]),
            ("stein", ["--proposal", "q.json"]),
        ],
    )
    def test_flag_the_scheme_does_not_take_exits_two(self, tmp_path, capsys,
                                                     scheme, flags):
        points_path, _ = _points_file(tmp_path, n=6)
        target_path = _write_json(
            tmp_path / "target.json", {"kind": "standard_normal", "dimension": 2}
        )
        code = main([
            "weights", "--points", points_path, "--target", target_path,
            "--scheme", scheme, *flags,
        ])
        assert code == 2
        assert f"does not take {flags[0]}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "scheme, flags, message",
        [
            ("stein", ["--max-iters", "0"], "max_iters must be"),
            ("control_functional", ["--lam", "-1"], "lam must be"),
            ("kde", ["--bandwidth", "-1"], "bandwidth must be"),
        ],
    )
    def test_option_out_of_range_exits_two(self, tmp_path, capsys, scheme, flags,
                                           message):
        points_path, _ = _points_file(tmp_path, n=6)
        target_path = _write_json(
            tmp_path / "target.json", {"kind": "standard_normal", "dimension": 2}
        )
        code = main([
            "weights", "--points", points_path, "--target", target_path,
            "--scheme", scheme, *flags,
        ])
        assert code == 2
        assert message in capsys.readouterr().err

    def test_lower_bound_flag_is_unknown(self, tmp_path, capsys):
        # The stein solver serves the probability simplex only.
        points_path, _ = _points_file(tmp_path, n=6)
        target_path = _write_json(
            tmp_path / "target.json", {"kind": "standard_normal", "dimension": 2}
        )
        with pytest.raises(SystemExit) as exc:
            main([
                "weights", "--points", points_path, "--target", target_path,
                "--scheme", "stein", "--lower-bound", "0",
            ])
        assert exc.value.code == 2
        assert "unrecognized arguments: --lower-bound" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--points", "--weights"])
    def test_ksd_header_only_file_exits_two(self, tmp_path, capsys, flag):
        # Points and weights are read by one reader, with one message.
        points_path, _ = _points_file(tmp_path, n=6)
        target_path = _write_json(
            tmp_path / "target.json", {"kind": "standard_normal", "dimension": 2}
        )
        weights_path = tmp_path / "w.csv"
        assert main([
            "weights", "--points", points_path, "--target", target_path,
            "--scheme", "uniform", "--output", str(weights_path),
        ]) == 0
        files = {"--points": points_path, "--weights": str(weights_path)}
        header_only = tmp_path / "header.csv"
        header_only.write_text(Path(files[flag]).read_text().splitlines()[0] + "\n")
        files[flag] = str(header_only)
        code = main([
            "ksd", "--points", files["--points"], "--weights", files["--weights"],
            "--target", target_path,
        ])
        assert code == 2
        assert f"error: {header_only} has a header but no data rows" in capsys.readouterr().err

    def test_malformed_run_config_exits_two(self, tmp_path, capsys):
        config = {
            "seed": 1, "n_grid": [10], "trials": 1, "schemes": [{"kind": "uniform"}],
            "test_functions": ["coordinate_mean"],
            "target": {"kind": "gmm_fixture", "seed": 3, "mean_range": 5},
        }
        code = main(["run", "--config", _write_json(tmp_path / "config.json", config)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "mean_range" in err

    def test_ksd_zero_bandwidth_exits_two(self, tmp_path, capsys):
        points_path, _ = _points_file(tmp_path, n=6)
        target_path = _write_json(
            tmp_path / "target.json", {"kind": "standard_normal", "dimension": 2}
        )
        weights_path = tmp_path / "w.csv"
        assert main([
            "weights", "--points", points_path, "--target", target_path,
            "--scheme", "uniform", "--output", str(weights_path),
        ]) == 0
        code = main([
            "ksd", "--points", points_path, "--weights", str(weights_path),
            "--target", target_path, "--bandwidth", "0",
        ])
        assert code == 2
        assert "error: bandwidth must be positive" in capsys.readouterr().err


class TestReadmeTargetKinds:
    def _readme_kinds(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("A target spec is JSON:", 1)[1]
        section = section.split("## Experiment configs", 1)[0]
        kinds = re.findall(r'"kind": "(\w+)"', section)
        return set(kinds + re.findall(r"`(\w+)`\s+\(", section))

    def test_every_documented_kind_builds(self, tmp_path):
        dataset = str(tmp_path / "probit.csv")
        # probit_simulated precedes probit: it writes the dataset probit reads.
        specs = {
            "gmm_fixture": {"kind": "gmm_fixture", "seed": 3, "components": 4,
                            "dimension": 2},
            "standard_normal": {"kind": "standard_normal", "dimension": 2},
            "probit_simulated": {"kind": "probit_simulated", "n_data": 20,
                                 "dimension": 2, "seed": 4, "dataset_out": dataset},
            "probit": {"kind": "probit", "dataset": dataset},
            "gmm": {"kind": "gmm", "weights": [0.3, 0.7],
                    "means": [[-1.0, 0.0], [1.0, 0.5]], "variances": [0.5, 1.0]},
        }
        assert self._readme_kinds() == set(specs)
        points_path, _ = _points_file(tmp_path, n=8, d=2)
        for kind, spec in specs.items():
            target_path = _write_json(tmp_path / f"{kind}.json", spec)
            code = main([
                "weights", "--points", points_path, "--target", target_path,
                "--scheme", "stein", "--output", str(tmp_path / f"{kind}.csv"),
            ])
            assert code == 0, kind


class TestReadmeSchemes:
    README = Path(__file__).resolve().parents[1] / "README.md"

    def test_scheme_list_is_the_table(self):
        section = self.README.read_text().split("`--scheme` accepts", 1)[1]
        sentence = section.split(".", 1)[0]
        assert re.findall(r"`(\w+)`", sentence) == list(SCHEMES)

    def test_option_rows_are_the_table(self):
        rows = re.findall(r"^\| `(\w+)` \| (\w+) \| (.+?) \|", self.README.read_text(),
                          flags=re.MULTILINE)
        documented = {name: (type_name, kinds) for name, type_name, kinds in rows}
        declared = {}
        for scheme in SCHEMES.values():
            for name, option in scheme.options.items():
                declared.setdefault(name, (option.type.__name__, []))[1].append(scheme.kind)
        assert set(documented) == set(declared)
        for name, (type_name, kinds) in declared.items():
            assert documented[name][0] == type_name, name
            assert re.findall(r"`(\w+)`", documented[name][1]) == kinds, name
