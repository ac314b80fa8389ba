"""The per-seed MSE-ratio sweep script."""

import argparse
import importlib.util
import json
import math
from pathlib import Path

import pytest

from steinweights.harness import run_experiment

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "seed_sweep.py"
_spec = importlib.util.spec_from_file_location("seed_sweep", SCRIPT)
seed_sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(seed_sweep)

CONFIG = {
    "seed": 0,
    "target": {"kind": "gmm_fixture", "seed": 3, "components": 4, "dimension": 2,
               "mean_range": [-2.0, 2.0]},
    "sampler": {"kind": "iid"},
    "ground_truth": {"kind": "exact"},
    "n_grid": [20, 40],
    "trials": 2,
    "schemes": [{"kind": "uniform"}, {"kind": "stein", "max_iters": 200}],
    "test_functions": ["coordinate_mean", "random_cosine"],
}


def test_parse_seeds():
    assert seed_sweep.parse_seeds("1-3,7,9-10") == [1, 2, 3, 7, 9, 10]
    with pytest.raises(argparse.ArgumentTypeError):
        seed_sweep.parse_seeds("5-2")


def test_prints_each_seed_ratio_and_their_spread(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("STEINWEIGHTS_PARALLEL", raising=False)
    out_dir = tmp_path / "out"
    path = tmp_path / "config.json"
    path.write_text(json.dumps(CONFIG | {"output_dir": str(out_dir)}))
    assert seed_sweep.main([str(path), "--seeds", "11-12"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "seed mse_ratio"
    want = []
    for seed, line in zip((11, 12), lines[1:3]):
        summary = run_experiment(CONFIG | {"seed": seed}).summary
        mse = {(r.scheme, r.test_fn, r.n): r.mse for r in summary}
        logs = [math.log(mse[("stein", fn, n)] / mse[("uniform", fn, n)])
                for fn in ("coordinate_mean", "random_cosine") for n in (20, 40)]
        want.append(math.exp(sum(logs) / 4))
        assert line == f"{seed} {want[-1]!r}"
    assert lines[3].startswith(f"median {(want[0] + want[1]) / 2:.4g} [q1 ")
    assert lines[3].endswith(f"geometric mean {math.sqrt(want[0] * want[1]):.4g}, "
                             "over 2 of 2 seeds")
    assert len(lines) == 4
    assert not out_dir.exists()
