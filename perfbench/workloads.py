"""Experiment configs for the three benchmark workloads.

Each workload stresses a different layer of one trial (see README.md):
``iid_stein`` the ``simplex_qp`` solve, ``probit_sgld`` the SGLD sampler,
the probit target and the MALA oracle, and ``gram_baselines`` the Stein Gram
path and the baselines, with no QP solve at all.

A run's calls use the benchmark's ``--seed`` as the config seed, except
that an untraced run makes one call at the workload's fixed
``quality_seed``. So ``mse_ratio`` and that call's ``records.csv`` digest
are identical in every run of the same code. MSE from a few trials varies
by tens of percent from seed to seed, which would hide any quality change.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

_STEIN = {"kind": "stein", "max_iters": 2000, "tol": 1e-10}


@dataclass(frozen=True)
class Workload:
    config: dict
    quality_seed: int

    def experiment(self, seed: int, output_dir: str | None) -> dict:
        """The config of one repetition."""
        cfg = copy.deepcopy(self.config)
        cfg["seed"] = int(seed)
        cfg["output_dir"] = output_dir
        return cfg

    def setup_probe(self) -> dict:
        """The same run cut to one trial at n = 2, without output files.

        Its wall time is the fixed cost of a run: target build, proposal and
        ground-truth oracle, plus one trial too small to matter.
        """
        cfg = self.experiment(self.quality_seed, None)
        cfg["n_grid"] = [2]
        cfg["trials"] = 1
        return cfg

    @property
    def cells(self) -> int:
        """(n, trial) cells in one repetition."""
        return len(self.config["n_grid"]) * self.config["trials"]


WORKLOADS = {
    # Criterion-05 target; the solve is ~90% of the time at n = 800.
    "iid_stein": Workload(
        config={
            "target": {"kind": "gmm_fixture", "seed": 3, "components": 20,
                       "dimension": 2, "mean_range": [-3.0, 3.0]},
            "sampler": {"kind": "iid"},
            "ground_truth": {"kind": "exact"},
            "n_grid": [200, 800],
            "trials": 3,
            "schemes": [{"kind": "uniform"}, dict(_STEIN)],
            "test_functions": ["coordinate_square"],
        },
        quality_seed=2025,
    ),
    # Minibatch 50 of 500 observations, so an O(m) minibatch score can show.
    # The oracle is 10k draws (not criterion 07's 1M) so that a run can repeat
    # set-up three times and still fit its time budget.
    "probit_sgld": Workload(
        config={
            "target": {"kind": "probit_simulated", "n_data": 500,
                       "dimension": 10, "seed": 42},
            "sampler": {"kind": "sgld", "step_size": 0.004, "n_steps": 100,
                        "minibatch_size": 50},
            "ground_truth": {"kind": "mala_oracle", "draws": 10000,
                             "burn_in": 1000, "seed": 7},
            "n_grid": [50, 100, 200],
            "trials": 3,
            "schemes": [{"kind": "uniform"}, dict(_STEIN)],
            "test_functions": ["coordinate_mean"],
        },
        quality_seed=4242,
    ),
    # Criterion-04 target; n = 800 and 1600 sit on either side of the
    # n <= 1024 eigenvalue check in SteinGram.
    "gram_baselines": Workload(
        config={
            "target": {"kind": "gmm_fixture", "seed": 3, "components": 6,
                       "dimension": 2, "mean_range": [-2.0, 2.0]},
            "sampler": {"kind": "iid",
                        "proposal": {"kind": "interpolated", "lam": 0.4}},
            "ground_truth": {"kind": "exact"},
            "n_grid": [800, 1600],
            "trials": 8,
            "schemes": [{"kind": "uniform"}, {"kind": "exact_is"},
                        {"kind": "control_functional_normalized"},
                        {"kind": "kde_normalized"}],
            "test_functions": ["coordinate_mean", "coordinate_square",
                               "random_cosine"],
        },
        quality_seed=77,
    ),
}
