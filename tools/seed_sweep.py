"""Per-seed stein/uniform MSE ratios of one experiment config.

    PYTHONPATH=src python tools/seed_sweep.py CONFIG.json --seeds 1-20

Runs the config once per seed, with its ``seed`` replaced and no output
directory, and prints each seed's ratio: the geometric mean, over every
(scheme, test function, n) summary cell of a scheme other than
``uniform``, of that cell's MSE over uniform's in the same test function
and n. This is the benchmark's ``mse_ratio`` formula. A seed with a
non-finite or zero MSE in any cell prints ``nan``. The last line gives the
median, the quartiles and the geometric mean of the finite ratios. Seeds
are a list of integers and ranges, such as ``1-20`` or ``2,5,7-9``.
"""

from __future__ import annotations

import argparse
import json
import math

import numpy as np

from steinweights.harness import run_experiment


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        first = int(low)
        last = int(high) if high else first
        if last < first:
            raise argparse.ArgumentTypeError(f"empty seed range {part!r}")
        seeds.extend(range(first, last + 1))
    return seeds


def mse_ratio(summary) -> float:
    """Geometric mean of each non-uniform cell's MSE over uniform's."""
    mse = {(row.scheme, row.test_fn, row.n): row.mse for row in summary}
    if not all(math.isfinite(v) and v > 0.0 for v in mse.values()):
        return math.nan
    logs = [math.log(v / mse[("uniform", fn, n)])
            for (scheme, fn, n), v in mse.items() if scheme != "uniform"]
    if not logs:
        raise SystemExit("the config needs a uniform scheme and at least one other")
    return math.exp(sum(logs) / len(logs))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("config", help="experiment config JSON")
    parser.add_argument("--seeds", type=parse_seeds, required=True)
    args = parser.parse_args(argv)
    with open(args.config) as fh:
        base = json.load(fh)
    ratios = []
    print("seed mse_ratio")
    for seed in args.seeds:
        ratio = mse_ratio(run_experiment(base | {"seed": seed, "output_dir": None}).summary)
        print(f"{seed} {ratio!r}", flush=True)
        ratios.append(ratio)
    finite = np.array([r for r in ratios if math.isfinite(r)])
    if not finite.size:
        print("no finite ratio")
        return 1
    q1, median, q3 = np.percentile(finite, [25, 50, 75])
    print(f"median {median:.4g} [q1 {q1:.4g}, q3 {q3:.4g}], geometric mean "
          f"{math.exp(np.log(finite).mean()):.4g}, over {finite.size} of {len(ratios)} seeds")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
