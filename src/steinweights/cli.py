"""Command-line entry points: run experiments, fit weights, evaluate KSD."""

from __future__ import annotations

import argparse
import csv
import json
import sys

import numpy as np

from . import baselines, simplex_qp
from .errors import SteinWeightsError
from .harness import (
    SCHEME_KINDS,
    build_target_model,
    read_points,
    run_experiment,
)
from .kernels import RbfKernel, median_heuristic_bandwidth
from .stein import ksd_weighted, stein_gram


def _load_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _write_weights(path, weights) -> None:
    rows = [["index", "weight"]] + [
        [i, repr(float(w))] for i, w in enumerate(weights)
    ]
    if path is None:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerows(rows)
    else:
        with open(path, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)


def _read_weights(path) -> np.ndarray:
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if not rows:
        raise ValueError("weight file is empty")
    try:
        float(rows[0][-1])
        start = 0
    except ValueError:
        start = 1
    return np.array([float(row[-1]) for row in rows[start:]])


def _cmd_run(args) -> int:
    config = _load_json(args.config)
    if args.output_dir is not None:
        config["output_dir"] = args.output_dir
    result = run_experiment(config)
    for row in result.summary:
        print(
            f"{row.scheme:>32} {row.test_fn:>20} n={row.n:<6} "
            f"mse={row.mse:.6e} ok={row.trials_ok} failed={row.trials_failed}"
        )
    path = result.records_path()
    if path is not None:
        print(f"records written to {path}")
    return 0


def _gram_from_args(args, target, points):
    """Stein Gram at ``--bandwidth``, or at the median heuristic when it is
    not given; a given 0 reaches the kernel's positivity check."""
    bandwidth = args.bandwidth
    if bandwidth is None:
        bandwidth = median_heuristic_bandwidth(points)
    return stein_gram(target, RbfKernel(bandwidth), points)


def _cmd_weights(args) -> int:
    points = read_points(args.points)
    model = build_target_model(_load_json(args.target))
    target = model.as_target()
    scheme = args.scheme
    if scheme == "uniform":
        weights = baselines.weights_uniform(points.shape[0])
    elif scheme == "stein":
        gram = _gram_from_args(args, target, points)
        problem = simplex_qp.QpProblem(gram=gram, lower_bound=args.lower_bound)
        solution = simplex_qp.solve(
            problem, method=args.solver, max_iters=args.max_iters, tol=args.tol
        )
        weights = solution.weights
    elif scheme in ("control_functional", "control_functional_normalized"):
        gram = _gram_from_args(args, target, points)
        weights = baselines.weights_control_functional(
            gram, lam=args.lam, normalize=scheme.endswith("normalized")
        )
    elif scheme in ("kde", "kde_normalized"):
        weights = baselines.weights_kde(
            target,
            points,
            bandwidth=args.bandwidth,
            normalize=scheme.endswith("normalized"),
        )
    elif scheme == "exact_is":
        if args.proposal is None:
            raise SteinWeightsError(
                "exact_is needs --proposal with a mixture density spec"
            )
        proposal = build_target_model(_load_json(args.proposal))
        weights = baselines.weights_exact_is(target, proposal.log_density, points)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    _write_weights(args.output, weights)
    return 0


def _cmd_ksd(args) -> int:
    points = read_points(args.points)
    weights = _read_weights(args.weights)
    model = build_target_model(_load_json(args.target))
    target = model.as_target()
    gram = _gram_from_args(args, target, points)
    print(repr(ksd_weighted(gram, weights)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steinweights",
        description="Importance weights from score-based discrepancy minimization",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment config")
    run_p.add_argument("--config", required=True, help="JSON experiment config")
    run_p.add_argument("--output-dir", default=None, help="override config output dir")
    run_p.set_defaults(func=_cmd_run)

    w_p = sub.add_parser("weights", help="fit weights for a point set")
    w_p.add_argument("--points", required=True, help="delimited point file")
    w_p.add_argument("--target", required=True, help="JSON target spec")
    w_p.add_argument("--scheme", default="stein", choices=SCHEME_KINDS)
    w_p.add_argument("--lower-bound", type=float, default=0.0)
    w_p.add_argument("--solver", default="auto")
    w_p.add_argument("--max-iters", type=int, default=None)
    w_p.add_argument("--tol", type=float, default=None)
    w_p.add_argument(
        "--bandwidth",
        type=float,
        default=None,
        help="kernel bandwidth (stein, control functional) or density bandwidth (kde)",
    )
    w_p.add_argument("--lam", type=float, default=None, help="control functional ridge")
    w_p.add_argument("--proposal", default=None, help="JSON proposal spec for exact_is")
    w_p.add_argument("--output", default=None, help="weight CSV path (default stdout)")
    w_p.set_defaults(func=_cmd_weights)

    k_p = sub.add_parser("ksd", help="weighted discrepancy of given weights")
    k_p.add_argument("--points", required=True)
    k_p.add_argument("--weights", required=True)
    k_p.add_argument("--target", required=True)
    k_p.add_argument("--bandwidth", type=float, default=None)
    k_p.set_defaults(func=_cmd_ksd)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SteinWeightsError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
