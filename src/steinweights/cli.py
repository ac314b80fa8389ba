"""Command-line entry points: run experiments, fit weights, evaluate KSD."""

from __future__ import annotations

import argparse
import csv
import json
import sys

from .errors import SteinWeightsError
from .harness import (
    SCHEMES, build_target_model, check_proposal, parse_spec, read_points, resolve_proposal,
    run_experiment,
)
from .kernels import RbfKernel, median_heuristic_bandwidth
from .stein import ksd_weighted, stein_gram


# The weights flags: each scheme option once, with the kinds that take it.
_SCHEME_FLAGS = {
    name: (option, [s.kind for s in SCHEMES.values() if name in s.options])
    for scheme in SCHEMES.values() for name, option in scheme.options.items()
}


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
    scheme = SCHEMES[args.scheme]
    takes = set(scheme.options)
    if scheme.needs_gram:
        takes.add("bandwidth")  # the Stein-kernel bandwidth
    if scheme.needs_proposal:
        takes.add("proposal")
    extra = [name for name in (*_SCHEME_FLAGS, "proposal")
             if getattr(args, name) is not None and name not in takes]
    if extra:
        flags = ", ".join("--" + name.replace("_", "-") for name in extra)
        raise ValueError(f"--scheme {scheme.kind} does not take {flags}")
    given = {name: v for name in scheme.options if (v := getattr(args, name)) is not None}
    spec = parse_spec("scheme", {"kind": scheme.kind, **given})
    options = {name: spec[name] for name in scheme.options}
    # A config's proposal kinds, parsed and checked against the target spec
    # before the target is built, which may write a probit dataset.
    target_spec = parse_spec("target", _load_json(args.target))
    proposal = None
    if args.proposal is not None:
        proposal = parse_spec("proposal", _load_json(args.proposal))
        check_proposal(proposal, target_spec)
    points = read_points(args.points)
    model = build_target_model(target_spec)
    target = model.as_target()
    log_q = None if proposal is None else resolve_proposal(proposal, model).log_density
    scheme.check_inputs(target, log_q)
    gram = _gram_from_args(args, target, points) if scheme.needs_gram else None
    weights, _ = scheme.weights(target, points, gram, log_q, scheme.normalize, **options)
    _write_weights(args.output, weights)
    return 0


def _cmd_ksd(args) -> int:
    points = read_points(args.points)
    weights = read_points(args.weights)[:, -1]
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
    w_p.add_argument("--scheme", default="stein", choices=tuple(SCHEMES))
    for name, (option, kinds) in _SCHEME_FLAGS.items():
        help_text = f"{option.help}; {option.range}; {', '.join(kinds)}"
        if name == "bandwidth":
            help_text += "; also the Stein-kernel bandwidth of schemes with a Gram"
        w_p.add_argument(
            "--" + name.replace("_", "-"), type=option.type, default=None, help=help_text,
        )
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
