"""Experiment harness: run weighting schemes over a grid of sample sizes.

A run is described by a JSON-friendly config dict. For every (n, trial)
cell the harness draws one point set, computes every requested scheme's
weights on that same point set, evaluates the test functions, and emits
one record per scheme, test function and coordinate. Randomness derives
from the config seed through named SeedSequence spawn keys, so reruns and
parallel execution produce byte-identical records.

Per-trial stream layout: SeedSequence(seed, spawn_key=(n, trial)) spawns
two children, the first for point generation and the second for the
test-function draws (omega then offset, drawn only when a random cosine
is requested).
"""

from __future__ import annotations

import csv
import math
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Callable

import numpy as np

from . import baselines, simplex_qp
from .errors import (
    DominanceError,
    NonFinitePointsError,
    SteinWeightsError,
    UnsupportedConfigurationError,
)
from .kernels import RbfKernel, median_heuristic_bandwidth
from .samplers import (
    ChainConfig,
    mala_chain_moments,
    mala_chains,
    sample_gmm_iid,
    sgld_chains,
    tune_mala_step,
)
from .stein import ScoreTarget, ksd_weighted, stein_gram
from .targets import (
    GaussianMixture,
    GroundTruth,
    ProbitModel,
    gaussianity_interpolation,
    probit_simulate,
    random_gaussian_mixture,
    read_probit_dataset,
    write_probit_dataset,
)

__all__ = [
    "ExperimentConfig",
    "ExperimentRecord",
    "ExperimentResult",
    "SummaryRow",
    "RateFit",
    "GroundTruth",
    "build_target_model",
    "probit_ground_truth",
    "run_experiment",
    "summarize",
    "rate_fit",
    "evaluate_test_function",
    "write_records_csv",
    "write_summary_csv",
    "read_points",
    "write_points",
    "PARALLEL_ENV_VAR",
]

PARALLEL_ENV_VAR = "STEINWEIGHTS_PARALLEL"

_DOMINANCE_SLACK = 1e-12


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one experiment run.

    Construction parses every section against ``SPECS`` and keeps the
    result, each key with its default, as ``parsed``; a chain sampler's
    entry there also holds its ``ChainConfig`` as ``chain``.
    """

    target: dict
    sampler: dict
    schemes: tuple
    n_grid: tuple
    trials: int
    test_functions: tuple
    seed: int
    output_dir: str | None
    ground_truth: dict | None
    record_timing: bool

    def __post_init__(self):
        parsed = parse_spec("config", {f.name: getattr(self, f.name) for f in fields(self)})
        object.__setattr__(self, "target", dict(self.target))
        object.__setattr__(self, "sampler", dict(self.sampler))
        object.__setattr__(self, "schemes", tuple(dict(s) for s in self.schemes))
        object.__setattr__(self, "n_grid", tuple(self.n_grid))
        object.__setattr__(self, "test_functions", tuple(self.test_functions))
        labels = [s["label"] or s["kind"] for s in parsed["schemes"]]
        if len(set(labels)) != len(labels):
            raise ValueError("scheme labels must be unique; add 'label' to duplicates")
        for key in ("n_grid", "test_functions"):
            if len(set(parsed[key])) != len(parsed[key]):
                raise ValueError(f"{key} entries must be distinct; got {parsed[key]!r}")
        oracle = parsed["ground_truth"] or {"kind": "exact"}
        if oracle["kind"] == "mala_oracle" and "random_cosine" in self.test_functions and not (
                1 <= oracle["store_every"] <= oracle["draws"]):
            raise ValueError(
                "random_cosine is scored on thinned oracle draws; store_every "
                f"{oracle['store_every']} keeps none of {oracle['draws']} draws")
        sampler = parsed["sampler"]
        if sampler["kind"] != "iid":  # ChainConfig holds the chain samplers' ranges
            sampler["chain"] = ChainConfig(
                n_chains=1, **{k: v for k, v in sampler.items() if k != "kind"})
        object.__setattr__(self, "parsed", parsed)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        row = SPECS["config", None]
        if not isinstance(data, dict) or not data.keys() <= row.keys():
            parse_spec("config", data)  # raises the error that names the key
        return cls(**{key: data.get(key, option.default) for key, option in row.items()})

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ExperimentRecord:
    """One scheme evaluated with one test-function coordinate on one trial.

    Its fields are the columns of ``records.csv``, in order.
    """

    scheme: str
    n: int
    trial: int
    test_fn: str
    estimate: float
    sq_error: float
    ksd: float
    iterations: int
    wall_ms: float
    status: str


RECORD_COLUMNS = tuple(f.name for f in fields(ExperimentRecord))


@dataclass(frozen=True)
class SummaryRow:
    scheme: str
    test_fn: str
    n: int
    mse: float
    trials_ok: int
    trials_failed: int


@dataclass(frozen=True)
class RateFit:
    """OLS fit of log MSE against log n."""

    slope: float
    stderr: float
    n_points: int
    excluded: int


REQUIRED = object()  # the default of a key that a spec must give


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class Option:
    """One key of a config spec: its type, its default and its range.

    ``type`` is ``int``, ``float``, ``bool``, ``str``, ``list`` (numbers in a
    JSON list, nested for a matrix), a tuple of allowed names, or the section
    whose spec the value is. With ``items`` the value is a nonempty list of
    such values, exactly ``items`` of them unless that is 0. A number is
    finite and in [``minimum``, ``maximum``], above the minimum if ``above``;
    no ``bool`` is a number and no fraction an ``int``. A ``str`` is not
    empty. ``null`` is a value only where the default is ``None``. Nothing
    is converted.
    """

    type: object
    default: object = REQUIRED
    minimum: float | None = None
    above: bool = False
    maximum: float | None = None
    items: int | None = None
    help: str = ""

    @property
    def range(self) -> str:
        bounds = ["finite"]
        if self.minimum is not None:
            bounds.append(f"{'>' if self.above else '>='} {self.minimum:g}")
        if self.maximum is not None:
            bounds.append(f"<= {self.maximum:g}")
        return " and ".join(bounds)

    def _accepts(self, value) -> bool:
        if isinstance(self.type, tuple):
            return value in self.type
        if isinstance(self.type, str):
            return isinstance(value, dict)
        if self.type is list:  # numbers in a JSON list, nested for a matrix
            return isinstance(value, (list, tuple)) and all(
                self._accepts(v) if isinstance(v, (list, tuple)) else _is_int(v)
                or isinstance(v, float) for v in value)
        if self.type in (bool, str):
            return isinstance(value, self.type) and value != ""
        return (_is_int(value) or (self.type is float and isinstance(value, float))) and (
            (_is_int(value) or math.isfinite(value))
            and (self.minimum is None or value > self.minimum
                 or (value == self.minimum and not self.above))
            and (self.maximum is None or value <= self.maximum))

    def parse(self, where: str, key: str, value):
        """``value``, with any spec in it parsed, if it has this option's
        type and range; else a ValueError that names ``where`` and ``key``."""
        if value is None and self.default is None:
            return None
        many = self.items is not None
        if not many and self._accepts(value):
            return parse_spec(self.type, value) if isinstance(self.type, str) else value
        if many and isinstance(value, (list, tuple)) and 0 < len(value) == (
                self.items or len(value)) and all(map(self._accepts, value)):
            return [parse_spec(self.type, v) if isinstance(self.type, str) else v for v in value]
        what = getattr(self.type, "__name__", f"a {self.type} spec")
        if self.type in (int, float):
            what += f", {self.range}"
        elif self.type is str:
            what = "a nonempty str"
        elif self.type is list:
            what = "numbers in a list"
        elif isinstance(self.type, tuple):
            what = f"one of {list(self.type)}"
        if many:
            what = f"a list of {self.items or 'one or more'}, each {what}"
        raise ValueError(f"{where}: {key} must be {what}; got {value!r}")


def parse_spec(section: str, spec) -> dict:
    """Every key of a ``section`` spec, checked against its row of ``SPECS``.

    The result holds the spec's ``kind`` and each key's value, or its
    default where the key is absent; a spec inside a value is parsed too.
    A spec that is not a JSON object, an unknown kind or key, a missing
    required key and a value of the wrong type or out of range are each a
    ValueError that names the section, the kind and the key.
    """
    if not isinstance(spec, dict):
        raise ValueError(f"{section} spec must be a JSON object; got {spec!r}")
    kind = None if (section, None) in SPECS else spec.get("kind")
    options = SPECS.get((section, kind)) if isinstance(kind, (str, type(None))) else None
    if options is None:
        kinds = [name for sec, name in SPECS if sec == section]
        raise ValueError(f"unknown {section} kind {kind!r}; known: {kinds}")
    where = f"{section} kind {kind!r}" if kind else section
    unknown = set(spec) - set(options) - ({"kind"} if kind else set())
    if unknown:
        raise ValueError(f"{where}: unknown key(s) {sorted(unknown)}; allowed: {sorted(options)}")
    values = {"kind": kind} if kind else {}
    for key, option in options.items():
        value = spec.get(key, option.default)
        if value is REQUIRED:
            raise ValueError(f"{where}: missing required key {key!r}")
        values[key] = option.parse(where, key, value)
    return values


def build_target_model(spec: dict):
    """Materialize a target spec dict into a mixture or probit model."""
    v = parse_spec("target", spec)
    if v["kind"] == "standard_normal":
        return GaussianMixture.standard_normal(v["dimension"])
    if v["kind"] == "gmm":
        return GaussianMixture(v["weights"], v["means"], v["variances"])
    if v["kind"] == "gmm_fixture":
        return random_gaussian_mixture(
            v["components"], v["dimension"], v["seed"], v["mean_range"], v["variance_range"])
    if v["kind"] == "probit":
        return read_probit_dataset(v["dataset"], prior_variance=v["prior_variance"])
    model = probit_simulate(
        v["n_data"], v["dimension"], v["seed"], prior_variance=v["prior_variance"])
    if v["dataset_out"] is not None:
        write_probit_dataset(v["dataset_out"], model)
    return model


def check_proposal(prop: dict | None, target: dict) -> None:
    """Reject a parsed ``proposal`` that needs a mixture ``target`` spec:
    iid sampling from the target (``prop`` None) or ``interpolated``.

    It reads only the specs, so it runs before the target is built, which
    for ``probit_simulated`` may write its dataset.
    """
    if (prop is None or prop["kind"] == "interpolated") and target["kind"] not in _MIXTURE_KINDS:
        raise UnsupportedConfigurationError(
            "iid sampling from the target or an interpolated proposal needs a mixture target"
        )


def resolve_proposal(prop: dict | None, model) -> GaussianMixture:
    """The mixture a parsed ``proposal`` names, once ``check_proposal`` passed."""
    if prop is None:
        return model
    if prop["kind"] == "interpolated":
        return gaussianity_interpolation(model, prop["lam"])
    return build_target_model(prop)


def probit_ground_truth(
    model: ProbitModel,
    *,
    draws: int,
    burn_in: int,
    seed: int,
    step_size: float | None,
    store_every: int,
) -> GroundTruth:
    """MALA estimate of the posterior mean and second moment.

    ``samplers.mala_chain_moments`` runs the batch of chains: ``draws`` and
    ``burn_in`` count rows across its chains. When ``step_size`` is None it
    is tuned toward 0.574 acceptance first, and chain 0's tuned state starts
    every chain. Every ``store_every``-th kept row is returned as a thinned
    draw, so cosine expectations can be scored too. The defaults of a
    ``mala_oracle`` spec are in ``SPECS``.
    """
    target = model.as_target()
    if step_size is None:
        step_size, warm = tune_mala_step(target, seed=seed)
    else:
        warm = None
    result = mala_chain_moments(
        target,
        n_draws=draws,
        burn_in=burn_in,
        step_size=step_size,
        seed=seed,
        init=warm,
        store_every=store_every,
    )
    return GroundTruth(
        mean=result["mean"],
        second_moment=result["second_moment"],
        thinned=result["thinned"],
    )


def _resolve_ground_truth(oracle: dict | None, model) -> GroundTruth:
    """The ground truth of a parsed ``ground_truth`` spec; None is exact."""
    if oracle is None or oracle["kind"] == "exact":
        if not isinstance(model, GaussianMixture):
            raise UnsupportedConfigurationError(
                "target has no closed-form moments; configure a ground_truth oracle"
            )
        return model.moments()
    if not isinstance(model, ProbitModel):
        raise UnsupportedConfigurationError("mala_oracle expects a probit target")
    return probit_ground_truth(model, **{k: v for k, v in oracle.items() if k != "kind"})


@dataclass
class _RunContext:
    config: ExperimentConfig
    model: object
    target: ScoreTarget
    proposal: GaussianMixture | None
    proposal_log_density: Callable | None
    ground: GroundTruth
    schemes: list  # (label, Scheme, options) per configured scheme


def _build_context(cfg: ExperimentConfig) -> _RunContext:
    sampler = cfg.parsed["sampler"]
    if sampler["kind"] == "iid":
        check_proposal(sampler["proposal"], cfg.parsed["target"])
    model = build_target_model(cfg.parsed["target"])
    target = model.as_target()
    proposal = proposal_log_density = None
    if sampler["kind"] == "iid":
        proposal = resolve_proposal(sampler["proposal"], model)
        proposal_log_density = proposal.log_density
    elif sampler["kind"] == "sgld":
        if not hasattr(model, "data_score_minibatch"):
            raise UnsupportedConfigurationError(
                "SGLD sampling needs a target with a decomposable likelihood"
            )
        if sampler["minibatch_size"] > model.n_data:
            raise ValueError(
                f"minibatch_size {sampler['minibatch_size']} exceeds data size {model.n_data}"
            )
    schemes = []
    for spec in cfg.parsed["schemes"]:
        entry = SCHEMES[spec["kind"]]
        entry.check_inputs(target, proposal_log_density)
        options = {name: spec[name] for name in entry.options}
        schemes.append((spec["label"] or entry.kind, entry, options))
    ground = _resolve_ground_truth(cfg.parsed["ground_truth"], model)
    return _RunContext(cfg, model, target, proposal, proposal_log_density, ground, schemes)


def _sample_points(ctx: _RunContext, n: int, seed_seq: np.random.SeedSequence) -> np.ndarray:
    sampler = ctx.config.parsed["sampler"]
    if sampler["kind"] == "iid":
        return sample_gmm_iid(ctx.proposal, n, np.random.default_rng(seed_seq))
    seed = int(seed_seq.generate_state(1, np.uint64)[0])
    config = replace(sampler["chain"], n_chains=n, seed=seed)
    if sampler["kind"] == "mala":
        return mala_chains(ctx.target, config)
    return sgld_chains(ctx.model, config)


@dataclass(frozen=True)
class _TestFunction:
    """A test function: its values at the points and its expectation.

    ``values(points, omega, offset)`` is an (n, d) array, one column per
    coordinate, or an (n,) array for a ``scalar`` function, so a weighted
    estimate is ``weights @ values``. ``expectation(ground, omega, offset)``
    gives the matching d values, or one, from a ``GroundTruth``. ``omega``
    and ``offset`` are the trial's cosine frequency and phase.
    """

    kind: str
    values: Callable
    expectation: Callable
    scalar: bool = False

    def record_ids(self, dimension: int) -> list[str]:
        """One record id per coordinate, or one in all for a scalar function."""
        if self.scalar:
            return [self.kind]
        return [f"{self.kind}.{i}" for i in range(dimension)]


def _cosine_values(points, omega, offset):
    if omega is None or offset is None:
        raise ValueError("random_cosine needs omega and offset")
    return np.cos(points @ omega + offset)


# Every test function by kind, for ExperimentConfig and the harness.
TEST_FUNCTIONS = {fn.kind: fn for fn in (
    _TestFunction("coordinate_mean", lambda points, omega, offset: points,
                  lambda ground, omega, offset: ground.mean),
    _TestFunction("coordinate_square", lambda points, omega, offset: points * points,
                  lambda ground, omega, offset: ground.second_moment),
    _TestFunction("random_cosine", _cosine_values,
                  lambda ground, omega, offset: ground.cosine(omega, offset), scalar=True),
)}


def evaluate_test_function(
    kind: str,
    points: np.ndarray,
    weights: np.ndarray,
    omega: np.ndarray | None = None,
    offset: float | None = None,
) -> tuple[list[str], np.ndarray]:
    """Weighted estimates for one test function.

    Returns record ids and the matching estimate values; vector-valued
    functions contribute one id per coordinate.
    """
    if kind not in TEST_FUNCTIONS:
        raise ValueError(f"unknown test function {kind!r}")
    fn = TEST_FUNCTIONS[kind]
    pts = np.asarray(points, dtype=float)
    w = np.asarray(weights, dtype=float)
    return fn.record_ids(pts.shape[1]), np.atleast_1d(w @ fn.values(pts, omega, offset))


@dataclass(frozen=True)
class Scheme:
    """A weighting scheme: its options, the inputs it needs, its weights.

    ``weights(target, points, gram, proposal_log_density, normalize,
    **options)`` returns ``(weights, solver iterations)``, with
    ``normalize`` set for the ``*_normalized`` kinds.
    """

    kind: str
    weights: Callable
    options: dict = field(default_factory=dict)
    needs_gram: bool = False
    needs_proposal: bool = False
    needs_normalized_density: bool = False

    @property
    def normalize(self) -> bool:
        return self.kind.endswith("_normalized")

    def check_inputs(self, target: ScoreTarget, proposal_log_density) -> None:
        if self.needs_proposal and proposal_log_density is None:
            raise UnsupportedConfigurationError(
                f"{self.kind} needs a proposal density: an iid sampler or --proposal")
        if self.needs_normalized_density and not target.density_normalized:
            raise UnsupportedConfigurationError(
                f"unnormalized targets support only {self.kind}_normalized")


# The weights functions reach baselines and simplex_qp through their modules
# at call time, so a patched module attribute is what runs.
def _uniform(target, points, gram, log_q, normalize):
    return baselines.weights_uniform(points.shape[0]), 0


def _exact_is(target, points, gram, log_q, normalize):
    return baselines.weights_exact_is(target, log_q, points), 0


def _stein(target, points, gram, log_q, normalize, max_iters, tol):
    problem = simplex_qp.QpProblem(gram=gram)
    solution = simplex_qp.solve(problem, max_iters=max_iters, tol=tol)
    return solution.weights, solution.iterations


def _control_functional(target, points, gram, log_q, normalize, lam):
    return baselines.weights_control_functional(gram, lam=lam, normalize=normalize), 0


def _kde(target, points, gram, log_q, normalize, bandwidth):
    return baselines.weights_kde(target, points, bandwidth=bandwidth, normalize=normalize), 0


_LAM = {"lam": Option(float, None, minimum=0.0, help="ridge (default 1e-8·n·max diag K_p)")}
_KDE_BANDWIDTH = {
    "bandwidth": Option(float, None, minimum=0.0, above=True, help="KDE density bandwidth")
}
# Every weighting scheme by kind, for ExperimentConfig, the harness and the CLI.
SCHEMES = {scheme.kind: scheme for scheme in (
    Scheme("uniform", _uniform),
    Scheme("stein", _stein, needs_gram=True, options={
        "max_iters": Option(int, None, minimum=1, help="solver iteration cap"),
        "tol": Option(float, None, minimum=0.0, help="solver stopping tolerance"),
    }),
    Scheme("exact_is", _exact_is, needs_proposal=True),
    Scheme("control_functional", _control_functional, _LAM, needs_gram=True),
    Scheme("control_functional_normalized", _control_functional, _LAM, needs_gram=True),
    Scheme("kde", _kde, _KDE_BANDWIDTH, needs_normalized_density=True),
    Scheme("kde_normalized", _kde, _KDE_BANDWIDTH),
)}

_MIXTURE_KINDS = ("standard_normal", "gmm", "gmm_fixture")
_SEED = Option(int, minimum=0)
_PRIOR_VARIANCE = Option(float, 0.1, minimum=0.0, above=True)
_TARGETS = {
    "standard_normal": {"dimension": Option(int, minimum=1)},
    "gmm": dict.fromkeys(("weights", "means", "variances"), Option(list)),
    "gmm_fixture": {
        "seed": _SEED, "components": Option(int, 20, minimum=1),
        "dimension": Option(int, 2, minimum=1), "mean_range": Option(float, (-5.0, 5.0), items=2),
        "variance_range": Option(float, (0.3, 1.0), minimum=0.0, above=True, items=2),
    },
    "probit": {"dataset": Option(str), "prior_variance": _PRIOR_VARIANCE},
    "probit_simulated": {
        "n_data": Option(int, minimum=1), "dimension": Option(int, minimum=1), "seed": _SEED,
        "prior_variance": _PRIOR_VARIANCE, "dataset_out": Option(str, None),
    },
}
# Every key of every config section by (section, kind): the top level is
# ("config", None), a proposal takes a mixture target kind or "interpolated",
# and each scheme its SCHEMES options and a label. Chain-sampler numbers have
# their ranges in ChainConfig only.
SPECS = {
    ("config", None): {
        "target": Option("target"), "sampler": Option("sampler", {"kind": "iid"}),
        "schemes": Option("scheme", items=0), "n_grid": Option(int, minimum=2, items=0),
        "trials": Option(int, minimum=1),
        "test_functions": Option(tuple(TEST_FUNCTIONS), items=0),
        "seed": _SEED, "output_dir": Option(str, None),
        "ground_truth": Option("ground_truth", None), "record_timing": Option(bool, False),
    },
    **{("target", kind): row for kind, row in _TARGETS.items()},
    **{("proposal", kind): _TARGETS[kind] for kind in _MIXTURE_KINDS},
    ("proposal", "interpolated"): {"lam": Option(float, minimum=0.0, maximum=1.0)},
    ("sampler", "iid"): {"proposal": Option("proposal", None)},
    ("sampler", "mala"): {
        "step_size": Option(float), "n_steps": Option(int, 10), "init_scale": Option(float, 1.0),
    },
    ("sampler", "sgld"): {
        "step_size": Option(float), "minibatch_size": Option(int),
        "n_steps": Option(int, 100), "init_scale": Option(float, 1.0),
    },
    ("ground_truth", "exact"): {},
    ("ground_truth", "mala_oracle"): {
        "draws": Option(int, 1_000_000, minimum=1), "burn_in": Option(int, 10_000, minimum=0),
        "seed": Option(int, 0, minimum=0),
        "step_size": Option(float, None, minimum=0.0, above=True),
        "store_every": Option(int, 10, minimum=0),
    },
    **{("scheme", kind): {**scheme.options, "label": Option(str, None)}
       for kind, scheme in SCHEMES.items()},
}


def _trial_records(ctx: _RunContext, n: int, trial: int) -> list:
    """Every record of one (n, trial) cell, scheme by scheme.

    A ``SteinWeightsError`` while drawing the points or building the Gram
    fails every scheme's rows; one from a scheme's weights or their KSD
    fails that scheme's rows only.
    """
    cfg = ctx.config
    root = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(n, trial))
    points_ss, fn_ss = root.spawn(2)
    omega = offset = None
    if "random_cosine" in cfg.test_functions:
        fn_rng = np.random.default_rng(fn_ss)
        omega = fn_rng.standard_normal(ctx.target.dimension)
        offset = float(fn_rng.uniform(0.0, 2.0 * np.pi))
    fns = [TEST_FUNCTIONS[kind] for kind in cfg.test_functions]
    ids = [rid for fn in fns for rid in fn.record_ids(ctx.target.dimension)]
    try:
        points = _sample_points(ctx, n, points_ss)
        if not np.all(np.isfinite(points)):
            raise NonFinitePointsError("sampler returned non-finite points")
        bandwidth = median_heuristic_bandwidth(points)
        kernel = RbfKernel(bandwidth)
        gram = stein_gram(ctx.target, kernel, points)
    except SteinWeightsError:
        points = None
    else:
        values = [fn.values(points, omega, offset) for fn in fns]
        truths = [float(t) for fn in fns
                  for t in np.atleast_1d(fn.expectation(ctx.ground, omega, offset))]
    nan = float("nan")
    records = []
    ksd_by_kind: dict[str, float] = {}
    for label, entry, options in ctx.schemes:
        row = {"ksd": nan, "iterations": 0, "wall_ms": 0.0, "status": "failed"}
        estimates = errors = [nan] * len(ids)
        if points is not None:
            start = time.perf_counter()
            try:
                weights, iterations = entry.weights(
                    ctx.target, points, gram, ctx.proposal_log_density, entry.normalize,
                    **options,
                )
                elapsed_ms = (time.perf_counter() - start) * 1000.0
                ksd_val = ksd_weighted(gram, weights)
            except SteinWeightsError:
                pass
            else:
                row = {
                    "ksd": ksd_val,
                    "iterations": int(iterations),
                    "wall_ms": elapsed_ms if cfg.record_timing else 0.0,
                    "status": "ok",
                }
                estimates = [float(e) for v in values for e in np.atleast_1d(weights @ v)]
                errors = [(e - t) ** 2 for e, t in zip(estimates, truths)]
                if entry.kind in ("uniform", "exact_is", "stein"):
                    ksd_by_kind.setdefault(entry.kind, ksd_val)
        records.extend(
            ExperimentRecord(
                scheme=label, n=n, trial=trial, test_fn=rid, estimate=est, sq_error=err, **row
            )
            for rid, est, err in zip(ids, estimates, errors)
        )
    if "stein" in ksd_by_kind:
        for other in ("uniform", "exact_is"):
            if other in ksd_by_kind:
                if ksd_by_kind["stein"] > ksd_by_kind[other] + _DOMINANCE_SLACK:
                    raise DominanceError(
                        f"stein weights lost to {other} on trial {trial} at n={n}: "
                        f"{ksd_by_kind['stein']:.6e} > {ksd_by_kind[other]:.6e}"
                    )
    return records


# The run context of a pool worker process, set once by the pool's
# initializer; the parent process never sets it.
_worker_context: _RunContext | None = None


def _init_worker(ctx: _RunContext) -> None:
    global _worker_context
    _worker_context = ctx


def _worker_trial(job) -> list:
    return _trial_records(_worker_context, *job)


def _parallel_degree() -> int:
    raw = os.environ.get(PARALLEL_ENV_VAR, "").strip()
    if not raw:
        return 1
    try:
        degree = int(raw)
    except ValueError:
        degree = -1
    if degree < 0:
        raise ValueError(f"{PARALLEL_ENV_VAR} must be a nonnegative integer; got {raw!r}")
    return degree or _usable_cpus()


def _usable_cpus() -> int:
    """CPUs this process may run on, which can be fewer than the host has."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    records: list
    summary: list
    ground: GroundTruth

    def records_path(self) -> str | None:
        if self.config.output_dir is None:
            return None
        return os.path.join(self.config.output_dir, "records.csv")


def _record_sort_key(rec: ExperimentRecord):
    return (rec.scheme, rec.n, rec.trial, rec.test_fn)


def run_experiment(config) -> ExperimentResult:
    """Execute a full experiment; returns records, summary, and ground truth.

    Parallelism over trials is controlled by the STEINWEIGHTS_PARALLEL
    environment variable (unset or 1 = serial, 0 = one worker per CPU this
    process may run on).
    Output is identical regardless of the degree.
    """
    cfg = config if isinstance(config, ExperimentConfig) else ExperimentConfig.from_dict(config)
    degree = _parallel_degree()
    ctx = _build_context(cfg)
    jobs = [(n, t) for n in cfg.n_grid for t in range(cfg.trials)]
    if degree > 1 and len(jobs) > 1:
        # Spawned workers sidestep the fork-under-BLAS-threads deadlock.
        # Each receives the parent's context once and builds nothing.
        mp_ctx = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=degree, mp_context=mp_ctx,
                                 initializer=_init_worker, initargs=(ctx,)) as pool:
            chunks = list(pool.map(_worker_trial, jobs))
        records = [rec for chunk in chunks for rec in chunk]
    else:
        records = [rec for n, t in jobs for rec in _trial_records(ctx, n, t)]
    records.sort(key=_record_sort_key)
    summary = summarize(records)
    result = ExperimentResult(cfg, records, summary, ctx.ground)
    if cfg.output_dir is not None:
        os.makedirs(cfg.output_dir, exist_ok=True)
        write_records_csv(os.path.join(cfg.output_dir, "records.csv"), records)
        write_summary_csv(os.path.join(cfg.output_dir, "summary.csv"), summary)
    return result


def _family(test_fn: str) -> str:
    head, _, tail = test_fn.rpartition(".")
    if head and tail.isdigit():
        return head
    return test_fn


def summarize(records) -> list:
    """Aggregate records into per (scheme, test family, n) MSE rows.

    Vector test functions pool their per-coordinate squared errors, so the
    MSE is the mean over coordinates and trials. Failed trials are counted
    and excluded.
    """
    groups: dict[tuple, list] = {}
    for rec in records:
        groups.setdefault((rec.scheme, _family(rec.test_fn), rec.n), []).append(rec)
    rows = []
    for (scheme, fam, n), recs in sorted(groups.items()):
        ok = [r for r in recs if r.status == "ok"]
        failed_trials = {r.trial for r in recs if r.status != "ok"}
        ok_trials = {r.trial for r in ok}
        mse = float(np.mean([r.sq_error for r in ok])) if ok else float("nan")
        rows.append(
            SummaryRow(
                scheme=scheme,
                test_fn=fam,
                n=n,
                mse=mse,
                trials_ok=len(ok_trials),
                trials_failed=len(failed_trials),
            )
        )
    return rows


def rate_fit(summary, scheme: str, test_fn: str) -> RateFit:
    """Slope and standard error of log MSE versus log n for one scheme.

    Rows with zero, negative, or non-finite MSE cannot enter the log fit;
    they are excluded and counted in ``excluded``.
    """
    pairs = [
        (row.n, row.mse)
        for row in summary
        if row.scheme == scheme and row.test_fn == test_fn
    ]
    if not pairs:
        raise ValueError(f"no summary rows for scheme {scheme!r} and {test_fn!r}")
    usable = [(n, m) for n, m in pairs if np.isfinite(m) and m > 0.0]
    excluded = len(pairs) - len(usable)
    if len(usable) < 2:
        raise ValueError("rate fit needs at least two usable (n, mse) points")
    x = np.log(np.array([n for n, _ in usable], dtype=float))
    y = np.log(np.array([m for _, m in usable], dtype=float))
    x_bar = x.mean()
    y_bar = y.mean()
    sxx = float(np.sum((x - x_bar) ** 2))
    slope = float(np.sum((x - x_bar) * (y - y_bar)) / sxx)
    intercept = y_bar - slope * x_bar
    resid = y - intercept - slope * x
    dof = len(usable) - 2
    if dof > 0:
        stderr = float(np.sqrt(np.sum(resid**2) / dof / sxx))
    else:
        stderr = float("nan")
    return RateFit(slope=slope, stderr=stderr, n_points=len(usable), excluded=excluded)


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_records_csv(path, records) -> None:
    """Write records in canonical order with a pinned column set.

    Floats are rendered with shortest round-trip repr, so two runs of the
    same config produce byte-identical files.
    """
    _write_rows(path, RECORD_COLUMNS, sorted(records, key=_record_sort_key))


def write_summary_csv(path, summary) -> None:
    columns = [f.name for f in fields(SummaryRow)]
    _write_rows(path, columns, sorted(summary, key=lambda r: (r.scheme, r.test_fn, r.n)))


def _write_rows(path, columns, rows) -> None:
    """A header of ``columns``, then each row's attributes of those names."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_fmt(getattr(row, c)) for c in columns] for row in rows)


def write_points(path, points: np.ndarray) -> None:
    """Write a point set as delimited text, one row per point."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([f"x{i}" for i in range(pts.shape[1])])
        for row in pts:
            writer.writerow([repr(float(v)) for v in row])


def read_points(path) -> np.ndarray:
    """Read a delimited file of numbers, one row per point or weight; a
    non-numeric first row is a header."""
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if not rows:
        raise ValueError(f"{path} is empty")
    start = 0
    try:
        [float(v) for v in rows[0]]
    except ValueError:
        start = 1
    if start == len(rows):
        raise ValueError(f"{path} has a header but no data rows")
    return np.array([[float(v) for v in row] for row in rows[start:]])
