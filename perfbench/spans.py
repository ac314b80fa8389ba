"""Span tracing of one ``run_experiment`` call, installed from outside.

A ``Tracer`` used as a context manager replaces, inside its ``with`` block,
the functions and methods through which the harness reaches each layer:

* every function ``steinweights.harness`` imports from another module of the
  package (samplers, bandwidth, Gram, KSD, target constructors);
* the harness's own ``run_experiment``, set-up and CSV writers;
* ``simplex_qp.solve`` and ``QpProblem`` validation, ``SteinGram`` validation
  and the ``baselines.weights_*`` functions, which the harness calls through
  their modules or classes;
* every method of ``GaussianMixture`` and ``ProbitModel`` whose name
  contains ``score`` or ``log_density``.

Each call becomes a span with its parent. A span's self time is its duration
minus the durations of its direct children; children run inside the parent
on the same thread, so self times are never negative. On exit from the
block every original object is put back and checked, so code run afterwards
is unpatched.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import time
import tracemalloc

from steinweights import baselines, harness, simplex_qp, stein, targets

_NS_PER_MS = 1e6


class Span:
    __slots__ = ("name", "parent", "start", "end", "child_ns", "tags")

    def __init__(self, name: str, parent: "Span | None"):
        self.name = name
        self.parent = parent
        self.start = self.end = self.child_ns = 0
        self.tags: dict = {}

    @property
    def total_ns(self) -> int:
        return self.end - self.start

    @property
    def self_ns(self) -> int:
        return self.total_ns - self.child_ns


def _rows(array) -> int:
    shape = getattr(array, "shape", ())
    return int(shape[0]) if len(shape) == 2 else 1


# MALA steps an oracle call makes, from its arguments.
_STEPS = {
    "tune_mala_step": lambda a: a["rounds"] * a["pilot_steps"],
    "mala_chain_moments": lambda a: a["burn_in"] + a["n_draws"],
}


def _tag_steps(fn, steps):
    signature = inspect.signature(fn)

    def tag(args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return {"steps": steps(bound.arguments)}

    return tag


def _tag_len(args, kwargs, result):
    return {"n": len(result)}


def _tag_solve(args, kwargs, result):
    return {"n": args[0].n, "iterations": result.iterations,
            "converged": bool(result.converged), "gap": float(result.gap),
            "objective": float(result.objective)}


def _tag_self_n(attr):
    def tag(args, kwargs, result):
        return {"n": getattr(args[0], attr).shape[0]}
    return tag


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patches: list[tuple] = []
        self.missing: list[str] = []

    # -- installation -----------------------------------------------------

    def __enter__(self):
        self._install()
        return self

    def __exit__(self, *exc):
        self._remove()
        return False

    def _wrap(self, fn, name, tag=None, memory=False):
        stack = self._stack
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else None)
            stack.append(span)
            span.start = time.perf_counter_ns()
            try:
                if memory:
                    tracemalloc.start()
                    try:
                        result = fn(*args, **kwargs)
                        span.tags["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    finally:
                        tracemalloc.stop()
                else:
                    result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter_ns()
                stack.pop()
                if span.parent is not None:
                    span.parent.child_ns += span.total_ns
                spans.append(span)
            if tag is not None:
                span.tags.update(tag(args, kwargs, result))
            return result

        return traced

    def _patch(self, owner, attr, name, tag=None, memory=False):
        if attr not in vars(owner):
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, name, tag, memory))

    def _install(self):
        tags = {
            "stein_gram": lambda a, k, r: {"n": r.n},
            "median_heuristic_bandwidth": lambda a, k, r: {"n": _rows(a[0])},
            "ksd_weighted": lambda a, k, r: {"n": len(a[1])},
            "sample_gmm_iid": _tag_len,
            "mala_chains": _tag_len,
            "sgld_chains": _tag_len,
        }
        for attr, obj in list(vars(harness).items()):
            if not inspect.isfunction(obj):
                continue
            package, _, layer = obj.__module__.rpartition(".")
            if package != "steinweights" or layer == "harness":
                continue
            if attr in _STEPS:
                tag = _tag_steps(obj, _STEPS[attr])
            else:
                tag = tags.get(attr)
            self._patch(harness, attr, f"{layer}.{attr}", tag,
                        memory=attr == "stein_gram")
        for attr in ("run_experiment", "build_target_model", "probit_ground_truth"):
            self._patch(harness, attr, f"harness.{attr}")
        for attr in ("write_records_csv", "write_summary_csv"):
            self._patch(harness, attr, "harness.write")

        self._patch(simplex_qp, "solve", "simplex_qp.solve", _tag_solve)
        self._patch(simplex_qp.QpProblem, "__post_init__", "simplex_qp.problem",
                    _tag_self_n("gram"))
        self._patch(stein.SteinGram, "__post_init__", "stein.validate",
                    _tag_self_n("matrix"))
        for attr in sorted(vars(baselines)):
            if attr.startswith("weights_") and inspect.isfunction(getattr(baselines, attr)):
                self._patch(baselines, attr, f"baselines.{attr}", _tag_len)
        for cls in (targets.GaussianMixture, targets.ProbitModel):
            for attr, obj in sorted(vars(cls).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if "log_density" in attr:
                    kind = "log_density"
                elif "minibatch" in attr:
                    kind = "minibatch"
                elif "score" in attr:
                    kind = "score"
                else:
                    continue
                self._patch(cls, attr, f"targets.{kind}",
                            lambda a, k, r: {"rows": _rows(a[1])})

    def _remove(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
            if vars(owner)[attr] is not original:
                raise RuntimeError(f"could not restore {owner!r}.{attr}")

    def reset(self):
        self.spans.clear()


def _ms(spans, name, total=False) -> float:
    return sum(s.total_ns if total else s.self_ns for s in spans if s.name == name) / _NS_PER_MS


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer metrics of one traced ``run_experiment`` call."""
    solves = [s for s in spans if s.name == "simplex_qp.solve"]
    iterations = sum(s.tags["iterations"] for s in solves)
    gram_peaks = [s.tags.get("peak_bytes", 0) for s in spans if s.name == "stein.stein_gram"]
    oracle = [s for s in spans
              if s.name in ("samplers.tune_mala_step", "samplers.mala_chain_moments")]
    oracle_steps = sum(s.tags["steps"] for s in oracle)
    target_spans = [s for s in spans if s.name.startswith("targets.")]
    evaluations = [s for s in target_spans if "rows" in s.tags]
    harness_spans = [s for s in spans
                     if s.name.startswith("harness.") and s.name != "harness.write"]
    return {
        "simplex_qp.solve_ms": _ms(spans, "simplex_qp.solve"),
        "simplex_qp.us_per_iter": (
            _ms(spans, "simplex_qp.solve", total=True) * 1e3 / iterations
            if iterations else 0.0),
        "simplex_qp.iterations": iterations,
        "simplex_qp.problem_ms": _ms(spans, "simplex_qp.problem"),
        "simplex_qp.converged_frac": (
            sum(s.tags["converged"] for s in solves) / len(solves) if solves else 0.0),
        "simplex_qp.gap_rel_p50": (
            statistics.median(s.tags["gap"] / max(abs(s.tags["objective"]), 1e-300)
                              for s in solves) if solves else 0.0),
        "stein.gram_ms": _ms(spans, "stein.stein_gram"),
        "stein.validate_ms": _ms(spans, "stein.validate"),
        "stein.ksd_ms": _ms(spans, "stein.ksd_weighted"),
        "stein.gram_peak_mb": max(gram_peaks, default=0) / 2**20,
        "kernels.bandwidth_ms": _ms(spans, "kernels.median_heuristic_bandwidth"),
        "baselines.control_functional_ms": _ms(spans, "baselines.weights_control_functional"),
        "baselines.kde_ms": _ms(spans, "baselines.weights_kde"),
        "baselines.exact_is_ms": _ms(spans, "baselines.weights_exact_is"),
        "samplers.draw_ms": sum(
            _ms(spans, f"samplers.{f}") for f in ("sample_gmm_iid", "mala_chains", "sgld_chains")),
        "samplers.oracle_tune_ms": _ms(spans, "samplers.tune_mala_step"),
        "samplers.oracle_chain_ms": _ms(spans, "samplers.mala_chain_moments"),
        "samplers.oracle_us_per_step": (
            sum(s.total_ns for s in oracle) / 1e3 / oracle_steps if oracle_steps else 0.0),
        "targets.score_calls": sum(s.name == "targets.score" for s in spans),
        "targets.log_density_calls": sum(s.name == "targets.log_density" for s in spans),
        "targets.minibatch_calls": sum(s.name == "targets.minibatch" for s in spans),
        "targets.rows": sum(s.tags["rows"] for s in evaluations),
        "targets.ms": sum(s.self_ns for s in target_spans) / _NS_PER_MS,
        "harness.self_ms": sum(s.self_ns for s in harness_spans) / _NS_PER_MS,
        "harness.write_ms": _ms(spans, "harness.write"),
    }


def breakdown_by_n(spans: list[Span]) -> dict:
    """Shares per sample size, from the spans directly under run_experiment.

    ``solver_share`` is QpProblem plus solve over all n-tagged layer time at
    that n; ``validate_share_of_gram`` is SteinGram validation over the
    whole ``stein_gram`` call.
    """
    top = [s for s in spans if s.parent is not None
           and s.parent.name == "harness.run_experiment" and "n" in s.tags]
    out = {}
    for n in sorted({s.tags["n"] for s in top}):
        at_n = [s for s in top if s.tags["n"] == n]
        layer_ns = sum(s.total_ns for s in at_n)
        solver_ns = sum(s.total_ns for s in at_n
                        if s.name in ("simplex_qp.solve", "simplex_qp.problem"))
        grams = [s for s in at_n if s.name == "stein.stein_gram"]
        gram_ns = sum(s.total_ns for s in grams)
        validate_ns = sum(s.total_ns for s in spans
                          if s.name == "stein.validate" and s.parent in grams)
        solves = [s for s in at_n if s.name == "simplex_qp.solve"]
        out[str(n)] = {
            "layer_ms": layer_ns / _NS_PER_MS,
            "solver_share": solver_ns / layer_ns if layer_ns else 0.0,
            "validate_share_of_gram": validate_ns / gram_ns if gram_ns else 0.0,
            "solves_converged": f"{sum(s.tags['converged'] for s in solves)}/{len(solves)}",
        }
    return out
