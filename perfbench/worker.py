"""One benchmark run of one workload, in the fresh process run.py starts.

Prints one JSON object on its last stdout line: the result run.py prints,
plus the environment and per-n details. Everything it writes goes under
``.perfbench-out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from steinweights import harness

from spans import Tracer, breakdown_by_n, layer_metrics
from workloads import WORKLOADS, Workload

# Set-up probes run in blocks of at least SETUP_BLOCK_S before every timed
# call, so that set-up and calls sample the same stretch of machine time,
# and at least SETUP_MIN times in all; the reported value is the median.
SETUP_MIN, SETUP_BLOCK_S = 3, 0.2


@dataclass
class Rep:
    """One checked ``run_experiment`` call."""

    seed: int
    wall_s: float
    digest: str = ""
    failed_cells: int = 0
    problems: list = field(default_factory=list)
    mse_ratio: float = float("nan")


def _coords(workload: Workload) -> int:
    d = int(workload.config["target"]["dimension"])
    return sum(1 if fn == "random_cosine" else d
               for fn in workload.config["test_functions"])


def _check_outputs(workload: Workload, out: Path, rep: Rep) -> None:
    """Record failed cells, broken outputs and the records digest in ``rep``."""
    cfg = workload.config
    records_path, summary_path = out / "records.csv", out / "summary.csv"
    if not records_path.is_file() or not summary_path.is_file():
        rep.problems.append("records.csv or summary.csv missing")
        rep.failed_cells = workload.cells
        return
    data = records_path.read_bytes()
    rep.digest = hashlib.sha256(data).hexdigest()
    rows = list(csv.DictReader(data.decode().splitlines()))
    expected = len(cfg["schemes"]) * workload.cells * _coords(workload)
    if len(rows) != expected:
        rep.problems.append(f"records.csv has {len(rows)} rows, expected {expected}")
    failed = {(r["n"], r["trial"]) for r in rows if r["status"] != "ok"}
    rep.failed_cells = len(failed)
    if failed:
        rep.problems.append(f"{len(failed)} failed cells")
    for r in rows:
        if r["status"] == "ok" and not all(
                math.isfinite(float(r[k])) for k in ("estimate", "sq_error", "ksd")):
            rep.problems.append(f"non-finite record {r}")
            break
    with open(summary_path, newline="") as fh:
        summary = list(csv.DictReader(fh))
    mse = {(r["scheme"], r["test_fn"], r["n"]): float(r["mse"]) for r in summary}
    if not all(math.isfinite(v) and v > 0.0 for v in mse.values()):
        rep.problems.append("summary.csv has a non-finite or zero MSE")
        return
    logs = [math.log(v / mse[("uniform", fn, n)])
            for (scheme, fn, n), v in mse.items() if scheme != "uniform"]
    rep.mse_ratio = math.exp(sum(logs) / len(logs))


def run_rep(workload: Workload, seed: int, out: Path) -> Rep:
    for name in ("records.csv", "summary.csv"):
        (out / name).unlink(missing_ok=True)
    cfg = workload.experiment(seed, str(out))
    start = time.perf_counter()
    try:
        harness.run_experiment(cfg)
    except Exception as exc:  # noqa: BLE001 - any escape makes the run incorrect
        rep = Rep(seed, time.perf_counter() - start, failed_cells=workload.cells)
        rep.problems.append(f"run_experiment raised {type(exc).__name__}: {exc}")
        return rep
    rep = Rep(seed, time.perf_counter() - start)
    _check_outputs(workload, out, rep)
    return rep


def measure_setup(workload: Workload, walls: list[float], at_least: int = 1) -> None:
    """Append probe wall times to ``walls`` for SETUP_BLOCK_S and ``at_least`` probes."""
    spent, count = 0.0, 0
    while count < at_least or spent < SETUP_BLOCK_S:
        start = time.perf_counter()
        harness.run_experiment(workload.setup_probe())
        walls.append(time.perf_counter() - start)
        spent += walls[-1]
        count += 1


def code_digest() -> str:
    """SHA-256 over the package sources, the key for repeat-run digest checks."""
    hasher = hashlib.sha256()
    package = Path(harness.__file__).parent
    for path in sorted(package.rglob("*.py")):
        hasher.update(str(path.relative_to(package)).encode())
        hasher.update(path.read_bytes())
    return hasher.hexdigest()


def check_repeat_digests(store: Path, workload: str, reps: list[Rep]) -> list[str]:
    """Fail when one code version and seed gave two different records.csv.

    Compares each rep with the earlier reps of this run and with the digests
    that earlier runs in this checkout stored for the same package sources,
    workload config, libraries and thread count.
    """
    context = {"code": code_digest(), "config": WORKLOADS[workload].config,
               "numpy": np.__version__, "scipy": scipy.__version__,
               "threads": os.environ.get("OPENBLAS_NUM_THREADS")}
    prefix = hashlib.sha256(json.dumps(context, sort_keys=True).encode()).hexdigest()[:16]
    known = json.loads(store.read_text()) if store.is_file() else {}
    problems = []
    for rep in reps:
        if not rep.digest:
            continue
        key = f"{prefix}:{workload}:{rep.seed}"
        if known.setdefault(key, rep.digest) != rep.digest:
            problems.append(f"records.csv digest for seed {rep.seed} differs from an "
                            f"earlier call with the same code: {rep.digest} != {known[key]}")
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, store)
    return problems


def environment() -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "thread_vars": {k: v for k, v in sorted(os.environ.items())
                        if k.endswith("_NUM_THREADS") or k == "VECLIB_MAXIMUM_THREADS"},
        "steinweights_parallel": os.environ.get(harness.PARALLEL_ENV_VAR),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def _more(count, min_count, started, seconds, last) -> bool:
    """Whether to start another rep: one that would end by ``seconds``."""
    return count < min_count or time.perf_counter() - started + last <= seconds


def _timed_loop(workload, seeds, seconds, started, out, min_reps=1, setups=None):
    """Run reps over ``seeds`` (the last one repeats) for ``seconds``.

    With a ``setups`` list, a block of set-up probes precedes every rep.
    """
    reps: list[Rep] = []
    last = 0.0
    while _more(len(reps), min_reps, started, seconds, last):
        begin = time.perf_counter()
        if setups is not None:
            measure_setup(workload, setups)
        reps.append(run_rep(workload, seeds[min(len(reps), len(seeds) - 1)], out))
        last = time.perf_counter() - begin
    return reps


def run_untraced(workload: Workload, seed: int, seconds: float, out: Path):
    started = time.perf_counter()
    setups: list[float] = []
    # The quality-seed rep comes first so that every run makes it.
    reps = _timed_loop(workload, [workload.quality_seed, seed], seconds, started, out,
                       min_reps=2, setups=setups)
    measure_setup(workload, setups, at_least=SETUP_MIN - len(setups))
    setup = statistics.median(setups)
    wall = statistics.median(r.wall_s for r in reps)
    per_s = statistics.median(workload.cells / max(r.wall_s - setup, 1e-9) for r in reps)
    attempted = workload.cells * len(reps)
    failed = sum(r.failed_cells for r in reps)
    metrics = {
        "wall_s": wall,
        "setup_s": setup,
        "trials_per_s": per_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": (attempted - failed) / attempted,
        "mse_ratio": reps[0].mse_ratio,
    }
    return reps, metrics, {"reps": len(reps)}


def run_traced(workload: Workload, seed: int, seconds: float, out: Path):
    started = time.perf_counter()
    plain = _timed_loop(workload, [seed], seconds / 2.0, started, out)
    traced: list[Rep] = []
    per_rep: list[dict] = []
    detail: dict = {}
    last = 0.0
    with Tracer() as tracer:
        while _more(len(traced), 1, started, seconds, last):
            begin = time.perf_counter()
            tracer.reset()
            traced.append(run_rep(workload, seed, out))
            per_rep.append(layer_metrics(tracer.spans))
            if not detail:
                detail = {"by_n": breakdown_by_n(tracer.spans), "missing_hooks": tracer.missing}
            if any(s.self_ns < 0 for s in tracer.spans):
                traced[-1].problems.append("negative self time")
            last = time.perf_counter() - begin
    per_layer = {name: statistics.median(m[name] for m in per_rep) for name in per_rep[0]}
    per_layer["trace.overhead_frac"] = (
        statistics.median(r.wall_s for r in traced)
        / statistics.median(r.wall_s for r in plain) - 1.0)
    detail.update({"plain_reps": len(plain), "traced_reps": len(traced)})
    return plain + traced, per_layer, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    out = Path(args.out) / args.workload
    out.mkdir(parents=True, exist_ok=True)
    runner = run_traced if args.trace else run_untraced
    reps, metrics, detail = runner(workload, args.seed, args.seconds, out)
    problems = [p for r in reps for p in r.problems]
    by_seed: dict[int, set] = {}
    for rep in reps:
        by_seed.setdefault(rep.seed, set()).add(rep.digest)
    problems += check_repeat_digests(Path(args.out) / "digests.json", args.workload, reps)
    for name, value in metrics.items():
        if not math.isfinite(value):
            problems.append(f"{name} is not finite")
            metrics[name] = 0.0
    result = {
        "correct": not problems,
        "attempted": workload.cells * len(reps),
        "failed": sum(r.failed_cells for r in reps),
        "metrics": metrics,
    }
    detail.update({
        "problems": problems,
        "digests": {str(s): sorted(d) for s, d in by_seed.items()},
        "rep_walls_s": [r.wall_s for r in reps],
    })
    print(json.dumps({"result": result, "env": environment(), "detail": detail}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
