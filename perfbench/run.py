"""Benchmark entry point: one workload, one seed, one fresh worker process.

    python3 perfbench/run.py --workload iid_stein --seed 1 --seconds 30 --trace 0

Run from the root of a checkout that holds ``src/steinweights``. The worker
runs with one BLAS thread, ``STEINWEIGHTS_PARALLEL`` unset and the package
imported from ``src``. The environment and per-run details are
printed first, one ``name: json`` line each; the last line is the result
object ``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0``
the metrics are the ``end_to_end`` ones of BENCHMARK.json, with
``--trace 1`` the ``per_layer`` ones. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
# Every run must end within 180 s; the worker is stopped before that.
DEADLINE_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


# One BLAS thread: with two on a 2-CPU machine, iid_stein ran about 1.7x
# faster, but its wall time spread (quartile distance over median) over runs
# was 0.07-0.13, against 0.02-0.09 with one.
BLAS_THREADS = 1


def main(argv=None) -> int:
    started = time.monotonic()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "steinweights" / "__init__.py").is_file():
        print(f"run.py: no steinweights package under {src}", file=sys.stderr)
        return 2
    env = {k: v for k, v in os.environ.items() if k != "STEINWEIGHTS_PARALLEL"}
    env.update({var: str(BLAS_THREADS) for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join([str(src)] + [p for p in [env.get("PYTHONPATH")] if p])
    OUT.mkdir(exist_ok=True)
    load_before = os.getloadavg()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(OUT)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=DEADLINE_S - (time.monotonic() - started))
    except subprocess.TimeoutExpired:
        print("run.py: worker did not finish in time", file=sys.stderr)
        return 1
    load_after = os.getloadavg()
    if proc.returncode != 0:
        print(f"run.py: worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    result, detail = report["result"], report["detail"]

    declared = spec["per_layer" if args.trace else "end_to_end"]
    values = result["metrics"]
    if set(values) != {m["name"] for m in declared}:
        detail["problems"].append(f"metrics {sorted(values)} differ from BENCHMARK.json")
        result["correct"] = False
    result["metrics"] = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
                         for m in declared}

    env_record = dict(report["env"], blas_threads=BLAS_THREADS,
                      loadavg_before=load_before, loadavg_after=load_after)
    print("env: " + json.dumps(env_record))
    print("detail: " + json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
