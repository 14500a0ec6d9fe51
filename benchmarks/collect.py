"""Run the benchmark over several seeds and record the figures in a BENCH file.

    python3 benchmarks/collect.py --label baseline --seeds 2-11 --trace-seed 2 --held-out 1

For every workload this makes one untraced run per seed (``--seconds`` from
BENCHMARK.json), one traced run at ``--trace-seed`` and one untraced run
per held-out seed, each in a fresh process, one after another.  It writes
``benchmarks/BENCH_<label>.json`` with each end-to-end metric's values,
median, quartiles and spread (the distance between the quartiles as a
share of the median), the traced run's per-layer metrics, and the machine
it ran on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from record_reference import parse_seeds
from run import BLAS_THREADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(trace))],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"{workload} seed {seed} trace {int(trace)}: correct {result['correct']}, "
          f"failed {result['failed']} of {result['attempted']}", flush=True)
    return result


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def machine() -> dict:
    import numpy
    import scipy

    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": int(BLAS_THREADS), "platform": platform.platform()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 2-11")
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--held-out", default="", help="seeds checked once each")
    parser.add_argument("--workload", action="append")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    names = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(args.seeds)
    out = {"label": args.label, "run_seconds": seconds, "seeds": seeds,
           "machine": machine(), "workloads": {}}
    for workload in names:
        runs = [run_once(workload, seed, seconds, False) for seed in seeds]
        entry = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {m["name"]: summary([r["metrics"][m["name"]]["value"] for r in runs])
                           for m in spec["end_to_end"]},
        }
        if args.trace_seed is not None:
            traced = run_once(workload, args.trace_seed, seconds, True)
            entry["traced"] = {"seed": args.trace_seed, "failed": traced["failed"],
                               "per_layer": {k: v["value"]
                                             for k, v in traced["metrics"].items()}}
        if args.held_out:
            entry["held_out"] = {}
            for seed in parse_seeds(args.held_out):
                r = run_once(workload, seed, seconds, False)
                entry["held_out"][str(seed)] = {
                    "correct": r["correct"], "attempted": r["attempted"],
                    "failed": r["failed"],
                    "metrics": {k: v["value"] for k, v in r["metrics"].items()}}
        out["workloads"][workload] = entry
        for name, s in entry["end_to_end"].items():
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"  {workload:16s} {name:15s} median {s['median']:.6g} spread {spread}")
    path = HERE / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
