#!/usr/bin/env python3
"""Record the benchmark's baseline into bench/baseline.json.

Run from the repository root:

    python3 bench/record.py

For every workload this runs ``bench/run.py`` for BENCHMARK.json's
``run_seconds`` in a fresh process once per seed 0..9 untraced, once more
untraced at seed 0, and twice traced at seed 0. It records:

  * the machine: cores, CPU, BLAS name, version and thread cap, Python and
    NumPy versions;
  * each end-to-end metric's median, quartiles and spread (interquartile
    range over median) across the seeds;
  * exact values that must repeat at one seed: the quality metrics and a
    digest of the eval stage's inputs (bundle and checkpoint) at every seed,
    and the per-layer counts at seed 0. Both repeats are compared and the
    command fails if they differ. A later run at a recorded seed fails when
    its eval inputs are the recorded ones but its quality figures are not,
    and notes any other difference on stderr;
  * the per-layer metrics of the traced run, the tracing overhead (traced
    over untraced pipeline_s at seed 0) and the share of the traced
    pipeline that the named layers' spans cover.
"""

from __future__ import annotations

import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from run import NPROC, QUALITY, digest, work_dir  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEEDS = range(10)
EXACT_COUNTS = (
    "temporal.pair_sim.calls",
    "objective.build_batch_plan.calls",
    "train.epochs_run",
    "objective.active_hinges",
)


def bench_run(workload, seed, seconds, trace) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr[-4000:]}")
    result = json.loads(lines[-1])
    print(f"{workload} seed {seed} trace {trace}: {result['attempted']} checks passed",
          file=sys.stderr)
    values = {name: m["value"] for name, m in result["metrics"].items()}
    workdir = work_dir(workload, seed, trace)
    values["eval_inputs"] = digest([workdir / "data", workdir / "model.txnm"])
    return values


def summary(values) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "n": len(values), "values": values}


def machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": NPROC,
        "cpu": cpu,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def commit() -> str:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def record_workload(name, seeds, seconds) -> dict:
    runs = {seed: bench_run(name, seed, seconds, 0) for seed in seeds}
    again = bench_run(name, seeds[0], seconds, 0)
    traced = [bench_run(name, seeds[0], seconds, 1) for _ in range(2)]

    for metric in (*QUALITY, "eval_inputs"):
        if again[metric] != runs[seeds[0]][metric]:
            sys.exit(f"{name}: {metric} did not repeat at seed {seeds[0]}")
    for metric in EXACT_COUNTS:
        if traced[0][metric] != traced[1][metric]:
            sys.exit(f"{name}: {metric} did not repeat at seed {seeds[0]}")

    exact = {str(seed): {m: runs[seed][m] for m in (*QUALITY, "eval_inputs")}
             for seed in seeds}
    exact[str(seeds[0])].update({m: traced[0][m] for m in EXACT_COUNTS})
    untraced = statistics.mean([runs[seeds[0]]["pipeline_s"], again["pipeline_s"]])
    traced_pipeline = statistics.mean(t["trace.pipeline_s"] for t in traced)
    return {
        "seeds": list(seeds),
        "end_to_end": {m: summary([runs[s][m] for s in seeds])
                       for m in runs[seeds[0]] if m != "eval_inputs"},
        "exact": exact,
        "per_layer": {m: v for m, v in traced[0].items() if m != "eval_inputs"},
        "trace_overhead": traced_pipeline / untraced,
        "trace_coverage": min(t["trace.coverage"] for t in traced),
    }


def main() -> int:
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    out = BENCH_DIR / "baseline.json"
    record = {
        "commit": commit(),
        "recorded": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "seconds": seconds,
        "machine": machine(),
        "workloads": {},
    }
    for name in WORKLOADS:
        record["workloads"][name] = record_workload(name, list(SEEDS), seconds)
        out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        for metric, s in record["workloads"][name]["end_to_end"].items():
            print(f"{name:12s} {metric:18s} median {s['median']:.6g}  spread {s['spread']:.3f}",
                  file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
