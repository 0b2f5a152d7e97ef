#!/usr/bin/env python3
"""Benchmark for the tcmr pipeline: synth -> fit-temporal -> train -> eval.

Run from the repository root:

    python3 bench/run.py --workload central-kde --seed 0 --seconds 35 --trace 0

One run is one workload in one process, with BLAS threads capped at the
number of usable cores. Until ``--seconds`` have passed (and at least three
times) it runs every stage in pipeline order through ``tcmr.cli.main``; a
stage shorter than a second runs several times per pass. Set-up stages
repeat along with the rest, not all before them, so that every stage's
samples spread over the whole run. ``setup_s`` sums the times of the
workload's set-up stages (synth and the bundle write; for eval-large also
the checkpoint's fit-temporal and train). The program sees only the
generated bundle and config; ``--seed`` fixes both.

Each stage time is the mean of its samples, scaled to a fixed host speed.
Before every stage the run times ``reference()``, fixed work that belongs to
the benchmark, and every reported time is multiplied by REFERENCE_SECONDS
over the reference's mean time in the run. This benchmark was written on a
shared 2-vCPU VM on which a fixed Python loop took anywhere from 20 to 70 ms
within a few minutes, and whole runs were up to 1.5x slower than the run
before; over the same runs the scaled times spread two to three times less
than the raw means. The raw stage times and the scale go to stderr.

Every stage must exit 0 and print its JSON summary; every repeat of a stage
must write byte-identical outputs; the training loss must be finite; every
test query is re-scored, and a seeded sample of them also with the
definitional metric oracles (``checks.py``); and where the eval stage's
inputs are byte-identical to those recorded in ``bench/baseline.json`` for
this seed, its quality figures must equal the recorded ones. The last stdout
line is one JSON object: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``. The exit status is 0
only when every stage and check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

from tracing import Tracer, stage_metrics
from workloads import STAGES, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
NPROC = len(os.sched_getaffinity(0))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_PASSES = 3
MIN_STAGE_SECONDS = 1.0
MAX_STAGE_REPEATS = 20
K = 50
REFERENCE_SECONDS = 0.025  # reported times are for a host running reference() this fast
QUALITY = ("test_map_at_50", "test_temporal_fit")  # deterministic at one seed
OUTPUTS = {  # files each stage writes, relative to the run directory
    "synth": ("data",),
    "fit-temporal": ("model.txnt",),
    "train": ("model.txnm", "train.jsonl"),
    "eval": ("eval",),
}

# Per-layer metrics reported by a traced run, in BENCHMARK.json order.
LAYER_METRICS = (
    ("objective.build_batch_plan.self_s", "s"),
    ("objective.build_batch_plan.calls", "count"),
    ("objective.pairs_planned", "count"),
    ("objective.skipped_anchors", "count"),
    ("objective.loss_terms.s", "s"),
    ("objective.hinges_attempted", "count"),
    ("objective.active_hinges", "count"),
    ("objective.active_hinge_ratio", "ratio"),
    ("temporal.pair_sim.calls", "count"),
    ("temporal.pair_sim.s", "s"),
    ("temporal.pair_sim.misses", "count"),
    ("temporal.fit.s", "s"),
    ("temporal.gibbs.s", "s"),
    ("temporal.gibbs.token_draws", "count"),
    ("temporal.gibbs.token_draws_per_s", "1/s"),
    ("projection.forward.s", "s"),
    ("projection.forward.calls", "count"),
    ("projection.backward.s", "s"),
    ("projection.backward.calls", "count"),
    ("projection.sgd_step.s", "s"),
    ("projection.sgd_step.calls", "count"),
    ("projection.gflop", "GFLOP"),
    ("train.train_model.self_s", "s"),
    ("train.steps", "count"),
    ("train.step_ms.p50", "ms"),
    ("train.step_ms.p99", "ms"),
    ("train.epochs_run", "count"),
    ("train.validation.s", "s"),
    ("train.validation.calls", "count"),
    ("retrieval.build_index.s", "s"),
    ("retrieval.shared_label_matrix.s", "s"),
    ("retrieval.rank_candidates.s", "s"),
    ("retrieval.map_at_k.s", "s"),
    ("retrieval.evaluate_direction.self_s", "s"),
    ("corpus.load_corpus.s", "s"),
    ("corpus.tfidf_matrix.s", "s"),
    ("synth.generate.s", "s"),
    ("trace.pipeline_s", "s"),
    ("trace.coverage", "ratio"),
)


def reference() -> float:
    """Wall time of a fixed mix of interpreter and small-array NumPy work.

    It is the benchmark's own code, so only the host's speed moves it, not a
    change to tcmr.
    """
    import numpy as np

    start = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(60000):
        counts[i % 97] = counts.get(i % 97, 0) + i * i
    a = np.linspace(0.0, 1.0, 256 * 64).reshape(256, 64)
    total = 0.0
    for _ in range(120):
        total += (a.T @ a).sum() + np.interp(a[:, 0], a[:, 1], a[:, 2]).sum()
    return time.perf_counter() - start


def at_reference_speed(metrics, scale) -> dict:
    """Scale every time (and inverse time) in ``metrics`` by ``scale``."""
    factor = {"s": scale, "ms": scale, "1/s": 1.0 / scale}
    return {name: {"value": m["value"] * factor.get(m["unit"], 1.0), "unit": m["unit"]}
            for name, m in metrics.items()}


def cap_blas_threads() -> None:
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(NPROC)


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def work_dir(workload, seed, trace) -> Path:
    """Where a run keeps its bundle, checkpoint, reports and spans."""
    return ROOT / ".bench_work" / f"{workload}-seed{seed}-trace{trace}"


def digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        path = Path(path)
        files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
        for f in files:
            h.update(f.name.encode())
            h.update(f.read_bytes())
    return h.hexdigest()


class Run:
    """One workload run: stages, their timings, checks and traces."""

    def __init__(self, workload, seed, workdir, tracer):
        self.workload = workload
        self.seed = seed
        self.dir = workdir
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.seconds: dict[str, list[float]] = {}
        self.reference_seconds: list[float] = []
        self.summaries: dict[str, dict] = {}
        self.first_digest: dict[str, str] = {}
        self.traced: list = []  # (stage, root span)
        self.peak_rss_mb = 0.0  # of the stages, read before the output checks run

    def check(self, name, ok, detail="") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {name}: {detail}", file=sys.stderr)
        return ok

    def path(self, name) -> str:
        return str(self.dir / name)

    def argv(self, stage):
        w = self.workload
        if stage == "synth":
            return ["synth", "--out", self.path("data"), "--seed", str(self.seed), *w.synth]
        if stage == "fit-temporal":
            return ["fit-temporal", "--kind", w.kind, "--corpus", self.path("data"),
                    "--config", self.path("run.cfg"), "--out", self.path("model.txnt")]
        if stage == "train":
            temporal = ["--temporal", self.path("model.txnt")] if w.config["lambda"] > 0 else []
            return ["train", "--corpus", self.path("data"), "--config", self.path("run.cfg"),
                    *temporal, "--out", self.path("model.txnm"), "--log", self.path("train.jsonl")]
        return ["eval", "--checkpoint", self.path("model.txnm"), "--corpus", self.path("data"),
                "--out", self.path("eval"), "--k", str(K)]

    def stage(self, stage) -> bool:
        from tcmr.cli import main

        # each CLI stage normally starts in a fresh process: start from a
        # collected heap so earlier stages' garbage is not charged to this one
        gc.collect()
        self.reference_seconds.append(reference())
        out = io.StringIO()
        root = self.tracer.open(f"stage.{stage}") if self.tracer else None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = main(self.argv(stage))
        except Exception:  # a crash is a failed stage, reported like any other
            traceback.print_exc()
            code = None
        finally:
            seconds = time.perf_counter() - start
            if root is not None:
                self.tracer.close(root)
        lines = out.getvalue().strip().splitlines()
        try:
            summary = json.loads(lines[-1]) if lines else None
        except json.JSONDecodeError:
            summary = None
        ok = self.check(f"{stage} exit", code == 0, f"exit code {code}")
        ok = self.check(f"{stage} summary", isinstance(summary, dict), "no JSON summary") and ok
        if not ok:
            return False
        self.seconds.setdefault(stage, []).append(seconds)
        if root is not None:
            self.traced.append((stage, root))
        previous = self.summaries.setdefault(stage, summary)
        ok = self.check(f"{stage} summary repeats", summary == previous,
                        f"{summary} != {previous}")
        files = digest(self.dir / p for p in OUTPUTS[stage])
        first = self.first_digest.setdefault(stage, files)
        return self.check(f"{stage} outputs repeat", files == first,
                          "outputs differ from the first invocation") and ok

    def measure(self, budget) -> bool:
        """Repeat every stage in pipeline order until ``budget`` seconds pass.

        A stage shorter than MIN_STAGE_SECONDS runs several times per pass,
        so that its samples cover a share of the run comparable to the long
        stages' and its mean averages the host's speed over the whole run.
        """
        (self.dir / "run.cfg").write_text(self.workload.config_text(self.seed))
        repeats = dict.fromkeys(STAGES, 1)
        passes = []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            for stage in STAGES:
                for _ in range(repeats[stage]):
                    if not self.stage(stage):
                        return False
                first = self.seconds[stage][0]
                repeats[stage] = min(MAX_STAGE_REPEATS, math.ceil(MIN_STAGE_SECONDS / first))
            passes.append(time.perf_counter() - t0)
            elapsed = time.perf_counter() - start
            if len(passes) >= MIN_PASSES and elapsed + max(passes) > budget:
                return True

    def output_checks(self) -> None:
        from checks import finite_loss, oracle_check

        try:
            self.check("finite training loss", *finite_loss(self.path("train.jsonl")))
            for name, ok, detail in oracle_check(self.path("model.txnm"), self.path("data"),
                                                 self.summaries["eval"], K, self.seed):
                self.check(name, ok, detail)
        except Exception:  # a check that cannot run has failed
            traceback.print_exc()
            self.check("output checks ran", False, "raised")

    def eval_inputs(self) -> str:
        """Digest of what the eval stage reads: the bundle and the checkpoint."""
        return digest([self.dir / "data", self.dir / "model.txnm"])

    def compare_with_record(self, metrics) -> None:
        """Compare exact values with those recorded for this seed.

        The eval stage is a function of the bundle and the checkpoint alone,
        so when both are byte-identical to the recorded ones, a quality figure
        that differs from the record is a failed check. Any other difference
        is a note on stderr: it shows that a change moved the random number
        stream or the work done, which the change must then explain.
        """
        from checks import TOLERANCE

        try:
            record = json.loads((BENCH_DIR / "baseline.json").read_text())
            exact = record["workloads"][self.workload.name]["exact"][str(self.seed)]
        except (OSError, KeyError, ValueError):
            return
        same_inputs = exact.get("eval_inputs") == self.eval_inputs()
        if not same_inputs:
            print("note: the eval inputs differ from the recorded ones", file=sys.stderr)
        for name, expected in exact.items():
            if name not in metrics:
                continue
            got = metrics[name]["value"]
            if same_inputs and name in QUALITY:
                self.check(f"recorded {name}", abs(got - expected) <= TOLERANCE,
                           f"{got} != the recorded {expected} for the same eval inputs")
            else:
                verdict = "matches" if got == expected else "differs from"
                print(f"note: {name} = {got} {verdict} the recorded {expected}", file=sys.stderr)

    # -- metrics --------------------------------------------------------------

    def end_to_end(self) -> dict:
        mean = {s: statistics.mean(v) for s, v in self.seconds.items()}
        fit, train, evaluate = mean["fit-temporal"], mean["train"], mean["eval"]
        setup = sum(mean[s] for s in self.workload.setup)
        epochs = self.summaries["train"]["epochs_run"]
        docs = self.summaries["fit-temporal"]["train_documents"]
        ev = self.summaries["eval"]
        metrics = {
            "setup_s": (setup, "s"),
            "fit_s": (fit, "s"),
            "train_s": (train, "s"),
            "eval_s": (evaluate, "s"),
            "pipeline_s": (fit + train + evaluate, "s"),
            "train_docs_per_s": (epochs * docs / train, "1/s"),
            "peak_rss_mb": (self.peak_rss_mb, "MB"),
            "test_map_at_50": ((ev["map_i2t"] + ev["map_t2i"]) / 2, "score"),
            "test_temporal_fit": ((ev["temporal_fit_i2t"] + ev["temporal_fit_t2i"]) / 2, "score"),
        }
        return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    def per_layer(self) -> dict:
        by_root: dict[int, list] = {}
        for span in self.tracer.spans:
            by_root.setdefault(span.root, []).append(span)
        per_stage: dict[str, list] = {}
        steps: list[list[float]] = []  # step durations of each traced train stage
        for stage, root in self.traced:
            times, counts, stage_steps = stage_metrics(root, by_root[root.id])
            per_stage.setdefault(stage, []).append((times, counts))
            if stage == "train":
                steps.append(stage_steps)

        # per pipeline pass: mean time of each stage kind, exact counts
        total: dict[str, float] = {}
        for stage, samples in per_stage.items():
            for key in set().union(*(t for t, _ in samples)):
                total[f"{stage}:{key}"] = statistics.mean(t.get(key, 0.0) for t, _ in samples)
                total[key] = total.get(key, 0.0) + total[f"{stage}:{key}"]
            first = samples[0][1]
            same = all(c == first for _, c in samples)
            self.check(f"{stage} counts repeat", same, "per-layer counts differ between repeats")
            for key, value in first.items():
                total[key] = total.get(key, 0) + value

        def get(key):
            return total.get(key, 0)

        pooled = [ms for stage_steps in steps for ms in stage_steps]
        print(f"train steps: {len(pooled)} samples from {len(steps)} traced train stages",
              file=sys.stderr)
        pipeline = sum(get(f"{s}:stage.s") for s in ("fit-temporal", "train", "eval"))
        covered = sum(get(f"{s}:stage.covered_s") for s in ("fit-temporal", "train", "eval"))
        derived = {
            "objective.active_hinge_ratio":
                get("objective.active_hinges") / get("objective.hinges_attempted")
                if get("objective.hinges_attempted") else 0.0,
            "temporal.gibbs.token_draws_per_s":
                get("temporal.gibbs.token_draws") / get("temporal.gibbs.s")
                if get("temporal.gibbs.s") else 0.0,
            "projection.gflop": get("projection.flop") / 1e9,
            "train.steps": len(steps[0]) if steps else 0,
            "train.step_ms.p50": statistics.median(pooled) if pooled else 0.0,
            "train.step_ms.p99": percentile(pooled, 99) if pooled else 0.0,
            "train.epochs_run": self.summaries["train"]["epochs_run"],
            "trace.pipeline_s": pipeline,
            "trace.coverage": covered / pipeline,
        }
        if derived["trace.coverage"] < 0.9:
            print(f"note: named layers cover only {derived['trace.coverage']:.1%} of the"
                  " traced pipeline", file=sys.stderr)
        if self.tracer.missing:
            print("note: trace targets not found: " + ", ".join(self.tracer.missing),
                  file=sys.stderr)
        return {
            name: {"value": derived[name] if name in derived else get(name), "unit": unit}
            for name, unit in LAYER_METRICS
        }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "tcmr" / "cli.py").is_file():
        print(f"error: no tcmr sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    cap_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))

    import tcmr.cli  # noqa: F401  (import time is not a stage's time)
    workload = WORKLOADS[args.workload]
    seed = args.seed % 2**32
    workdir = work_dir(workload.name, seed, args.trace)
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    tracer = Tracer() if args.trace else None
    run = Run(workload, seed, workdir, tracer)
    if tracer:
        tracer.install()
    try:
        ok = run.measure(args.seconds)
        run.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        if tracer:
            tracer.uninstall()
            tracer.write(workdir / "spans.jsonl")
    for stage, samples in run.seconds.items():
        print(f"{stage}: {len(samples)} samples, seconds "
              + " ".join(f"{s:.4f}" for s in samples), file=sys.stderr)
    scale = REFERENCE_SECONDS / statistics.mean(run.reference_seconds)
    print(f"reference: {len(run.reference_seconds)} samples, mean"
          f" {statistics.mean(run.reference_seconds):.5f} s; times scaled by {scale:.4f}",
          file=sys.stderr)
    if ok:
        run.output_checks()
        metrics = run.per_layer() if tracer else run.end_to_end()
        metrics = at_reference_speed(metrics, scale)
        run.compare_with_record(metrics)
    else:
        metrics = {}
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
