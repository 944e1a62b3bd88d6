#!/usr/bin/env python3
"""Outside-in benchmark of ``tkgc`` on seeded synthetic data at the Table-1
shapes of ICEWS14 and ICEWS05-15.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the package is imported from its
``src`` directory.  Each workload ingests ICEWS text, sets up the dataset and
a planted checkpoint, trains and evaluates, then checks the outputs.  With
``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics; with ``--trace 1`` the stages run untraced, traced, untraced, and
the JSON holds the per-layer metrics (spans go to ``perfbench/out/``).  The
exit code is 1 when a correctness check fails and 2 when the package cannot
be found.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
MACHINE_REPS = 5
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

def pin_blas_threads() -> None:
    """Must run before numpy is imported: BLAS reads these once at load."""
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def source_sha256() -> str:
    """Identity of the code under test (a checkout may carry no git data)."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or None


def l3_bytes() -> int | None:
    try:
        raw = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text()
    except OSError:
        return None
    raw = raw.strip()
    scale = {"K": 1 << 10, "M": 1 << 20}.get(raw[-1:], 1)
    return int(raw.rstrip("KM")) * scale


def environment(workload: str, seed: int) -> dict:
    import numpy as np
    from tkgc import TrainConfig

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "l3_bytes": l3_bytes(),
        "commit": git_commit(),
        "source_sha256": source_sha256(),
        "train_dtype": TrainConfig.__dataclass_fields__["dtype"].default,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Untraced run: end-to-end metrics.
# ---------------------------------------------------------------------------


def measure(workload, prep, seed: int, seconds: float, ledger) -> dict:
    import pipeline

    def plan(stage: str) -> tuple[int, float]:
        if stage == "setup":
            return pipeline.SETUP_REPS, 0.0
        return workload.min_reps[stage], workload.shares[stage] * seconds

    p = pipeline.run_pass(workload, prep, seed, ledger, plan)
    for stage in ("ingest", "setup", "train", "eval"):
        reps = " ".join(f"{t:.3f}" for t in getattr(p, f"{stage}_s"))
        print(f"# {stage} seconds per call: {reps}")
    pipeline.check_oracle(prep, p.ready, seed, ledger)
    rate = lambda work, times: statistics.median(work / t for t in times)
    return {
        "train_facts_per_s": rate(p.train_facts, p.train_s),
        "train_loss_end": p.loss_end,
        "eval_queries_per_s": rate(p.eval_queries, p.eval_s),
        "eval_mrr": p.mrr,
        "ingest_facts_per_s": rate(prep.n_facts, p.ingest_s),
        "setup_s": statistics.median(p.setup_s),
        "peak_rss_mb": peak_rss_mb(),
    }


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics.
# ---------------------------------------------------------------------------


def median_seconds(fn, reps: int = MACHINE_REPS) -> float:
    """Median wall time of ``reps`` calls after one warm-up call."""
    times = []
    for _ in range(reps + 1):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times[1:])


def gemm_gflops(m: int, k: int, n: int, dtype) -> float:
    """Rate of one (m, k) x (k, n) product."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((m, k)).astype(dtype)
    b = rng.standard_normal((n, k)).astype(dtype)
    out = np.empty((m, n), dtype=dtype)
    seconds = median_seconds(lambda: np.matmul(a, b.T, out=out))
    return 2.0 * m * k * n / seconds / 1e9


def copy_gbps(l3: int | None) -> float:
    """Read+write bandwidth of a copy between arrays of at least 4x L3."""
    import numpy as np

    nbytes = max(4 * (l3 or 0), 128 << 20)
    src = np.ones(nbytes // 8)
    dst = np.empty_like(src)
    return 2.0 * nbytes / median_seconds(lambda: np.copyto(dst, src)) / 1e9


def trace(workload, prep, seed: int, ledger, env: dict,
          layer_units: dict[str, str]) -> dict:
    import numpy as np

    import pipeline
    import tkgc
    from tracing import Tracer

    # Untraced passes before and after the traced one, so that warm-up and
    # drift do not pass for tracing overhead.
    once = lambda stage: (1, 0.0)
    before = pipeline.run_pass(workload, prep, seed, ledger, once)

    tracer = Tracer()
    step_floats: dict[str, int] = {}

    def grad_probe(result) -> None:
        _, grads = result
        step_floats["grad"] = sum(a.size for a in grads.tensors.values())
        step_floats["dense"] = sum(grads.tensors[name].size
                                   for name, rows in grads.touched.items()
                                   if rows is None)

    tracer.instrument(tkgc, probes={"training.batch_loss": grad_probe})
    try:
        traced = pipeline.run_pass(
            workload, prep, seed, ledger, once,
            on_ready=lambda ready: tracer.counter(
                ready.filter_index, "objects", "datasets.filter_lookups"))
    finally:
        tracer.restore()
    pipeline.check_oracle(prep, traced.ready, seed, ledger)
    after = pipeline.run_pass(workload, prep, seed, ledger, once)
    untraced = (before.total_s + after.total_s) / 2
    for label, p in (("untraced", before), ("traced", traced),
                     ("untraced", after)):
        stages = ", ".join(f"{stage} {sum(getattr(p, stage + '_s')):.3f}"
                           for stage in ("ingest", "setup", "train", "eval"))
        print(f"# {label} pass seconds: {stages}")

    summary = tracer.summary()
    ms = lambda name, key="ms": summary.get(name, {}).get(key, 0.0)
    calls = lambda name: summary.get(name, {}).get("calls", 0)

    dtype = np.dtype(env["train_dtype"])
    n_ent = traced.ready.splits.vocabulary.n_entities
    peak = gemm_gflops(pipeline.BATCH, 2 * workload.rank, n_ent, dtype)
    eval_rank = traced.ready.params.spec.rank
    # 512 queries per scoring call, as tkgc.evaluation chunks them.
    eval_peak = gemm_gflops(512, 2 * eval_rank, n_ent, traced.ready.params.dtype)
    copy = copy_gbps(env["l3_bytes"])

    # Computed work: three (B x 2d x E) GEMMs per batch_loss, one
    # (queries x 2d x E) GEMM over an eval pass, and Adam reading gradient,
    # both moments and the table and writing back moments and table.
    score_flops = 2.0 * pipeline.BATCH * 2 * workload.rank * n_ent
    batch_gemm_s = 3 * score_flops * calls("training.batch_loss") / (peak * 1e9)
    eval_flops = 2.0 * traced.eval_queries * 2 * eval_rank * n_ent
    adam_bytes = 7 * dtype.itemsize * step_floats.get("dense", 0) * calls(
        "training.adam_step")
    frac = lambda need_s, name: need_s / (ms(name) / 1e3) if ms(name) else 0.0

    values = {
        "training.batch_loss.calls": calls("training.batch_loss"),
        "training.batch_loss.ms_p50": ms("training.batch_loss", "ms_p50"),
        "training.batch_loss.ms_p90": ms("training.batch_loss", "ms_p90"),
        "training.batch_loss.self_ms": ms("training.batch_loss", "self_ms"),
        "training.adam_step.ms_p50": ms("training.adam_step", "ms_p50"),
        "training.grad_floats": step_floats.get("grad", 0),
        "training.dense_update_floats": step_floats.get("dense", 0),
        "models.score_all_objects_batch.calls": calls(
            "models.score_all_objects_batch"),
        "evaluation.rank.self_ms": ms("evaluation.rank", "self_ms"),
        "datasets.filter_lookups": tracer.counts.get(
            "datasets.filter_lookups", 0),
        "datasets.filter_index.keys": len(traced.ready.filter_index),
        "machine.gemm_gflops": peak,
        "machine.eval_gemm_gflops": eval_peak,
        "machine.copy_gbps": copy,
        "training.batch_loss.gemm_frac": frac(batch_gemm_s,
                                              "training.batch_loss"),
        "models.score_all_objects_batch.gemm_frac": frac(
            eval_flops / (eval_peak * 1e9), "models.score_all_objects_batch"),
        "training.adam_step.bw_frac": frac(adam_bytes / (copy * 1e9),
                                           "training.adam_step"),
        "trace.overhead_frac": (traced.total_s - untraced) / untraced,
    }
    # Samples behind each value: span calls, or the counted boundary.
    samples = {
        "training.grad_floats": calls("training.batch_loss"),
        "training.dense_update_floats": calls("training.batch_loss"),
        "datasets.filter_lookups": calls("evaluation.evaluate"),
        "machine.gemm_gflops": MACHINE_REPS,
        "machine.eval_gemm_gflops": MACHINE_REPS,
        "machine.copy_gbps": MACHINE_REPS,
    }
    metrics, table = {}, {}
    for name, unit in layer_units.items():
        span = name.rsplit(".", 1)[0]
        metrics[name] = values[name] if name in values else ms(span)
        table[name] = {"value": metrics[name], "unit": unit,
                       "samples": samples.get(name, calls(span) or 1)}

    OUT.mkdir(exist_ok=True)
    report = OUT / f"trace-{workload.name}-seed{seed}.json"
    report.write_text(json.dumps({
        "env": env,
        "metrics": table,
        "summary": summary,
        "counts": tracer.counts,
        "spans": tracer.dump(),
    }, indent=1))
    print(f"# spans and summary: {report.relative_to(ROOT)}")
    for name in ("training.batch_loss", "evaluation.evaluate"):
        entry = summary.get(name)
        if entry:
            parts = dict(entry["children_ms"], self=entry["self_ms"])
            shares = ", ".join(f"{k} {v:.1f}" for k, v in sorted(
                parts.items(), key=lambda kv: -kv[1]))
            print(f"# {name} {entry['ms']:.1f} ms over {entry['calls']} calls"
                  f" = {shares} (sum {sum(parts.values()):.1f} ms)")
    for name, row in table.items():
        print(f"# {name:45s} {row['value']:>14.6g} {row['unit']:14s} "
              f"samples={row['samples']}")
    return metrics


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    pin_blas_threads()
    if not (ROOT / "src" / "tkgc" / "__init__.py").is_file():
        print(f"error: no tkgc package under {ROOT / 'src'}; run the benchmark "
              "from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import pipeline
    import tkgc

    if not Path(tkgc.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported tkgc from {tkgc.__file__}, not from the "
              "checkout", file=sys.stderr)
        return 2

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(pipeline.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    workload = pipeline.WORKLOADS[args.workload]
    env = environment(workload.name, args.seed)
    print("# env " + json.dumps(env, sort_keys=True))
    ledger = pipeline.Ledger()
    workdir = OUT / f"work-{workload.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        t0 = time.perf_counter()
        prep = pipeline.prepare(workload, args.seed, workdir)
        print(f"# inputs generated in {time.perf_counter() - t0:.2f} s "
              "(untimed)")
        if args.trace:
            metrics = trace(workload, prep, args.seed, ledger, env, units)
        else:
            metrics = measure(workload, prep, args.seed, args.seconds, ledger)
            for name, value in metrics.items():
                print(f"# {name:24s} {value:>14.6g} {units[name]}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if set(metrics) != set(units):
        ledger.fail(0, "metrics differ from BENCHMARK.json: "
                       f"{sorted(set(metrics) ^ set(units))}")
    for problem in ledger.problems:
        print(f"# FAILED CHECK: {problem}")
    correct = not ledger.problems
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items() if name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
