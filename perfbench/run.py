"""End-to-end and per-layer benchmark of the catembed pipeline.

    python3 perfbench/run.py --workload shallow-sgd --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from its ``src/``.
The run generates the workload's inputs from ``--seed`` (untimed), then runs
the whole pipeline repeatedly, each pass in a fresh process, until
``--seconds`` have been spent (at least three passes). It prints every
metric with its median, quartiles and pass count, and as the last line one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics from untraced passes.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics from the traced ones; ``trace.overhead_s`` is the traced
minus the untraced median ``total_s``. Spans of the traced passes are
written to ``.perfbench_work/trace-<workload>-<seed>.json``.

Every pass uses one process and one worker; BLAS is pinned to one thread so
the load stays within one core of the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
MIN_PASSES = 3
HARD_LIMIT_S = 160.0  # the whole run, generation included, ends well inside 180 s

E2E = {  # name -> unit
    "setup_s": "s",
    "eval_s": "s",
    "total_s": "s",
    "peak_rss_mb": "MB",
    "nn_purity": "1",
    "cluster_purity": "1",
    "spearman_rho": "1",
    "ok_frac": "1",
}

LAYERS = {
    "corpus.build_vocabulary_s": "s", "corpus.load_hierarchy_s": "s", "corpus.prune_to_dag_s": "s",
    "corpus.load_corpus_s": "s", "corpus.documents": "count", "corpus.pairs": "count",
    "corpus.entities": "count", "corpus.categories": "count", "corpus.edges_out": "count",
    "corpus.back_edges": "count", "corpus.input_bytes": "B",
    "hierarchy.weight_csr_s": "s", "hierarchy.weighted_entities": "count", "hierarchy.weight_nnz": "count",
    "hierarchy.us_per_entity": "us",
    "sampler.pairs_arrays_s": "s", "sampler.draw_negatives_s": "s", "sampler.negatives_drawn": "count",
    "kernels.train_chunk_s": "s", "kernels.calls": "count", "kernels.pairs": "count",
    "kernels.pairs_per_s": "pairs/s", "kernels.chunk_ms_p50": "ms", "kernels.chunk_ms_p95": "ms",
    "kernels.mean_fan_in": "count", "kernels.flops_computed": "flop", "kernels.bytes_computed": "B",
    "kernels.gflops_computed": "GFLOP/s", "kernels.flops_per_byte": "flop/B",
    "trainer.train_s": "s", "trainer.self_s": "s", "trainer.chunks": "count",
    "trainer.last_epoch_loss_per_pair": "1",
    "training.run_s": "s", "training.sgd_pairs_per_s": "pairs/s",
    "embeddings.save_text_s": "s", "embeddings.bytes_written": "B", "embeddings.load_s": "s",
    "embeddings.rows_loaded": "count", "embeddings.bytes_read": "B",
    "categorize.run_s": "s", "categorize.kmeans_s": "s", "categorize.agglomerative_s": "s",
    "categorize.agglomerative_max_call_s": "s", "categorize.nn_s": "s", "categorize.self_s": "s",
    "categorize.n_scored": "count", "categorize.rss_growth_mb": "MB",
    "relatedness.run_s": "s", "relatedness.mapped_ratio": "1",
    "trace.overhead_s": "s",
}

CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "PYTHONDONTWRITEBYTECODE": "1",
}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def commit_of(checkout: Path) -> str:
    git = checkout / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        return (git / head[5:]).read_text().strip() if head.startswith("ref: ") else head
    except OSError:
        return "unknown (not a git checkout)"


def blas_name() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return "unknown"


def run_pass(checkout: Path, workload: str, work: Path, seed: int, traced: bool, index: int, timeout: float) -> dict:
    result_path = work / f"pass-{index}.json"
    cmd = [sys.executable, str(HERE / "pipeline.py"), workload, str(work), str(seed), "1" if traced else "0", str(result_path)]
    # the child's stdout goes to our stderr: our stdout carries only the report
    proc = subprocess.run(cmd, cwd=checkout, env=dict(os.environ, **CHILD_ENV), stdout=sys.stderr, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"pipeline pass {index} exited with code {proc.returncode}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def run_passes(checkout: Path, args, work: Path, started: float) -> list[tuple[bool, dict]]:
    """Passes until ``--seconds`` of pipeline time are spent; traced ones alternate in with ``--trace 1``."""
    passes: list[tuple[bool, dict]] = []
    took: list[float] = []
    minimum = MIN_PASSES + (1 if args.trace else 0)
    deadline = time.perf_counter() + args.seconds
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        t = time.perf_counter()
        remaining = HARD_LIMIT_S - (t - started)
        if remaining <= 0:
            raise BenchError(f"only {len(passes)} passes fit in {HARD_LIMIT_S:.0f} s")
        passes.append((traced, run_pass(checkout, args.workload, work, args.seed, traced, len(passes), remaining)))
        took.append(time.perf_counter() - t)
        now = time.perf_counter()
        if len(passes) >= minimum and now + statistics.median(took) > deadline:
            return passes
        if now + max(took) - started > HARD_LIMIT_S:
            if len(passes) >= minimum:
                return passes
            raise BenchError(f"a pass takes {max(took):.1f} s; {minimum} do not fit in {HARD_LIMIT_S:.0f} s")


def median_of(values: list[float]) -> float:
    return float(statistics.median(values))


def summarize(name: str, values: list[float], unit: str) -> str:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return f"  {name:<38} {median_of(values):>14.6g} {unit:<8} [q1 {q[0]:.6g}, q3 {q[2]:.6g}] n={len(values)}"


def collect(passes: list[tuple[bool, dict]], trace: bool) -> dict[str, list[float]]:
    """Per-metric values, one per pass that measured it."""
    plain = [p for traced, p in passes if not traced]
    values: dict[str, list[float]] = {}
    if not trace:
        for name in E2E:
            if name == "ok_frac":
                continue
            values[name] = [p["e2e"][name] for p in plain if name in p["e2e"]]
        return values
    traced = [p for is_traced, p in passes if is_traced]
    for name in LAYERS:
        values[name] = [p["layers"][name] for p in traced if name in p.get("layers", {})]
    for name, key in (("training.run_s", "train_s"), ("training.sgd_pairs_per_s", "sgd_pairs_per_s")):
        values[name] = [p["e2e"].get(key, 0.0) for p in plain]
    untraced_total = [p["e2e"]["total_s"] for p in plain if "total_s" in p["e2e"]]
    traced_total = [p["e2e"]["total_s"] for p in traced if "total_s" in p["e2e"]]
    if untraced_total and traced_total:
        values["trace.overhead_s"] = [median_of(traced_total) - median_of(untraced_total)]
    return values


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True, help="pipeline time to spend on passes")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    started = time.perf_counter()
    checkout = Path.cwd()
    if not (checkout / "src" / "catembed" / "__init__.py").is_file():
        print(f"perfbench: no catembed source under {checkout / 'src'}; run from the root of a checkout", file=sys.stderr)
        return 2

    # A SIGTERM becomes SystemExit, which makes subprocess.run kill and reap the running pass.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    scratch = checkout / ".perfbench_work"
    work = scratch / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        t = time.perf_counter()
        inputs = WORKLOADS[args.workload].generate(work, args.seed).sizes()
        generate_s = time.perf_counter() - t
        passes = run_passes(checkout, args, work, started)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    outcomes = [ok for _traced, p in passes for _name, ok in p["ops"]]
    attempted, failed = len(outcomes), outcomes.count(False)
    for _traced, p in passes:
        for error in p["errors"]:
            print(f"perfbench: failed: {error}", file=sys.stderr)

    values = collect(passes, bool(args.trace))
    units = LAYERS if args.trace else E2E
    if not args.trace:
        values["ok_frac"] = [1.0 - failed / attempted]
    missing = [name for name in units if not values.get(name)]
    if missing:
        print(f"perfbench: no pass measured {', '.join(missing)}", file=sys.stderr)
        return 1

    manifest = dict(
        passes[0][1]["manifest"],
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        passes=len(passes), traced_passes=sum(traced for traced, _p in passes),
        commit=commit_of(checkout), nproc=os.cpu_count(), cpus_allowed=len(os.sched_getaffinity(0)),
        machine=platform.machine(), blas=blas_name(), workers=1,
        threads={k: v for k, v in CHILD_ENV.items() if k.endswith("THREADS")},
        generate_s=generate_s, inputs=inputs,
    )
    print("manifest " + json.dumps(manifest, sort_keys=True))
    if args.trace:
        spans = [s for traced, p in passes if traced for s in p["spans"]]
        (scratch / f"trace-{args.workload}-{args.seed}.json").write_text(json.dumps(spans), encoding="utf-8")
    print(f"metrics ({'traced' if args.trace else 'untraced'}; median over passes):")
    for name, unit in units.items():
        print(summarize(name, values[name], unit))
    floors = passes[0][1]["floors"]
    print("  chance floors: " + ", ".join(f"{k} {v:.4f}" for k, v in floors.items()))
    print(f"  failed operations: {failed} of {attempted}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": median_of(values[name]), "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
