"""One pass of a workload's pipeline, run in a fresh process.

    python3 perfbench/pipeline.py <workload> <input dir> <seed> <trace 0|1> <result.json>

Run from the root of a checkout: the package is imported from ``src/`` there
and nowhere else. The pass drives the public functions that ``catembed.cli``
composes for ``train`` and ``eval-categorize``/``eval-relatedness``, in the
same order and with one worker:

    build_vocabulary -> load_hierarchy -> prune_to_dag -> load_corpus
    -> trainer.train(on_chunk=...) -> save_text
    -> load_embeddings -> run_categorization(method="both") -> run_relatedness

The evaluation-only workload starts at ``load_embeddings``. The pass writes
its timings, quality, output-check outcomes and, when traced, its spans and
per-layer figures as JSON. Operations that raise and checks that fail are
recorded, not raised, so the caller can count them.
"""

from __future__ import annotations

import importlib.util
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from spans import NoTracer, Tracer
from workloads import EVAL_DIM, EVAL_ROWS, FILES, WORKLOADS

ROOT = "root"

# Layers that must record at least one call in a traced pass, per workload kind.
TRAIN_LAYERS = ("hierarchy.weight_csr", "sampler.pairs_arrays", "sampler.draw_negatives", "kernels.train_chunk")
EVAL_LAYERS = ("categorize.kmeans", "categorize.agglomerative", "categorize.nn_classify")


def import_package(checkout: Path):
    """Import catembed from ``<checkout>/src``; refuse any other copy."""
    src = (checkout / "src").resolve()
    sys.path.insert(0, str(src))
    import catembed

    if Path(catembed.__file__).resolve().parent != src / "catembed":
        raise SystemExit(f"catembed imported from {catembed.__file__}, not from {src}")
    return catembed


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def count_weights(counts, _args, result) -> None:
    offsets, ids, _ws = result
    counts["hierarchy.weighted_entities"] += int((np.diff(offsets) > 0).sum())
    counts["hierarchy.weight_nnz"] += len(ids)


def count_negatives(counts, _args, result) -> None:
    counts["sampler.negatives_drawn"] += result.size


def count_kernel(counts, args, _loss) -> None:
    """Work of one chunk from the arrays the kernel was handed.

    Per pair with m weighted categories and k negatives at dimension d the
    kernel scores (1+m)(1+k) dot products and forms both gradient products
    (6d(1+m)(1+k) flops), and reads and writes 2+m+k rows of 8-byte floats
    (16d(2+m+k) bytes).
    """
    ent_in, targets, negatives, cat_offsets = args[0], args[3], args[5], args[6]
    d, k = ent_in.shape[1], negatives.shape[1]
    m = cat_offsets[targets + 1] - cat_offsets[targets]
    counts["kernels.calls"] += 1
    counts["kernels.pairs"] += len(targets)
    counts["kernels.fan_in"] += int(m.sum())
    counts["kernels.flops"] += float((6 * d * (1 + m) * (1 + k)).sum())
    counts["kernels.bytes"] += float((16 * d * (2 + m + k)).sum())


def chance_floors(loaded, rel_report) -> dict:
    """What each quality metric reaches without signal, on this workload's gold data.

    Purity: the best of 20 random balanced labelings into as many groups as
    gold classes. Spearman: three standard deviations of rho between
    unrelated scores over the mapped pairs.
    """
    from catembed.categorize import purity_from_labels

    floors = {"nn_purity": 1.0, "cluster_purity": 1.0, "spearman_rho": 1.0}
    if loaded:
        gold = loaded[1]
        classes = gold.class_indices()
        rng = np.random.default_rng(0)
        chance = max(
            purity_from_labels(rng.permutation(np.arange(len(classes)) % gold.n_classes), classes)
            for _ in range(20)
        )
        floors["nn_purity"] = floors["cluster_purity"] = chance
    if rel_report:
        floors["spearman_rho"] = 3.0 / np.sqrt(max(rel_report["n_mapped"] - 1, 1))
    return floors


class Ops:
    """Attempted operations and output checks, with the reason each failure happened."""

    def __init__(self):
        self.outcomes: list[tuple[str, bool]] = []
        self.errors: list[str] = []

    def run(self, name: str, fn):
        """Run one operation; an exception marks it failed and returns None."""
        try:
            result = fn()
        except Exception:
            self.fail(name, traceback.format_exc(limit=4))
            return None
        self.outcomes.append((name, True))
        return result

    def check(self, name: str, fn) -> None:
        """An output check: ``fn`` returns a failure message, or None when the output is right."""
        try:
            problem = fn()
        except Exception:
            problem = traceback.format_exc(limit=4)
        if problem is None:
            self.outcomes.append((name, True))
        else:
            self.fail(name, problem)

    def fail(self, name: str, reason: str) -> None:
        self.outcomes.append((name, False))
        self.errors.append(f"{name}: {reason}")


def run_pass(workload: str, in_dir: Path, seed: int, traced: bool) -> dict:
    from catembed import categorize, embeddings, hierarchy, kernels, relatedness, trainer
    from catembed.corpus import build_vocabulary, load_corpus, load_hierarchy, prune_to_dag

    spec = WORKLOADS[workload]
    files = {role: in_dir / name for role, name in FILES.items()}
    export = in_dir / f"export-{os.getpid()}.txt"
    tracer = Tracer(f"{workload}/{seed}/{os.getpid()}") if traced else NoTracer()
    ops = Ops()
    clock = time.perf_counter

    # The weight check needs the CSR arrays the trainer built; keep a reference
    # instead of recomputing them.
    captured: dict = {}
    inner_weight_csr = trainer.weight_csr

    def capture_weights(*args, **kwargs):
        captured["weights"] = inner_weight_csr(*args, **kwargs)
        return captured["weights"]

    trainer.weight_csr = capture_weights
    if traced:
        tracer.wrap(trainer, "weight_csr", "hierarchy.weight_csr", count_weights)
        tracer.wrap(trainer, "pairs_arrays", "sampler.pairs_arrays")
        tracer.wrap(trainer, "draw_negatives_batch", "sampler.draw_negatives", count_negatives)
        tracer.wrap(kernels, "train_chunk", "kernels.train_chunk", count_kernel)
        tracer.wrap(categorize, "kmeans", "categorize.kmeans")
        tracer.wrap(categorize, "agglomerative", "categorize.agglomerative")
        tracer.wrap(categorize, "nn_classify", "categorize.nn_classify")

    chunks: list = []  # (time, ChunkStats) per on_chunk callback
    t0 = clock()
    trained = None
    if spec.train is not None:
        def train_run():
            vocab = tracer.call("corpus.build_vocabulary", build_vocabulary, files["corpus"])
            raw = tracer.call("corpus.load_hierarchy", load_hierarchy, files["hierarchy"], vocab)
            graph, report = tracer.call("corpus.prune_to_dag", prune_to_dag, raw, vocab, ROOT)
            corpus = tracer.call("corpus.load_corpus", load_corpus, files["corpus"], vocab, graph)
            config = trainer.TrainConfig(**spec.train, seed=seed)
            table = tracer.call(
                "trainer.train", trainer.train, corpus, graph, config,
                on_chunk=lambda stats: chunks.append((clock(), stats)),
            )
            t_trained = clock()
            tracer.call("embeddings.save_text", embeddings.save_text, table, vocab, export)
            return vocab, report, corpus, table, t_trained

        trained = ops.run("train", train_run)
    t_eval = clock()

    def load():
        index = tracer.call("embeddings.load", embeddings.load_embeddings, export if spec.train else files["embeddings"])
        gold = tracer.call("categorize.load_gold", categorize.load_gold, files["gold"])
        pairs = tracer.call("relatedness.load", relatedness.load_relatedness, files["relatedness"])
        return index, gold, pairs

    if trained or spec.train is None:
        loaded = ops.run("load", load)
    else:
        loaded = None
        ops.fail("load", "not run: training failed")
    t_loaded = clock()
    rss_before = max_rss_mb()
    cat_report = rel_report = None
    if loaded:
        index, gold, pairs = loaded
        cat_report = ops.run("categorize", lambda: tracer.call(
            "categorize.run", categorize.run_categorization, index, gold, method="both", seed=seed))
        rss_after = max_rss_mb()
        rel_report = ops.run("relatedness", lambda: tracer.call(
            "relatedness.run", relatedness.run_relatedness, index, pairs))
    else:
        ops.fail("categorize", "not run: its inputs did not load")
        ops.fail("relatedness", "not run: its inputs did not load")
    t_end = clock()

    quality = {}
    if cat_report:
        quality["nn_purity"] = cat_report["nn"]["purity"]
        quality["cluster_purity"] = cat_report["cluster"]["purity"]
    if rel_report:
        quality["spearman_rho"] = rel_report["spearman"]

    # ---- output checks ------------------------------------------------------
    def needs(value, what):
        if value is None:
            raise RuntimeError(f"no {what} to check")
        return value

    if spec.train is not None:
        def rows():
            vocab, index = needs(trained, "training run")[0], needs(loaded, "export")[0]
            want = vocab.n_entities + vocab.n_categories
            return None if index.n_rows == want else f"export has {index.n_rows} rows, want {want}"

        def roundtrip():
            vocab, _report, _corpus, table, _t = needs(trained, "training run")
            index = needs(loaded, "export")[0]
            if index.ent_labels != vocab.entity_labels() or index.cat_labels != vocab.category_labels():
                return "export rows are not in vocabulary order"
            for name, got, want in (("entity", index.ent_vecs, table.ent_in), ("category", index.cat_vecs, table.cat_in)):
                # 6 significant digits: each value within half a unit of its 6th digit
                if not np.all(np.abs(got - want) <= 5e-6 * (1 + 1e-9) * np.abs(want)):
                    return f"re-loaded {name} vectors differ from the trained table beyond 6 significant digits"
            return None

        def weights():
            offsets, _ids, ws = needs(captured.get("weights"), "weight arrays")
            if np.any(ws <= 0):
                return "non-positive HCE weight"
            starts = offsets[:-1][np.diff(offsets) > 0]
            sums = np.add.reduceat(ws, starts) if len(starts) else np.empty(0)
            worst = float(np.max(np.abs(sums - 1.0))) if len(sums) else 0.0
            return None if worst <= hierarchy.WEIGHT_SUM_TOL else f"an HCE weight slice sums to 1 {worst:+.3g}"

        ops.check("embedding_rows", rows)
        ops.check("export_roundtrip", roundtrip)
        ops.check("hce_weights", weights)
    else:
        def rows():
            index = needs(loaded, "embedding")[0]
            if (index.n_rows, index.dim) == (EVAL_ROWS, EVAL_DIM):
                return None
            return f"loaded {index.n_rows} rows of dim {index.dim}, want {EVAL_ROWS} of dim {EVAL_DIM}"

        ops.check("embedding_rows", rows)

    def finite():
        index = needs(loaded, "embedding")[0]
        ok = np.isfinite(index.ent_vecs).all() and np.isfinite(index.cat_vecs).all()
        return None if ok else "non-finite embedding values"

    ops.check("embedding_finite", finite)
    floors = chance_floors(loaded, rel_report)
    for metric, floor in floors.items():
        def above(metric=metric, floor=floor):
            value = needs(quality.get(metric), metric)
            return None if value > floor else f"{metric} {value:.4f} is not above its chance floor {floor:.4f}"

        ops.check(f"{metric}_floor", above)

    if traced:
        required = EVAL_LAYERS + (TRAIN_LAYERS if spec.train is not None else ())
        missing = [name for name in required if not tracer.durations(name)]
        ops.check("trace_wiring", lambda: f"no calls recorded for {', '.join(missing)}" if missing else None)

    # ---- end-to-end figures -------------------------------------------------
    e2e: dict = dict(quality, peak_rss_mb=max_rss_mb())
    if cat_report and rel_report:
        e2e["eval_s"] = t_end - t_eval
        e2e["total_s"] = t_end - t0
    if spec.train is None:
        if loaded:
            e2e["setup_s"] = t_loaded - t0
    elif trained and chunks:
        t_trained = trained[4]
        first_t, first = chunks[0]
        e2e["setup_s"] = first_t - t0
        e2e["train_s"] = t_eval - t0
        sgd_s = t_trained - first_t
        e2e["sgd_pairs_per_s"] = (chunks[-1][1].pairs_done - first.pairs_done) / sgd_s if sgd_s > 0 else 0.0

    export_bytes = export.stat().st_size if export.exists() else 0
    export.unlink(missing_ok=True)
    out = {
        "ops": ops.outcomes,
        "errors": ops.errors,
        "e2e": e2e,
        "floors": floors,
        "manifest": {
            "backend": kernels.BACKEND,
            "numba_imported": kernels.train_chunk_numba is not None,
            "numba_installed": importlib.util.find_spec("numba") is not None,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
    }
    if traced:
        out["layers"] = layer_metrics(tracer, trained, loaded, cat_report, rel_report, chunks, export_bytes,
                                      files, rss_after - rss_before if cat_report else 0.0)
        out["spans"] = [[s.name, s.start, s.end, s.parent, s.run] for s in tracer.spans]
    return out


def layer_metrics(tracer: Tracer, trained, loaded, cat_report, rel_report, chunks, export_bytes, files, rss_growth) -> dict:
    """Per-layer figures of one traced pass. Layers a workload leaves idle read 0."""
    c = tracer.counts
    kernel_ms = np.array(tracer.durations("kernels.train_chunk")) * 1e3
    kernel_s = float(kernel_ms.sum()) / 1e3
    weight_s = tracer.total("hierarchy.weight_csr")
    agglomerative = tracer.durations("categorize.agglomerative")
    out = {
        "corpus.build_vocabulary_s": tracer.total("corpus.build_vocabulary"),
        "corpus.load_hierarchy_s": tracer.total("corpus.load_hierarchy"),
        "corpus.prune_to_dag_s": tracer.total("corpus.prune_to_dag"),
        "corpus.load_corpus_s": tracer.total("corpus.load_corpus"),
        "corpus.documents": 0, "corpus.pairs": 0, "corpus.entities": 0, "corpus.categories": 0,
        "corpus.edges_out": 0, "corpus.back_edges": 0,
        "corpus.input_bytes": sum(p.stat().st_size for p in files.values() if p.exists()),
        "hierarchy.weight_csr_s": weight_s,
        "hierarchy.weighted_entities": c["hierarchy.weighted_entities"],
        "hierarchy.weight_nnz": c["hierarchy.weight_nnz"],
        "hierarchy.us_per_entity": 1e6 * weight_s / c["hierarchy.weighted_entities"] if c["hierarchy.weighted_entities"] else 0.0,
        "sampler.pairs_arrays_s": tracer.total("sampler.pairs_arrays"),
        "sampler.draw_negatives_s": tracer.total("sampler.draw_negatives"),
        "sampler.negatives_drawn": c["sampler.negatives_drawn"],
        "kernels.train_chunk_s": kernel_s,
        "kernels.calls": c["kernels.calls"],
        "kernels.pairs": c["kernels.pairs"],
        "kernels.pairs_per_s": c["kernels.pairs"] / kernel_s if kernel_s else 0.0,
        "kernels.chunk_ms_p50": float(np.percentile(kernel_ms, 50)) if len(kernel_ms) else 0.0,
        "kernels.chunk_ms_p95": float(np.percentile(kernel_ms, 95)) if len(kernel_ms) else 0.0,
        "kernels.mean_fan_in": c["kernels.fan_in"] / c["kernels.pairs"] if c["kernels.pairs"] else 0.0,
        "kernels.flops_computed": c["kernels.flops"],
        "kernels.bytes_computed": c["kernels.bytes"],
        "kernels.gflops_computed": c["kernels.flops"] / kernel_s / 1e9 if kernel_s else 0.0,
        "kernels.flops_per_byte": c["kernels.flops"] / c["kernels.bytes"] if c["kernels.bytes"] else 0.0,
        "trainer.train_s": tracer.total("trainer.train"),
        "trainer.self_s": tracer.self_time("trainer.train"),
        "trainer.chunks": len(chunks),
        "trainer.last_epoch_loss_per_pair": 0.0,
        "embeddings.save_text_s": tracer.total("embeddings.save_text"),
        "embeddings.bytes_written": export_bytes,
        "embeddings.load_s": tracer.total("embeddings.load"),
        "embeddings.rows_loaded": loaded[0].n_rows if loaded else 0,
        "embeddings.bytes_read": export_bytes or (files["embeddings"].stat().st_size if files["embeddings"].exists() else 0),
        "categorize.run_s": tracer.total("categorize.run"),
        "categorize.kmeans_s": tracer.total("categorize.kmeans"),
        "categorize.agglomerative_s": sum(agglomerative),
        "categorize.agglomerative_max_call_s": max(agglomerative, default=0.0),
        "categorize.nn_s": tracer.total("categorize.nn_classify"),
        "categorize.self_s": tracer.self_time("categorize.run"),
        "categorize.n_scored": cat_report["n_scored"] if cat_report else 0,
        "categorize.rss_growth_mb": rss_growth,
        "relatedness.run_s": tracer.total("relatedness.run"),
        "relatedness.mapped_ratio": rel_report["n_mapped"] / rel_report["n_pairs"] if rel_report else 0.0,
    }
    if trained:
        vocab, report, corpus, _table, _t = trained
        out.update({
            "corpus.documents": len(corpus), "corpus.pairs": corpus.n_pairs,
            "corpus.entities": vocab.n_entities, "corpus.categories": vocab.n_categories,
            "corpus.edges_out": report.edges_out, "corpus.back_edges": report.back_edges,
        })
    if chunks:
        last = chunks[-1][1].epoch
        done = [0] + [s.pairs_done for _t, s in chunks]
        sizes = np.diff(done)
        in_last = np.array([s.epoch == last for _t, s in chunks])
        losses = np.array([s.loss_per_pair for _t, s in chunks])
        out["trainer.last_epoch_loss_per_pair"] = float((losses * sizes)[in_last].sum() / sizes[in_last].sum())
    return out


def main(argv: list[str]) -> int:
    workload, in_dir, seed, trace, result_path = argv
    import_package(Path.cwd())
    result = run_pass(workload, Path(in_dir), int(seed), trace == "1")
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
