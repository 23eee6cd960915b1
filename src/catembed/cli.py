"""Command-line entry point.

Subcommands: build-vocab, train, eval-categorize, eval-relatedness,
neighbors, inspect-weights, gen-synthetic. Options can come from a
``key=value`` config file (``--config``); explicit flags override file
values, and every command that writes an output directory echoes its
effective configuration there as ``config.echo`` so a run can be reproduced
from its own outputs: ``train --config run/config.echo`` retrains the same
embedding, and ``gen-synthetic --config world/config.echo`` rewrites the same
world. ``RunConfig`` holds every option of a run, the synthetic world's too,
and each command checks all of its values before it writes a file.
"""

from __future__ import annotations

import argparse
import importlib.resources
import json
import logging
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import categorize, embeddings, hierarchy, kernels, relatedness, synthetic, trainer
from .corpus import build_vocabulary, load_corpus, load_hierarchy, prune_to_dag, read_lines
from .errors import CatembedError, ConfigError

log = logging.getLogger("catembed")

ECHO_NAME = "config.echo"


@dataclass
class RunConfig(trainer.TrainConfig):
    """Every option of a run: the training hyperparameters, paths, pruning options and the gen-synthetic world."""

    corpus: str = ""
    hierarchy: str = ""
    embeddings: str = ""
    gold: str = ""
    dataset: str = ""
    output: str = "out"
    root: str = "root"
    drop_patterns: list[str] = field(default_factory=list)
    min_count: int = 1
    verbosity: int = 1
    # the gen-synthetic world; its seed is the run's seed
    parents: int = 3
    leaves_per_parent: int = 1
    entities_per_leaf: int = 10
    docs: int = 200
    contexts_per_doc: int = 20
    p_in: float = 0.9

    def validate(self) -> None:
        """Check every value, so each command refuses a bad one before it writes a file."""
        super().validate()
        _require(self, "output")
        if self.min_count < 1:
            raise ConfigError(f"min_count must be >= 1, got {self.min_count}")
        if self.verbosity < 0:
            raise ConfigError(f"verbosity must be >= 0, got {self.verbosity}")
        if self.parents < 1 or self.leaves_per_parent < 1:
            raise ConfigError("need at least one parent and one leaf per parent")
        if self.entities_per_leaf < 2:
            raise ConfigError("need at least 2 entities per leaf (contexts exclude the target)")
        if self.docs < 1 or self.contexts_per_doc < 1:
            raise ConfigError("need at least one document and one context per document")
        if not (0.0 <= self.p_in <= 1.0):
            raise ConfigError(f"p_in must be in [0, 1], got {self.p_in}")
        if self.parents * self.leaves_per_parent < 2:
            raise ConfigError("need at least 2 leaves for cross-leaf contexts")
        for name, typ in _FIELD_TYPES.items():
            value = getattr(self, name)
            text = _show(value)
            try:  # load_config_file reads the value back from one line, stripped
                if "".join(text.splitlines()) == text and _coerce(text.strip(), typ) == value:
                    continue
            except ValueError:  # a value of another type than its field's
                pass
            raise ConfigError(f"{name}={value!r} cannot be written to {ECHO_NAME} and read back unchanged")


# Field annotations are strings (postponed evaluation); map them to parsers.
_PARSERS = {"str": str, "int": int, "float": float, "float | None": float, "bool": bool, "list[str]": list[str]}
# The parser of each RunConfig field; config files and command-line flags both read values with it.
_FIELD_TYPES = {f.name: _PARSERS[f.type] for f in fields(RunConfig)}


def _coerce(raw: str, typ) -> object:
    if typ == bool:
        low = raw.strip().lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ValueError(raw)
    if typ in (int, float):
        return typ(raw)
    if typ == list[str]:
        return [p for p in (s.strip() for s in raw.split(",")) if p]
    return raw


def _show(value) -> str:
    """The text of a value in config.echo: the inverse of ``_coerce``."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return ",".join(value) if isinstance(value, list) else str(value)


def load_config_file(path: str | Path) -> dict:
    path = Path(path)
    values: dict = {}
    _, lines = read_lines(path)
    for lineno, line in enumerate(lines, 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _FIELD_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown option {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate option {key!r}")
        try:
            values[key] = _coerce(raw.strip(), _FIELD_TYPES[key])
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {raw.strip()!r}") from None
    return values


def effective_config(args: argparse.Namespace) -> RunConfig:
    """Config file values overridden by explicit flags, validated before any command writes a file.

    Built in one step, so ``TrainConfig`` derives an unset ``lr_min`` from the final ``lr0``.
    """
    values = load_config_file(args.config) if args.config else {}
    # flags use SUPPRESS, so present means explicitly given
    values.update((key, value) for key, value in vars(args).items() if key in _FIELD_TYPES)
    cfg = RunConfig(**values)
    cfg.validate()
    return cfg


def echo_config(cfg: RunConfig, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = [f"{name}={_show(getattr(cfg, name))}" for name in _FIELD_TYPES]
    (out_dir / ECHO_NAME).write_text("\n".join(lines) + "\n", encoding="utf-8")


def dota_gold_path() -> Path:
    """Bundled 450-concept / 15-category categorization fixture."""
    return Path(str(importlib.resources.files("catembed").joinpath("data", "dota.tsv")))


def _require(cfg: RunConfig, *names: str) -> None:
    for name in names:
        if not getattr(cfg, name):
            raise ConfigError(f"missing --{name} path")


def _build_pipeline(cfg: RunConfig):
    _require(cfg, "corpus", "hierarchy")
    vocab = build_vocabulary(cfg.corpus, min_count=cfg.min_count)
    raw = load_hierarchy(cfg.hierarchy, vocab)
    graph, report = prune_to_dag(raw, vocab, cfg.root, cfg.drop_patterns)
    log.info("%s", report)
    corpus = load_corpus(cfg.corpus, vocab, graph)
    if corpus.skipped_documents or corpus.dropped_contexts or corpus.dropped_labels:
        log.info(
            "corpus filtering: %d documents skipped, %d contexts dropped, %d labels dropped",
            corpus.skipped_documents, corpus.dropped_contexts, corpus.dropped_labels,
        )
    log.info(
        "corpus: %d documents, %d pairs, %d entities, %d categories",
        len(corpus), corpus.n_pairs, vocab.n_entities, vocab.n_categories,
    )
    return vocab, graph, corpus


def cmd_build_vocab(cfg: RunConfig, args: argparse.Namespace) -> int:
    _require(cfg, "corpus")
    vocab = build_vocabulary(cfg.corpus, min_count=cfg.min_count)
    out_dir = Path(cfg.output)
    echo_config(cfg, out_dir)
    counts = vocab.entity_counts().tolist() + [0] * vocab.n_categories
    with (out_dir / "vocab.tsv").open("w", encoding="utf-8") as fh:
        for row, count in enumerate(counts):
            fh.write(f"{vocab.label(row)}\t{count}\n")
    log.info("wrote %s (%d entities, %d categories)", out_dir / "vocab.tsv", vocab.n_entities, vocab.n_categories)
    return 0


def cmd_train(cfg: RunConfig, args: argparse.Namespace) -> int:
    vocab, graph, corpus = _build_pipeline(cfg)
    embeddings.check_labels(vocab)

    # Progress is logged once per twentieth of the schedule, by the first chunk whose position reaches it.
    state = {"smoothed": None, "next_twentieth": 0}

    def on_chunk(stats: trainer.ChunkStats) -> None:
        prev = state["smoothed"]
        state["smoothed"] = stats.loss_per_pair if prev is None else 0.9 * prev + 0.1 * stats.loss_per_pair
        if 20 * stats.position >= state["next_twentieth"] * stats.total_pairs:
            state["next_twentieth"] = 20 * stats.position // stats.total_pairs + 1
            log.info(
                "epoch %d | lr %.5f at pair %d/%d | trained %d pairs | smoothed loss/pair %.4f",
                stats.epoch, stats.lr, stats.position, stats.total_pairs, stats.pairs_done, state["smoothed"],
            )

    log.info("training mode=%s dim=%d epochs=%d backend=%s", cfg.mode, cfg.dim, cfg.epochs, kernels.BACKEND)
    table = trainer.train(corpus, graph, cfg, on_chunk=on_chunk)
    out_dir = Path(cfg.output)  # created only once training succeeds
    echo_config(cfg, out_dir)
    out_path = out_dir / "embeddings.txt"
    embeddings.save_text(table, vocab, out_path)
    log.info("wrote %s (%d rows, dim %d)", out_path, vocab.n_rows, cfg.dim)
    return 0


def _write_report(report: dict, out_dir: Path, stem: str, text: str) -> None:
    (out_dir / f"{stem}.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    (out_dir / f"{stem}.txt").write_text(text, encoding="utf-8")


def _categorize_text(report: dict) -> str:
    lines = [
        f"gold concepts: {report['n_gold']} (scored {report['n_scored']}, unresolved {report['n_excluded']})",
        f"gold classes:  {report['n_classes']}",
    ]
    if report["excluded"]:
        lines.append("unresolved: " + ", ".join(report["excluded"]))
    if "cluster" in report:
        c = report["cluster"]
        p = c["best_params"]
        lines.append("")
        lines.append(f"clustering purity: {c['purity']:.4f}")
        lines.append(f"  best setting: {p['algorithm']} / {p['metric']}" + (f" / {p['linkage']}" if p["linkage"] else ""))
        for combo in c["sweep"]:
            link = f" / {combo['linkage']}" if combo["linkage"] else ""
            lines.append(f"    {combo['algorithm']} / {combo['metric']}{link}: {combo['purity']:.4f}")
        lines.extend(_misclassified_text(c["misclassified"]))
    if "nn" in report:
        nn = report["nn"]
        lines.append("")
        lines.append(f"nn-classification purity: {nn['purity']:.4f} (accuracy {nn['accuracy']:.4f})")
        if nn["missing_categories"]:
            lines.append("  categories without vectors: " + ", ".join(nn["missing_categories"]))
        lines.extend(_misclassified_text(nn["misclassified"]))
    return "\n".join(lines) + "\n"


def _misclassified_text(by_predicted: dict) -> list[str]:
    if not by_predicted:
        return ["  misclassified: none"]
    lines = ["  misclassified (grouped by predicted category):"]
    for cat in sorted(by_predicted):
        items = ", ".join(f"{m['entity']} (gold: {m['gold']})" for m in by_predicted[cat])
        lines.append(f"    {cat}: {items}")
    return lines


def cmd_eval_categorize(cfg: RunConfig, args: argparse.Namespace) -> int:
    _require(cfg, "embeddings")
    index = embeddings.load_embeddings(cfg.embeddings)
    gold_path = Path(cfg.gold) if cfg.gold else dota_gold_path()
    gold = categorize.load_gold(gold_path)
    log.info("gold file %s: %d concepts, %d classes", gold_path, len(gold), gold.n_classes)
    report = categorize.run_categorization(index, gold, method=args.method, seed=cfg.seed)
    out_dir = Path(cfg.output)
    echo_config(cfg, out_dir)
    text = _categorize_text(report)
    _write_report(report, out_dir, "categorize_report", text)
    print(text, end="")
    return 0


def cmd_eval_relatedness(cfg: RunConfig, args: argparse.Namespace) -> int:
    _require(cfg, "embeddings", "dataset")
    index = embeddings.load_embeddings(cfg.embeddings)
    pairs = relatedness.load_relatedness(cfg.dataset)
    report = relatedness.run_relatedness(index, pairs)
    text = (
        f"pairs: {report['n_pairs']} (mapped {report['n_mapped']}, dropped {report['n_unmapped']})\n"
        f"spearman rho: {report['spearman']:.4f}\n"
    )
    out_dir = Path(cfg.output)
    echo_config(cfg, out_dir)
    _write_report(report, out_dir, "relatedness_report", text)
    print(text, end="")
    return 0


def cmd_neighbors(cfg: RunConfig, args: argparse.Namespace) -> int:
    _require(cfg, "embeddings")
    if args.top_n < 1:
        raise ConfigError(f"--top-n must be >= 1, got {args.top_n}")
    index = embeddings.load_embeddings(cfg.embeddings)
    row = index.row(args.label)
    if row is None:
        raise CatembedError(f"label {args.label!r} not found in the embedding")
    unit, zero = embeddings.unit_rows(index.vecs)
    if zero[row]:
        raise CatembedError(f"label {args.label!r} has a zero vector")
    sims = unit @ unit[row]
    sims[row] = -np.inf
    top = np.argsort(-sims, kind="stable")[: min(args.top_n, index.n_rows - 1)]
    for i in top:
        print(f"{index.label(i)}\t{sims[i]:.4f}")
    return 0


def cmd_inspect_weights(cfg: RunConfig, args: argparse.Namespace) -> int:
    vocab, graph, corpus = _build_pipeline(cfg)
    ent = vocab.match_entity(args.entity)
    if ent is None:
        raise CatembedError(f"entity {args.entity!r} not in vocabulary")
    direct = corpus.entity_categories.get(ent)
    if not direct:
        raise CatembedError(f"entity {args.entity!r} has no category labeling")
    steps = hierarchy.steps_down(graph, direct)
    _, cats, ws = hierarchy.weight_csr(graph, {0: direct}, [vocab.entity_label(ent)], cfg.mode)
    print(f"# entity {vocab.entity_label(ent)} mode={cfg.mode}")
    for cat, w in zip(cats.tolist(), ws.tolist()):
        marker = "direct" if cat in direct else "ancestor"
        # steps has no root key; the root can be a direct category in ce mode
        print(f"{vocab.label(vocab.n_entities + cat)}\t{w:.6f}\tavg_steps={steps.get(cat, 0.0):.3f}\t{marker}")
    return 0


def cmd_gen_synthetic(cfg: RunConfig, args: argparse.Namespace) -> int:
    world = synthetic.generate_world(cfg.output, cfg)
    echo_config(cfg, Path(cfg.output))
    log.info(
        "synthetic world in %s: %d leaves, %d entities, %d docs",
        cfg.output, len(world.leaf_labels), len(world.entity_labels), cfg.docs,
    )
    print(world.corpus_path)
    print(world.hierarchy_path)
    print(world.gold_path)
    return 0


# The help text of each flag; its type comes from its RunConfig field.
_FLAG_HELP = {
    "corpus": "corpus file (target<TAB>cats<TAB>contexts)",
    "hierarchy": "hierarchy edge file (parent<TAB>child)",
    "embeddings": "embedding export to evaluate",
    "gold": "gold file (entity<TAB>category); default: bundled fixture",
    "dataset": "relatedness file (word1<TAB>word2<TAB>score)",
    "output": "output directory",
    "root": "root category label",
    "drop_patterns": "drop categories whose label contains this substring (repeatable)",
    "min_count": "exclude entities seen fewer times than this",
    "verbosity": "0=warnings, 1=info, 2=debug",
    "dim": "embedding dimensionality",
    "epochs": "passes over the pair stream",
    "lr0": "initial learning rate",
    "lr_min": "learning-rate floor (default 1e-4 * lr0)",
    "negatives": "negative samples per group of same-target pairs, shared by its pairs",
    "chunk": "pairs per scheduling chunk (lr updates, progress)",
    "noise_alpha": "noise distribution exponent over entity counts",
    "seed": "RNG seed",
    "mode": "direct categories only (ce) or weighted ancestors (hce)",
    "shuffle": "shuffle document order each epoch",
    "subsample": "frequent-entity subsampling threshold; 0 disables",
    "parents": "branches under the root",
    "leaves_per_parent": "leaf categories under each branch",
    "entities_per_leaf": "entities in each leaf category",
    "docs": "documents to write",
    "contexts_per_doc": "contexts drawn for each document",
    "p_in": "probability a context comes from the target's own leaf",
}


def _add_config_flags(p: argparse.ArgumentParser, *names: str) -> None:
    p.add_argument("--config", default=None, help="key=value config file; flags override")
    for name in names:
        if _FIELD_TYPES[name] == bool:
            how = {"action": argparse.BooleanOptionalAction}
        elif _FIELD_TYPES[name] == list[str]:
            how = {"action": "append"}  # one pattern per flag; a config file separates them with ','
        else:
            how = {"type": _FIELD_TYPES[name]}
        flag = "--drop-pattern" if name == "drop_patterns" else "--" + name.replace("_", "-")
        p.add_argument(flag, dest=name, default=argparse.SUPPRESS, help=_FLAG_HELP[name], **how)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="catembed",
        description="Train and evaluate entity/category embeddings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-vocab", help="build and dump the vocabulary")
    _add_config_flags(p, "corpus", "min_count", "output", "verbosity")
    p.set_defaults(func=cmd_build_vocab)

    p = sub.add_parser("train", help="train embeddings over a corpus and hierarchy")
    _add_config_flags(
        p, "corpus", "hierarchy", "output", "root", "drop_patterns", "min_count",
        "dim", "epochs", "lr0", "lr_min", "negatives", "chunk", "noise_alpha",
        "seed", "mode", "shuffle", "subsample", "verbosity",
    )
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval-categorize", help="concept categorization (clustering / NN)")
    _add_config_flags(p, "embeddings", "gold", "output", "seed", "verbosity")
    p.add_argument("--method", choices=("cluster", "nn", "both"), default="both")
    p.set_defaults(func=cmd_eval_categorize)

    p = sub.add_parser("eval-relatedness", help="semantic relatedness (Spearman rho)")
    _add_config_flags(p, "embeddings", "dataset", "output", "verbosity")
    p.set_defaults(func=cmd_eval_relatedness)

    p = sub.add_parser("neighbors", help="nearest nodes by cosine similarity")
    _add_config_flags(p, "embeddings", "verbosity")
    p.add_argument("--label", required=True, help="entity or category label to query")
    p.add_argument("--top-n", dest="top_n", type=int, default=10)
    p.set_defaults(func=cmd_neighbors)

    p = sub.add_parser("inspect-weights", help="print the category weight table for an entity")
    _add_config_flags(p, "corpus", "hierarchy", "root", "drop_patterns", "min_count", "mode", "verbosity")
    p.add_argument("--entity", required=True)
    p.set_defaults(func=cmd_inspect_weights)

    p = sub.add_parser("gen-synthetic", help="generate a synthetic corpus/hierarchy/gold world")
    _add_config_flags(
        p, "output", "seed", "verbosity",
        "parents", "leaves_per_parent", "entities_per_leaf", "docs", "contexts_per_doc", "p_in",
    )
    p.set_defaults(func=cmd_gen_synthetic)

    return parser


class _StderrHandler(logging.StreamHandler):
    # read at each record, so a caller that swaps sys.stderr still gets the lines
    stream = property(lambda self: sys.stderr, lambda self, _: None)


_LOG_HANDLER = _StderrHandler()
_LOG_HANDLER.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = effective_config(args)  # the one RunConfig of this run
        log.addHandler(_LOG_HANDLER)  # once per process: a handler the logger has is not added again
        log.setLevel({0: logging.WARNING, 1: logging.INFO}.get(cfg.verbosity, logging.DEBUG))
        return args.func(cfg, args)
    except (CatembedError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print(f"error: out of memory in {args.command}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
