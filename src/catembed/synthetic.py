"""Seeded synthetic worlds: a small category tree, entities, and documents.

The world comes from the run's config (``cli.RunConfig``). The tree is two
levels deep: root -> ``parents`` branches -> ``leaves_per_parent`` leaf
categories each. Each leaf owns ``entities_per_leaf`` entities; documents pick
a target entity and draw contexts from the target's own leaf with probability
``p_in`` (else uniformly from the other leaves). With ``p_in=1.0`` every
context shares the target's leaf. Everything is deterministic given the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .cli import RunConfig


@dataclass
class SyntheticWorld:
    corpus_path: Path
    hierarchy_path: Path
    gold_path: Path
    root_label: str
    leaf_labels: list[str]
    entity_labels: list[str]


def generate_world(out_dir: str | Path, cfg: RunConfig) -> SyntheticWorld:
    """Write corpus.tsv, hierarchy.tsv and gold.tsv into ``out_dir``, after ``cfg.validate()``."""
    cfg.validate()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(cfg.seed)

    root = "root"
    parent_labels = [f"p{i}" for i in range(cfg.parents)]
    leaf_labels: list[str] = []
    leaf_parent: list[int] = []
    for i in range(cfg.parents):
        for j in range(cfg.leaves_per_parent):
            leaf_labels.append(f"p{i}_l{j}")
            leaf_parent.append(i)

    # leaf i owns the contiguous entity ids [i * per_leaf, (i + 1) * per_leaf)
    per_leaf = cfg.entities_per_leaf
    entity_labels = [f"{leaf}_e{e:02d}" for leaf in leaf_labels for e in range(per_leaf)]

    hierarchy_path = out / "hierarchy.tsv"
    with hierarchy_path.open("w", encoding="utf-8") as fh:
        for label in parent_labels:
            fh.write(f"{root}\t{label}\n")
        for leaf, parent in zip(leaf_labels, leaf_parent):
            fh.write(f"{parent_labels[parent]}\t{leaf}\n")

    corpus_path = out / "corpus.tsv"
    n_entities = len(entity_labels)
    with corpus_path.open("w", encoding="utf-8") as fh:
        for _ in range(cfg.docs):
            target = int(rng.integers(n_entities))
            leaf = target // per_leaf
            first = leaf * per_leaf
            contexts = []
            for _c in range(cfg.contexts_per_doc):
                # draw the j-th entity of the same leaf but the target, or of
                # the other leaves, skipping over the excluded id or block
                if rng.random() < cfg.p_in:
                    j = first + int(rng.integers(per_leaf - 1))
                    contexts.append(j + (j >= target))
                else:
                    j = int(rng.integers(n_entities - per_leaf))
                    contexts.append(j + per_leaf * (j >= first))
            fh.write(
                f"{entity_labels[target]}\t{leaf_labels[leaf]}\t"
                + " ".join(entity_labels[c] for c in contexts)
                + "\n"
            )

    gold_path = out / "gold.tsv"
    with gold_path.open("w", encoding="utf-8") as fh:
        for i, ent in enumerate(entity_labels):
            fh.write(f"{ent}\t{leaf_labels[i // per_leaf]}\n")

    return SyntheticWorld(
        corpus_path=corpus_path,
        hierarchy_path=hierarchy_path,
        gold_path=gold_path,
        root_label=root,
        leaf_labels=leaf_labels,
        entity_labels=entity_labels,
    )
