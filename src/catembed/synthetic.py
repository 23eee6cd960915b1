"""Seeded synthetic worlds: a small category tree, entities, and documents.

The tree is two levels deep: root -> parent branches -> leaf categories, with
a configurable number of parents and leaves per parent. Each leaf owns
``entities_per_leaf`` entities; documents pick a target entity and draw
contexts from the target's own leaf with probability ``p_in`` (else uniformly
from the other leaves). With ``p_in=1.0`` every context shares the target's
leaf. Everything is deterministic given the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError


@dataclass
class SyntheticSpec:
    parents: int = 3
    leaves_per_parent: int = 1
    entities_per_leaf: int = 10
    docs: int = 200
    contexts_per_doc: int = 20
    p_in: float = 0.9
    seed: int = 1

    def validate(self) -> None:
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


@dataclass
class SyntheticWorld:
    corpus_path: Path
    hierarchy_path: Path
    gold_path: Path
    root_label: str
    leaf_labels: list[str]
    parent_labels: list[str]
    entity_labels: list[str]


def generate_world(out_dir: str | Path, spec: SyntheticSpec) -> SyntheticWorld:
    """Write corpus.tsv, hierarchy.tsv and gold.tsv into ``out_dir``."""
    spec.validate()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(spec.seed)

    root = "root"
    parent_labels = [f"p{i}" for i in range(spec.parents)]
    leaf_labels: list[str] = []
    leaf_parent: list[int] = []
    for i in range(spec.parents):
        for j in range(spec.leaves_per_parent):
            leaf_labels.append(f"p{i}_l{j}")
            leaf_parent.append(i)

    # leaf i owns the contiguous entity ids [i * per_leaf, (i + 1) * per_leaf)
    per_leaf = spec.entities_per_leaf
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
        for _ in range(spec.docs):
            target = int(rng.integers(n_entities))
            leaf = target // per_leaf
            first = leaf * per_leaf
            contexts = []
            for _c in range(spec.contexts_per_doc):
                # draw the j-th entity of the same leaf but the target, or of
                # the other leaves, skipping over the excluded id or block
                if rng.random() < spec.p_in:
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
        parent_labels=parent_labels,
        entity_labels=entity_labels,
    )
