"""Seeded input generators for the benchmark workloads.

The generators live with the benchmark, not in ``catembed.synthetic``, so a
change to the package cannot change what the benchmark feeds it. Given a seed
every file they write is byte-identical. Each workload also fixes the training
settings the pipeline runs with.

* ``shallow-sgd``: a 2-level tree (6 parents x 4 leaves), 600 entities, 1200
  documents of 20 contexts, 3 epochs (72k pairs). Training is SGD-bound; the
  hierarchy is trivial (2 weighted categories per entity).
* ``deep-dag``: an 8-level DAG of 2.1k categories with locality-biased extra
  parents and 50 cycle-closing edges. 360 head entities have 1080 documents
  of 12 contexts; 1040 long-tail entities have one 3-context document each.
  Every entity carries 1-3 deep direct categories (~15 weighted categories),
  so the HCE weight precompute dominates set-up.
* ``eval-large``: no training. A planted 20k-row text embedding at dim 100
  with 500 gold concepts in 20 Gaussian classes and 2000 relatedness pairs,
  so loading and categorization dominate.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    train: dict | None  # TrainConfig fields, or None for an evaluation-only workload
    generate: Callable[[Path, int], "Inputs"]


@dataclass
class Inputs:
    files: dict[str, Path] = field(default_factory=dict)  # role -> path, named as in FILES
    rows: dict[str, int] = field(default_factory=dict)  # role -> records written

    def sizes(self) -> dict:
        return {
            role: {"rows": self.rows[role], "bytes": path.stat().st_size}
            for role, path in self.files.items()
        }


FILES = {
    "corpus": "corpus.tsv",
    "hierarchy": "hierarchy.tsv",
    "gold": "gold.tsv",
    "relatedness": "relatedness.tsv",
    "embeddings": "embeddings.txt",
}


def _write(inputs: Inputs, role: str, out: Path, lines: list[str]) -> None:
    path = out / FILES[role]
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    inputs.files[role] = path
    inputs.rows[role] = len(lines)


def _relatedness_lines(rng, labels: list[str], groups) -> list[str]:
    """Distinct word pairs, each group's pairs scored uniformly in its range.

    ``groups`` holds (count, (lo, hi), keep): ``keep(a, b)`` selects the
    index pairs that belong to the group among random candidates.
    """
    seen: set[frozenset] = set()
    lines: list[str] = []
    for count, (lo, hi), keep in groups:
        left, right = rng.integers(0, len(labels), (2, 200 * count))
        mask = keep(left, right) & (left != right)
        taken = 0
        for a, b in zip(left[mask].tolist(), right[mask].tolist()):
            if taken == count:
                break
            if frozenset((a, b)) not in seen:
                seen.add(frozenset((a, b)))
                lines.append(f"{labels[a]}\t{labels[b]}\t{rng.uniform(lo, hi):.2f}")
                taken += 1
    return lines


def gen_shallow_sgd(out: Path, seed: int) -> Inputs:
    rng = np.random.default_rng([seed, 1])
    parents, leaves, per_leaf, docs, ctx, p_in = 6, 4, 25, 1200, 20, 0.8
    n_leaf = parents * leaves
    n_ent = n_leaf * per_leaf
    leaf_labels = [f"p{p}_l{l}" for p in range(parents) for l in range(leaves)]
    ent_labels = [f"e{i:03d}" for i in range(n_ent)]
    leaf_of = np.arange(n_ent) // per_leaf
    inputs = Inputs()

    edges = [f"root\tp{p}" for p in range(parents)]
    edges += [f"p{i // leaves}\t{lab}" for i, lab in enumerate(leaf_labels)]
    _write(inputs, "hierarchy", out, edges)

    # every entity is a target equally often, so every entity gets an input vector
    targets = rng.permutation(np.resize(rng.permutation(n_ent), docs))
    in_leaf = leaf_of[targets][:, None] * per_leaf + (
        targets[:, None] % per_leaf + rng.integers(1, per_leaf, (docs, ctx))
    ) % per_leaf
    anywhere = rng.integers(0, n_ent, (docs, ctx))
    contexts = np.where(rng.random((docs, ctx)) < p_in, in_leaf, anywhere)
    _write(inputs, "corpus", out, [
        f"{ent_labels[t]}\t{leaf_labels[leaf_of[t]]}\t" + " ".join(ent_labels[c] for c in row)
        for t, row in zip(targets, contexts)
    ])

    gold = np.sort(rng.permutation(n_ent)[:450])
    _write(inputs, "gold", out, [f"{ent_labels[e]}\t{leaf_labels[leaf_of[e]]}" for e in gold])

    parent_of = leaf_of // leaves
    _write(inputs, "relatedness", out, _relatedness_lines(rng, ent_labels, [
        (200, (7.0, 10.0), lambda a, b: leaf_of[a] == leaf_of[b]),
        (100, (3.5, 6.5), lambda a, b: (leaf_of[a] != leaf_of[b]) & (parent_of[a] == parent_of[b])),
        (100, (0.0, 3.0), lambda a, b: parent_of[a] != parent_of[b]),
    ]))
    return inputs


DEEP_LEVELS = (6, 36, 60, 125, 225, 400, 600, 675)  # categories per level below the root


def gen_deep_dag(out: Path, seed: int) -> Inputs:
    rng = np.random.default_rng([seed, 2])
    inputs = Inputs()
    labels = [[f"c{lv}_{i:04d}" for i in range(n)] for lv, n in enumerate(DEEP_LEVELS, 1)]

    # Primary parents map each level onto contiguous blocks of the level above,
    # so the level-2 class of a node is its block. Extra parents sit a few
    # indices away (locality) and inside the same class: parents that cross
    # classes make whole classes swap level-2 neighbours from seed to seed,
    # which makes the quality figures unsteady.
    edges = [f"root\t{lab}" for lab in labels[0]]
    cls_of = [np.zeros(DEEP_LEVELS[0], dtype=np.int64), np.arange(DEEP_LEVELS[1])]
    primary = [None, np.arange(DEEP_LEVELS[1]) * DEEP_LEVELS[0] // DEEP_LEVELS[1]]
    for lv in range(2, len(DEEP_LEVELS)):
        n, n_up = DEEP_LEVELS[lv], DEEP_LEVELS[lv - 1]
        par = np.arange(n) * n_up // n
        primary.append(par)
        cls_of.append(cls_of[lv - 1][par])
    for lv in range(1, len(DEEP_LEVELS)):
        n, n_up = DEEP_LEVELS[lv], DEEP_LEVELS[lv - 1]
        extra = np.clip(primary[lv] + rng.choice([-2, -1, 1, 2], n), 0, n_up - 1)
        has_extra = (rng.random(n) < 0.8) & (extra != primary[lv]) & (cls_of[lv - 1][extra] == cls_of[lv])
        for i in range(n):
            edges.append(f"{labels[lv - 1][primary[lv][i]]}\t{labels[lv][i]}")
            if has_extra[i]:
                edges.append(f"{labels[lv - 1][extra[i]]}\t{labels[lv][i]}")
    # Cycle-closing edges: a deep node pointing back at an ancestor on its
    # primary chain, for prune_to_dag to cut.
    for _ in range(50):
        lv = int(rng.integers(4, len(DEEP_LEVELS)))
        node = int(rng.integers(DEEP_LEVELS[lv]))
        up, anc = lv, node
        for _ in range(int(rng.integers(2, lv))):
            anc = int(primary[up][anc])
            up -= 1
        edges.append(f"{labels[lv][node]}\t{labels[up][anc]}")
    _write(inputs, "hierarchy", out, edges)

    n_cls = DEEP_LEVELS[1]
    n_head, n_tail, head_docs, head_ctx, tail_ctx, p_in = 360, 1040, 1080, 12, 3, 0.9
    deep = (5, 6, 7)  # levels 6-8 below the root
    # Entities of one class draw their direct categories from three nodes per
    # level, so a class shares categories the way real category systems do.
    members = {lv: [rng.permutation(np.flatnonzero(cls_of[lv] == c))[:3] for c in range(n_cls)] for lv in deep}

    def direct_labels(cls: int) -> str:
        picks = []
        for _ in range(int(rng.integers(1, 4))):
            lv = deep[int(rng.integers(len(deep)))]
            pool = members[lv][cls]
            picks.append(labels[lv][int(pool[rng.integers(len(pool))])])
        return ",".join(dict.fromkeys(picks))

    head_cls = np.arange(n_head) % n_cls
    head_labels = [f"h{i:04d}" for i in range(n_head)]
    head_cats = [direct_labels(int(c)) for c in head_cls]
    tail_cls = rng.permutation(np.arange(n_tail) % n_cls)

    def contexts(cls: np.ndarray, target: np.ndarray, width: int) -> np.ndarray:
        # head entity h has class h % n_cls, so class members are cls + n_cls * j
        same = cls[:, None] + n_cls * rng.integers(0, n_head // n_cls, (len(cls), width))
        same = np.where(same == target[:, None], (same + n_cls) % n_head, same)
        anywhere = rng.integers(0, n_head, (len(cls), width))
        return np.where(rng.random((len(cls), width)) < p_in, same, anywhere)

    targets = rng.permutation(np.resize(np.arange(n_head), head_docs))
    head_ctx_ids = contexts(head_cls[targets], targets, head_ctx)
    lines = [
        f"{head_labels[t]}\t{head_cats[t]}\t" + " ".join(head_labels[c] for c in row)
        for t, row in zip(targets, head_ctx_ids)
    ]
    tail_ctx_ids = contexts(tail_cls, np.full(n_tail, -1), tail_ctx)
    lines += [
        f"t{i:04d}\t{direct_labels(int(c))}\t" + " ".join(head_labels[x] for x in row)
        for i, (c, row) in enumerate(zip(tail_cls, tail_ctx_ids))
    ]
    _write(inputs, "corpus", out, lines)

    gold = np.arange(n_head)
    _write(inputs, "gold", out, [f"{head_labels[h]}\t{labels[1][head_cls[h]]}" for h in gold])

    top_of = head_cls * DEEP_LEVELS[0] // n_cls  # level-1 ancestor of the class
    _write(inputs, "relatedness", out, _relatedness_lines(rng, head_labels, [
        (200, (7.0, 10.0), lambda a, b: head_cls[a] == head_cls[b]),
        (100, (3.5, 6.5), lambda a, b: (head_cls[a] != head_cls[b]) & (top_of[a] == top_of[b])),
        (100, (0.0, 3.0), lambda a, b: top_of[a] != top_of[b]),
    ]))
    return inputs


EVAL_DIM, EVAL_ROWS = 100, 20000  # shape of the planted embedding


def gen_eval_large(out: Path, seed: int) -> Inputs:
    rng = np.random.default_rng([seed, 3])
    dim, n_cls, n_gold, n_cat, sigma = EVAL_DIM, 20, 500, 1500, 1.7
    n_background = EVAL_ROWS - n_gold - n_cat
    inputs = Inputs()
    centers = rng.normal(0.0, 1.0, (n_cls, dim))
    gold_cls = np.arange(n_gold) % n_cls
    rng.shuffle(gold_cls)
    gold_vecs = centers[gold_cls] + rng.normal(0.0, sigma, (n_gold, dim))
    background = rng.normal(0.0, 1.0 + sigma, (n_background, dim))
    cat_vecs = np.vstack([centers + rng.normal(0.0, 0.1, centers.shape), rng.normal(0.0, 1.0, (n_cat - n_cls, dim))])
    gold_labels = [f"g{i:04d}" for i in range(n_gold)]
    cat_labels = [f"class_{i:02d}" for i in range(n_cls)] + [f"cat_{i:04d}" for i in range(n_cls, n_cat)]

    def rows(prefix, names, vecs):
        return [f"{prefix}{lab} " + " ".join(f"{x:.6g}" for x in vec) for lab, vec in zip(names, vecs)]

    lines = [f"{EVAL_ROWS} {dim}"]
    lines += rows("e:", gold_labels, gold_vecs)
    lines += rows("e:", (f"b{i:05d}" for i in range(n_background)), background)
    lines += rows("c:", cat_labels, cat_vecs)
    _write(inputs, "embeddings", out, lines)
    inputs.rows["embeddings"] = EVAL_ROWS

    _write(inputs, "gold", out, [f"{gold_labels[i]}\t{cat_labels[c]}" for i, c in enumerate(gold_cls)])
    _write(inputs, "relatedness", out, _relatedness_lines(rng, gold_labels, [
        (1000, (6.0, 10.0), lambda a, b: gold_cls[a] == gold_cls[b]),
        (1000, (0.0, 4.0), lambda a, b: gold_cls[a] != gold_cls[b]),
    ]))
    return inputs


_HCE = dict(mode="hce", dim=100, negatives=10, chunk=500, epochs=3, workers=1)

# Learning rates are raised above the package default so that the short
# training runs reach stable quality; quality that varies from seed to seed
# would hide a real quality loss.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("shallow-sgd", dict(_HCE, lr0=0.05), gen_shallow_sgd),
        Workload("deep-dag", dict(_HCE, lr0=0.1), gen_deep_dag),
        Workload("eval-large", None, gen_eval_large),
    )
}
