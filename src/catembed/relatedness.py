"""Semantic relatedness: embedding similarity vs human scores, Spearman's rho.

Words map to embedding rows by exact label match (case-insensitive, spaces
and underscores interchangeable), entities first and categories as fallback.
No fuzzy or lexical-variant matching: a word that only exists in another
inflection stays unmapped and its pairs are dropped from scoring, mirroring
how such pairs are filtered out of the benchmark datasets.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import NodeId, NodeKind, records
from .embeddings import scaled_norm
from .errors import EvalError, FormatError


@dataclass
class RelatednessPair:
    word1: str
    word2: str
    score: float  # human judgment in [0, 10]


def load_relatedness(path: str | Path) -> list[RelatednessPair]:
    path = Path(path)
    if not path.exists():
        raise EvalError(f"relatedness dataset not found: {path}")
    pairs: list[RelatednessPair] = []
    seen: set[frozenset[str]] = set()
    for name, lineno, (w1, w2, raw_score) in records(path, ("word1", "word2", "score")):
        w1, w2 = w1.strip(), w2.strip()
        try:
            score = float(raw_score)
        except ValueError:
            raise FormatError(f"bad score {raw_score!r}", name, lineno) from None
        if not w1 or not w2:
            raise FormatError("empty word", name, lineno)
        if not (0.0 <= score <= 10.0):
            raise FormatError(f"score {score} outside [0, 10]", name, lineno)
        key = frozenset((w1.lower(), w2.lower()))
        if key in seen:
            raise FormatError(f"duplicate pair ({w1!r}, {w2!r})", name, lineno)
        seen.add(key)
        pairs.append(RelatednessPair(w1, w2, score))
    if not pairs:
        raise EvalError(f"relatedness dataset {path} is empty")
    return pairs


def map_word_to_node(word: str, resolver) -> NodeId | None:
    """Resolve a word to an entity row, falling back to a category row.

    ``resolver`` is anything with ``match_entity``/``match_category`` (a
    Vocabulary or an EmbeddingIndex). Returns None when unmapped.
    """
    idx = resolver.match_entity(word)
    if idx is not None:
        return NodeId(NodeKind.ENTITY, idx)
    idx = resolver.match_category(word)
    if idx is not None:
        return NodeId(NodeKind.CATEGORY, idx)
    return None


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    a, na = scaled_norm(a)
    b, nb = scaled_norm(b)
    if na == 0.0 or nb == 0.0:
        raise EvalError("cosine similarity undefined for a zero vector")
    return float(a @ b) / float(na * nb)


def relatedness_score(index, a: NodeId, b: NodeId) -> float:
    """Cosine similarity of the two nodes' input vectors; symmetric."""
    return cosine(index.vector(a), index.vector(b))


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """Fractional ranks (1-based); tied values share the mean of their positions."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=np.float64)
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def spearman(xs, ys) -> float:
    """Spearman's rank correlation: the Pearson correlation of average ranks.

    Exact with or without ties; without ties it equals the closed form
    1 - 6*sum(d^2)/(n(n^2-1)).
    """
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise EvalError("spearman needs two equal-length 1-d score lists")
    n = len(x)
    if n < 2:
        raise EvalError(f"spearman needs at least 2 pairs, got {n}")
    if np.all(x == x[0]) or np.all(y == y[0]):
        raise EvalError("spearman undefined for constant scores")
    rx = _average_ranks(x)
    ry = _average_ranks(y)
    rx -= rx.mean()
    ry -= ry.mean()
    return float((rx @ ry) / np.sqrt((rx @ rx) * (ry @ ry)))


def run_relatedness(index, pairs: list[RelatednessPair]) -> dict:
    """Map each pair's words, score the survivors, and correlate with humans.

    Pairs with any unmapped word are dropped and counted; needs at least two
    surviving pairs.
    """
    outcomes: list[dict] = []
    model_scores: list[float] = []
    human_scores: list[float] = []
    n_mapped = 0
    for pair in pairs:
        node1 = map_word_to_node(pair.word1, index)
        node2 = map_word_to_node(pair.word2, index)
        outcome = {
            "word1": pair.word1,
            "word2": pair.word2,
            "human": pair.score,
            "mapping1": node1.kind.name.lower() if node1 else "unmapped",
            "mapping2": node2.kind.name.lower() if node2 else "unmapped",
        }
        if node1 is not None and node2 is not None:
            score = relatedness_score(index, node1, node2)
            outcome["model"] = score
            model_scores.append(score)
            human_scores.append(pair.score)
            n_mapped += 1
        outcomes.append(outcome)
    if n_mapped < 2:
        raise EvalError(f"only {n_mapped} pairs mapped; need at least 2 to correlate")
    rho = spearman(model_scores, human_scores)
    return {
        "n_pairs": len(pairs),
        "n_mapped": n_mapped,
        "n_unmapped": len(pairs) - n_mapped,
        "spearman": rho,
        "pairs": outcomes,
    }
