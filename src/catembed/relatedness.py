"""Semantic relatedness: embedding similarity vs human scores, Spearman's rho.

Words map to embedding rows with :meth:`Vocabulary.row`: exact label
match (case-insensitive, spaces and underscores interchangeable), entities
first and categories as fallback. A pair's score is the cosine of its two rows.
No fuzzy or lexical-variant matching: a word that only exists in another
inflection stays unmapped and its pairs are dropped from scoring, mirroring
how such pairs are filtered out of the benchmark datasets.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import normalize_label, records
from .embeddings import EmbeddingIndex, unit_rows
from .errors import EvalError, FormatError


@dataclass
class RelatednessPair:
    word1: str
    word2: str
    score: float  # human judgment in [0, 10]


def load_relatedness(path: str | Path) -> list[RelatednessPair]:
    path = Path(path)
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
        key = frozenset((normalize_label(w1), normalize_label(w2)))  # the folding word lookups use
        if key in seen:
            raise FormatError(f"duplicate pair ({w1!r}, {w2!r})", name, lineno)
        seen.add(key)
        pairs.append(RelatednessPair(w1, w2, score))
    if not pairs:
        raise EvalError(f"relatedness dataset {path} is empty")
    return pairs


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """Fractional ranks (1-based); tied values share the mean of their positions."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2)[inverse]


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


def run_relatedness(index: EmbeddingIndex, pairs: list[RelatednessPair]) -> dict:
    """Map each pair's words, score the survivors, and correlate with humans.

    Pairs with any unmapped word are dropped and counted. The mapped pairs'
    rows are gathered in pair order, scaled by :func:`unit_rows` and scored
    in one row-wise dot; a zero row is refused, the first in pair order
    named. Needs at least two surviving pairs.
    """
    def mapping(row: int | None) -> str:
        return "unmapped" if row is None else "entity" if row < index.n_entities else "category"

    outcomes: list[dict] = []
    mapped: list[dict] = []  # the outcomes of the pairs with both words mapped
    rows: list[int] = []  # their two rows each, in pair order
    for pair in pairs:
        row1, row2 = index.row(pair.word1), index.row(pair.word2)
        outcomes.append({
            "word1": pair.word1,
            "word2": pair.word2,
            "human": pair.score,
            "mapping1": mapping(row1),
            "mapping2": mapping(row2),
        })
        if row1 is not None and row2 is not None:
            mapped.append(outcomes[-1])
            rows += [row1, row2]
    unit, zero = unit_rows(index.vecs[rows])
    if zero.any():
        first = int(np.argmax(zero))
        word = mapped[first // 2][("word1", "word2")[first % 2]]
        raise EvalError(f"word {word!r} maps to row {index.label(rows[first])!r}, a zero vector: cosine undefined")
    n_mapped = len(mapped)
    if n_mapped < 2:
        raise EvalError(f"only {n_mapped} pairs mapped; need at least 2 to correlate")
    model_scores = np.einsum("ij,ij->i", unit[0::2], unit[1::2])
    for outcome, score in zip(mapped, model_scores.tolist()):
        outcome["model"] = score
    rho = spearman(model_scores, [outcome["human"] for outcome in mapped])
    return {
        "n_pairs": len(pairs),
        "n_mapped": n_mapped,
        "n_unmapped": len(pairs) - n_mapped,
        "spearman": rho,
        "pairs": outcomes,
    }
