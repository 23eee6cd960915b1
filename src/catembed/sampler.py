"""Training-pair generation and unigram-power negative sampling."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .corpus import Corpus, Vocabulary
from .errors import SamplerError


def pairs_arrays(corpus: Corpus, doc_order: Sequence[int] | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(targets, contexts) int64 arrays: one pair per context occurrence, in document order."""
    order = np.arange(len(corpus))
    if doc_order is not None:
        order = order[np.asarray(doc_order, dtype=np.int64)]  # a negative index counts from the end, as in a list
    starts = corpus.ctx_offsets[order]
    lengths = corpus.ctx_offsets[order + 1] - starts
    targets = np.repeat(corpus.doc_target[order], lengths)
    # Output pair p reads ctx_ids at its document's start plus p's offset within that document.
    shift = starts - (np.cumsum(lengths) - lengths)
    contexts = corpus.ctx_ids[np.arange(len(targets)) + np.repeat(shift, lengths)]
    return targets, contexts


@dataclass
class NoiseTable:
    """Cumulative distribution over entity indices, p(e) proportional to count^alpha.

    Sampling is a binary search over the cumulative sums, driven by the
    caller's generator.
    """

    cumulative: np.ndarray

    @property
    def n_entities(self) -> int:
        return len(self.cumulative)

    def sample(self, size, rng: np.random.Generator) -> np.ndarray:
        return np.searchsorted(self.cumulative, rng.random(size), side="right")


def build_noise_table(vocab: Vocabulary, alpha: float = 0.75) -> NoiseTable:
    """Noise table over the entity counts of ``vocab`` raised to ``alpha``.

    Rejects an alpha whose powered counts overflow, or that leaves the other
    entities less than 1e-6 of the mass: excluding the most probable entity
    would then redraw forever.
    """
    counts = vocab.entity_counts().astype(np.float64)
    if counts.size == 0 or not np.any(counts > 0):
        raise SamplerError("noise table needs at least one entity with positive count")
    with np.errstate(over="ignore"):
        probs = counts**alpha
    total = probs.sum()
    if not (np.isfinite(total) and total > 0):
        raise SamplerError(f"noise_alpha={alpha} overflows the powered entity counts")
    if counts.size > 1 and (total - probs.max()) / total < 1e-6:
        raise SamplerError(f"noise_alpha={alpha} puts nearly all noise mass on one entity")
    probs /= total
    cumulative = np.cumsum(probs)
    cumulative[-1] = 1.0  # kill accumulated rounding at the top end
    return NoiseTable(cumulative=cumulative)


def draw_negatives_batch(
    table: NoiseTable,
    k: int,
    excludes: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw k negatives per row i.i.d. from the noise distribution.

    Draws equal to the row's entry in ``excludes`` are redrawn, so a positive
    context never appears among its own negatives.
    """
    if k < 1:
        raise SamplerError(f"negative sample size must be >= 1, got {k}")
    if table.n_entities < 2:
        raise SamplerError("cannot exclude the only entity in the vocabulary")
    out = table.sample((len(excludes), k), rng)
    mask = out == excludes[:, None]
    while mask.any():
        out[mask] = table.sample(int(mask.sum()), rng)
        mask = out == excludes[:, None]
    return out
