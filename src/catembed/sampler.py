"""Training-pair generation and unigram-power negative sampling.

The noise table is a plain cumulative array over entity ids, and
:func:`draw_negatives_batch` is the one way to draw from it.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .corpus import Corpus, slice_index
from .errors import SamplerError


def pairs_arrays(corpus: Corpus, doc_order: Sequence[int] | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(targets, contexts) int64 arrays: one pair per context occurrence, in document order."""
    order = np.arange(len(corpus))
    if doc_order is not None:
        order = order[np.asarray(doc_order, dtype=np.int64)]  # a negative index counts from the end, as in a list
    starts = corpus.ctx_offsets[order]
    lengths = corpus.ctx_offsets[order + 1] - starts
    return np.repeat(corpus.doc_target[order], lengths), corpus.ctx_ids[slice_index(starts, lengths)]


def build_noise_table(counts: np.ndarray, alpha: float = 0.75) -> np.ndarray:
    """Cumulative distribution over entity ids, p(e) proportional to ``counts[e] ** alpha``.

    ``counts`` is the float64 entity-count array. Rejects an alpha whose
    powered counts overflow, or that leaves the other entities less than
    1e-6 of the mass: excluding the most probable entity would then redraw
    forever.
    """
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
    return cumulative


def draw_negatives_batch(
    noise: np.ndarray,
    k: int,
    excludes: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw k negatives per row of ``excludes`` i.i.d. from the ``noise`` table.

    Each draw is a binary search of ``rng.random()`` over the cumulative
    ``noise`` array from :func:`build_noise_table`. ``excludes`` is 2-D, one
    row per group of pairs holding every context of that group, padded with
    -1. A draw equal to any entry of its row is redrawn, so no context of a
    group appears among the group's negatives. A row whose entities hold all
    but 1e-6 of the noise mass is refused, as its redraws would go on forever.
    """
    if k < 1:
        raise SamplerError(f"negative sample size must be >= 1, got {k}")
    excludes = np.asarray(excludes)
    if excludes.ndim != 2:
        raise SamplerError(f"excludes must be 2-D, one row per group, got shape {excludes.shape}")
    # noise mass of each row's distinct entities, the -1 padding left out
    ex = np.sort(excludes, axis=1)
    counted = ex >= 0
    counted[:, 1:] &= ex[:, 1:] != ex[:, :-1]
    ids = np.maximum(ex, 0)
    probs = noise[ids] - np.where(ids > 0, noise[ids - 1], 0.0)
    mass = (probs * counted).sum(axis=1)
    full = np.flatnonzero(mass >= 1.0 - 1e-6)
    if full.size:
        row = full[0]
        raise SamplerError(f"the contexts of group {row} hold {mass[row]:.7g} of the noise mass; no negative is left to draw")
    out = np.searchsorted(noise, rng.random((len(excludes), k)), side="right")
    mask = (out[:, :, None] == excludes[:, None, :]).any(axis=2)
    while mask.any():
        out[mask] = np.searchsorted(noise, rng.random(int(mask.sum())), side="right")
        mask = (out[:, :, None] == excludes[:, None, :]).any(axis=2)
    return out
