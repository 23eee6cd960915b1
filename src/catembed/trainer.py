"""Optimization of the flat (CE) and hierarchy-weighted (HCE) objectives.

Negative-sampling SGD: ``train`` drives the chunk kernels in
:mod:`catembed.kernels` over the pair stream, one step per group of
same-target pairs with k negatives drawn per group. ``kernels.group_bounds``,
the one place groups are cut, cuts each chunk once for the draw and the
kernel. Training runs in one thread, bit-reproducible from its seed.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import kernels
from .corpus import CategoryGraph, Corpus
from .embeddings import EmbeddingTable, init_embeddings
from .errors import ConfigError, TrainError
from .hierarchy import MODES, weight_csr
from .sampler import build_noise_table, draw_negatives_batch, pairs_arrays

log = logging.getLogger(__name__)


@dataclass
class TrainConfig:
    dim: int = 100
    epochs: int = 5
    lr0: float = 0.025
    lr_min: float | None = None  # defaults to 1e-4 * lr0
    negatives: int = 10
    chunk: int = 500
    noise_alpha: float = 0.75
    seed: int = 1
    workers: int = 1  # only 1 is valid; kept so configs that set it still load
    mode: str = "hce"
    shuffle: bool = True
    subsample: float = 0.0  # 0 disables frequent-entity subsampling

    def __post_init__(self) -> None:
        if self.lr_min is None:
            self.lr_min = 1e-4 * self.lr0

    def validate(self) -> None:
        if self.dim < 1:
            raise ConfigError(f"dim must be >= 1, got {self.dim}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.negatives < 1:
            raise ConfigError(f"negatives must be >= 1, got {self.negatives}")
        if self.chunk < 1:
            raise ConfigError(f"chunk must be >= 1, got {self.chunk}")
        if not (0.0 < self.lr_min <= self.lr0 < math.inf):
            raise ConfigError(f"need 0 < lr_min <= lr0 < inf, got lr_min={self.lr_min}, lr0={self.lr0}")
        if not math.isfinite(self.noise_alpha):
            raise ConfigError(f"noise_alpha must be finite, got {self.noise_alpha}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.workers != 1:
            raise ConfigError(f"workers must be 1 (training runs in one thread), got {self.workers}")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not (0.0 <= self.subsample < math.inf):
            raise ConfigError(f"subsample must be finite and >= 0, got {self.subsample}")


@dataclass
class ChunkStats:
    epoch: int
    pairs_done: int  # pairs trained so far
    position: int  # schedule position, in pairs, that sets the chunk's lr
    total_pairs: int  # pairs scheduled over all epochs
    lr: float
    loss_per_pair: float


def predictor_csr(offsets: np.ndarray, cat_ids: np.ndarray, cat_ws: np.ndarray) -> tuple[np.ndarray, ...]:
    """The kernels' predictor CSR from :func:`weight_csr`'s per-entity category CSR.

    Entity e's slice holds its own input row e at weight 1, then each of its
    categories c at row ``n_entities + c`` with its weight.
    """
    n_ent, starts = len(offsets) - 1, offsets[:-1]
    ids = np.insert(cat_ids + n_ent, starts, np.arange(n_ent))
    return offsets + np.arange(n_ent + 1), ids, np.insert(cat_ws, starts, 1.0)


def _subsample_mask(contexts: np.ndarray, counts: np.ndarray, threshold: float, rng) -> np.ndarray:
    freq = counts / counts.sum()
    keep_prob = np.minimum(1.0, np.sqrt(threshold / freq[contexts]))
    return rng.random(len(contexts)) < keep_prob


def train(
    corpus: Corpus,
    graph: CategoryGraph,
    config: TrainConfig,
    on_chunk: Callable[[ChunkStats], None] | None = None,
) -> EmbeddingTable:
    """Run negative-sampling SGD over the corpus and return the final table.

    The learning rate decays linearly from lr0 to lr_min over all scheduled
    pairs, re-evaluated once per chunk at the position of the chunk's first
    pair in its epoch's full pair stream, so pairs dropped by subsampling
    still advance it; within a chunk the kernel takes one step per group of
    same-target pairs.
    """
    config.validate()
    vocab = corpus.vocab
    preds = predictor_csr(*weight_csr(graph, corpus.entity_categories, vocab.entity_labels(), config.mode))
    table = init_embeddings(vocab.n_entities, vocab.n_categories, config.dim, config.seed)
    counts = vocab.entity_counts().astype(np.float64)
    noise = build_noise_table(counts, config.noise_alpha)

    shuffle_rng = np.random.default_rng([config.seed, 101])
    subsample_rng = np.random.default_rng([config.seed, 301])
    negatives_rng = np.random.default_rng([config.seed, 201])

    n_docs = len(corpus)
    pairs_per_epoch = corpus.n_pairs
    if pairs_per_epoch == 0:
        raise TrainError("corpus yields no training pairs")
    total = config.epochs * pairs_per_epoch
    lr_span = config.lr0 - config.lr_min
    done = 0

    for epoch in range(1, config.epochs + 1):
        order = shuffle_rng.permutation(n_docs) if config.shuffle else np.arange(n_docs)
        targets, contexts = pairs_arrays(corpus, order)
        kept = None  # position of each kept pair in the epoch's full stream
        if config.subsample > 0:
            kept = np.flatnonzero(_subsample_mask(contexts, counts, config.subsample, subsample_rng))
            targets, contexts = targets[kept], contexts[kept]
        for start in range(0, len(targets), config.chunk):
            stop = min(start + config.chunk, len(targets))
            position = (epoch - 1) * pairs_per_epoch + (start if kept is None else int(kept[start]))
            lr = max(config.lr_min, config.lr0 - lr_span * min(1.0, position / total))
            chunk_targets, chunk_contexts = targets[start:stop], contexts[start:stop]
            bounds = kernels.group_bounds(chunk_targets)
            negs = draw_negatives_batch(noise, config.negatives, kernels.group_contexts(chunk_contexts, bounds), negatives_rng)
            # a diverging run overflows inside the kernel; the loss check below reports it
            with np.errstate(over="ignore", invalid="ignore"):
                loss = kernels.train_chunk(table.inp, table.ent_out, lr, chunk_targets, chunk_contexts, negs, *preds, bounds)
            if not math.isfinite(loss):
                raise TrainError(f"non-finite loss at epoch {epoch}, pairs {done}: {loss!r}")
            done += stop - start
            if on_chunk is not None:
                on_chunk(ChunkStats(
                    epoch=epoch, pairs_done=done, position=position, total_pairs=total,
                    lr=lr, loss_per_pair=loss / (stop - start),
                ))
        log.debug("epoch %d/%d done (%d pairs)", epoch, config.epochs, done)

    if done == 0:
        raise TrainError(f"subsample={config.subsample} drops every training pair in every epoch")
    table.assert_finite()
    return table

