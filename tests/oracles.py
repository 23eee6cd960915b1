"""Slow reference SGD: exact softmax, one pair's or one group's loss and gradient, one step.

The fast chunk kernels in :mod:`catembed.kernels` are checked against these.
"""

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from catembed.embeddings import EmbeddingTable
from catembed.kernels import CLAMP


@dataclass
class PairGradient:
    """Sparse gradient of one pair's loss: (table name, row) -> d-vector."""

    loss: float
    deltas: dict[tuple[str, int], np.ndarray] = field(default_factory=dict)

    def _add(self, table: str, row: int, delta: np.ndarray) -> None:
        key = (table, int(row))
        if key in self.deltas:
            self.deltas[key] += delta
        else:
            self.deltas[key] = delta.copy()


def table_of(ent_in: np.ndarray, cat_in: np.ndarray, ent_out: np.ndarray) -> EmbeddingTable:
    """A table whose input matrix stacks copies of ``ent_in`` and ``cat_in``."""
    return EmbeddingTable(inp=np.vstack([ent_in, cat_in]), n_entities=len(ent_in), ent_out=ent_out)


def softmax_prob(table: EmbeddingTable, predictor: np.ndarray, context: int) -> float:
    """Exact softmax p(context | predictor) over all entity output rows.

    ``predictor`` is an input row, of ``ent_in`` or ``cat_in``. Iterates the
    whole vocabulary, with max-subtraction for stability.
    """
    scores = table.ent_out @ predictor
    scores -= scores.max()
    exp_s = np.exp(scores)
    return float(exp_s[context] / exp_s.sum())


def pair_loss_and_grad(
    table: EmbeddingTable,
    pair: tuple[int, int],
    weights: tuple[Sequence[int], np.ndarray],
    negatives: np.ndarray,
) -> PairGradient:
    """Reference loss and exact analytic gradient for one training pair.

    ``weights`` is the target's ``(categories, weights)`` pair, parallel
    sequences as in one entity's slice of ``weight_csr``. Touches exactly the
    rows {target input, each weighted category input, context output, each
    negative output}; duplicate negatives accumulate.
    """
    t, c = pair
    cids = np.asarray(weights[0], dtype=np.int64)
    w = np.concatenate(([1.0], np.asarray(weights[1], dtype=np.float64)))
    preds = np.vstack([table.ent_in[t][None, :], table.cat_in[cids]]) if len(cids) else table.ent_in[t][None, :]
    negatives = np.asarray(negatives, dtype=np.int64)
    outs = np.vstack([table.ent_out[c][None, :], table.ent_out[negatives]]) if negatives.size else table.ent_out[c][None, :]

    scores = np.clip(outs @ preds.T, -CLAMP, CLAMP)
    exp_s = np.exp(scores)
    loss = float((w * np.log1p(1.0 / exp_s[0])).sum() + (w[None, :] * np.log1p(exp_s[1:])).sum())

    coef = np.empty_like(scores)
    coef[0] = -w / (1.0 + exp_s[0])
    coef[1:] = w[None, :] * (exp_s[1:] / (1.0 + exp_s[1:]))
    d_preds = coef.T @ outs
    d_outs = coef @ preds

    grad = PairGradient(loss=loss)
    grad._add("ent_in", t, d_preds[0])
    for row, delta in zip(cids, d_preds[1:]):
        grad._add("cat_in", row, delta)
    grad._add("ent_out", c, d_outs[0])
    for row, delta in zip(negatives, d_outs[1:]):
        grad._add("ent_out", row, delta)
    return grad


def group_loss_and_grad(
    table: EmbeddingTable,
    target: int,
    contexts: np.ndarray,
    weights: tuple[Sequence[int], np.ndarray],
    negatives: np.ndarray,
) -> PairGradient:
    """Reference loss and gradient for one group: pairs ``(target, contexts[g])`` with ``negatives[g]``.

    The sum of :func:`pair_loss_and_grad` over the group, every term evaluated
    at the rows as they were before the group.
    """
    total = PairGradient(loss=0.0)
    for c, negs in zip(contexts, negatives):
        grad = pair_loss_and_grad(table, (target, c), weights, negs)
        total.loss += grad.loss
        for (name, row), delta in grad.deltas.items():
            total._add(name, row, delta)
    return total


def apply_gradient(table: EmbeddingTable, grad: PairGradient, lr: float) -> None:
    """One SGD step: row <- row - lr * delta for every touched row."""
    for (name, row), delta in grad.deltas.items():
        getattr(table, name)[row] -= lr * delta
