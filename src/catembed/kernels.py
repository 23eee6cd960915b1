"""SGD update kernels for one chunk of training pairs.

This is the hot loop. The chunk is cut into groups: a group is a run of
consecutive pairs that share a target, cut into pieces of at most
``GROUP_MAX`` pairs. The pair stream yields each document's pairs
contiguously, so a group is one document or a piece of one. Per group the
kernel scores every pair's context and k negative output rows against the
target row and its weighted category rows, all as they were before the
group, sums the deltas over the group, and applies one SGD step to every
touched row. With one pair per group this is plain per-pair SGD; groups of
more than 8 pairs lost nearest-neighbour purity on a deep category DAG,
because every summed step lands on category rows that many entities share.
Two implementations share the exact same math:

* ``train_chunk_numba`` -- explicit loops compiled with ``@njit``.
* ``train_chunk_numpy`` -- one matmul per group, used when numba is
  unavailable or when ``CATEMBED_NO_NUMBA=1`` is set.

``train_chunk`` points at the selected backend. Sigmoid pre-activations are
clamped to [-CLAMP, CLAMP] before exponentiation, which bounds every log term
and every gradient coefficient; it does not bound the rows, so a large enough
learning rate still overflows them.

Gradient convention: the loss for pair (t, c) with weighted categories
{(c_i, w_i)} and negatives {n} is

    loss = log(1+exp(-u_c.v_t)) + sum_i w_i log(1+exp(-u_c.v_ci))
         + sum_n [log(1+exp(u_n.v_t)) + sum_i w_i log(1+exp(u_n.v_ci))]

i.e. the negated log-sigmoid objective, so lower is better. All deltas for a
group are computed against the pre-group rows, summed, then applied at once.
"""

from __future__ import annotations

import math
import os

import numpy as np

CLAMP = 30.0
GROUP_MAX = 8  # most pairs per SGD step

_ENV_FLAG = "CATEMBED_NO_NUMBA"


def _group_bounds(targets: np.ndarray) -> np.ndarray:
    """Start of every group, then ``len(targets)``.

    A group is a run of consecutive equal targets, cut into pieces of at most
    ``GROUP_MAX`` pairs.
    """
    n = targets.shape[0]
    idx = np.arange(n)
    new_run = np.ones(n, dtype=bool)
    new_run[1:] = targets[1:] != targets[:-1]
    run_start = np.maximum.accumulate(np.where(new_run, idx, 0))
    return np.append(np.flatnonzero((idx - run_start) % GROUP_MAX == 0), n)


def train_chunk_numpy(
    ent_in: np.ndarray,
    cat_in: np.ndarray,
    ent_out: np.ndarray,
    targets: np.ndarray,
    contexts: np.ndarray,
    negatives: np.ndarray,
    cat_offsets: np.ndarray,
    cat_ids: np.ndarray,
    cat_ws: np.ndarray,
    lr: float,
) -> float:
    """Pure-numpy chunk kernel; sequential per-group updates."""
    d = ent_in.shape[1]
    k1 = 1 + negatives.shape[1]
    # row 0 of each pair's block is the positive context, the rest are negatives
    out_ids = np.concatenate((contexts[:, None], negatives), axis=1)
    # np.subtract.at over a flat view takes numpy's 1-d fast path; over rows it is ~4x slower
    if not ent_out.flags.c_contiguous:
        raise ValueError("ent_out must be C-contiguous")
    out_flat = ent_out.reshape(-1)
    cols = np.arange(d)
    bounds = _group_bounds(targets).tolist()
    total = 0.0
    for a, b in zip(bounds[:-1], bounds[1:]):
        t = targets[a]
        lo, hi = cat_offsets[t], cat_offsets[t + 1]
        cids = cat_ids[lo:hi]
        m = hi - lo
        ids = out_ids[a:b].ravel()

        preds = np.empty((1 + m, d))
        preds[0] = ent_in[t]
        preds[1:] = cat_in[cids]
        w = np.empty(1 + m)
        w[0] = 1.0
        w[1:] = cat_ws[lo:hi]
        outs = ent_out[ids]

        scores = np.clip(outs @ preds.T, -CLAMP, CLAMP)
        exp_s = np.exp(scores)
        pos = exp_s[::k1]
        neg = exp_s.reshape(b - a, k1, 1 + m)[:, 1:]
        total += float((w * np.log1p(1.0 / pos)).sum() + (w * np.log1p(neg)).sum())

        coef = np.empty_like(scores)
        coef[::k1] = -w / (1.0 + pos)  # -w * sigmoid(-s)
        coef.reshape(b - a, k1, 1 + m)[:, 1:] = w * (neg / (1.0 + neg))  # w * sigmoid(s)

        d_preds = coef.T @ outs
        d_outs = coef @ preds

        ent_in[t] -= lr * d_preds[0]
        if m:
            cat_in[cids] -= lr * d_preds[1:]
        np.subtract.at(out_flat, (ids[:, None] * d + cols).ravel(), (lr * d_outs).ravel())
    return total


def _train_chunk_loops(
    ent_in, cat_in, ent_out, targets, contexts, negatives, cat_offsets, cat_ids, cat_ws, lr
):
    n_pairs = targets.shape[0]
    d = ent_in.shape[1]
    k1 = 1 + negatives.shape[1]
    max_m = 0
    for e in range(cat_offsets.shape[0] - 1):
        width = cat_offsets[e + 1] - cat_offsets[e]
        if width > max_m:
            max_m = width
    pred_delta = np.zeros((1 + max_m, d))
    out_delta = np.zeros((GROUP_MAX * k1, d))
    total = 0.0
    a = 0
    while a < n_pairs:
        t = targets[a]
        b = a + 1
        while b < n_pairs and b - a < GROUP_MAX and targets[b] == t:
            b += 1
        lo = cat_offsets[t]
        m = cat_offsets[t + 1] - lo
        # score the whole group against the rows as they were before it
        for p in range(1 + m):
            if p == 0:
                v = ent_in[t]
                wp = 1.0
            else:
                v = cat_in[cat_ids[lo + p - 1]]
                wp = cat_ws[lo + p - 1]
            for r in range((b - a) * k1):
                i = a + r // k1
                o = r % k1
                u = ent_out[contexts[i]] if o == 0 else ent_out[negatives[i, o - 1]]
                s = 0.0
                for j in range(d):
                    s += u[j] * v[j]
                if s > CLAMP:
                    s = CLAMP
                elif s < -CLAMP:
                    s = -CLAMP
                es = math.exp(s)
                if o == 0:
                    total += wp * math.log1p(1.0 / es)
                    g = -wp / (1.0 + es)
                else:
                    total += wp * math.log1p(es)
                    g = wp * (es / (1.0 + es))
                for j in range(d):
                    pred_delta[p, j] += g * u[j]
                    out_delta[r, j] += g * v[j]
        for j in range(d):
            ent_in[t, j] -= lr * pred_delta[0, j]
            pred_delta[0, j] = 0.0
        for p in range(1, 1 + m):
            cid = cat_ids[lo + p - 1]
            for j in range(d):
                cat_in[cid, j] -= lr * pred_delta[p, j]
                pred_delta[p, j] = 0.0
        for r in range((b - a) * k1):
            i = a + r // k1
            o = r % k1
            row = contexts[i] if o == 0 else negatives[i, o - 1]
            for j in range(d):
                ent_out[row, j] -= lr * out_delta[r, j]
                out_delta[r, j] = 0.0
        a = b
    return total


def _env_disables_numba() -> bool:
    return os.environ.get(_ENV_FLAG, "").strip() not in ("", "0")


train_chunk_numba = None
if not _env_disables_numba():
    try:
        from numba import njit

        train_chunk_numba = njit(cache=True)(_train_chunk_loops)
    except ImportError:
        train_chunk_numba = None

if train_chunk_numba is not None:
    train_chunk = train_chunk_numba
    BACKEND = "numba"
else:
    train_chunk = train_chunk_numpy
    BACKEND = "numpy"
