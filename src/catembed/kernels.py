"""SGD update kernels for one chunk of training pairs.

This is the hot loop. The chunk is cut into groups: a group is a run of
consecutive pairs that share a target, which the pair stream yields per
document, cut into pieces of at most ``GROUP_MAX`` pairs. :func:`group_bounds`
is the one place groups are cut; the kernels follow the bounds they are
handed. Every group has one row of k negatives, shared by all of its pairs
(the HogBatch scheme of Ji et al. 2016). Per group the kernel scores the G
contexts and the k shared negatives against the target's weighted predictor
rows, all as they were before the group, sums the deltas over the group, and
applies one SGD step to every touched row: G + k output rows where per-pair
negatives took G(1 + k). With one pair per group this is plain per-pair SGD.
Larger groups cost quality, as every summed step lands on category rows that
many entities share: on perfbench's deep-dag world, seeds 1 and 3, a cap of
12 cut cluster purity from 1.0 to 0.96/0.92 at lr0 0.05 (at lr0 0.1 it held).

The predictors are rows of one input matrix ``inp``, held as one weighted
CSR (``pred_offsets``, ``pred_ids``, ``pred_ws``) whose first entry for t is
t's own row at weight 1, followed by its categories' rows. Two
implementations share the exact same math:

* ``train_chunk_numba`` -- explicit loops compiled with ``@njit``.
* ``train_chunk_numpy`` -- one matmul per group, used when numba does not import.

``train_chunk`` points at the selected backend. Sigmoid pre-activations are
clamped to [-CLAMP, CLAMP] before exponentiation, which bounds every log term
and every gradient coefficient; it does not bound the rows, so a large enough
learning rate still overflows them.

Gradient convention: the loss for pair (t, c) with predictor rows {(p_i, w_i)}
and negatives {n} is

    loss = sum_i w_i [log(1+exp(-u_c.v_pi)) + sum_n log(1+exp(u_n.v_pi))]

i.e. the negated log-sigmoid objective, so lower is better. A group is G
pairs (t, c_1..c_G) that all take the group's negatives {n}. The negative
term depends only on t's predictors and {n}, which every pair of the
group shares, so it is the same for all G pairs: the kernel scores each
shared negative once and multiplies its loss and its coefficient
w_i sigmoid(u_n.v_pi) by G. That is the exact sum of the G per-pair
gradients when every pair draws the same negatives, not an approximation.
Both kernels write every term of a group as m w log(1+exp(z)) with z
clamped: z = -u.v and m = 1 for a context, z = u.v and m = G for a shared
negative. The term's gradient coefficient is then -m w sigmoid(z) for a
context and m w sigmoid(z) for a negative. All deltas for a group are
computed against the pre-group rows, summed, then applied at once.
"""

from __future__ import annotations

import math

import numpy as np

CLAMP = 30.0
GROUP_MAX = 8  # most pairs per SGD step


def group_bounds(targets: np.ndarray) -> np.ndarray:
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


def group_contexts(contexts: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """The contexts of every group of ``bounds``, one left-aligned row per group, padded with -1 to the widest group."""
    sizes = np.diff(bounds)
    group = np.repeat(np.arange(len(sizes)), sizes)
    out = np.full((len(sizes), sizes.max(initial=0)), -1, dtype=np.int64)
    out[group, np.arange(len(contexts)) - bounds[group]] = contexts
    return out


def train_chunk_numpy(
    inp: np.ndarray,
    ent_out: np.ndarray,
    lr: float,
    targets: np.ndarray,
    contexts: np.ndarray,
    negatives: np.ndarray,
    pred_offsets: np.ndarray,
    pred_ids: np.ndarray,
    pred_ws: np.ndarray,
    bounds: np.ndarray,
) -> float:
    """Pure-numpy chunk kernel; sequential per-group updates.

    ``bounds`` holds :func:`group_bounds`' cuts, and ``negatives`` one row of k negatives per group.
    """
    d = inp.shape[1]
    k = negatives.shape[1]
    n_groups = len(bounds) - 1
    if negatives.shape[0] != n_groups:
        raise ValueError(f"negatives needs one row per group: {n_groups} groups, {negatives.shape[0]} rows")
    if bounds[0] != 0 or bounds[-1] != len(targets):
        raise ValueError(f"bounds must run from 0 to len(targets) = {len(targets)}, got {bounds[0]} to {bounds[-1]}")
    # np.subtract.at over a flat view takes numpy's 1-d fast path; over rows it is ~4x slower
    if not ent_out.flags.c_contiguous:
        raise ValueError("ent_out must be C-contiguous")
    out_flat = ent_out.reshape(-1)
    starts, sizes = bounds[:-1], np.diff(bounds)
    # Per group size G up to the widest group, over G context rows then k negative
    # rows: the sign that turns each score into the z of its loss term log(1+exp(z)),
    # the multiplicity (1 per context, G per shared negative), and their product with lr.
    widths = range(sizes.max(initial=0) + 1)
    sign = [np.concatenate((-np.ones(g), np.ones(k)))[:, None] for g in widths]
    mult = [np.concatenate((np.ones(g), np.full(k, float(g)))) for g in widths]
    step = [(lr * m)[:, None] * s for m, s in zip(mult, sign)]
    # The output ids of the whole chunk, group after group: each group's
    # contexts, then its shared negatives, from id offset bounds[g] + g k on.
    # Their flat scatter index is built per group: a whole-chunk copy at d
    # columns raised the deep-dag benchmark's peak RSS by 2.2 MB.
    offsets = starts + k * np.arange(n_groups)
    ids = np.empty(len(targets) + n_groups * k, dtype=np.int64)
    ids[np.arange(len(targets)) + k * np.repeat(np.arange(n_groups), sizes)] = contexts
    ids[(offsets + sizes)[:, None] + np.arange(k)] = negatives
    cols = np.arange(d)
    t = targets[starts]
    total = 0.0
    for n_pos, a, lo, hi in zip(sizes.tolist(), offsets.tolist(), pred_offsets[t].tolist(),
                                pred_offsets[t + 1].tolist()):
        b = a + n_pos + k
        rows, w = pred_ids[lo:hi], pred_ws[lo:hi]
        preds = inp[rows]
        outs = ent_out[ids[a:b]]

        z = outs @ preds.T
        z *= sign[n_pos]
        np.minimum(z, CLAMP, out=z)
        np.maximum(z, -CLAMP, out=z)
        exp_z = np.exp(z)
        total += float(mult[n_pos] @ np.log1p(exp_z) @ w)

        # coefficient sign * mult * w * sigmoid(z), with the step size folded in
        coef = exp_z / (1.0 + exp_z)
        coef *= step[n_pos]
        coef *= w
        # the output step reads preds before they take their own step; the
        # predictor rows of a group are distinct, so writing the gathered copy
        # back equals updating inp[rows] in place
        np.subtract.at(out_flat, (ids[a:b, None] * d + cols).ravel(), (coef @ preds).ravel())
        preds -= coef.T @ outs
        inp[rows] = preds
    return total


def _train_chunk_loops(inp, ent_out, lr, targets, contexts, negatives, pred_offsets, pred_ids, pred_ws, bounds):
    n_groups = bounds.shape[0] - 1
    d = inp.shape[1]
    k = negatives.shape[1]
    if negatives.shape[0] != n_groups:
        raise ValueError("negatives needs one row per group")
    if bounds[0] != 0 or bounds[n_groups] != targets.shape[0]:
        raise ValueError("bounds must run from 0 to len(targets)")
    if n_groups == 0:
        return 0.0  # sizing the delta buffers below needs at least one group
    pred_delta = np.zeros((np.diff(pred_offsets).max(), d))
    out_delta = np.zeros((np.diff(bounds).max() + k, d))
    total = 0.0
    for g in range(n_groups):
        a = bounds[g]
        n_pos = bounds[g + 1] - a
        t = targets[a]
        lo = pred_offsets[t]
        m = pred_offsets[t + 1] - lo
        # score the group's contexts, then its shared negatives, against the
        # rows as they were before the group
        for p in range(m):
            v = inp[pred_ids[lo + p]]
            wp = pred_ws[lo + p]
            for r in range(n_pos + k):
                if r < n_pos:
                    u = ent_out[contexts[a + r]]
                    sign = -1.0
                    mult = 1.0
                else:
                    u = ent_out[negatives[g, r - n_pos]]
                    sign = 1.0
                    mult = float(n_pos)
                z = 0.0
                for j in range(d):
                    z += u[j] * v[j]
                z *= sign
                if z > CLAMP:
                    z = CLAMP
                elif z < -CLAMP:
                    z = -CLAMP
                ez = math.exp(z)
                total += mult * math.log1p(ez) * wp
                c = ez / (1.0 + ez) * (lr * mult * sign) * wp
                for j in range(d):
                    pred_delta[p, j] += c * u[j]
                    out_delta[r, j] += c * v[j]
        for p in range(m):
            row = pred_ids[lo + p]
            for j in range(d):
                inp[row, j] -= pred_delta[p, j]
                pred_delta[p, j] = 0.0
        for r in range(n_pos + k):
            row = contexts[a + r] if r < n_pos else negatives[g, r - n_pos]
            for j in range(d):
                ent_out[row, j] -= out_delta[r, j]
                out_delta[r, j] = 0.0
    return total


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
