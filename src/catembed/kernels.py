"""The SGD update kernel for one chunk of training pairs.

This is the hot loop. The chunk is cut into groups: a group is a run of
consecutive pairs that share a target, which the pair stream yields per
document, cut into pieces of at most ``GROUP_MAX`` pairs. :func:`group_bounds`
is the one place groups are cut; the kernel follows the bounds it is
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
t's own row at weight 1, followed by its categories' rows. The kernel,
:func:`train_chunk_numpy`, does one matmul per group, and ``train_chunk``
names it for the trainer. Sigmoid pre-activations are clamped to
[-CLAMP, CLAMP] before exponentiation, which bounds every log term and every
gradient coefficient; it does not bound the rows, so a large enough learning
rate still overflows them.

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
The kernel writes every term of a group as m w log(1+exp(z)) with z
clamped: z = -u.v and m = 1 for a context, z = u.v and m = G for a shared
negative. The term's gradient coefficient is then -m w sigmoid(z) for a
context and m w sigmoid(z) for a negative. All deltas for a group are
computed against the pre-group rows, summed, then applied at once.
"""

from __future__ import annotations

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
        # take and ndarray.dot, not fancy indexing and @: on arrays this small
        # numpy's per-call dispatch dominates, and these forms give the same
        # bytes for 0.6-0.9 us less a call, 7 calls a group (numpy 2.4, 16
        # predictor rows at d = 100: gather 1.4 -> 0.6 us, product 2.7 -> 1.9 us)
        preds = inp.take(rows, axis=0)
        outs = ent_out.take(ids[a:b], axis=0)

        z = outs.dot(preds.T)
        z *= sign[n_pos]
        np.minimum(z, CLAMP, out=z)
        np.maximum(z, -CLAMP, out=z)
        exp_z = np.exp(z)
        total += float(mult[n_pos].dot(np.log1p(exp_z)).dot(w))

        # coefficient sign * mult * w * sigmoid(z), with the step size folded in
        coef = exp_z / (1.0 + exp_z)
        coef *= step[n_pos]
        coef *= w
        # the output step reads preds before they take their own step; the
        # predictor rows of a group are distinct, so writing the gathered copy
        # back equals updating inp[rows] in place
        np.subtract.at(out_flat, (ids[a:b, None] * d + cols).ravel(), coef.dot(preds).ravel())
        preds -= coef.T.dot(outs)
        inp[rows] = preds
    return total


train_chunk = train_chunk_numpy  # the trainer calls this name; perfbench swaps a timing wrapper in here
BACKEND = "numpy"  # the train log line and perfbench's run manifest report it
train_chunk_numba = None  # perfbench's run manifest reads it
