"""The SGD update kernel for one chunk of training pairs.

This is the hot loop. The chunk is cut into groups: a group is a run of
consecutive pairs that share a target, which the pair stream yields per
document, cut into pieces of at most ``GROUP_MAX`` pairs. :func:`group_bounds`
is the one place groups are cut; the kernel follows the bounds it is
handed. Every group has one row of k negatives, shared by all of its pairs
(the HogBatch scheme of Ji et al. 2016). Per group the kernel scores the
distinct rows among its G contexts and k shared negatives, at most G + k
where per-pair negatives took G(1 + k), against the target's weighted
predictor rows, all as they were before the group, and applies one SGD step
to every touched row. With one pair per group this is plain per-pair SGD.
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
term depends only on t's predictors and {n}, which every pair of the group
shares, so it is the same for all G pairs. Once per chunk the kernel folds
each group's output ids into its distinct rows u, each with two counts: a
row the group names c times as a context and r times as a shared negative
has context count c and negative count rG. With s = u.v_pi clamped and
e = exp(s), the row's loss and gradient coefficient are

    loss = sum_i w_i [c log(1+exp(-s)) + rG log(1+exp(s))]
    coef_i = w_i (rG e - c) / (1 + e)

That is the exact sum of the G per-pair terms when every pair draws the
same negatives, not an approximation; a row that is both a context and a
negative takes both terms of its one score. All of a group's deltas are
computed against the pre-group rows, then applied at once.
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
    n_groups = len(bounds) - 1
    if negatives.shape[0] != n_groups:
        raise ValueError(f"negatives needs one row per group: {n_groups} groups, {negatives.shape[0]} rows")
    if bounds[0] != 0 or bounds[-1] != len(targets):
        raise ValueError(f"bounds must run from 0 to len(targets) = {len(targets)}, got {bounds[0]} to {bounds[-1]}")
    # Fold every group's output ids into its distinct rows in one pass over the
    # chunk: key g * n_ent + id sorts the rows group after group, each row counts
    # c contexts and r shared negatives, and rows cut[g]:cut[g + 1] are group g's.
    n_ent = ent_out.shape[0]
    groups = np.arange(n_groups)
    sizes = np.diff(bounds)
    keys = (np.repeat(groups, sizes) * n_ent + contexts, (groups[:, None] * n_ent + negatives).ravel())
    row_keys, inverse = np.unique(np.concatenate(keys), return_inverse=True)
    row_group, ids = np.divmod(row_keys, n_ent)
    n_ctx = np.bincount(inverse[:len(contexts)], minlength=len(row_keys)).astype(np.float64)
    n_neg = np.bincount(inverse[len(contexts):], minlength=len(row_keys)) * sizes[row_group].astype(np.float64)
    n_all = n_ctx + n_neg
    ctx_step, neg_step = lr * n_ctx[:, None], lr * n_neg[:, None]
    cut = np.searchsorted(row_keys, np.arange(n_groups + 1) * n_ent).tolist()
    t = targets[bounds[:-1]]
    total = 0.0
    for a, b, lo, hi in zip(cut[:-1], cut[1:], pred_offsets[t].tolist(), pred_offsets[t + 1].tolist()):
        rows, w, u = pred_ids[lo:hi], pred_ws[lo:hi], ids[a:b]
        # take and ndarray.dot, not fancy indexing and @: on arrays this small
        # numpy's per-call dispatch dominates, and these forms give the same
        # bytes for 0.6-0.9 us less a call, 8 calls a group (numpy 2.4, 16
        # predictor rows at d = 100: gather 1.4 -> 0.6 us, product 2.7 -> 1.9 us)
        preds = inp.take(rows, axis=0)
        outs = ent_out.take(u, axis=0)

        s = outs.dot(preds.T)
        np.minimum(s, CLAMP, out=s)
        np.maximum(s, -CLAMP, out=s)
        exp_s = np.exp(s)
        # c log(1+exp(-s)) + rG log(1+exp(s)) = (c + rG) log(1+exp(s)) - c s
        total += float((n_all[a:b].dot(np.log1p(exp_s)) - n_ctx[a:b].dot(s)).dot(w))

        # lr w (rG exp(s) - c) / (1 + exp(s)), the step of each score
        coef = exp_s * neg_step[a:b]
        coef -= ctx_step[a:b]
        coef /= 1.0 + exp_s
        coef *= w
        # both steps read the rows as they were before the group; a group's
        # distinct output rows, like its predictor rows, never repeat, so
        # writing each gathered copy back equals updating the table in place
        ent_out[u] = outs - coef.dot(preds)
        preds -= coef.T.dot(outs)
        inp[rows] = preds
    return total


train_chunk = train_chunk_numpy  # the trainer calls this name; perfbench swaps a timing wrapper in here
BACKEND = "numpy"  # the train log line and perfbench's run manifest report it
train_chunk_numba = None  # perfbench's run manifest reads it
