import hashlib
from pathlib import Path

import numpy as np
import pytest

from catembed import kernels
from catembed.corpus import build_vocabulary, load_corpus, load_hierarchy, prune_to_dag
from catembed.embeddings import EmbeddingTable, save_text
from catembed.trainer import TrainConfig, predictor_csr, train

from oracles import apply_gradient, group_loss_and_grad, pair_loss_and_grad


def make_instance(seed, n_pairs=12, n_ent=9, n_cat=5, dim=7, k=4, runs=None, width=(0, 3)):
    """Random tables, predictor CSR and one chunk of pairs, with one row of k negatives per group.

    Returns ``(tables, chunk)``: ``tables`` is ``(inp, ent_out)`` and ``chunk``
    is ``(targets, contexts, negatives, pred_offsets, pred_ids, pred_ws,
    bounds)``, with the groups that ``kernels.group_bounds`` cuts, so a kernel
    runs as ``kernel(*tables, lr, *chunk)``. ``runs`` (run lengths)
    replaces ``n_pairs``: the chunk is then runs of equal targets, each run's
    target different from the one before it. Each entity gets from
    ``width[0]`` to ``width[1]`` categories, so one more predictor row.
    """
    rng = np.random.default_rng(seed)
    ent_in = rng.normal(0, 0.4, (n_ent, dim))
    cat_in = rng.normal(0, 0.4, (n_cat, dim))
    ent_out = rng.normal(0, 0.4, (n_ent, dim))
    # random CSR weight layout
    offsets = np.zeros(n_ent + 1, dtype=np.int64)
    ids, ws = [], []
    for e in range(n_ent):
        m = int(rng.integers(width[0], width[1] + 1))
        cats = rng.choice(n_cat, size=m, replace=False)
        raw = rng.random(m) + 0.1
        ids.extend(int(c) for c in cats)
        ws.extend(raw / raw.sum() if m else [])
        offsets[e + 1] = len(ids)
    if runs is None:
        targets = rng.integers(0, n_ent, size=n_pairs)
    else:
        heads = [int(rng.integers(n_ent))]
        for _ in runs[1:]:
            heads.append((heads[-1] + int(rng.integers(1, n_ent))) % n_ent)
        targets = np.repeat(heads, runs)
        n_pairs = len(targets)
    contexts = rng.integers(0, n_ent, size=n_pairs)
    bounds = kernels.group_bounds(targets)
    negatives = rng.integers(0, n_ent, size=(len(bounds) - 1, k))
    preds = predictor_csr(offsets, np.array(ids, dtype=np.int64), np.array(ws, dtype=np.float64))
    tables = (np.vstack([ent_in, cat_in]), ent_out)
    return tables, (targets.astype(np.int64), contexts.astype(np.int64), negatives.astype(np.int64), *preds, bounds)


def clone(arrays):
    return tuple(a.copy() for a in arrays)


def with_negatives(chunk, negatives, bounds=None):
    """The chunk with other negatives and, if given, other group bounds."""
    return (*chunk[:2], negatives, *chunk[3:6], chunk[6] if bounds is None else bounds)


def reference_table(tables, chunk):
    return EmbeddingTable(inp=tables[0].copy(), n_entities=len(chunk[3]) - 1, ent_out=tables[1].copy())


def weights_of(chunk, t):
    """Target t's category weights, read back from the predictor CSR."""
    pred_offsets, pred_ids, pred_ws = chunk[3:6]
    lo, hi = pred_offsets[t], pred_offsets[t + 1]
    assert pred_ids[lo] == t and pred_ws[lo] == 1.0
    return tuple(pred_ids[lo + 1:hi] - (len(pred_offsets) - 1)), pred_ws[lo + 1:hi]


class TestNumpyKernel:
    def test_matches_reference_implementation(self):
        tables, chunk = make_instance(0)
        targets, contexts, negatives = chunk[:3]
        lr = 0.05
        assert len(negatives) == len(targets)  # every group is one pair
        got = clone(tables)
        loss = kernels.train_chunk_numpy(*got, lr, *chunk)
        # reference: sequential per-pair gradients applied one at a time
        ref = reference_table(tables, chunk)
        ref_loss = 0.0
        for i in range(len(targets)):
            grad = pair_loss_and_grad(ref, (targets[i], contexts[i]), weights_of(chunk, targets[i]), negatives[i])
            apply_gradient(ref, grad, lr)
            ref_loss += grad.loss
        assert loss == pytest.approx(ref_loss, abs=1e-10)
        assert np.allclose(got[0], ref.inp, atol=1e-12)
        assert np.allclose(got[1], ref.ent_out, atol=1e-12)

    def test_duplicate_negatives_accumulate(self):
        tables, chunk = make_instance(1, n_pairs=1, k=3)
        chunk = with_negatives(chunk, np.array([[2, 2, 2]], dtype=np.int64))
        targets, contexts, negatives = chunk[:3]
        got = clone(tables)
        kernels.train_chunk_numpy(*got, 0.1, *chunk)
        ref = reference_table(tables, chunk)
        grad = pair_loss_and_grad(ref, (targets[0], contexts[0]), weights_of(chunk, targets[0]), negatives[0])
        apply_gradient(ref, grad, 0.1)
        assert np.allclose(got[1], ref.ent_out, atol=1e-12)

    @pytest.mark.parametrize("rows", [7, 9])
    def test_refuses_negatives_not_one_row_per_group(self, rows):
        tables, chunk = make_instance(6, runs=(1, 7, 8, 9, 20))
        assert len(chunk[2]) == 8
        negatives = np.resize(chunk[2], (rows, chunk[2].shape[1]))
        got = clone(tables)
        with pytest.raises(ValueError, match="one row per group"):
            kernels.train_chunk_numpy(*got, 0.05, *with_negatives(chunk, negatives))
        for a, b in zip(got, tables):
            assert np.array_equal(a, b)

    def test_fortran_order_output_table_trains_like_c_order(self):
        tables, chunk = make_instance(8, runs=(5, 1, 3))
        c_order = clone(tables)
        f_order = (tables[0].copy(), np.asfortranarray(tables[1]))
        assert not f_order[1].flags.c_contiguous
        assert kernels.train_chunk_numpy(*f_order, 0.05, *chunk) == kernels.train_chunk_numpy(*c_order, 0.05, *chunk)
        for a, b in zip(f_order, c_order):
            assert np.array_equal(a, b)

    def test_deterministic_across_calls(self):
        tables, chunk = make_instance(4)
        first = clone(tables)
        second = clone(tables)
        l1 = kernels.train_chunk_numpy(*first, 0.02, *chunk)
        l2 = kernels.train_chunk_numpy(*second, 0.02, *chunk)
        assert l1 == l2
        for a, b in zip(first, second):
            assert np.array_equal(a, b)

    def test_zero_learning_rate_scores_without_stepping(self):
        tables, chunk = make_instance(6, runs=(1, 7, 8, 9, 20))
        got = clone(tables)
        loss = kernels.train_chunk_numpy(*got, 0.0, *chunk)
        _, ref_loss = group_reference(tables, chunk, list(zip(chunk[6][:-1], chunk[6][1:])), 0.0)
        assert loss == pytest.approx(ref_loss, abs=1e-10)
        for a, b in zip(got, tables):
            assert np.array_equal(a, b)

    def test_touches_only_the_rows_of_the_chunk(self):
        tables, chunk = make_instance(13, n_pairs=3, n_ent=20, n_cat=8, k=2)
        targets, contexts, negatives, pred_offsets, pred_ids = chunk[:5]
        got = clone(tables)
        kernels.train_chunk_numpy(*got, 0.05, *chunk)
        inp_rows = {int(r) for t in targets for r in pred_ids[pred_offsets[t]:pred_offsets[t + 1]]}
        out_rows = {int(r) for r in contexts} | {int(r) for r in negatives.ravel()}
        for arr, before, touched in ((got[0], tables[0], inp_rows), (got[1], tables[1], out_rows)):
            changed = {int(r) for r in np.flatnonzero((arr != before).any(axis=1))}
            assert changed and changed <= touched
            assert len(touched) < len(arr)

    def test_huge_vectors_stay_finite(self):
        tables, chunk = make_instance(2)
        got = tuple(a.copy() * 1e4 for a in tables)
        loss = kernels.train_chunk_numpy(*got, 1.0, *chunk)
        assert np.isfinite(loss)
        for arr in got:
            assert np.isfinite(arr).all()


# One kernel; the parameter keeps the ids these tests have always had.
BACKENDS = {"numpy": kernels.train_chunk_numpy}


def group_reference(tables, chunk, groups, lr):
    """The table after one ``group_loss_and_grad`` step per ``(start, stop)`` group, in order, and the loss.

    Group g gives every one of its pairs the g-th row of negatives.
    """
    targets, contexts, negatives = chunk[:3]
    ref = reference_table(tables, chunk)
    loss = 0.0
    for g, (a, b) in enumerate(groups):
        t = int(targets[a])
        grad = group_loss_and_grad(ref, t, contexts[a:b], weights_of(chunk, t), np.tile(negatives[g], (b - a, 1)))
        apply_gradient(ref, grad, lr)
        loss += grad.loss
    return ref, loss


def groups_of_runs(runs):
    """The ``(start, stop)`` groups of consecutive runs of these lengths, each cut into pieces of ``GROUP_MAX``."""
    groups, start = [], 0
    for n in runs:
        for a in range(start, start + n, kernels.GROUP_MAX):
            groups.append((a, min(a + kernels.GROUP_MAX, start + n)))
        start += n
    return groups


class TestGroupedUpdate:
    # deep-dag's fan-in is 16-33 predictor rows a target
    @pytest.mark.parametrize("fan_in", [{}, {"n_cat": 40, "width": (15, 32)}], ids=["narrow", "wide"])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_matches_group_oracle(self, backend, fan_in):
        tables, chunk = make_instance(6, runs=(1, 7, 8, 9, 20), **fan_in)
        if fan_in:
            rows = np.diff(chunk[3])
            assert rows.min() >= 16 and rows.max() <= 33 and rows.max() - rows.min() > 8
        got = clone(tables)
        loss = BACKENDS[backend](*got, 0.05, *chunk)
        # runs of 1, 7, 8, 9 (8 + 1) and 20 (8 + 8 + 4) pairs
        groups = [(0, 1), (1, 8), (8, 16), (16, 24), (24, 25), (25, 33), (33, 41), (41, 45)]
        ref, ref_loss = group_reference(tables, chunk, groups, 0.05)
        assert loss == pytest.approx(ref_loss, abs=1e-10)
        for a, b in zip(got, (ref.inp, ref.ent_out)):
            assert np.allclose(a, b, atol=1e-12)

    @pytest.mark.parametrize("runs", [(3, 3, 16, 2), (8, 1, 17)])
    def test_matches_group_oracle_on_runs(self, runs):
        tables, chunk = make_instance(3, runs=runs)
        got = clone(tables)
        loss = kernels.train_chunk_numpy(*got, 0.07, *chunk)
        ref, ref_loss = group_reference(tables, chunk, groups_of_runs(runs), 0.07)
        assert loss == pytest.approx(ref_loss, abs=1e-10)
        for a, b in zip(got, (ref.inp, ref.ent_out)):
            assert np.allclose(a, b, atol=1e-12)

    def test_matches_group_oracle_on_random_pairs(self):
        tables, chunk = make_instance(3, n_pairs=40)
        targets = chunk[0]
        runs = np.diff(np.flatnonzero(np.append(np.append(True, targets[1:] != targets[:-1]), True)))
        assert runs.sum() == 40 and runs.max() > 1
        got = clone(tables)
        loss = kernels.train_chunk_numpy(*got, 0.07, *chunk)
        ref, ref_loss = group_reference(tables, chunk, groups_of_runs(runs.tolist()), 0.07)
        assert loss == pytest.approx(ref_loss, abs=1e-10)
        for a, b in zip(got, (ref.inp, ref.ent_out)):
            assert np.allclose(a, b, atol=1e-12)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_duplicate_shared_negatives_accumulate(self, backend):
        tables, chunk = make_instance(9, runs=(5, 3))
        chunk = with_negatives(chunk, np.array([[2, 2, 2, 4], [6, 1, 6, 6]], dtype=np.int64))
        got = clone(tables)
        loss = BACKENDS[backend](*got, 0.05, *chunk)
        ref, ref_loss = group_reference(tables, chunk, [(0, 5), (5, 8)], 0.05)
        assert loss == pytest.approx(ref_loss, abs=1e-10)
        for a, b in zip(got, (ref.inp, ref.ent_out)):
            assert np.allclose(a, b, atol=1e-12)

    def test_repeated_output_ids_match_group_oracle(self):
        # one chunk, one case per group: a repeated context, a repeated shared
        # negative, and an id that is both a context and a negative of its group
        tables, chunk = make_instance(14, runs=(4, 3, 5))
        contexts = np.array([3, 3, 5, 3, 0, 4, 8, 1, 5, 7, 5, 2], dtype=np.int64)
        negatives = np.array([[1, 2, 6, 7], [2, 2, 6, 2], [5, 0, 3, 5]], dtype=np.int64)
        chunk = (chunk[0], contexts, negatives, *chunk[3:])
        got = clone(tables)
        loss = kernels.train_chunk_numpy(*got, 0.05, *chunk)
        ref, ref_loss = group_reference(tables, chunk, [(0, 4), (4, 7), (7, 12)], 0.05)
        assert loss == pytest.approx(ref_loss, abs=1e-10)
        for a, b in zip(got, (ref.inp, ref.ent_out)):
            assert np.allclose(a, b, atol=1e-12)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_clamped_scores_match_group_oracle(self, backend):
        # the instance of test_huge_vectors_stay_finite: scores beyond CLAMP on both sides
        tables, chunk = make_instance(2)
        tables = tuple(a * 1e4 for a in tables)
        scores = tables[1] @ tables[0].T
        assert scores.min() < -kernels.CLAMP and scores.max() > kernels.CLAMP
        got = clone(tables)
        loss = BACKENDS[backend](*got, 1.0, *chunk)
        ref, ref_loss = group_reference(tables, chunk, list(zip(chunk[6][:-1], chunk[6][1:])), 1.0)
        assert loss == pytest.approx(ref_loss, rel=1e-12)
        for a, b in zip(got, (ref.inp, ref.ent_out)):
            assert np.allclose(a, b, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_entities_without_categories(self, backend):
        # every predictor slice is the target's own row alone
        tables, chunk = make_instance(5)
        n_ent = len(chunk[3]) - 1
        preds = predictor_csr(np.zeros(n_ent + 1, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0))
        assert preds[1].tolist() == list(range(n_ent)) and preds[2].tolist() == [1.0] * n_ent
        chunk = (*chunk[:3], *preds, chunk[6])
        got = clone(tables)
        loss = BACKENDS[backend](*got, 0.05, *chunk)
        ref, ref_loss = group_reference(tables, chunk, list(zip(chunk[6][:-1], chunk[6][1:])), 0.05)
        assert loss == pytest.approx(ref_loss, abs=1e-10)
        for a, b in zip(got, (ref.inp, ref.ent_out)):
            assert np.allclose(a, b, atol=1e-12)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("size", [1, 7, 8])
    def test_step_is_finite_difference_gradient(self, backend, size):
        # one group of `size` pairs sharing one row of negatives: the kernel's
        # step at lr 1 is minus the gradient of the summed per-pair loss, whose
        # negative term counts every shared negative once per pair
        tables, chunk = make_instance(10 + size, runs=(size,), k=3)
        targets, contexts, negatives = chunk[:3]
        t = int(targets[0])
        weights = weights_of(chunk, t)
        tiled = np.tile(negatives[0], (size, 1))
        got = clone(tables)
        loss = BACKENDS[backend](*got, 1.0, *chunk)
        ref = reference_table(tables, chunk)

        def summed_loss():
            return sum(pair_loss_and_grad(ref, (t, c), weights, negs).loss for c, negs in zip(contexts, tiled))

        assert loss == pytest.approx(summed_loss(), rel=1e-12)
        eps = 1e-6
        for name, before, after in zip(("inp", "ent_out"), tables, got):
            arr = getattr(ref, name)
            fd = np.zeros_like(arr)
            for idx in np.ndindex(arr.shape):
                orig = arr[idx]
                arr[idx] = orig + eps
                up = summed_loss()
                arr[idx] = orig - eps
                fd[idx] = (up - summed_loss()) / (2 * eps)
                arr[idx] = orig
            assert np.allclose(before - after, fd, rtol=1e-6, atol=1e-8), name

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_run_of_20_is_three_steps(self, backend):
        tables, chunk = make_instance(7, runs=(20,))
        got = clone(tables)
        BACKENDS[backend](*got, 0.05, *chunk)
        three, _ = group_reference(tables, chunk, [(0, 8), (8, 16), (16, 20)], 0.05)
        one, _ = group_reference(tables, chunk, [(0, 20)], 0.05)
        assert np.allclose(got[0], three.inp, atol=1e-12)
        assert np.allclose(got[1], three.ent_out, atol=1e-12)
        assert not np.allclose(got[0], one.inp, atol=1e-6)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_follows_the_bounds_it_is_handed(self, backend):
        # runs of 3 and 4 pairs, the run of 3 cut as 1 + 2 where group_bounds keeps it whole
        tables, chunk = make_instance(12, runs=(3, 4))
        assert chunk[6].tolist() == [0, 3, 7]
        negatives = np.random.default_rng(12).integers(0, len(chunk[3]) - 1, size=(3, chunk[2].shape[1]))
        chunk = with_negatives(chunk, negatives, np.array([0, 1, 3, 7]))
        got = clone(tables)
        loss = BACKENDS[backend](*got, 0.05, *chunk)
        ref, ref_loss = group_reference(tables, chunk, [(0, 1), (1, 3), (3, 7)], 0.05)
        assert loss == pytest.approx(ref_loss, abs=1e-10)
        for a, b in zip(got, (ref.inp, ref.ent_out)):
            assert np.allclose(a, b, atol=1e-12)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_empty_chunk_is_a_no_op(self, backend):
        tables, chunk = make_instance(12, runs=(3, 4))
        empty = np.empty(0, dtype=np.int64)
        got = clone(tables)
        loss = BACKENDS[backend](*got, 0.05, empty, empty, chunk[2][:0], *chunk[3:6], np.array([0]))
        assert loss == 0.0
        for a, b in zip(got, tables):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("bounds", [[0, 3, 6], [1, 3, 7]])
    def test_refuses_bounds_not_spanning_the_chunk(self, backend, bounds):
        tables, chunk = make_instance(12, runs=(3, 4))
        got = clone(tables)
        with pytest.raises(ValueError, match=r"bounds must run from 0 to len\(targets\)"):
            BACKENDS[backend](*got, 0.05, *with_negatives(chunk, chunk[2], np.array(bounds)))
        for a, b in zip(got, tables):
            assert np.array_equal(a, b)


class TestGroupBounds:
    @pytest.mark.parametrize("runs", [(1,), (8,), (9,), (16,), (17,), (3, 3, 16, 2)])
    def test_cuts_runs_into_pieces_of_group_max(self, runs):
        targets = np.repeat(np.arange(len(runs)) % 2, runs)
        starts = [a for a, _ in groups_of_runs(runs)]
        assert kernels.group_bounds(targets).tolist() == starts + [sum(runs)]

    def test_no_targets_is_one_bound(self):
        assert kernels.group_bounds(np.empty(0, dtype=np.int64)).tolist() == [0]


class TestGroupContexts:
    def test_one_left_aligned_row_per_group_padded_to_the_widest(self):
        targets = np.array([5, 5, 5, 2, 7, 7])
        bounds = kernels.group_bounds(targets)
        assert bounds.tolist() == [0, 3, 4, 6]
        rows = kernels.group_contexts(np.array([1, 2, 3, 4, 5, 6]), bounds)
        assert rows.tolist() == [[1, 2, 3], [4, -1, -1], [5, 6, -1]]

    def test_no_groups_is_an_empty_table(self):
        rows = kernels.group_contexts(np.empty(0, dtype=np.int64), np.array([0]))
        assert rows.shape == (0, 0)

    def test_run_of_20_is_rows_of_8_8_and_4(self):
        contexts = np.arange(20) + 100
        rows = kernels.group_contexts(contexts, kernels.group_bounds(np.zeros(20, dtype=np.int64)))
        assert rows.tolist() == [
            list(range(100, 108)), list(range(108, 116)), list(range(116, 120)) + [-1] * 4,
        ]


class TestBackendSelection:
    def test_backend_reported(self):
        assert kernels.BACKEND == "numpy"
        assert kernels.train_chunk is kernels.train_chunk_numpy
        assert kernels.train_chunk_numba is None


def test_wide_fan_in_tables_are_pinned(tmp_path, monkeypatch):
    # perfbench's deep-dag world (15.9 predictor rows per pair on average, 7 to
    # 33), built by its own generator, which is only imported, and trained at
    # the workload's settings. The seed-42 quickstart pin has 3 predictor rows
    # per pair, so a change that moves bytes only in wide groups passes it.
    # The pin is the 6-digit export: the raw tables move at rounding level with
    # the BLAS core type, so a rounding-level reorder goes unseen here too
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from workloads import FILES, WORKLOADS

    WORKLOADS["deep-dag"].generate(tmp_path, 1)
    vocab = build_vocabulary(tmp_path / FILES["corpus"])
    graph, _ = prune_to_dag(load_hierarchy(tmp_path / FILES["hierarchy"], vocab), vocab, "root")
    corpus = load_corpus(tmp_path / FILES["corpus"], vocab, graph)
    cfg = TrainConfig(mode="hce", dim=100, negatives=10, chunk=500, epochs=3, lr0=0.1, seed=1)
    save_text(train(corpus, graph, cfg), vocab, tmp_path / "embeddings.txt")
    assert hashlib.md5((tmp_path / "embeddings.txt").read_bytes()).hexdigest() == "7629c0b2c229bef0fded1ddea2bc7855"
