import os

import numpy as np
import pytest

from catembed import kernels
from catembed.embeddings import EmbeddingTable
from catembed.hierarchy import AncestorWeights

from oracles import apply_gradient, group_loss_and_grad, pair_loss_and_grad


def make_instance(seed, n_pairs=12, n_ent=9, n_cat=5, dim=7, k=4, runs=None):
    """Random tables, CSR weights and one chunk of pairs, with one row of k negatives per group.

    ``runs`` (run lengths) replaces ``n_pairs``: the chunk is then runs of equal
    targets, each run's target different from the one before it.
    """
    rng = np.random.default_rng(seed)
    ent_in = rng.normal(0, 0.4, (n_ent, dim))
    cat_in = rng.normal(0, 0.4, (n_cat, dim))
    ent_out = rng.normal(0, 0.4, (n_ent, dim))
    # random CSR weight layout: 0-3 categories per entity
    offsets = np.zeros(n_ent + 1, dtype=np.int64)
    ids, ws = [], []
    for e in range(n_ent):
        m = int(rng.integers(0, 4))
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
    negatives = rng.integers(0, n_ent, size=(len(kernels.group_bounds(targets)) - 1, k))
    return (
        ent_in, cat_in, ent_out,
        targets.astype(np.int64), contexts.astype(np.int64), negatives.astype(np.int64),
        offsets, np.array(ids, dtype=np.int64), np.array(ws, dtype=np.float64),
    )


def clone(arrays):
    return tuple(a.copy() for a in arrays)


class TestNumpyKernel:
    def test_matches_reference_implementation(self):
        arrays = make_instance(0)
        ent_in, cat_in, ent_out = (a.copy() for a in arrays[:3])
        targets, contexts, negatives, offsets, ids, ws = arrays[3:]
        lr = 0.05
        assert len(negatives) == len(targets)  # every group is one pair
        loss = kernels.train_chunk_numpy(
            ent_in, cat_in, ent_out, targets, contexts, negatives, offsets, ids, ws, lr
        )
        # reference: sequential per-pair gradients applied one at a time
        ref = EmbeddingTable(ent_in=arrays[0].copy(), cat_in=arrays[1].copy(), ent_out=arrays[2].copy())
        ref_loss = 0.0
        for i in range(len(targets)):
            lo, hi = offsets[targets[i]], offsets[targets[i] + 1]
            weights = AncestorWeights(categories=tuple(ids[lo:hi]), weights=ws[lo:hi])
            grad = pair_loss_and_grad(ref, (targets[i], contexts[i]), weights, negatives[i])
            apply_gradient(ref, grad, lr)
            ref_loss += grad.loss
        assert loss == pytest.approx(ref_loss, abs=1e-10)
        assert np.allclose(ent_in, ref.ent_in, atol=1e-12)
        assert np.allclose(cat_in, ref.cat_in, atol=1e-12)
        assert np.allclose(ent_out, ref.ent_out, atol=1e-12)

    def test_duplicate_negatives_accumulate(self):
        arrays = make_instance(1, n_pairs=1, k=3)
        targets, contexts = arrays[3], arrays[4]
        negatives = np.array([[2, 2, 2]], dtype=np.int64)
        ent_in, cat_in, ent_out = (a.copy() for a in arrays[:3])
        kernels.train_chunk_numpy(
            ent_in, cat_in, ent_out, targets, contexts, negatives, *arrays[6:], 0.1
        )
        ref = EmbeddingTable(ent_in=arrays[0].copy(), cat_in=arrays[1].copy(), ent_out=arrays[2].copy())
        lo, hi = arrays[6][targets[0]], arrays[6][targets[0] + 1]
        weights = AncestorWeights(categories=tuple(arrays[7][lo:hi]), weights=arrays[8][lo:hi])
        grad = pair_loss_and_grad(ref, (targets[0], contexts[0]), weights, negatives[0])
        apply_gradient(ref, grad, 0.1)
        assert np.allclose(ent_out, ref.ent_out, atol=1e-12)

    @pytest.mark.parametrize("rows", [7, 9])
    def test_refuses_negatives_not_one_row_per_group(self, rows):
        arrays = make_instance(6, runs=(1, 7, 8, 9, 20))
        assert len(arrays[5]) == 8
        negatives = np.resize(arrays[5], (rows, arrays[5].shape[1]))
        tables = clone(arrays[:3])
        with pytest.raises(ValueError, match="one row per group"):
            kernels.train_chunk_numpy(*tables, *arrays[3:5], negatives, *arrays[6:], 0.05)
        for got, want in zip(tables, arrays[:3]):
            assert np.array_equal(got, want)

    def test_refuses_non_contiguous_output_table(self):
        arrays = make_instance(8)
        ent_out = np.asfortranarray(arrays[2])
        with pytest.raises(ValueError, match="C-contiguous"):
            kernels.train_chunk_numpy(arrays[0].copy(), arrays[1].copy(), ent_out, *arrays[3:], 0.05)

    def test_huge_vectors_stay_finite(self):
        arrays = make_instance(2)
        ent_in, cat_in, ent_out = (a.copy() * 1e4 for a in arrays[:3])
        loss = kernels.train_chunk_numpy(ent_in, cat_in, ent_out, *arrays[3:], 1.0)
        assert np.isfinite(loss)
        for arr in (ent_in, cat_in, ent_out):
            assert np.isfinite(arr).all()


# The loop kernel as shipped: numba-compiled when numba is importable, plain
# Python otherwise (slow, but fine on these tiny instances).
loop_kernel = kernels._train_chunk_loops if kernels.train_chunk_numba is None else kernels.train_chunk_numba


def assert_loops_match_numpy(arrays, lr):
    np_arrays = clone(arrays[:3])
    nb_arrays = clone(arrays[:3])
    rest = arrays[3:]
    loss_np = kernels.train_chunk_numpy(*np_arrays, *rest, lr)
    loss_nb = loop_kernel(*nb_arrays, *rest, lr)
    assert loss_nb == pytest.approx(loss_np, rel=1e-12, abs=1e-12)
    for a, b in zip(np_arrays, nb_arrays):
        assert np.allclose(a, b, rtol=1e-12, atol=1e-14)


class TestLoopKernel:
    def test_matches_numpy_backend(self):
        assert_loops_match_numpy(make_instance(3, n_pairs=40), 0.07)

    @pytest.mark.parametrize("runs", [(1, 7, 8, 9, 20), (3, 3, 16, 2)])
    def test_matches_numpy_backend_on_runs(self, runs):
        assert_loops_match_numpy(make_instance(3, runs=runs), 0.07)

    def test_deterministic_across_calls(self):
        arrays = make_instance(4)
        first = clone(arrays[:3])
        second = clone(arrays[:3])
        rest = arrays[3:]
        l1 = loop_kernel(*first, *rest, 0.02)
        l2 = loop_kernel(*second, *rest, 0.02)
        assert l1 == l2
        for a, b in zip(first, second):
            assert np.array_equal(a, b)

    def test_entities_without_categories(self):
        arrays = make_instance(5)
        offsets = np.zeros_like(arrays[6])  # no categories at all
        ids = np.empty(0, dtype=np.int64)
        ws = np.empty(0, dtype=np.float64)
        nb = clone(arrays[:3])
        npv = clone(arrays[:3])
        l_nb = loop_kernel(*nb, *arrays[3:6], offsets, ids, ws, 0.05)
        l_np = kernels.train_chunk_numpy(*npv, *arrays[3:6], offsets, ids, ws, 0.05)
        assert l_nb == pytest.approx(l_np, rel=1e-12)
        for a, b in zip(nb, npv):
            assert np.allclose(a, b, rtol=1e-12, atol=1e-14)

    def test_refuses_negatives_not_one_row_per_group(self):
        arrays = make_instance(6, runs=(1, 7, 8, 9, 20))
        tables = clone(arrays[:3])
        with pytest.raises(ValueError, match="one row per group"):
            loop_kernel(*tables, *arrays[3:5], arrays[5][:-1], *arrays[6:], 0.05)
        for got, want in zip(tables, arrays[:3]):
            assert np.array_equal(got, want)


BACKENDS = {"numpy": kernels.train_chunk_numpy, "loops": loop_kernel}


def group_reference(arrays, groups, lr):
    """The table after one ``group_loss_and_grad`` step per ``(start, stop)`` group, in order, and the loss.

    Group g gives every one of its pairs the g-th row of negatives.
    """
    targets, contexts, negatives, offsets, ids, ws = arrays[3:]
    ref = EmbeddingTable(ent_in=arrays[0].copy(), cat_in=arrays[1].copy(), ent_out=arrays[2].copy())
    loss = 0.0
    for g, (a, b) in enumerate(groups):
        t = int(targets[a])
        lo, hi = offsets[t], offsets[t + 1]
        weights = AncestorWeights(categories=tuple(ids[lo:hi]), weights=ws[lo:hi])
        grad = group_loss_and_grad(ref, t, contexts[a:b], weights, np.tile(negatives[g], (b - a, 1)))
        apply_gradient(ref, grad, lr)
        loss += grad.loss
    return ref, loss


class TestGroupedUpdate:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_matches_group_oracle(self, backend):
        arrays = make_instance(6, runs=(1, 7, 8, 9, 20))
        tables = clone(arrays[:3])
        loss = BACKENDS[backend](*tables, *arrays[3:], 0.05)
        # runs of 1, 7, 8, 9 (8 + 1) and 20 (8 + 8 + 4) pairs
        groups = [(0, 1), (1, 8), (8, 16), (16, 24), (24, 25), (25, 33), (33, 41), (41, 45)]
        ref, ref_loss = group_reference(arrays, groups, 0.05)
        assert loss == pytest.approx(ref_loss, abs=1e-10)
        for got, want in zip(tables, (ref.ent_in, ref.cat_in, ref.ent_out)):
            assert np.allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_duplicate_shared_negatives_accumulate(self, backend):
        arrays = make_instance(9, runs=(5, 3))
        negatives = np.array([[2, 2, 2, 4], [6, 1, 6, 6]], dtype=np.int64)
        arrays = (*arrays[:5], negatives, *arrays[6:])
        tables = clone(arrays[:3])
        loss = BACKENDS[backend](*tables, *arrays[3:], 0.05)
        ref, ref_loss = group_reference(arrays, [(0, 5), (5, 8)], 0.05)
        assert loss == pytest.approx(ref_loss, abs=1e-10)
        for got, want in zip(tables, (ref.ent_in, ref.cat_in, ref.ent_out)):
            assert np.allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("size", [1, 7, 8])
    def test_step_is_finite_difference_gradient(self, backend, size):
        # one group of `size` pairs sharing one row of negatives: the kernel's
        # step at lr 1 is minus the gradient of the summed per-pair loss, whose
        # negative term counts every shared negative once per pair
        arrays = make_instance(10 + size, runs=(size,), k=3)
        targets, contexts, negatives, offsets, ids, ws = arrays[3:]
        t = int(targets[0])
        weights = AncestorWeights(categories=tuple(ids[offsets[t]:offsets[t + 1]]), weights=ws[offsets[t]:offsets[t + 1]])
        tiled = np.tile(negatives[0], (size, 1))
        tables = clone(arrays[:3])
        loss = BACKENDS[backend](*tables, *arrays[3:], 1.0)
        ref = EmbeddingTable(*clone(arrays[:3]))

        def summed_loss():
            return sum(pair_loss_and_grad(ref, (t, c), weights, negs).loss for c, negs in zip(contexts, tiled))

        assert loss == pytest.approx(summed_loss(), rel=1e-12)
        eps = 1e-6
        for name, before, after in zip(("ent_in", "cat_in", "ent_out"), arrays[:3], tables):
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
        arrays = make_instance(7, runs=(20,))
        tables = clone(arrays[:3])
        BACKENDS[backend](*tables, *arrays[3:], 0.05)
        three, _ = group_reference(arrays, [(0, 8), (8, 16), (16, 20)], 0.05)
        one, _ = group_reference(arrays, [(0, 20)], 0.05)
        assert np.allclose(tables[0], three.ent_in, atol=1e-12)
        assert np.allclose(tables[2], three.ent_out, atol=1e-12)
        assert not np.allclose(tables[0], one.ent_in, atol=1e-6)


def child_env(**extra):
    """Minimal child environment that imports the same catembed as this process."""
    src = os.path.dirname(os.path.dirname(kernels.__file__))
    path = os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])
    return {"PATH": "/usr/bin:/bin", "PYTHONPATH": path, **extra}


class TestBackendSelection:
    def test_backend_reported(self):
        assert kernels.BACKEND in ("numba", "numpy")

    def test_env_flag_forces_numpy(self):
        import subprocess
        import sys

        out = subprocess.run(
            [sys.executable, "-c", "from catembed import kernels; print(kernels.BACKEND)"],
            env=child_env(CATEMBED_NO_NUMBA="1"),
            capture_output=True,
            text=True,
        )
        assert out.stdout.strip() == "numpy"

    def test_default_prefers_numba_when_available(self):
        import subprocess
        import sys

        out = subprocess.run(
            [sys.executable, "-c", "from catembed import kernels; print(kernels.BACKEND)"],
            env=child_env(),
            capture_output=True,
            text=True,
        )
        assert out.stdout.strip() in ("numba", "numpy")
