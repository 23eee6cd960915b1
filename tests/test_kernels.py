import os

import numpy as np
import pytest

from catembed import kernels
from catembed.embeddings import EmbeddingTable
from catembed.hierarchy import AncestorWeights

from oracles import apply_gradient, pair_loss_and_grad


def make_instance(seed, n_pairs=12, n_ent=9, n_cat=5, dim=7, k=4):
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
    targets = rng.integers(0, n_ent, size=n_pairs)
    contexts = rng.integers(0, n_ent, size=n_pairs)
    negatives = rng.integers(0, n_ent, size=(n_pairs, k))
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


class TestLoopKernel:
    def test_matches_numpy_backend(self):
        arrays = make_instance(3, n_pairs=40)
        np_arrays = clone(arrays[:3])
        nb_arrays = clone(arrays[:3])
        rest = arrays[3:]
        loss_np = kernels.train_chunk_numpy(*np_arrays, *rest, 0.07)
        loss_nb = loop_kernel(*nb_arrays, *rest, 0.07)
        assert loss_nb == pytest.approx(loss_np, rel=1e-12, abs=1e-12)
        for a, b in zip(np_arrays, nb_arrays):
            assert np.allclose(a, b, rtol=1e-12, atol=1e-14)

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
