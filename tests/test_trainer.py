import math
from dataclasses import asdict

import numpy as np
import pytest

from catembed.corpus import build_vocabulary, load_corpus, load_hierarchy, prune_to_dag
from catembed.embeddings import init_embeddings
from catembed.errors import ConfigError, TrainError
from catembed.hierarchy import weight_csr
from catembed import trainer
from catembed.kernels import CLAMP, group_bounds
from catembed.sampler import pairs_arrays
from catembed.trainer import TrainConfig, train

from oracles import apply_gradient, group_loss_and_grad, pair_loss_and_grad, softmax_prob, table_of

EMPTY_WEIGHTS = ((), np.empty(0))


def random_table(rng, n_ent, n_cat, dim, scale=0.5):
    return table_of(
        ent_in=rng.normal(0, scale, (n_ent, dim)),
        cat_in=rng.normal(0, scale, (n_cat, dim)),
        ent_out=rng.normal(0, scale, (n_ent, dim)),
    )


def reference_loss(table, t, c, cats, ws, negs):
    """Independent scalar re-implementation of the pair objective."""

    def log_sigma(x):
        x = max(-CLAMP, min(CLAMP, x))
        return -math.log1p(math.exp(-x))

    preds = [(table.ent_in[t], 1.0)] + [(table.cat_in[ci], wi) for ci, wi in zip(cats, ws)]
    loss = 0.0
    for v, w in preds:
        loss -= w * log_sigma(float(np.dot(table.ent_out[c], v)))
        for n in negs:
            loss -= w * log_sigma(-float(np.dot(table.ent_out[n], v)))
    return loss


def fd_gradient(table, t, c, cats, ws, negs, eps=1e-5):
    """Central finite differences of the reference loss over every touched row."""
    return fd_group_gradient(table, t, [c], cats, ws, [negs], eps)


def fd_group_gradient(table, t, contexts, cats, ws, negatives, eps=1e-5):
    """Central finite differences of the group's summed reference loss over every touched row."""
    outs = {int(c) for c in contexts} | {int(n) for negs in negatives for n in negs}
    touched = [("ent_in", t)] + [("cat_in", ci) for ci in cats] + [("ent_out", n) for n in outs]

    def loss():
        return sum(reference_loss(table, t, c, cats, ws, negs) for c, negs in zip(contexts, negatives))

    grads = {}
    for name, row in touched:
        arr = getattr(table, name)
        g = np.zeros(arr.shape[1])
        for j in range(arr.shape[1]):
            orig = arr[row, j]
            arr[row, j] = orig + eps
            up = loss()
            arr[row, j] = orig - eps
            down = loss()
            arr[row, j] = orig
            g[j] = (up - down) / (2 * eps)
        grads[(name, row)] = g
    return grads


class TestTrainConfig:
    def test_defaults_are_valid(self):
        cfg = TrainConfig()
        cfg.validate()
        assert cfg.lr_min == pytest.approx(1e-4 * cfg.lr0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dim": 0},
            {"epochs": 0},
            {"negatives": 0},
            {"chunk": 0},
            {"lr0": 0.01, "lr_min": 0.02},
            {"lr_min": 0.0},
            {"mode": "bogus"},
            {"workers": 0},
            {"workers": 2},
            {"subsample": -1.0},
            {"subsample": float("nan")},
            {"seed": -1},
            {"lr0": float("inf")},
            {"noise_alpha": float("nan")},
            {"noise_alpha": float("inf")},
            {"mode": "HCE"},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            TrainConfig(**kwargs).validate()

    def test_dict_roundtrip(self):
        cfg = TrainConfig(dim=32, lr0=0.05, mode="ce")
        again = TrainConfig(**asdict(cfg))
        assert asdict(again) == asdict(cfg)


class TestInitEmbeddings:
    def test_input_range(self):
        table = init_embeddings(20, 5, 4, seed=0)
        bound = 0.5 / 4
        assert np.all(np.abs(table.ent_in) <= bound)
        assert np.all(np.abs(table.cat_in) <= bound)

    def test_outputs_zero(self):
        table = init_embeddings(7, 3, 16, seed=1)
        assert not table.ent_out.any()

    def test_same_seed_bit_identical(self):
        a = init_embeddings(11, 4, 8, seed=9)
        b = init_embeddings(11, 4, 8, seed=9)
        assert np.array_equal(a.ent_in, b.ent_in)
        assert np.array_equal(a.cat_in, b.cat_in)

    def test_one_draw_equals_the_old_two_draws(self):
        # entity rows then category rows, as two draws of one generator gave them
        table = init_embeddings(7, 3, 5, seed=4)
        rng = np.random.default_rng(4)
        assert np.array_equal(table.ent_in, (rng.random((7, 5)) - 0.5) * (1.0 / 5))
        assert np.array_equal(table.cat_in, (rng.random((3, 5)) - 0.5) * (1.0 / 5))

    def test_inputs_are_one_row_matrix(self):
        table = init_embeddings(7, 3, 5, seed=4)
        assert table.inp.shape == (10, 5) and table.inp.flags.c_contiguous
        assert np.shares_memory(table.ent_in, table.inp) and np.shares_memory(table.cat_in, table.inp)
        assert np.array_equal(table.inp, np.vstack([table.ent_in, table.cat_in]))

    def test_different_seeds_differ(self):
        a = init_embeddings(11, 4, 8, seed=9)
        b = init_embeddings(11, 4, 8, seed=10)
        assert not np.array_equal(a.ent_in, b.ent_in)


class TestSoftmaxProb:
    def test_uniform_when_outputs_equal(self):
        rng = np.random.default_rng(0)
        table = random_table(rng, 6, 2, 4)
        table.ent_out[:] = table.ent_out[0]
        for ctx in range(6):
            assert softmax_prob(table, table.ent_in[2], ctx) == pytest.approx(1 / 6)

    def test_two_entity_logit_gap(self):
        # dot products (1, 0): p = e / (e + 1)
        table = table_of(
            ent_in=np.array([[1.0], [0.0]]),
            cat_in=np.zeros((1, 1)),
            ent_out=np.array([[1.0], [0.0]]),
        )
        p = softmax_prob(table, table.ent_in[0], 0)
        assert p == pytest.approx(math.e / (math.e + 1), abs=1e-9)
        assert p == pytest.approx(0.73106, abs=1e-5)

    def test_normalizes_to_one(self):
        rng = np.random.default_rng(3)
        table = random_table(rng, 9, 2, 5)
        total = sum(softmax_prob(table, table.cat_in[1], ctx) for ctx in range(9))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_stable_under_large_scores(self):
        rng = np.random.default_rng(4)
        table = random_table(rng, 4, 1, 3, scale=40.0)
        p = softmax_prob(table, table.ent_in[0], 1)
        assert 0.0 <= p <= 1.0 and math.isfinite(p)


class TestPairLoss:
    def test_zero_vectors_no_categories_one_negative(self):
        table = table_of(ent_in=np.zeros((3, 4)), cat_in=np.zeros((1, 4)), ent_out=np.zeros((3, 4)))
        grad = pair_loss_and_grad(table, (0, 1), EMPTY_WEIGHTS, np.array([2]))
        assert grad.loss == pytest.approx(-2 * math.log(0.5), abs=1e-12)
        assert grad.loss == pytest.approx(1.38629, abs=1e-5)

    def test_zero_vectors_one_category_one_negative(self):
        table = table_of(ent_in=np.zeros((3, 4)), cat_in=np.zeros((2, 4)), ent_out=np.zeros((3, 4)))
        weights = ((1,), np.array([1.0]))
        grad = pair_loss_and_grad(table, (0, 1), weights, np.array([2]))
        assert grad.loss == pytest.approx(-4 * math.log(0.5), abs=1e-12)
        assert grad.loss == pytest.approx(2.77259, abs=1e-5)

    def test_touches_exactly_the_contract_rows(self):
        rng = np.random.default_rng(7)
        table = random_table(rng, 8, 4, 6)
        weights = ((0, 3), np.array([0.7, 0.3]))
        grad = pair_loss_and_grad(table, (2, 5), weights, np.array([1, 4, 4]))
        assert set(grad.deltas) == {
            ("ent_in", 2), ("cat_in", 0), ("cat_in", 3),
            ("ent_out", 5), ("ent_out", 1), ("ent_out", 4),
        }

    def test_matches_reference_loss(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            table = random_table(rng, 6, 4, 5)
            cats = tuple(int(x) for x in rng.choice(4, size=2, replace=False))
            raw = rng.random(2) + 0.1
            ws = raw / raw.sum()
            negs = rng.integers(0, 6, size=3)
            t, c = int(rng.integers(6)), int(rng.integers(6))
            grad = pair_loss_and_grad(table, (t, c), (cats, ws), negs)
            expect = reference_loss(table, t, c, cats, ws, negs)
            assert grad.loss == pytest.approx(expect, abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        worst = 0.0
        for _ in range(20):
            dim = int(rng.integers(2, 9))
            table = random_table(rng, 6, 4, dim)
            n_cats = int(rng.integers(0, 4))
            cats = tuple(int(x) for x in rng.choice(4, size=n_cats, replace=False))
            if n_cats:
                raw = rng.random(n_cats) + 0.1
                ws = raw / raw.sum()
            else:
                ws = np.empty(0)
            negs = rng.integers(0, 6, size=int(rng.integers(1, 4)))
            t, c = int(rng.integers(6)), int(rng.integers(6))
            grad = pair_loss_and_grad(table, (t, c), (cats, ws), negs)
            fd = fd_gradient(table, t, c, cats, ws, negs)
            for key, fd_vec in fd.items():
                an_vec = grad.deltas[key]
                denom = np.maximum(np.maximum(np.abs(an_vec), np.abs(fd_vec)), 1e-8)
                worst = max(worst, float(np.max(np.abs(an_vec - fd_vec) / denom)))
        assert worst < 1e-4

    def test_skipgram_reduction_term_by_term(self):
        rng = np.random.default_rng(10)
        table = random_table(rng, 5, 2, 4)
        t, c = 1, 3
        negs = [0, 2, 4]

        def sgns_term(u, v, positive):
            s = float(np.dot(u, v))
            s = max(-CLAMP, min(CLAMP, s))
            return -math.log(1.0 / (1.0 + math.exp(-s))) if positive else -math.log(
                1.0 / (1.0 + math.exp(s))
            )

        # positive term alone (no negatives)
        grad = pair_loss_and_grad(table, (t, c), EMPTY_WEIGHTS, np.empty(0, dtype=np.int64))
        pos = sgns_term(table.ent_out[c], table.ent_in[t], True)
        assert grad.loss == pytest.approx(pos, abs=1e-12)
        # each added negative contributes exactly its own term
        running = pos
        for i in range(1, len(negs) + 1):
            grad = pair_loss_and_grad(table, (t, c), EMPTY_WEIGHTS, np.array(negs[:i]))
            running_i = running + sum(
                sgns_term(table.ent_out[n], table.ent_in[t], False) for n in negs[:i]
            )
            assert grad.loss == pytest.approx(running_i, abs=1e-12)


class TestGroupLoss:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(20):
            dim = int(rng.integers(2, 9))
            table = random_table(rng, 6, 4, dim)
            n_cats = int(rng.integers(0, 4))
            cats = tuple(int(x) for x in rng.choice(4, size=n_cats, replace=False))
            ws = rng.random(n_cats) + 0.1
            ws = ws / ws.sum()
            size = int(rng.integers(1, 9))
            contexts = rng.integers(0, 6, size=size)
            negatives = rng.integers(0, 6, size=(size, int(rng.integers(1, 4))))
            t = int(rng.integers(6))
            grad = group_loss_and_grad(table, t, contexts, (cats, ws), negatives)
            expect = sum(reference_loss(table, t, c, cats, ws, negs) for c, negs in zip(contexts, negatives))
            assert grad.loss == pytest.approx(expect, abs=1e-12)
            fd = fd_group_gradient(table, t, contexts, cats, ws, negatives)
            assert set(grad.deltas) == set(fd)
            for key, fd_vec in fd.items():
                an_vec = grad.deltas[key]
                denom = np.maximum(np.maximum(np.abs(an_vec), np.abs(fd_vec)), 1e-8)
                worst = max(worst, float(np.max(np.abs(an_vec - fd_vec) / denom)))
        assert worst < 1e-4


class TestApplyGradient:
    def test_zero_gradient_no_change(self):
        rng = np.random.default_rng(11)
        table = random_table(rng, 4, 2, 3)
        before = table.ent_in.copy()
        grad = pair_loss_and_grad(table, (0, 1), EMPTY_WEIGHTS, np.array([2]))
        for key in grad.deltas:
            grad.deltas[key][:] = 0.0
        apply_gradient(table, grad, lr=0.5)
        assert np.array_equal(table.ent_in, before)

    def test_vanishing_lr_vanishing_change(self):
        rng = np.random.default_rng(12)
        table = random_table(rng, 4, 2, 3)
        before = table.ent_in.copy()
        grad = pair_loss_and_grad(table, (0, 1), EMPTY_WEIGHTS, np.array([2]))
        apply_gradient(table, grad, lr=1e-30)
        assert np.max(np.abs(table.ent_in - before)) < 1e-20

    def test_grad_then_negated_grad_restores(self):
        rng = np.random.default_rng(13)
        table = random_table(rng, 4, 2, 3)
        before = {k: getattr(table, k).copy() for k in ("ent_in", "cat_in", "ent_out")}
        grad = pair_loss_and_grad(table, (0, 1), EMPTY_WEIGHTS, np.array([2, 3]))
        apply_gradient(table, grad, lr=0.1)
        neg = pair_loss_and_grad(table, (0, 1), EMPTY_WEIGHTS, np.array([2, 3]))  # noqa: F841
        for key in grad.deltas:
            grad.deltas[key] *= -1.0
        apply_gradient(table, grad, lr=0.1)
        for name, arr in before.items():
            assert np.allclose(getattr(table, name), arr, atol=1e-15)


def tiny_world(n_docs=60, seed=0):
    rng = np.random.default_rng(seed)
    leaves = ["l0", "l1", "l2"]
    ents = {leaf: [f"{leaf}e{i}" for i in range(4)] for leaf in leaves}
    lines = []
    for _ in range(n_docs):
        leaf = leaves[int(rng.integers(3))]
        target = ents[leaf][int(rng.integers(4))]
        ctxs = []
        for _ in range(6):
            if rng.random() < 0.85:
                pool = [e for e in ents[leaf] if e != target]
            else:
                other = leaves[int(rng.integers(3))]
                pool = ents[other]
            ctxs.append(pool[int(rng.integers(len(pool)))])
        lines.append(f"{target}\t{leaf}\t{' '.join(ctxs)}")
    hier = [f"root\t{leaf}" for leaf in leaves]
    vocab = build_vocabulary(lines)
    raw = load_hierarchy(hier, vocab)
    graph, _ = prune_to_dag(raw, vocab, "root")
    corpus = load_corpus(lines, vocab, graph)
    return vocab, graph, corpus


class TestTrain:
    def test_loss_decreases(self):
        _, graph, corpus = tiny_world()
        losses = []
        cfg = TrainConfig(dim=16, epochs=4, negatives=5, chunk=50, seed=3, mode="hce")
        train(corpus, graph, cfg, on_chunk=lambda s: losses.append(s.loss_per_pair))
        smoothed = [losses[0]]
        for loss in losses[1:]:
            smoothed.append(0.9 * smoothed[-1] + 0.1 * loss)
        assert smoothed[-1] < smoothed[0]

    def test_subsample_drops_pairs(self):
        _, graph, corpus = tiny_world()
        seen = []
        cfg = TrainConfig(dim=8, epochs=1, negatives=3, chunk=1000, seed=3, subsample=1e-3)
        table = train(corpus, graph, cfg, on_chunk=lambda s: seen.append(s.pairs_done))
        table.assert_finite()
        assert 0 < seen[-1] < corpus.n_pairs  # aggressive threshold discards some pairs

    def test_subsampled_lr_decays_over_the_full_stream(self):
        # the schedule follows each chunk's position among all scheduled pairs, kept or not
        _, graph, corpus = tiny_world()
        stats = []
        cfg = TrainConfig(dim=8, epochs=3, negatives=3, chunk=20, seed=3, subsample=1e-3)
        train(corpus, graph, cfg, on_chunk=stats.append)
        assert stats[-1].pairs_done < cfg.epochs * corpus.n_pairs / 2  # most pairs dropped
        assert stats[-1].lr < (cfg.lr0 + cfg.lr_min) / 2
        assert all(a.lr > b.lr for a, b in zip(stats, stats[1:]))

    def test_subsampled_positions_follow_the_schedule(self):
        # the schedule position runs over every scheduled pair, so it reaches the
        # last epoch even though most pairs are dropped
        _, graph, corpus = tiny_world()
        stats = []
        cfg = TrainConfig(dim=8, epochs=3, negatives=3, chunk=20, seed=3, subsample=1e-3)
        train(corpus, graph, cfg, on_chunk=stats.append)
        positions = [s.position for s in stats]
        assert positions == sorted(positions)
        assert (cfg.epochs - 1) * corpus.n_pairs <= positions[-1] < stats[-1].total_pairs
        assert stats[-1].pairs_done < positions[-1]

    def test_unsubsampled_position_is_pairs_before_the_chunk(self):
        _, graph, corpus = tiny_world()
        stats = []
        train(corpus, graph, TrainConfig(dim=8, epochs=2, negatives=3, chunk=37, seed=3), on_chunk=stats.append)
        assert [s.position for s in stats] == [0] + [s.pairs_done for s in stats[:-1]]

    def test_predictor_csr_puts_the_own_row_first(self):
        vocab, graph, corpus = tiny_world()
        offsets, ids, ws = weight_csr(graph, corpus.entity_categories, vocab.entity_labels(), "hce")
        pred_offsets, pred_ids, pred_ws = trainer.predictor_csr(offsets, ids, ws)
        n_ent = vocab.n_entities
        assert np.array_equal(np.diff(pred_offsets), np.diff(offsets) + 1)
        for e in range(n_ent):
            lo, hi = pred_offsets[e], pred_offsets[e + 1]
            assert pred_ids[lo] == e and pred_ws[lo] == 1.0
            assert np.array_equal(pred_ids[lo + 1:hi], ids[offsets[e]:offsets[e + 1]] + n_ent)
            assert np.array_equal(pred_ws[lo + 1:hi], ws[offsets[e]:offsets[e + 1]])

    def test_predictor_csr_of_entities_without_categories(self):
        offsets = np.array([0, 0, 2, 2, 3])
        got = trainer.predictor_csr(offsets, np.array([1, 0, 1]), np.array([0.25, 0.75, 1.0]))
        assert got[0].tolist() == [0, 1, 4, 5, 7]
        assert got[1].tolist() == [0, 1, 5, 4, 2, 3, 5]
        assert got[2].tolist() == [1.0, 1.0, 0.25, 0.75, 1.0, 1.0, 1.0]

    def test_deterministic_from_seed(self):
        _, graph, corpus = tiny_world()
        cfg = TrainConfig(dim=8, epochs=2, negatives=3, chunk=37, seed=5)
        t1 = train(corpus, graph, cfg)
        t2 = train(corpus, graph, cfg)
        assert np.array_equal(t1.ent_in, t2.ent_in)
        assert np.array_equal(t1.cat_in, t2.cat_in)
        assert np.array_equal(t1.ent_out, t2.ent_out)

    def test_negatives_drawn_once_per_group(self, monkeypatch):
        _, graph, corpus = tiny_world()
        calls = []
        inner = trainer.draw_negatives_batch

        def record(table, k, excludes, rng):
            negs = inner(table, k, excludes, rng)
            calls.append((excludes, negs))
            return negs

        monkeypatch.setattr(trainer, "draw_negatives_batch", record)
        cfg = TrainConfig(dim=8, epochs=1, negatives=3, chunk=10**6, seed=3, shuffle=False)
        train(corpus, graph, cfg)
        targets, contexts = pairs_arrays(corpus)
        bounds = group_bounds(targets)
        [(excludes, negs)] = calls
        assert negs.shape == (len(bounds) - 1, 3)
        width = np.diff(bounds).max()
        for row, a, b in zip(excludes, bounds[:-1], bounds[1:]):
            assert row.tolist() == contexts[a:b].tolist() + [-1] * (width - (b - a))

    def test_no_nan_under_adversarial_lr(self):
        _, graph, corpus = tiny_world()
        cfg = TrainConfig(dim=8, epochs=2, negatives=5, chunk=64, seed=6, lr0=1.0, lr_min=0.5)
        table = train(corpus, graph, cfg)
        table.assert_finite()

    def test_documents_without_contexts_rejected(self):
        lines = ["a\tc1\t", "b\tc1\t"]
        vocab = build_vocabulary(lines)
        graph, _ = prune_to_dag(load_hierarchy(["root\tc1"], vocab), vocab, "root")
        corpus = load_corpus(lines, vocab, graph)
        assert len(corpus) == 2 and corpus.n_pairs == 0
        with pytest.raises(TrainError) as info:
            train(corpus, graph, TrainConfig(dim=4, epochs=1))
        assert str(info.value) == "corpus yields no training pairs"

    def test_subsample_dropping_every_pair_rejected(self):
        _, graph, corpus = tiny_world()
        cfg = TrainConfig(dim=8, epochs=2, negatives=3, chunk=64, seed=3, subsample=1e-300)
        with pytest.raises(TrainError, match=r"^subsample=1e-300 drops every training pair in every epoch$"):
            train(corpus, graph, cfg)

    def test_ce_vs_hce_flat_hierarchy(self):
        # flat one-level hierarchy; some docs carry a second label so the two
        # modes differ (normalization 1 vs 1/m) without changing the geometry
        rng = np.random.default_rng(21)
        leaves = ["l0", "l1", "l2"]
        ents = {leaf: [f"{leaf}e{i}" for i in range(8)] for leaf in leaves}
        lines = []
        for _ in range(300):
            leaf = leaves[int(rng.integers(3))]
            target = ents[leaf][int(rng.integers(8))]
            labels = leaf
            if rng.random() < 0.15:
                labels += "," + leaves[int(rng.integers(3))]
            ctxs = [
                [e for e in ents[leaf] if e != target][int(rng.integers(7))]
                if rng.random() < 0.92
                else ents[leaves[int(rng.integers(3))]][int(rng.integers(8))]
                for _ in range(8)
            ]
            lines.append(f"{target}\t{labels}\t{' '.join(ctxs)}")
        vocab = build_vocabulary(lines)
        raw = load_hierarchy([f"root\t{leaf}" for leaf in leaves], vocab)
        graph, _ = prune_to_dag(raw, vocab, "root")
        corpus = load_corpus(lines, vocab, graph)

        off_ce, ids_ce, ws_ce = weight_csr(graph, corpus.entity_categories, vocab.entity_labels(), "ce")
        off_h, ids_h, ws_h = weight_csr(graph, corpus.entity_categories, vocab.entity_labels(), "hce")
        assert np.array_equal(off_ce, off_h)
        assert np.array_equal(ids_ce, ids_h)
        for e in range(vocab.n_entities):
            lo, hi = off_ce[e], off_ce[e + 1]
            if hi > lo:
                # flat hierarchy: HCE weights are CE's normalized to sum 1
                assert np.allclose(ws_h[lo:hi], ws_ce[lo:hi] / ws_ce[lo:hi].sum())

        cfg_ce = TrainConfig(dim=16, epochs=5, negatives=5, chunk=100, seed=4, mode="ce")
        cfg_h = TrainConfig(dim=16, epochs=5, negatives=5, chunk=100, seed=4, mode="hce")
        tab_ce = train(corpus, graph, cfg_ce)
        tab_h = train(corpus, graph, cfg_h)
        leaf_ids = [vocab.category_id(leaf) for leaf in leaves]
        agree = 0
        for e in range(vocab.n_entities):
            pred_ce = np.argmin(((tab_ce.cat_in[leaf_ids] - tab_ce.ent_in[e]) ** 2).sum(1))
            pred_h = np.argmin(((tab_h.cat_in[leaf_ids] - tab_h.ent_in[e]) ** 2).sum(1))
            agree += int(pred_ce == pred_h)
        assert agree / vocab.n_entities >= 0.9

    def test_negative_sampling_gradient_tracks_softmax(self):
        # 5-entity vocabulary, negatives cover each non-context entity once
        rng = np.random.default_rng(30)
        hits = 0
        trials = 200
        for _ in range(trials):
            table = random_table(rng, 5, 1, 8)
            t, c = int(rng.integers(5)), int(rng.integers(5))
            negs = np.array([e for e in range(5) if e != c])
            grad = pair_loss_and_grad(table, (t, c), EMPTY_WEIGHTS, negs)
            ns_dir = grad.deltas[("ent_in", t)]
            probs = np.array([softmax_prob(table, table.ent_in[t], e) for e in range(5)])
            sm_dir = -table.ent_out[c] + probs @ table.ent_out
            cos = float(ns_dir @ sm_dir / (np.linalg.norm(ns_dir) * np.linalg.norm(sm_dir)))
            hits += int(cos > 0)
        assert hits / trials >= 0.95
