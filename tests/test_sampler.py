import numpy as np
import pytest

from catembed.corpus import build_vocabulary, load_corpus, load_hierarchy, prune_to_dag
from catembed.errors import SamplerError
from catembed.sampler import build_noise_table, draw_negatives_batch, pairs_arrays


def small_corpus(lines):
    vocab = build_vocabulary(lines)
    raw = load_hierarchy(["root\tc1"], vocab)
    graph, _ = prune_to_dag(raw, vocab, "root")
    return load_corpus(lines, vocab, graph), vocab


def pair_list(corpus, doc_order=None):
    return [(int(t), int(c)) for t, c in zip(*pairs_arrays(corpus, doc_order))]


class TestGeneratePairs:
    def test_one_pair_per_context(self):
        corpus, vocab = small_corpus(["t\tc1\ta b", "a\tc1\tt", "b\tc1\tt"])
        t, a, b = (vocab.entity_id(x) for x in "tab")
        pairs = pair_list(corpus)[:2]
        assert pairs == [(t, a), (t, b)]

    def test_duplicate_contexts_preserved(self):
        corpus, vocab = small_corpus(["t\tc1\ta a", "a\tc1\tt"])
        t, a = vocab.entity_id("t"), vocab.entity_id("a")
        assert pair_list(corpus)[:2] == [(t, a), (t, a)]

    def test_concatenation_in_document_order(self):
        corpus, _ = small_corpus(["t\tc1\ta b", "a\tc1\tt t t"])
        pairs = pair_list(corpus)
        per_doc = [pair_list(corpus, [0]), pair_list(corpus, [1])]
        assert pairs == per_doc[0] + per_doc[1]

    def test_count_identity(self):
        corpus, _ = small_corpus(["t\tc1\ta b", "a\tc1\tt t t", "b\tc1\t"])
        assert len(pair_list(corpus)) == corpus.n_pairs
        targets, contexts = pairs_arrays(corpus)
        assert len(targets) == corpus.n_pairs == len(contexts)

    def test_pairs_arrays_matches_stream(self):
        corpus, _ = small_corpus(["t\tc1\ta b a", "b\tc1\tt a"])
        targets, contexts = pairs_arrays(corpus, [1, 0])
        docs = documents(corpus)
        stream = [(t, c) for t, ctx in (docs[1], docs[0]) for c in ctx]
        assert list(zip(targets, contexts)) == stream


def documents(corpus):
    """``(target, contexts)`` per document, read back from the flat arrays."""
    return [
        (int(corpus.doc_target[i]), tuple(int(c) for c in corpus.ctx_ids[corpus.ctx_offsets[i]:corpus.ctx_offsets[i + 1]]))
        for i in range(len(corpus))
    ]


def reference_pairs_arrays(corpus, doc_order=None):
    """Per-document loop the vectorized stream replaced: test-only oracle."""
    docs = documents(corpus)
    order = range(len(docs)) if doc_order is None else doc_order
    targets, contexts = [], []
    for di in order:
        target, ctx = docs[di]
        if not ctx:
            continue
        targets.append(np.full(len(ctx), target, dtype=np.int64))
        contexts.append(np.asarray(ctx, dtype=np.int64))
    if not targets:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    return np.concatenate(targets), np.concatenate(contexts)


def random_corpus(rng, n_docs):
    labels = [f"e{i}" for i in range(12)]
    lines = []
    for i in range(n_docs):
        n_ctx = 0 if i % 3 == 1 else int(rng.integers(0, 5))  # every third document has no contexts
        ctx = " ".join(labels[int(j)] for j in rng.integers(0, len(labels), size=n_ctx))
        lines.append(f"{labels[int(rng.integers(len(labels)))]}\tc1\t{ctx}")
    return small_corpus(lines)[0]


class TestPairsArraysOracle:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_per_document_loop(self, seed):
        rng = np.random.default_rng(900 + seed)
        corpus = random_corpus(rng, int(rng.integers(2, 40)))
        n = len(corpus)
        assert np.any(np.diff(corpus.ctx_offsets) == 0)
        orders = [
            None,
            rng.permutation(n),
            list(rng.permutation(n)),
            rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False),
            [],
            np.empty(0, dtype=np.int64),
            [-1, 0, -n],
        ]
        for order in orders:
            got = pairs_arrays(corpus, order)
            want = reference_pairs_arrays(corpus, order)
            for a, b in zip(got, want):
                assert a.dtype == np.int64
                assert np.array_equal(a, b)

    def test_out_of_range_order_raises(self):
        corpus = small_corpus(["t\tc1\ta", "a\tc1\tt"])[0]
        for bad in ([2], [-3]):
            with pytest.raises(IndexError):
                reference_pairs_arrays(corpus, bad)
            with pytest.raises(IndexError):
                pairs_arrays(corpus, bad)

    def test_only_empty_documents(self):
        corpus = small_corpus(["t\tc1\t", "a\tc1\t"])[0]
        assert corpus.n_pairs == 0
        for order in (None, [1, 0], [0]):
            targets, contexts = pairs_arrays(corpus, order)
            assert targets.dtype == contexts.dtype == np.int64
            assert len(targets) == len(contexts) == 0


class TestNoiseTable:
    def test_uniform_two_entities(self):
        vocab = build_vocabulary(["a\tc1\tb", "b\tc1\ta"])  # counts (2, 2)
        table = build_noise_table(vocab.entity_counts().astype(np.float64), alpha=1.0)
        probs = np.diff(np.concatenate([[0.0], table]))
        assert probs == pytest.approx([0.5, 0.5])

    def test_powered_counts(self):
        # counts (4, 1), alpha 0.75: p = (4^0.75, 1) / (4^0.75 + 1)
        vocab = build_vocabulary(["a\tc1\ta a a", "b\tc1\t"])
        counts = dict(zip(vocab.entity_labels(), vocab.entity_counts()))
        assert counts == {"a": 4, "b": 1}
        table = build_noise_table(vocab.entity_counts().astype(np.float64), alpha=0.75)
        probs = np.diff(np.concatenate([[0.0], table]))
        expected_a = 4**0.75 / (4**0.75 + 1.0)  # 2.8284 / 3.8284
        assert probs[0] == pytest.approx(expected_a, abs=1e-12)
        assert probs[0] == pytest.approx(0.73880, abs=1e-4)
        assert probs[1] == pytest.approx(0.26120, abs=1e-4)

    def test_single_entity_normalizes(self):
        vocab = build_vocabulary(["a\tc1\ta a a a"])
        table = build_noise_table(vocab.entity_counts().astype(np.float64), alpha=0.37)
        assert table.tolist() == [1.0]

    def test_overflowing_alpha_rejected(self):
        vocab = build_vocabulary(["a\tc1\ta a a", "b\tc1\t"])  # counts (4, 1); 4^600 = 2^1200
        with pytest.raises(SamplerError, match="overflows"):
            build_noise_table(vocab.entity_counts().astype(np.float64), alpha=600)

    def test_degenerate_alpha_rejected(self):
        # counts (1, 3) at alpha 600: entity b holds all but 3^-600 of the mass
        vocab = build_vocabulary(["a\tc1\tb b", "b\tc1\t"])
        assert vocab.entity_counts().tolist() == [1, 3]
        assert np.isfinite(3.0**600)
        with pytest.raises(SamplerError, match="one entity"):
            build_noise_table(vocab.entity_counts().astype(np.float64), alpha=600)

    @pytest.mark.parametrize("counts", [np.zeros(0), np.zeros(3)])
    def test_no_positive_count_rejected(self, counts):
        with pytest.raises(SamplerError) as info:
            build_noise_table(counts)
        assert str(info.value) == "noise table needs at least one entity with positive count"

    def test_cumulative_ends_at_one(self):
        vocab = build_vocabulary([f"e{i}\tc1\te{(i+1) % 7}" for i in range(7)])
        table = build_noise_table(vocab.entity_counts().astype(np.float64), alpha=0.75)
        assert abs(table[-1] - 1.0) <= 1e-12


def padded(rows, width=8):
    """2-D excludes: one row of entity ids per group, padded with -1."""
    return np.array([list(r) + [-1] * (width - len(r)) for r in rows], dtype=np.int64)


class TestDrawNegatives:
    def test_exclusion_forces_other_entity(self):
        vocab = build_vocabulary(["a\tc1\tb", "b\tc1\ta"])
        table = build_noise_table(vocab.entity_counts().astype(np.float64), alpha=1.0)
        e0 = vocab.entity_id("a")
        draws = draw_negatives_batch(table, 50, padded([[e0]]), np.random.default_rng(3))[0]
        assert np.all(draws != e0)
        assert len(draws) == 50

    def test_deterministic_from_same_state(self):
        vocab = build_vocabulary(["a\tc1\tb b", "b\tc1\ta"])
        table = build_noise_table(vocab.entity_counts().astype(np.float64), alpha=0.75)
        rng1 = np.random.default_rng(42)
        rng2 = np.random.default_rng(42)
        first = draw_negatives_batch(table, 20, padded([[0], [1], []]), rng1)
        second = draw_negatives_batch(table, 20, padded([[0], [1], []]), rng2)
        assert np.array_equal(first, second)
        assert not np.array_equal(first, draw_negatives_batch(table, 20, padded([[0], [1], []]), rng1))

    def test_single_entity_with_exclusion_errors(self):
        vocab = build_vocabulary(["a\tc1\ta"])
        table = build_noise_table(vocab.entity_counts().astype(np.float64))
        with pytest.raises(SamplerError):
            draw_negatives_batch(table, 5, padded([[0]]), np.random.default_rng(0))

    def test_k_must_be_positive(self):
        vocab = build_vocabulary(["a\tc1\tb", "b\tc1\ta"])
        table = build_noise_table(vocab.entity_counts().astype(np.float64))
        with pytest.raises(SamplerError):
            draw_negatives_batch(table, 0, padded([[0]]), np.random.default_rng(0))

    def test_one_dimensional_excludes_refused(self):
        vocab = build_vocabulary(["a\tc1\tb", "b\tc1\ta"])
        table = build_noise_table(vocab.entity_counts().astype(np.float64))
        with pytest.raises(SamplerError, match="2-D"):
            draw_negatives_batch(table, 3, np.array([0, 1]), np.random.default_rng(0))

    def test_batch_respects_exclusions(self):
        vocab = build_vocabulary(["a\tc1\tb c", "b\tc1\ta c", "c\tc1\ta b"])
        table = build_noise_table(vocab.entity_counts().astype(np.float64), alpha=1.0)
        excludes = padded([[0], [1], [2], [0, 0], [1, 0], [2, 1]] * 10)
        out = draw_negatives_batch(table, 7, excludes, np.random.default_rng(5))
        assert out.shape == (60, 7)
        assert not (out[:, :, None] == excludes[:, None, :]).any()

    @pytest.mark.parametrize("seed", range(5))
    def test_no_negative_is_a_context_of_its_group(self, seed):
        rng = np.random.default_rng(seed)
        table = np.cumsum(np.full(12, 1 / 12))
        rows = [rng.integers(0, 12, size=int(rng.integers(0, 9))) for _ in range(40)]
        excludes = padded(rows)
        out = draw_negatives_batch(table, 10, excludes, rng)
        assert out.shape == (40, 10)  # exactly n_groups x k values
        for row, negs in zip(rows, out):
            assert not set(negs.tolist()) & set(row.tolist())
            assert negs.min() >= 0 and negs.max() < 12

    @pytest.mark.parametrize("extra", [1, 5])
    def test_padding_columns_do_not_change_the_draws(self, extra):
        # the trainer pads each row to the chunk's widest group, so the width varies from chunk to chunk
        rng = np.random.default_rng(4)
        table = np.cumsum(np.full(6, 1 / 6))
        excludes = padded([rng.integers(0, 6, size=int(rng.integers(0, 4))) for _ in range(30)], width=3)
        wider = np.hstack([excludes, np.full((30, extra), -1)])
        first = draw_negatives_batch(table, 8, excludes, np.random.default_rng(9))
        assert np.array_equal(first, draw_negatives_batch(table, 8, wider, np.random.default_rng(9)))

    @pytest.mark.parametrize("rows", [[[0, 1]], [[1, 0, 1, 0]], [[1], [1, 0]]])
    def test_group_holding_all_noise_mass_is_refused(self, rows):
        table = np.array([0.5, 1.0])  # entities 0 and 1, half the mass each
        with pytest.raises(SamplerError, match=r"^the contexts of group \d+ hold 1 of the noise mass"):
            draw_negatives_batch(table, 3, padded(rows), np.random.default_rng(0))

    def test_group_holding_all_but_a_millionth_is_refused(self):
        table = np.array([0.5 - 2e-7, 1.0 - 2e-7, 1.0])  # entity 2 holds 2e-7
        with pytest.raises(SamplerError, match="group 1 hold"):
            draw_negatives_batch(table, 3, padded([[0], [0, 1]]), np.random.default_rng(0))
        out = draw_negatives_batch(table, 3, padded([[0], [1]]), np.random.default_rng(0))
        assert out.shape == (2, 3)

    def test_empirical_frequencies_track_distribution(self):
        # counts (3, 1), alpha 1 -> (0.75, 0.25); small-n sanity (the million-draw
        # version lives in the acceptance suite)
        vocab = build_vocabulary(["a\tc1\ta a", "b\tc1\t"])
        table = build_noise_table(vocab.entity_counts().astype(np.float64), alpha=1.0)
        draws = draw_negatives_batch(table, 100_000, np.empty((1, 0), np.int64), np.random.default_rng(11))[0]
        freq = np.bincount(draws, minlength=2) / len(draws)
        assert freq[0] == pytest.approx(0.75, abs=0.01)
        assert freq[1] == pytest.approx(0.25, abs=0.01)
