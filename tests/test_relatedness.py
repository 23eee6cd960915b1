import math

import numpy as np
import pytest

from catembed.corpus import NodeKind, build_vocabulary
from catembed.embeddings import EmbeddingIndex
from catembed.errors import EvalError, FormatError
from catembed.relatedness import (
    cosine,
    load_relatedness,
    map_word_to_node,
    relatedness_score,
    run_relatedness,
    spearman,
)


def closed_form(x, y):
    """Tie-free formula, computed independently from integer ranks."""
    rx = np.argsort(np.argsort(x)) + 1
    ry = np.argsort(np.argsort(y)) + 1
    d = rx - ry
    n = len(x)
    return 1 - 6 * float(d @ d) / (n * (n * n - 1))


class TestMapWord:
    def setup_method(self):
        self.vocab = build_vocabulary(
            ["Cat\tequipment\tdog swimming", "dog\tequipment\tCat", "swimming\tequipment\tdog"]
        )

    def test_entity_exact_match(self):
        node = map_word_to_node("cat", self.vocab)
        assert node is not None and node.kind is NodeKind.ENTITY
        assert self.vocab.entity_label(node.index) == "Cat"

    def test_category_fallback(self):
        node = map_word_to_node("equipment", self.vocab)
        assert node is not None and node.kind is NodeKind.CATEGORY

    def test_no_lexical_variants(self):
        assert map_word_to_node("swim", self.vocab) is None

    def test_entity_preferred_over_category(self):
        vocab = build_vocabulary(["music\tmusic\tx", "x\tmusic\tmusic"])
        node = map_word_to_node("music", vocab)
        assert node.kind is NodeKind.ENTITY

    def test_space_underscore_normalization(self):
        vocab = build_vocabulary(["hot_dog\tfood\tx", "x\tfood\thot_dog"])
        node = map_word_to_node("Hot Dog", vocab)
        assert node is not None and vocab.entity_label(node.index) == "hot_dog"


class TestScores:
    def test_identical_vectors(self):
        v = np.array([0.3, -1.2, 2.0])
        assert cosine(v, v) == pytest.approx(1.0)

    def test_orthogonal_vectors(self):
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 3.0])) == pytest.approx(0.0)

    def test_worked_example(self):
        got = cosine(np.array([1.0, 0.0]), np.array([1.0, 1.0]))
        assert got == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        assert got == pytest.approx(0.70711, abs=1e-5)

    # at 1e160 and 1e-170 the plain norms overflow to inf or underflow to 0
    @pytest.mark.parametrize("scale", [3.7, 1e160, 1e-170])
    def test_scale_invariance(self, scale):
        rng = np.random.default_rng(0)
        v, w = rng.normal(size=4), rng.normal(size=4)
        assert cosine(scale * v, w) == pytest.approx(cosine(v, w), abs=1e-12)
        assert cosine(scale * v, scale * w) == pytest.approx(cosine(v, w), abs=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(EvalError):
            cosine(np.zeros(3), np.ones(3))

    def test_relatedness_score_symmetric(self):
        index = EmbeddingIndex(
            ["a", "b"], ["c"], np.array([[1.0, 2.0], [2.0, -1.0]]), np.array([[0.5, 0.5]])
        )
        from catembed.corpus import NodeId

        n1, n2 = NodeId(NodeKind.ENTITY, 0), NodeId(NodeKind.CATEGORY, 0)
        assert relatedness_score(index, n1, n2) == pytest.approx(relatedness_score(index, n2, n1))


class TestSpearman:
    def test_monotone_transform_is_one(self):
        x = [3.0, 1.0, 4.0, 1.5, 9.0]
        y = [math.exp(v) for v in x]
        assert spearman(x, y) == 1.0

    def test_reversed_is_minus_one(self):
        x = [1.0, 2.0, 3.0, 4.0]
        assert spearman(x, x[::-1]) == -1.0

    def test_hand_example(self):
        # ranks (1,2,3) vs (2,1,3): 1 - 6*2/(3*8) = 0.5
        assert spearman([1.0, 2.0, 3.0], [2.0, 1.0, 3.0]) == pytest.approx(0.5, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        x, y = rng.normal(size=12), rng.normal(size=12)
        assert spearman(x, y) == pytest.approx(spearman(y, x), abs=1e-12)

    def test_closed_form_agreement_tie_free(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(2, 30))
            x = rng.permutation(n).astype(float)
            y = rng.permutation(n).astype(float)
            if np.array_equal(x, y) and n == 2:
                continue
            assert spearman(x, y) == pytest.approx(closed_form(x, y), abs=1e-12)

    def test_ties_match_scipy(self):
        stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(4, 25))
            x = rng.integers(0, 5, size=n).astype(float)  # heavy ties
            y = rng.normal(size=n)
            if len(np.unique(x)) < 2:
                continue
            expect = stats.spearmanr(x, y).statistic
            assert spearman(x, y) == pytest.approx(expect, abs=1e-12)

    def test_monotone_invariance_with_ties(self):
        x = np.array([1.0, 2.0, 2.0, 3.0, 5.0])
        y = np.array([2.0, 1.0, 4.0, 4.0, 5.0])
        assert spearman(np.exp(x), y) == pytest.approx(spearman(x, y), abs=1e-12)

    def test_constant_input_errors(self):
        with pytest.raises(EvalError):
            spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_length_mismatch_errors(self):
        with pytest.raises(EvalError):
            spearman([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_too_short_errors(self):
        with pytest.raises(EvalError):
            spearman([1.0], [2.0])


class TestLoadRelatedness:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("cat\tdog\t8.5\nsun\tmoon\t6.0\n", encoding="utf-8")
        pairs = load_relatedness(path)
        assert [(p.word1, p.word2, p.score) for p in pairs] == [("cat", "dog", 8.5), ("sun", "moon", 6.0)]

    def test_score_range_enforced(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("cat\tdog\t42\n", encoding="utf-8")
        with pytest.raises(FormatError):
            load_relatedness(path)

    def test_duplicate_pair_rejected(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("cat\tdog\t8\ndog\tcat\t7\n", encoding="utf-8")
        with pytest.raises(FormatError):
            load_relatedness(path)

    def test_field_count_message_names_fields(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("cat\tdog\t8\nsun\tmoon\t6\t1\n", encoding="utf-8")
        with pytest.raises(FormatError, match=r":2: expected 3 tab-separated fields \(word1, word2, score\), got 4$"):
            load_relatedness(path)


def pair_list(rows):
    from catembed.relatedness import RelatednessPair

    return [RelatednessPair(*r) for r in rows]


class TestRunRelatedness:
    def test_perfect_rank_agreement(self):
        # model cosines ordered exactly like the human scores
        ent = np.array([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0]])
        index = EmbeddingIndex(["a", "b", "c"], [], ent, np.empty((0, 2)))
        pairs = pair_list([("a", "b", 9.0), ("a", "c", 1.0), ("b", "c", 3.0)])
        report = run_relatedness(index, pairs)
        assert report["spearman"] == pytest.approx(1.0)
        assert report["n_mapped"] == 3

    def test_all_unmapped_errors(self):
        index = EmbeddingIndex(["a"], [], np.array([[1.0]]), np.empty((0, 1)))
        pairs = pair_list([("x", "y", 5.0), ("z", "w", 2.0)])
        with pytest.raises(EvalError):
            run_relatedness(index, pairs)

    def test_unmapped_pairs_counted(self):
        ent = np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]])
        index = EmbeddingIndex(["a", "b", "c"], [], ent, np.empty((0, 2)))
        pairs = pair_list([("a", "b", 9.0), ("a", "zzz", 5.0), ("b", "c", 3.0), ("a", "c", 1.0)])
        report = run_relatedness(index, pairs)
        assert report["n_unmapped"] == 1
        assert report["n_mapped"] == 3
        assert report["pairs"][1]["mapping2"] == "unmapped"

    def test_synthetic_within_category_structure(self):
        # within-category pairs built closer than cross-category ones; human
        # scores follow the constructed geometry (noisy monotone readout), so
        # the pipeline must recover a high rank correlation
        rng = np.random.default_rng(7)
        centers = np.array([[10.0, 0.0, 0.0], [0.0, 10.0, 0.0]])
        labels, vecs = [], []
        for cls in range(2):
            for i in range(4):
                labels.append(f"w{cls}_{i}")
                vecs.append(centers[cls] + rng.normal(scale=2.0, size=3))
        vecs = np.vstack(vecs)
        index = EmbeddingIndex(labels, [], vecs, np.empty((0, 3)))
        rows = []
        within, cross = [], []
        for i in range(len(labels)):
            for j in range(i + 1, len(labels)):
                from catembed.relatedness import cosine as cos_fn

                sim = cos_fn(vecs[i], vecs[j])
                human = float(np.clip(5.0 + 4.0 * sim + rng.normal(scale=0.05), 0.0, 10.0))
                rows.append((labels[i], labels[j], human))
                (within if labels[i][1] == labels[j][1] else cross).append(human)
        assert min(within) > max(cross)  # the construction separates the bands
        report = run_relatedness(index, pair_list(rows))
        assert report["spearman"] >= 0.9
