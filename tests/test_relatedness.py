import math

import numpy as np
import pytest

from catembed.embeddings import EmbeddingIndex, unit_rows
from catembed.errors import EvalError, FormatError
from catembed.relatedness import (
    _average_ranks,
    load_relatedness,
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


def index_of(ent_labels, cat_labels):
    return EmbeddingIndex(ent_labels, cat_labels, np.ones((len(ent_labels) + len(cat_labels), 2)))


class TestMapWord:
    def setup_method(self):
        self.index = index_of(["Cat", "dog", "swimming"], ["equipment"])

    def test_entity_exact_match(self):
        assert self.index.row("cat") == 0

    def test_category_fallback(self):
        assert self.index.row("equipment") == 3  # the first row after the 3 entities

    def test_no_lexical_variants(self):
        assert self.index.row("swim") is None

    def test_entity_preferred_over_category(self):
        assert index_of(["x", "music"], ["music"]).row("music") == 1

    def test_space_underscore_normalization(self):
        index = index_of(["x", "hot_dog"], ["food"])
        assert index.row("Hot Dog") == 1
        assert index.row("FOOD") == 2


def pair_cosine(a, b):
    """The model score ``run_relatedness`` gives a pair on rows ``a`` and ``b``.

    A second pair, ``a`` against ``-a``, gives the run two scores to correlate.
    """
    index = EmbeddingIndex(["a", "b", "neg"], [], np.vstack([a, b, -a]))
    report = run_relatedness(index, pair_list([("a", "b", 1.0), ("a", "neg", 2.0)]))
    return report["pairs"][0]["model"]


class TestScores:
    def test_identical_vectors(self):
        v = np.array([0.3, -1.2, 2.0])
        assert pair_cosine(v, v) == pytest.approx(1.0)

    def test_orthogonal_vectors(self):
        assert pair_cosine(np.array([1.0, 0.0]), np.array([0.0, 3.0])) == pytest.approx(0.0)

    def test_worked_example(self):
        got = pair_cosine(np.array([1.0, 0.0]), np.array([1.0, 1.0]))
        assert got == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        assert got == pytest.approx(0.70711, abs=1e-5)

    # at 1e160 and 1e-170 the plain norms overflow to inf or underflow to 0;
    # at 1e-161 they are nonzero but their squares have lost digits
    @pytest.mark.parametrize("scale", [3.7, 1e160, 1e-170, 1e-161])
    def test_scale_invariance(self, scale):
        rng = np.random.default_rng(0)
        v, w = rng.normal(size=4), rng.normal(size=4)
        assert pair_cosine(scale * v, w) == pytest.approx(pair_cosine(v, w), abs=1e-12)
        assert pair_cosine(scale * v, scale * w) == pytest.approx(pair_cosine(v, w), abs=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(EvalError, match=r"^word 'a' maps to row 'e:a', a zero vector: cosine undefined$"):
            pair_cosine(np.zeros(3), np.ones(3))

    def test_pair_score_symmetric(self):
        index = EmbeddingIndex(["a", "b"], ["c"], np.array([[1.0, 2.0], [2.0, -1.0], [0.5, 0.5]]))
        pairs = pair_list([("a", "c", 1.0), ("c", "a", 2.0), ("b", "c", 3.0)])
        report = run_relatedness(index, pairs)
        assert [p["mapping1"] for p in report["pairs"]] == ["entity", "category", "entity"]
        assert report["pairs"][0]["model"] == report["pairs"][1]["model"]
        assert report["pairs"][0]["model"] == pytest.approx(3 / math.sqrt(10))


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

    @pytest.mark.parametrize("seed", range(3))
    def test_average_ranks_equal_rankdata(self, seed):
        stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(seed)
        for n in (1, 2, 7, 50, 400):
            x = rng.integers(-3, 4, size=n) * rng.choice([0.5, 1.0, -0.0], size=n)  # heavy ties, signed zeros
            want = stats.rankdata(x, method="average")
            assert _average_ranks(x).tobytes() == want.astype(np.float64).tobytes()

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

    @pytest.mark.parametrize("line,message", [
        ("cat\tdog\tx\n", "bad score 'x'"),
        ("cat\t \t5\n", "empty word"),
        (" \tdog\t5\n", "empty word"),
    ])
    def test_malformed_line_rejected(self, tmp_path, line, message):
        path = tmp_path / "r.tsv"
        path.write_text(line, encoding="utf-8")
        with pytest.raises(FormatError) as info:
            load_relatedness(path)
        assert str(info.value) == f"{path}:1: {message}"

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "r.tsv"
        path.write_text("\n", encoding="utf-8")
        with pytest.raises(EvalError) as info:
            load_relatedness(path)
        assert str(info.value) == f"relatedness dataset {path} is empty"

    def test_duplicate_pair_rejected(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("cat\tdog\t8\ndog\tcat\t7\n", encoding="utf-8")
        with pytest.raises(FormatError):
            load_relatedness(path)

    def test_duplicate_pair_found_as_lookups_fold_words(self, tmp_path):
        # both lines map to the same two nodes
        path = tmp_path / "pairs.tsv"
        path.write_text("hot dog\tbun\t8\nbun\tHot_Dog\t7\n", encoding="utf-8")
        with pytest.raises(FormatError, match=r":2: duplicate pair \('bun', 'Hot_Dog'\)$"):
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
        index = EmbeddingIndex(["a", "b", "c"], [], ent)
        pairs = pair_list([("a", "b", 9.0), ("a", "c", 1.0), ("b", "c", 3.0)])
        report = run_relatedness(index, pairs)
        assert report["spearman"] == pytest.approx(1.0)
        assert report["n_mapped"] == 3

    def test_all_unmapped_errors(self):
        index = EmbeddingIndex(["a"], [], np.array([[1.0]]))
        pairs = pair_list([("x", "y", 5.0), ("z", "w", 2.0)])
        with pytest.raises(EvalError):
            run_relatedness(index, pairs)

    def test_unmapped_pairs_counted(self):
        ent = np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]])
        index = EmbeddingIndex(["a", "b", "c"], [], ent)
        pairs = pair_list([("a", "b", 9.0), ("a", "zzz", 5.0), ("b", "c", 3.0), ("a", "c", 1.0)])
        report = run_relatedness(index, pairs)
        assert report["n_unmapped"] == 1
        assert report["n_mapped"] == 3
        assert report["pairs"][1]["mapping2"] == "unmapped"

    def test_first_zero_row_in_pair_order_is_named(self):
        # z2's first pair is dropped for its unmapped word, so pair 1's word2 comes before pair 2's word1
        vecs = np.array([[1.0, 2.0], [0.0, 0.0], [0.0, 0.0], [2.0, 1.0]])
        index = EmbeddingIndex(["a", "z1", "z2", "b"], [], vecs)
        pairs = pair_list([("z2", "nope", 3.0), ("a", "z1", 1.0), ("z2", "b", 2.0)])
        with pytest.raises(EvalError, match=r"^word 'z1' maps to row 'e:z1', a zero vector: cosine undefined$"):
            run_relatedness(index, pairs)

    def test_zero_row_refused_before_too_few_pairs(self):
        index = EmbeddingIndex(["a"], ["z"], np.array([[1.0, 2.0], [0.0, 0.0]]))
        with pytest.raises(EvalError, match=r"^word 'Z' maps to row 'c:z', a zero vector"):
            run_relatedness(index, pair_list([("a", "Z", 1.0)]))

    def test_words_on_one_row_score_one(self):
        # "Music" and "music" both resolve to the entity row
        index = EmbeddingIndex(["music", "x"], ["music"], np.array([[0.3, -1.2, 2.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
        report = run_relatedness(index, pair_list([("Music", "music", 5.0), ("music", "x", 1.0)]))
        assert report["pairs"][0]["mapping2"] == "entity"
        assert report["pairs"][0]["model"] == pytest.approx(1.0, abs=1e-15)

    def test_scores_match_the_per_pair_cosine(self):
        vecs = np.random.default_rng(3).normal(size=(12, 5))
        index = EmbeddingIndex([f"w{i}" for i in range(12)], [], vecs)
        rows = [(i, j) for i in range(12) for j in range(i + 1, 12)]
        report = run_relatedness(index, pair_list([(f"w{i}", f"w{j}", 5.0 + (i - j) / 3) for i, j in rows]))
        ref = [float(vecs[i] @ vecs[j]) / (np.linalg.norm(vecs[i]) * np.linalg.norm(vecs[j])) for i, j in rows]
        assert [p["model"] for p in report["pairs"]] == pytest.approx(ref, rel=0, abs=4 * np.finfo(float).eps)

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
        index = EmbeddingIndex(labels, [], vecs)
        rows = []
        within, cross = [], []
        unit, _ = unit_rows(vecs)
        for i in range(len(labels)):
            for j in range(i + 1, len(labels)):
                sim = unit[i] @ unit[j]
                human = float(np.clip(5.0 + 4.0 * sim + rng.normal(scale=0.05), 0.0, 10.0))
                rows.append((labels[i], labels[j], human))
                (within if labels[i][1] == labels[j][1] else cross).append(human)
        assert min(within) > max(cross)  # the construction separates the bands
        report = run_relatedness(index, pair_list(rows))
        assert report["spearman"] >= 0.9
