import re

import numpy as np
import pytest

from catembed.corpus import NodeId, NodeKind, build_vocabulary
from catembed.embeddings import (
    EmbeddingIndex,
    init_embeddings,
    load_binary,
    load_embeddings,
    load_text,
    save_binary,
    save_text,
)
from catembed.errors import CorpusError, FormatError


def index_from_table(table, vocab):
    """Evaluation view of a trained table, without the export's rounding."""
    return EmbeddingIndex(vocab.entity_labels(), vocab.category_labels(), table.ent_in.copy(), table.cat_in.copy())


def node_label(index, node):
    return (index.ent_labels if node.kind is NodeKind.ENTITY else index.cat_labels)[node.index]


@pytest.fixture
def small_setup():
    vocab = build_vocabulary(["alpha\tcat_a\tbeta", "beta\tcat_a,cat_b\talpha alpha"])
    table = init_embeddings(vocab.n_entities, vocab.n_categories, 5, seed=3)
    table.ent_in[0, 0] = 1.25e-7  # exercise scientific notation in the text format
    return vocab, table


class TestTextFormat:
    def test_round_trip(self, small_setup, tmp_path):
        vocab, table = small_setup
        path = tmp_path / "emb.txt"
        save_text(table, vocab, path)
        lines = path.read_text().splitlines()
        n_rows, dim = (int(x) for x in lines[0].split())
        assert n_rows == vocab.n_entities + vocab.n_categories
        assert dim == 5
        index = load_text(path)
        assert index.ent_labels == vocab.entity_labels()
        assert index.cat_labels == vocab.category_labels()
        # 6 significant digits survive the round trip at matching precision
        assert np.allclose(index.ent_vecs, table.ent_in, rtol=1e-5, atol=1e-12)

    def test_prefixes_present(self, small_setup, tmp_path):
        vocab, table = small_setup
        path = tmp_path / "emb.txt"
        save_text(table, vocab, path)
        body = path.read_text().splitlines()[1:]
        assert sum(line.startswith("e:") for line in body) == vocab.n_entities
        assert sum(line.startswith("c:") for line in body) == vocab.n_categories

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("not a header\n")
        with pytest.raises(FormatError):
            load_text(path)

    def test_missing_prefix_rejected(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("1 2\nalpha 0.5 0.5\n")
        with pytest.raises(FormatError):
            load_text(path)

    def test_row_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("2 2\ne:alpha 0.5 0.5\n")
        with pytest.raises(FormatError):
            load_text(path)


    @pytest.mark.parametrize("token", ["nan", "inf", "-Infinity", "1e999"])
    def test_non_finite_value_rejected(self, tmp_path, token):
        path = tmp_path / "emb.txt"
        path.write_text(f"3 2\ne:alpha 0.5 0.5\n\nc:beta 0.5 {token}\ne:gamma nan 1\n")
        with pytest.raises(FormatError, match="non-finite") as info:
            load_text(path)
        assert info.value.lineno == 4  # first bad line, counting the header and the blank line

    def test_non_numeric_value_rejected(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("2 3\ne:a 1 2 3\nc:b 1 x 3\n")
        with pytest.raises(FormatError, match="non-numeric") as info:
            load_text(path)
        assert info.value.source == str(path)
        assert info.value.lineno == 3

    @pytest.mark.parametrize("header", ["1 0", "0 -2"])
    def test_dim_below_one_rejected(self, tmp_path, header):
        path = tmp_path / "emb.txt"
        path.write_text(f"{header}\n")
        with pytest.raises(FormatError, match="dim >= 1") as info:
            load_text(path)
        assert info.value.lineno == 1


class TestBinaryFormat:
    def test_round_trip_exact(self, small_setup, tmp_path):
        vocab, table = small_setup
        path = tmp_path / "emb.bin"
        save_binary(table, vocab, path)
        index = load_binary(path)
        assert index.ent_labels == vocab.entity_labels()
        assert np.array_equal(index.ent_vecs, table.ent_in)  # raw float64: exact
        assert np.array_equal(index.cat_vecs, table.cat_in)

    def test_same_header_line_as_text(self, small_setup, tmp_path):
        vocab, table = small_setup
        tpath, bpath = tmp_path / "emb.txt", tmp_path / "emb.bin"
        save_text(table, vocab, tpath)
        save_binary(table, vocab, bpath)
        assert bpath.read_bytes().split(b"\n", 1)[0] == tpath.read_bytes().split(b"\n", 1)[0]

    def test_truncated_rejected(self, small_setup, tmp_path):
        vocab, table = small_setup
        path = tmp_path / "emb.bin"
        save_binary(table, vocab, path)
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(FormatError):
            load_binary(path)

    def test_trailing_row_rejected(self, small_setup, tmp_path):
        vocab, table = small_setup
        path = tmp_path / "emb.bin"
        save_binary(table, vocab, path)
        header, body = path.read_bytes().split(b"\n", 1)
        n_rows, dim = (int(x) for x in header.split())
        extra = b"e:extra " + np.ones(dim, dtype="<f8").tobytes() + b"\n"
        path.write_bytes(header + b"\n" + body + extra)
        with pytest.raises(FormatError, match=f"header promised {n_rows} rows"):
            load_binary(path)

    def test_trailing_byte_rejected(self, small_setup, tmp_path):
        vocab, table = small_setup
        path = tmp_path / "emb.bin"
        save_binary(table, vocab, path)
        path.write_bytes(path.read_bytes() + b"\n")
        with pytest.raises(FormatError, match="1 more bytes"):
            load_binary(path)

    def test_negative_row_count_rejected(self, tmp_path):
        path = tmp_path / "emb.bin"
        path.write_bytes(b"-1 3\n")
        with pytest.raises(FormatError, match="rows >= 0"):
            load_binary(path)

    def test_dim_below_one_rejected(self, tmp_path):
        path = tmp_path / "emb.bin"
        path.write_bytes(b"1 0\ne:a \n")
        with pytest.raises(FormatError, match="dim >= 1"):
            load_binary(path)

    def test_non_finite_value_rejected(self, small_setup, tmp_path):
        vocab, table = small_setup
        table.cat_in[0, 1] = np.inf
        table.ent_in[1, 3] = np.nan
        path = tmp_path / "emb.bin"
        save_binary(table, vocab, path)
        with pytest.raises(FormatError, match="non-finite value in row 2$"):
            load_binary(path)


class TestSniffing:
    def test_detects_both(self, small_setup, tmp_path):
        vocab, table = small_setup
        tpath, bpath = tmp_path / "a.txt", tmp_path / "a.bin"
        save_text(table, vocab, tpath)
        save_binary(table, vocab, bpath)
        assert np.allclose(load_embeddings(tpath).ent_vecs, table.ent_in, rtol=1e-5)
        assert np.array_equal(load_embeddings(bpath).ent_vecs, table.ent_in)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CorpusError):
            load_embeddings(tmp_path / "nope.txt")

    @pytest.mark.parametrize("pad", range(8))
    def test_text_with_multibyte_labels(self, tmp_path, pad):
        # the 4096-byte sniffing probe ends inside an "é" for every other pad length
        labels = ["x" * pad] + ["é" * 50 + str(i) for i in range(200)]
        path = tmp_path / "accents.txt"
        EmbeddingIndex(labels, ["c"], np.ones((len(labels), 3)), np.ones((1, 3))).save_text(path)
        loaded = load_embeddings(path)
        assert loaded.ent_labels == labels

    @pytest.mark.parametrize("label_bytes,dim", [(4, 600), (3000, 200), (5000, 3)])
    def test_binary_row_past_the_probe(self, tmp_path, label_bytes, dim):
        # row 1 ends beyond the 4096-byte probe, after a long payload or a long label;
        # a 5000-byte label fills the whole probe with ASCII
        labels = ["x" * label_bytes, "y"]
        vecs = np.arange(2.0 * dim).reshape(2, dim)
        path = tmp_path / "long.bin"
        EmbeddingIndex(labels, ["c"], vecs, np.zeros((1, dim))).save_binary(path)
        assert load_embeddings(path).ent_labels == labels
        assert np.array_equal(load_embeddings(path).ent_vecs, vecs)

    @pytest.mark.parametrize("row_one", [
        [0.5, 1.5, 2.5],
        # written as "0 1.23457e-05 1.2345e-05": exactly 8 * dim bytes, the binary row layout
        [0.0, 1.23457e-05, 1.2345e-05],
    ])
    def test_text_label_past_the_probe(self, tmp_path, row_one):
        labels = ["x" * 5000, "y"]
        vecs = np.array([row_one, [3.5, 4.5, 5.5]])
        path = tmp_path / "long.txt"
        EmbeddingIndex(labels, ["c"], vecs, np.zeros((1, 3))).save_text(path)
        loaded = load_embeddings(path)
        assert loaded.ent_labels == labels
        assert np.array_equal(loaded.ent_vecs, vecs)


class TestSaveText:
    def test_rows_match_per_float_formatting(self, tmp_path):
        # every value class %.6g has to render as the per-float f-string did
        rng = np.random.default_rng(12)
        vecs = rng.normal(0, 1, (300, 100)) * 10.0 ** rng.integers(-300, 301, (300, 100))
        vecs[0, :8] = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e300, -1e-300, 123456.5, 1e16]
        vecs[1, :3] = [np.inf, -np.inf, np.nan]
        labels = [f"e{i}%s%%" for i in range(len(vecs))]
        path = tmp_path / "emb.txt"
        EmbeddingIndex(labels, ["c"], vecs, np.ones((1, 100))).save_text(path)
        rows = [("e:" + label, vec) for label, vec in zip(labels, vecs)] + [("c:c", np.ones(100))]
        expect = f"{len(rows)} 100\n" + "".join(
            label + " " + " ".join(f"{x:.6g}" for x in vec) + "\n" for label, vec in rows
        )
        assert path.read_text(encoding="utf-8") == expect


class TestExportableLabels:
    @pytest.mark.parametrize("save", ["save_text", "save_binary"])
    @pytest.mark.parametrize("ents,cats,named", [
        (["a", "b c"], ["k"], "'e:b c'"),
        (["a"], ["Living people"], "'c:Living people'"),
        (["a\xa0b"], ["k"], "'e:a\\xa0b'"),
        (["a"], ["k\tl"], "'c:k\\tl'"),
    ])
    def test_whitespace_label_refused_before_writing(self, tmp_path, save, ents, cats, named):
        index = EmbeddingIndex(ents, cats, np.ones((len(ents), 2)), np.ones((len(cats), 2)))
        path = tmp_path / "emb"
        with pytest.raises(CorpusError, match="^label " + re.escape(named) + " holds whitespace"):
            getattr(index, save)(path)
        assert not path.exists()


class TestEmbeddingIndex:
    def test_vector_lookup_by_node(self, small_setup):
        vocab, table = small_setup
        index = index_from_table(table, vocab)
        node = NodeId(NodeKind.CATEGORY, 1)
        assert np.array_equal(index.vector(node), table.cat_in[1])
        assert node_label(index, node) == vocab.category_label(1)

    def test_match_is_normalized(self, small_setup):
        vocab, table = small_setup
        index = index_from_table(table, vocab)
        assert index.match_entity("ALPHA") == vocab.entity_id("alpha")
        assert index.match_category("Cat A") == vocab.category_id("cat_a")

    def test_index_save_round_trip(self, small_setup, tmp_path):
        vocab, table = small_setup
        index = index_from_table(table, vocab)
        path = tmp_path / "again.bin"
        index.save_binary(path)
        again = load_binary(path)
        assert np.array_equal(again.ent_vecs, index.ent_vecs)
        assert again.cat_labels == index.cat_labels


class TestTableInvariants:
    def test_assert_finite_catches_nan(self):
        table = init_embeddings(3, 2, 4, seed=0)
        table.cat_in[1, 2] = np.nan
        with pytest.raises(CorpusError):
            table.assert_finite()

    def test_sizes_must_be_positive(self):
        with pytest.raises(CorpusError):
            init_embeddings(0, 1, 4, seed=0)
