import re

import numpy as np
import pytest

from catembed.corpus import build_vocabulary
from catembed.embeddings import (
    EmbeddingIndex, _read_values, init_embeddings, load_embeddings, save_text, unit_rows,
)
from catembed.errors import CorpusError, FormatError


def index_from_table(table, vocab):
    """Evaluation view of a trained table, without the export's rounding."""
    return EmbeddingIndex(vocab.entity_labels(), vocab.category_labels(), np.vstack([table.ent_in, table.cat_in]))


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
        index = load_embeddings(path)
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
            load_embeddings(path)

    def test_missing_prefix_rejected(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("1 2\nalpha 0.5 0.5\n")
        with pytest.raises(FormatError):
            load_embeddings(path)

    def test_row_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("2 2\ne:alpha 0.5 0.5\n")
        with pytest.raises(FormatError):
            load_embeddings(path)

    def test_repeated_row_label_rejected(self, tmp_path):
        # the second e:a row could never be reached by a label lookup
        path = tmp_path / "dup.txt"
        path.write_text("3 2\ne:a 1 0\ne:a 0.9 0.1\ne:b 0 1\n")
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}:3: duplicate row label 'e:a'$"):
            load_embeddings(path)
        # labels that only fold together, or share a label across kinds, stay distinct rows
        path.write_text("3 1\ne:Big_Cat 1\ne:big_cat 2\nc:Big_Cat 3\n")
        index = load_embeddings(path)
        assert index.ent_labels == ["Big_Cat", "big_cat"]
        assert index.cat_labels == ["Big_Cat"]

    @pytest.mark.parametrize("token", ["nan", "inf", "-Infinity", "1e999"])
    def test_non_finite_value_rejected(self, tmp_path, token):
        path = tmp_path / "emb.txt"
        path.write_text(f"3 2\ne:alpha 0.5 0.5\n\nc:beta 0.5 {token}\ne:gamma nan 1\n")
        with pytest.raises(FormatError, match="non-finite") as info:
            load_embeddings(path)
        assert info.value.lineno == 4  # first bad line, counting the header and the blank line

    def test_non_numeric_value_rejected(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("2 3\ne:a 1 2 3\nc:b 1 x 3\n")
        with pytest.raises(FormatError, match="non-numeric") as info:
            load_embeddings(path)
        assert info.value.source == str(path)
        assert info.value.lineno == 3

    @pytest.mark.parametrize("header", ["1 0", "0 -2"])
    def test_dim_below_one_rejected(self, tmp_path, header):
        path = tmp_path / "emb.txt"
        path.write_text(f"{header}\n")
        with pytest.raises(FormatError, match="dim >= 1") as info:
            load_embeddings(path)
        assert info.value.lineno == 1

    def test_negative_row_count_rejected(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("-1 3\n")
        with pytest.raises(FormatError, match="rows >= 0") as info:
            load_embeddings(path)
        assert info.value.lineno == 1

    @pytest.mark.parametrize("header", ["3", "1 2 3", "1.5 2", ""])
    def test_header_shape_rejected(self, tmp_path, header):
        path = tmp_path / "emb.txt"
        path.write_text(f"{header}\ne:a 1\n")
        with pytest.raises(FormatError, match="bad header") as info:
            load_embeddings(path)
        assert info.value.lineno == 1

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("")
        with pytest.raises(FormatError, match="empty embedding file") as info:
            load_embeddings(path)
        assert info.value.lineno == 1

    @pytest.mark.parametrize("row,got", [("c:b 1 2", 3), ("c:b 1 2 3 4", 5)])
    def test_column_count_mismatch_rejected(self, tmp_path, row, got):
        path = tmp_path / "emb.txt"
        path.write_text(f"2 3\ne:a 1 2 3\n{row}\n")
        with pytest.raises(FormatError, match=f"expected 4 columns, got {got}$") as info:
            load_embeddings(path)
        assert info.value.lineno == 3

    def test_truncated_file_rejected(self, small_setup, tmp_path):
        vocab, table = small_setup
        path = tmp_path / "emb.txt"
        save_text(table, vocab, path)
        text = path.read_text()
        path.write_text(text[:text.rindex(" ")])  # the last row loses its last value
        with pytest.raises(FormatError, match="expected 6 columns, got 5") as info:
            load_embeddings(path)
        assert info.value.lineno == vocab.n_entities + vocab.n_categories + 1

    def test_trailing_row_rejected(self, small_setup, tmp_path):
        vocab, table = small_setup
        path = tmp_path / "emb.txt"
        save_text(table, vocab, path)
        n_rows = vocab.n_entities + vocab.n_categories
        with path.open("a") as fh:
            fh.write("e:extra 1 1 1 1 1\n")
        with pytest.raises(FormatError, match=f"header promised {n_rows} rows, found {n_rows + 1}"):
            load_embeddings(path)

    def test_saved_non_finite_value_rejected(self, small_setup, tmp_path):
        vocab, table = small_setup
        table.cat_in[0, 1] = np.inf
        table.ent_in[1, 3] = np.nan
        path = tmp_path / "emb.txt"
        save_text(table, vocab, path)
        with pytest.raises(FormatError, match="non-finite value") as info:
            load_embeddings(path)
        assert info.value.lineno == 3  # entity row 2, after the header

    def test_blank_lines_and_extra_whitespace_ignored(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("2 2\n\n  e:a\t0.5   1.5  \n\n\nc:b 2.5 3.5\n\n")
        index = load_embeddings(path)
        assert index.ent_labels == ["a"] and index.cat_labels == ["b"]
        assert np.array_equal(index.ent_vecs, [[0.5, 1.5]])
        assert np.array_equal(index.cat_vecs, [[2.5, 3.5]])

    def test_interleaved_kinds_keep_file_order(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("4 1\nc:x 1\ne:a 2\nc:y 3\ne:b 4\n")
        index = load_embeddings(path)
        assert index.ent_labels == ["a", "b"] and index.cat_labels == ["x", "y"]
        assert index.ent_vecs.ravel().tolist() == [2.0, 4.0]
        assert index.cat_vecs.ravel().tolist() == [1.0, 3.0]
        assert index.vecs.ravel().tolist() == [2.0, 4.0, 1.0, 3.0]
        assert index.row("y") == 3

    def test_zero_rows(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("0 3\n")
        index = load_embeddings(path)
        assert index.n_rows == 0 and index.dim == 3
        assert index.ent_vecs.shape == (0, 3) and index.cat_vecs.shape == (0, 3)

    def test_six_digit_values_round_trip_exactly(self, tmp_path):
        vecs = np.array([[0.5, -1.25e-07, 123456.0], [1e-300, -2.5e300, 0.0]])
        path = tmp_path / "emb.txt"
        EmbeddingIndex(["a", "b"], ["c"], np.vstack([vecs, np.ones((1, 3))])).save_text(path)
        assert np.array_equal(load_embeddings(path).ent_vecs, vecs)

    def test_old_binary_layout_refused_at_its_first_bad_line(self, tmp_path):
        # label, space, little-endian float64s, newline; 1.0 ends in 0xf0 0x3f, no valid UTF-8
        path = tmp_path / "emb.bin"
        path.write_bytes(b"2 1\ne:a " + np.float64(1.0).tobytes() + b"\ne:b " + np.float64(2.0).tobytes() + b"\n")
        with pytest.raises(FormatError, match="invalid UTF-8 at byte ") as info:
            load_embeddings(path)
        assert info.value.lineno == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(CorpusError):
            load_embeddings(tmp_path / "nope.txt")

    def test_multibyte_labels(self, tmp_path):
        labels = ["é" * 50 + str(i) for i in range(200)]
        path = tmp_path / "accents.txt"
        EmbeddingIndex(labels, ["c"], np.ones((len(labels) + 1, 3))).save_text(path)
        assert load_embeddings(path).ent_labels == labels

    def test_long_label(self, tmp_path):
        labels = ["x" * 5000, "y"]
        vecs = np.array([[0.5, 1.5, 2.5], [3.5, 4.5, 5.5]])
        path = tmp_path / "long.txt"
        EmbeddingIndex(labels, ["c"], np.vstack([vecs, np.zeros((1, 3))])).save_text(path)
        loaded = load_embeddings(path)
        assert loaded.ent_labels == labels
        assert np.array_equal(loaded.ent_vecs, vecs)



def _rows(n, dim=3):
    return [f"e:r{i} " + " ".join(str(i + j / 4) for j in range(dim)) for i in range(n)]


class TestBlockParse:
    """The loader checks each row as one np.loadtxt call asks for it, and
    loadtxt parses a row before it asks for the next. Every fault below sits
    behind good rows."""

    @pytest.mark.parametrize("token,want", [
        (".5", 0.5), ("1.", 1.0), ("+.5e-3", 5e-4), ("-0.0", -0.0), ("5e-324", 5e-324),
        ("nan", "non-finite"), ("-iNF", "non-finite"), ("Infinity", "non-finite"),
        # float() reads the first two, loadtxt none of these
        ("1_000", "refused"), ("\u0661", "refused"), ("0x10", "refused"), ("1,5", "refused"), ("1d5", "refused"),
        ("\u22121", "refused"),
    ])
    def test_token_reads_as_loadtxt_reads_it(self, tmp_path, token, want):
        # the token sits on line 9, behind 7 good rows
        path = tmp_path / "emb.txt"
        path.write_text("\n".join(["8 3", *_rows(7), f"c:t 0.5 {token} 2"]) + "\n", encoding="utf-8")
        where = f"^{re.escape(str(path))}:9: "
        if want == "refused":  # quoted as float() quotes a token it cannot read
            quote = re.escape(f"(could not convert string to float: {token!r})")
            with pytest.raises(FormatError, match=f"{where}non-numeric value {quote}$"):
                load_embeddings(path)
        elif want == "non-finite":
            with pytest.raises(FormatError, match=f"{where}non-finite value$"):
                load_embeddings(path)
        else:
            index = load_embeddings(path)
            assert index.cat_vecs[0].tobytes() == np.array([0.5, want, 2.0]).tobytes()
            assert index.ent_vecs.tolist() == [[i + j / 4 for j in range(3)] for i in range(7)]

    def test_no_break_space_separates_values(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("\n".join(["5 3", *_rows(4), "c:t 1\xa02\u20033"]) + "\n", encoding="utf-8")
        assert load_embeddings(path).cat_vecs.tolist() == [[1.0, 2.0, 3.0]]

    def test_export_loads_to_float_of_every_token(self, tmp_path):
        rng = np.random.default_rng(4)
        vecs = rng.normal(size=(11, 6)) * 10.0 ** rng.integers(-300, 300, (11, 6))
        vecs[0] = [5e-324, -5e-324, 2.5e-310, -0.0, 0.0, 1.79769e308]
        vecs[1] = [1e-300, -1e300, 2.22507e-308, 123456.0, -9.87654e-05, 0.5]
        path = tmp_path / "emb.txt"
        EmbeddingIndex([f"e{i}" for i in range(8)], ["x", "y", "z"], vecs).save_text(path)
        tokens = [line.split()[1:] for line in path.read_text().splitlines()[1:]]
        assert tokens[0][3] == "-0" and tokens[0][0] == "4.94066e-324"
        index = load_embeddings(path)
        assert index.ent_labels == [f"e{i}" for i in range(8)] and index.cat_labels == ["x", "y", "z"]
        assert index.vecs.tobytes() == np.array([[float(t) for t in row] for row in tokens]).tobytes()

    def test_refused_row_bound_reads_on_without_it(self):
        # a bound of 10**15 rows cannot be allocated; the pass starts again from the first row, unbounded
        rest = (row for row in ["4 5 6", "7 8 9"])
        assert _read_values("1 2 3", rest, 3, 10**15).tolist() == [[1, 2, 3], [4, 5, 6], [7, 8, 9]]
        assert _read_values(None, iter([]), 3, 10**15).shape == (0, 3)

    def test_label_only_row_names_its_line(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("\n".join(["6 3", *_rows(4), "e:lonely", "e:last 1 2 3"]) + "\n")
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}:6: expected 4 columns, got 1$"):
            load_embeddings(path)

    @pytest.mark.parametrize("width", [2, 4])
    def test_block_of_the_wrong_width_names_its_first_line(self, tmp_path, width):
        # loadtxt holds line 5 to the width of the rows before it
        path = tmp_path / "emb.txt"
        path.write_text("\n".join(["6 3", *_rows(3), *_rows(6, width)[3:]]) + "\n")
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}:5: expected 4 columns, got {width + 1}$"):
            load_embeddings(path)

    def test_every_row_of_the_wrong_width_names_the_first(self, tmp_path):
        # the first row's columns are counted before loadtxt takes its width
        path = tmp_path / "emb.txt"
        path.write_text("\n".join(["4 3", *_rows(4, 2)]) + "\n")
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}:2: expected 4 columns, got 3$"):
            load_embeddings(path)

    def test_first_bad_line_of_a_block_wins(self, tmp_path):
        # line 5 holds a bad value, line 6 repeats the label of line 2
        path = tmp_path / "emb.txt"
        path.write_text("\n".join(["6 3", *_rows(3), "e:x 1 y 3", "e:r0 1 2 3"]) + "\n")
        with pytest.raises(FormatError, match=r":5: non-numeric value"):
            load_embeddings(path)
        path.write_text("\n".join(["6 3", *_rows(3), "e:x 1 2 3", "e:r0 1 2 3"]) + "\n")
        with pytest.raises(FormatError, match=r":6: duplicate row label 'e:r0'$"):
            load_embeddings(path)

    def test_blank_lines_and_trailing_whitespace(self, tmp_path):
        # a run of blank lines, tabs and trailing spaces
        path = tmp_path / "emb.txt"
        path.write_text("3 2\ne:a 1 2  \n\t\n\n \n\n\ne:b\t3\t4\t\n\n c:k 5 6\n\n")
        index = load_embeddings(path)
        assert index.ent_labels == ["a", "b"] and index.cat_labels == ["k"]
        assert index.vecs.tolist() == [[1, 2], [3, 4], [5, 6]]

    def test_blank_lines_keep_line_numbers(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("3 2\ne:a 1 2\n\ne:b 3 4\nc:k 5 inf\n")
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}:5: non-finite value$"):
            load_embeddings(path)
        path.write_text("3 2\ne:a 1 2\n\n\ne:b 1_000 4\nc:k 5 6\n")
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}:5: non-numeric value .*'1_000'"):
            load_embeddings(path)

    def test_late_non_finite_value_names_its_line(self, tmp_path):
        rows = _rows(10)
        rows[8] = "e:r8 1 2 inf"
        path = tmp_path / "emb.txt"
        path.write_text("\n".join(["10 3", *rows]) + "\n")
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}:10: non-finite value$"):
            load_embeddings(path)

    @pytest.mark.parametrize("late", [False, True])
    def test_first_bad_line_wins_behind_many_rows(self, tmp_path, late):
        # a numpy that read rows ahead of parsing them would name the later line
        bad, dup = "e:x 1 y 3", "e:r0 1 2 3"
        second, third = (bad, dup) if late else (dup, bad)
        path = tmp_path / "emb.txt"
        path.write_text("\n".join(["2002 3", *_rows(2000), second, third]) + "\n")
        fault = "non-numeric value .*'y'" if late else "duplicate row label 'e:r0'"
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}:2002: {fault}"):
            load_embeddings(path)

    @pytest.mark.parametrize("line,fault", [
        ("r0 1 y", "expected 4 columns, got 3"),  # also no prefix, a repeated label and a bad value
        ("e:r0 1 y 3 4", "expected 4 columns, got 5"),
        ("r0 1 y 3", "row label 'r0' lacks an e:/c: prefix"),
        ("e:r0 1 y 3", "duplicate row label 'e:r0'"),
        ("e:new 1 y 3", "non-numeric value (could not convert string to float: 'y')"),
    ], ids=["too-few", "too-many", "prefix", "duplicate", "value"])
    @pytest.mark.parametrize("n_before", [1, 2000])
    def test_faults_of_one_line_keep_their_order(self, tmp_path, line, fault, n_before):
        path = tmp_path / "emb.txt"
        path.write_text("\n".join([f"{n_before + 1} 3", *_rows(n_before), line]) + "\n")
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}:{n_before + 2}: {re.escape(fault)}$"):
            load_embeddings(path)

    @pytest.mark.parametrize("line,fault", [
        ("r0 1 y", "expected 4 columns, got 3"),
        ("r0 1 y 3", "row label 'r0' lacks an e:/c: prefix"),
        ("e:r0 1 y 3", "non-numeric value (could not convert string to float: 'y')"),
    ], ids=["too-few", "prefix", "value"])
    def test_faults_of_the_first_row_keep_their_order(self, tmp_path, line, fault):
        path = tmp_path / "emb.txt"
        path.write_text("\n".join(["3 3", "", line, *_rows(3)[1:]]) + "\n")
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}:3: {re.escape(fault)}$"):
            load_embeddings(path)

    def test_huge_header_allocates_nothing(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("1000000000000 3\ne:a 1 2 3\ne:b 4 5 6\n")
        with pytest.raises(FormatError, match="header promised 1000000000000 rows, found 2$"):
            load_embeddings(path)


class TestSaveText:
    def test_rows_match_per_float_formatting(self, tmp_path):
        # every value class %.6g has to render as the per-float f-string did
        rng = np.random.default_rng(12)
        vecs = rng.normal(0, 1, (300, 100)) * 10.0 ** rng.integers(-300, 301, (300, 100))
        vecs[0, :8] = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e300, -1e-300, 123456.5, 1e16]
        vecs[1, :3] = [np.inf, -np.inf, np.nan]
        labels = [f"e{i}%s%%" for i in range(len(vecs))]
        path = tmp_path / "emb.txt"
        EmbeddingIndex(labels, ["c"], np.vstack([vecs, np.ones((1, 100))])).save_text(path)
        rows = [("e:" + label, vec) for label, vec in zip(labels, vecs)] + [("c:c", np.ones(100))]
        expect = f"{len(rows)} 100\n" + "".join(
            label + " " + " ".join(f"{x:.6g}" for x in vec) + "\n" for label, vec in rows
        )
        assert path.read_text(encoding="utf-8") == expect


class TestExportableLabels:
    @pytest.mark.parametrize("ents,cats,named", [
        (["a", "b c"], ["k"], "'e:b c'"),
        (["a"], ["Living people"], "'c:Living people'"),
        (["a\xa0b"], ["k"], "'e:a\\xa0b'"),
        (["a"], ["k\tl"], "'c:k\\tl'"),
    ])
    def test_whitespace_label_refused_before_writing(self, tmp_path, ents, cats, named):
        index = EmbeddingIndex(ents, cats, np.ones((len(ents) + len(cats), 2)))
        path = tmp_path / "emb"
        with pytest.raises(CorpusError, match="^label " + re.escape(named) + " holds whitespace"):
            index.save_text(path)
        assert not path.exists()


class TestEmbeddingIndex:
    def test_one_matrix_entity_rows_first(self, small_setup):
        vocab, table = small_setup
        index = index_from_table(table, vocab)
        row = index.row(vocab.category_label(1))
        assert row == vocab.n_entities + 1
        assert np.array_equal(index.vecs[row], table.cat_in[1])
        assert np.shares_memory(index.ent_vecs, index.vecs) and np.shares_memory(index.cat_vecs, index.vecs)
        assert np.array_equal(index.ent_vecs, table.ent_in) and np.array_equal(index.cat_vecs, table.cat_in)
        assert index.n_rows == len(index.vecs) == vocab.n_entities + vocab.n_categories

    def test_index_save_round_trip(self, small_setup, tmp_path):
        vocab, table = small_setup
        index = index_from_table(table, vocab)
        path = tmp_path / "again.txt"
        index.save_text(path)
        again = load_embeddings(path)
        assert again.ent_labels == index.ent_labels and again.cat_labels == index.cat_labels
        assert np.allclose(again.ent_vecs, index.ent_vecs, rtol=1e-5, atol=1e-12)
        assert np.allclose(again.cat_vecs, index.cat_vecs, rtol=1e-5, atol=1e-12)

    def test_label_names_each_kind(self):
        index = EmbeddingIndex(["a", "b"], ["a"], np.ones((3, 2)))
        assert [index.label(row) for row in range(3)] == ["e:a", "e:b", "c:a"]

    def test_match_is_normalized(self, small_setup):
        vocab, table = small_setup
        index = index_from_table(table, vocab)
        assert index.match_entity("ALPHA") == vocab.entity_id("alpha")
        assert index.match_category("Cat A") == vocab.category_id("cat_a")


class TestOneLabelIndex:
    def test_training_vocabulary_and_its_export_agree(self, tmp_path):
        # Big_Cat and big_cat fold together: the lowest index wins on both sides
        vocab = build_vocabulary(["Big_Cat\tAnimals,big_cat\tbig_cat Hot_Dog", "hot_dog\tFood\tBig_Cat"])
        table = init_embeddings(vocab.n_entities, vocab.n_categories, 3, seed=1)
        path = tmp_path / "emb.txt"
        save_text(table, vocab, path)
        index = load_embeddings(path)
        words = vocab.entity_labels() + vocab.category_labels() + ["BIG CAT", "hot dog", "ANIMALS", " food ", "absent"]
        for word in words:
            assert index.row(word) == vocab.row(word), word
        for row in range(vocab.n_rows):
            assert index.label(row) == vocab.label(row)
        assert index.row("big cat") == vocab.entity_id("Big_Cat") == 0
        assert index.row("Hot Dog") == vocab.entity_id("Hot_Dog")
        assert index.row("animals") == vocab.n_entities + vocab.category_id("Animals")
        assert index.row("BIG_CAT") == 0  # the entity before the category of the same folded label
        assert index.match_category("BIG_CAT") == vocab.category_id("big_cat")

    @pytest.mark.parametrize("ents,cats,named", [(["a", "a"], [], "'e:a'"), (["a"], ["k", "l", "k"], "'c:k'")])
    def test_repeated_label_within_a_kind_refused(self, ents, cats, named):
        with pytest.raises(CorpusError, match="^duplicate row label " + re.escape(named) + "$"):
            EmbeddingIndex(ents, cats, np.ones((len(ents) + len(cats), 2)))

    @pytest.mark.parametrize("n_vecs", [0, 1, 3])
    def test_row_count_mismatch_refused(self, n_vecs):
        with pytest.raises(CorpusError, match=f"^{n_vecs} vectors for 2 row labels$"):
            EmbeddingIndex(["a"], ["k"], np.ones((n_vecs, 2)))

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_row_count_mismatch_refused_before_writing(self, small_setup, tmp_path, extra):
        vocab, _ = small_setup
        table = init_embeddings(vocab.n_entities, vocab.n_categories + extra, 5, seed=3)
        path = tmp_path / "emb.txt"
        with pytest.raises(CorpusError, match=f"^{vocab.n_rows + extra} vectors for {vocab.n_rows} row labels$"):
            save_text(table, vocab, path)
        assert not path.exists()


class TestTableInvariants:
    def test_assert_finite_catches_nan(self):
        table = init_embeddings(3, 2, 4, seed=0)
        table.cat_in[1, 2] = np.nan
        with pytest.raises(CorpusError):
            table.assert_finite()

    def test_sizes_must_be_positive(self):
        with pytest.raises(CorpusError):
            init_embeddings(0, 1, 4, seed=0)


class TestUnitRows:
    def test_ordinary_rows_bitwise_plain(self):
        x = np.random.default_rng(0).normal(size=(50, 7)) * np.logspace(-100, 100, 50)[:, None]
        unit, zero = unit_rows(x)
        assert np.array_equal(unit, x / np.linalg.norm(x, axis=1, keepdims=True))
        assert np.array_equal(unit[3], x[3] / np.linalg.norm(x[3]))
        assert not zero.any()

    def test_extreme_rows_reach_unit_length(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(6, 7))
        x[1] *= 1e160  # plain norm inf
        x[2] *= 1e-200  # plain norm 0
        x[3] *= 1e-170  # plain norm 0
        x[4] = 0.0
        x[5, 0] = 1e300
        unit, zero = unit_rows(x)
        assert np.allclose(np.linalg.norm(unit, axis=1), [1, 1, 1, 1, 0, 1], rtol=1e-15)
        ref = x[:4] / np.abs(x[:4]).max(axis=1, keepdims=True)
        assert np.allclose(unit[:4], ref / np.linalg.norm(ref, axis=1, keepdims=True), rtol=1e-14)
        assert np.array_equal(unit[0], x[0] / np.linalg.norm(x[0]))
        assert zero.tolist() == [False, False, False, False, True, False]
        assert np.array_equal(unit[4], np.zeros(7))

    def test_rescaling_starts_below_the_tiny_norm(self):
        # v has norm 1.14 and a peak below 1, so dividing by the plain norm and
        # rescaling by the peak first round differently: the row at norm
        # 1.14 * 2**-500 takes the plain path, the row at 0.57 * 2**-500 the other
        v = np.array([0.3, 0.9, -0.6, 0.2])
        plain = v / np.linalg.norm(v)
        rescaled = (v / 0.9) / np.linalg.norm(v / 0.9)
        assert not np.array_equal(plain, rescaled)
        unit, zero = unit_rows(np.vstack([v * 2.0**-500, v * 2.0**-501]))
        assert np.array_equal(unit[0], plain) and np.array_equal(unit[1], rescaled)
        assert not zero.any()

    def test_no_rows(self):
        unit, zero = unit_rows(np.empty((0, 3)))
        assert unit.shape == (0, 3) and zero.shape == (0,)
