import re

import numpy as np
import pytest

from catembed.categorize import load_gold
from catembed.cli import load_config_file
from catembed.corpus import (
    PruneReport,
    build_vocabulary,
    load_corpus,
    load_hierarchy,
    prune_to_dag,
    read_lines,
    records,
)
from catembed.embeddings import EmbeddingIndex, load_embeddings
from catembed.errors import CorpusError, FormatError, HierarchyError
from catembed.relatedness import load_relatedness


def toposort_ok(children: dict[int, tuple[int, ...]]) -> bool:
    """Independent Kahn check used as the acyclicity oracle."""
    indeg = {n: 0 for n in children}
    for kids in children.values():
        for c in kids:
            indeg[c] += 1
    ready = [n for n, d in indeg.items() if d == 0]
    seen = 0
    while ready:
        node = ready.pop()
        seen += 1
        for c in children[node]:
            indeg[c] -= 1
            if indeg[c] == 0:
                ready.append(c)
    return seen == len(children)


def build_world(corpus_lines, hierarchy_lines, root="root", drop=(), min_count=1):
    vocab = build_vocabulary(corpus_lines, min_count=min_count)
    raw = load_hierarchy(hierarchy_lines, vocab)
    graph, report = prune_to_dag(raw, vocab, root, drop)
    corpus = load_corpus(corpus_lines, vocab, graph)
    return vocab, graph, corpus, report


class TestBuildVocabulary:
    def test_all_kept_at_min_count_one(self):
        lines = ["t1\tc1\ta a b", "t1\tc1\ta a b"]
        vocab = build_vocabulary(lines, min_count=1)
        assert {vocab.entity_label(i) for i in range(vocab.n_entities)} == {"t1", "a", "b"}
        assert vocab.category_labels() == ["c1"]

    def test_min_count_filters_by_total_occurrences(self):
        # counts: t1 appears twice as target, a four times, b twice as context
        lines = ["t1\tc1\ta a b", "t1\tc1\ta a b"]
        vocab = build_vocabulary(lines, min_count=3)
        labels = set(vocab.entity_labels())
        assert "a" in labels
        assert "b" not in labels
        assert "t1" not in labels  # target-only count 2 < 3
        counts = dict(zip(vocab.entity_labels(), vocab.entity_counts()))
        assert counts["a"] == 4

    def test_empty_target_label_rejected(self):
        with pytest.raises(FormatError) as info:
            build_vocabulary(["t\tc1\ta", " \tc1\ta"])
        assert str(info.value) == "<stream>:2: empty target label"

    def test_empty_stream_errors(self):
        with pytest.raises(CorpusError):
            build_vocabulary([])
        with pytest.raises(CorpusError):
            build_vocabulary(["", "   "])

    def test_malformed_line_reports_lineno(self):
        with pytest.raises(FormatError) as exc:
            build_vocabulary(["t\tc1\ta", "only-one-field"])
        assert "2" in str(exc.value)

    def test_missing_categories_is_malformed(self):
        with pytest.raises(FormatError):
            build_vocabulary(["t\t\ta b"])

    def test_first_seen_order(self):
        lines = ["t\tc\tb a", "a\tc\tz"]
        vocab = build_vocabulary(lines)
        assert vocab.entity_labels() == ["t", "b", "a", "z"]

    def test_roundtrip_identity(self):
        lines = ["alpha\tcat_x,cat_y\tbeta gamma", "beta\tcat_y\talpha alpha"]
        vocab = build_vocabulary(lines)
        for label in vocab.entity_labels():
            assert vocab.entity_label(vocab.entity_id(label)) == label
        for label in vocab.category_labels():
            assert vocab.category_label(vocab.category_id(label)) == label


class TestFoldedMatch:
    def test_lowest_index_wins_on_clash(self):
        vocab = build_vocabulary(["Big_Cat\tc\tbig_cat BIG CAT"])
        assert vocab.entity_labels() == ["Big_Cat", "big_cat", "BIG", "CAT"]
        assert vocab.match_entity("big cat") == 0
        index = EmbeddingIndex(vocab.entity_labels(), [], np.zeros((4, 2)))
        assert index.match_entity("BIG cat") == 0

    def test_entities_added_after_a_lookup_are_found(self):
        vocab = build_vocabulary(["t\tc\t"])
        assert vocab.match_entity("big cat") is None
        vocab.add_entity("Big_Cat", 1)
        assert vocab.match_entity("big cat") == vocab.entity_id("Big_Cat")
        assert vocab.match_entity("T") == vocab.entity_id("t")


class TestReadLines:
    def test_missing_file(self, tmp_path):
        with pytest.raises(CorpusError, match="input file not found"):
            read_lines(tmp_path / "absent.tsv")

    @pytest.mark.parametrize("loader", [load_gold, load_relatedness, load_embeddings, load_config_file])
    def test_loaders_share_the_one_missing_file_check(self, tmp_path, loader):
        path = tmp_path / "absent.tsv"
        with pytest.raises(CorpusError, match=f"^input file not found: {re.escape(str(path))}$"):
            loader(path)

    def test_stream_passes_through(self):
        assert read_lines(["a", "b"]) == ("<stream>", ["a", "b"])

    @pytest.mark.parametrize("data, lineno, byte", [
        (b"\xff\n", 1, 0),
        (b"a\nb\n\xff", 3, 4),
        (b"a\r\nb\r\nc\xff", 3, 7),
        (b"\xc3\xa9\n\xc3\xa9x\xff\n", 2, 6),
        (b"ok\n\xc3", 2, 3),  # a multi-byte character cut off at the end
        (b"a\n\n\xe2\x82\n", 3, 3),
        (b"\xef\xbb\xbfab\n\xff", 2, 6),  # after a byte-order mark, still counted from the file's first byte
    ])
    def test_invalid_byte_names_line_and_offset(self, tmp_path, data, lineno, byte):
        path = tmp_path / "in.tsv"
        path.write_bytes(data)
        with pytest.raises(FormatError) as exc:
            read_lines(path)
        assert str(exc.value) == f"{path}:{lineno}: invalid UTF-8 at byte {byte}"

    @pytest.mark.parametrize("seed", range(20))
    def test_line_number_matches_splitlines(self, tmp_path, seed):
        # every token is valid UTF-8, so the one 0xff is the first bad byte, and
        # decoding with replacement keeps the line structure the reader sees
        tokens = [b"a", b"\t", b"\n", b"\r", b"\r\n", b"\xc3\xa9", b"\xc2\x85", b"\xe2\x80\xa8", b"\x1c"]
        rng = np.random.default_rng(seed)
        parts = [tokens[i] for i in rng.integers(len(tokens), size=60)]
        parts.insert(int(rng.integers(61)), b"\xff")
        data = b"".join(parts)
        path = tmp_path / "in.tsv"
        path.write_bytes(data)
        lines = data.decode("utf-8", "replace").splitlines()
        want = next(i for i, line in enumerate(lines, 1) if "\ufffd" in line)
        with pytest.raises(FormatError) as exc:
            read_lines(path)
        assert exc.value.lineno == want

    def test_records_skip_blank_lines(self):
        got = list(records(["a\tb", "  ", "c\td\n"], ("x", "y")))
        assert got == [("<stream>", 1, ["a", "b"]), ("<stream>", 3, ["c", "d"])]

    def test_records_field_count_names_fields(self):
        with pytest.raises(FormatError) as exc:
            list(records(["a\tb", "", "c"], ("x", "y")))
        assert str(exc.value) == "<stream>:3: expected 2 tab-separated fields (x, y), got 1"


BOM = b"\xef\xbb\xbf"  # the UTF-8 byte-order mark


class TestByteOrderMark:
    """Every text input drops one leading byte-order mark before its first label."""

    def test_corpus(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_bytes(BOM + b"a\tc\tb a\n")
        assert build_vocabulary(path).entity_labels() == ["a", "b"]

    def test_hierarchy(self, tmp_path):
        path = tmp_path / "hierarchy.tsv"
        path.write_bytes(BOM + b"root\tc\n")
        vocab = build_vocabulary(["t\tc\t"])
        graph, _ = prune_to_dag(load_hierarchy(path, vocab), vocab, "root")
        assert [vocab.category_label(i) for i in range(vocab.n_categories)] == ["c", "root"]
        assert graph.root == vocab.category_id("root")

    def test_gold(self, tmp_path):
        path = tmp_path / "gold.tsv"
        path.write_bytes(BOM + b"cat\tanimal\n")
        assert load_gold(path).entities == ["cat"]

    def test_relatedness(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_bytes(BOM + b"cat\tdog\t7\n")
        assert load_relatedness(path)[0].word1 == "cat"

    def test_config(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_bytes(BOM + b"dim=5\n")
        assert load_config_file(path) == {"dim": 5}

    def test_embeddings(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_bytes(BOM + b"1 2\ne:a 1 2\n")
        assert load_embeddings(path).ent_labels == ["a"]

    def test_only_one_mark_is_dropped(self, tmp_path):
        path = tmp_path / "in.tsv"
        path.write_bytes(BOM + BOM + b"a\n")
        assert read_lines(path)[1] == ["\ufeffa"]


class TestLoadHierarchy:
    def test_simple_edges(self):
        vocab = build_vocabulary(["t\ta\tx"])
        children = load_hierarchy(["root\ta", "a\tb"], vocab)
        assert len(children) == 3  # the leaf b has a key too
        assert sum(map(len, children.values())) == 2

    def test_duplicate_edges_collapse(self):
        vocab = build_vocabulary(["t\ta\tx"])
        children = load_hierarchy(["a\tb", "a\tb"], vocab)
        assert sum(map(len, children.values())) == 1

    def test_self_loop_rejected(self):
        vocab = build_vocabulary(["t\ta\tx"])
        with pytest.raises(FormatError):
            load_hierarchy(["a\ta"], vocab)

    @pytest.mark.parametrize("edge", ["root\t ", " \ta"])
    def test_empty_label_in_edge_rejected(self, edge):
        vocab = build_vocabulary(["t\ta\tx"])
        with pytest.raises(FormatError) as info:
            load_hierarchy(["root\ta", edge], vocab)
        assert str(info.value) == "<stream>:2: empty category label in edge"

    def test_unknown_labels_become_categories(self):
        vocab = build_vocabulary(["t\ta\tx"])
        load_hierarchy(["root\tnew_cat"], vocab)
        assert vocab.category_id("new_cat") is not None


class TestPruneToDag:
    def test_back_edge_deleted(self):
        vocab = build_vocabulary(["t\ta\tx"])
        raw = load_hierarchy(["root\ta", "a\tb", "b\ta"], vocab)
        graph, report = prune_to_dag(raw, vocab, "root")
        assert report.back_edges == 1
        a, b = vocab.category_id("a"), vocab.category_id("b")
        assert graph.children[a] == (b,)
        assert graph.children[b] == ()
        assert toposort_ok(graph.children)

    def test_drop_pattern_removes_node_and_edges(self):
        vocab = build_vocabulary(["t\ta\tx"])
        raw = load_hierarchy(["root\ta", "root\tWikipedia administration", "Wikipedia administration\ta"], vocab)
        graph, report = prune_to_dag(raw, vocab, "root", drop_patterns=["administration"])
        assert report.pattern_nodes == 1
        assert vocab.category_id("Wikipedia administration") not in graph

    def test_two_cycle_resolved_deterministically(self):
        vocab = build_vocabulary(["t\ta\tx"])
        raw = load_hierarchy(["root\ta", "a\tb", "b\ta"], vocab)
        graph1, _ = prune_to_dag(raw, vocab, "root")
        raw2 = load_hierarchy(["root\ta", "a\tb", "b\ta"], vocab)
        graph2, _ = prune_to_dag(raw2, vocab, "root")
        assert graph1.children == graph2.children
        assert toposort_ok(graph1.children)

    def test_root_missing_errors(self):
        vocab = build_vocabulary(["t\ta\tx"])
        raw = load_hierarchy(["a\tb"], vocab)
        with pytest.raises(HierarchyError):
            prune_to_dag(raw, vocab, "root")

    def test_root_matching_pattern_errors(self):
        vocab = build_vocabulary(["t\ta\tx"])
        raw = load_hierarchy(["root\ta"], vocab)
        with pytest.raises(HierarchyError):
            prune_to_dag(raw, vocab, "root", drop_patterns=["roo"])

    def test_unreachable_nodes_removed(self):
        vocab = build_vocabulary(["t\ta\tx"])
        raw = load_hierarchy(["root\ta", "island\tisland2"], vocab)
        graph, report = prune_to_dag(raw, vocab, "root")
        assert report.unreachable_nodes == 2
        assert vocab.category_id("island") not in graph

    def test_every_report_field(self):
        vocab = build_vocabulary(["t\ta\tx"])
        raw = load_hierarchy([
            "root\ta", "a\tb", "b\ta",  # b -> a closes a cycle: a back edge
            "root\tadmin", "admin\ta", "admin\tstray",  # admin is dropped; stray only hangs below it
            "island\tisland2", "island2\tisland",  # an unreachable cycle
        ], vocab)
        graph, report = prune_to_dag(raw, vocab, "root", drop_patterns=["admin"])
        assert report == PruneReport(
            nodes_in=7, edges_in=8,
            pattern_nodes=1, pattern_edges=3,
            unreachable_nodes=3, unreachable_edges=2,
            back_edges=1,
            nodes_out=3, edges_out=2,
        )
        root, a, b = (vocab.category_id(label) for label in ("root", "a", "b"))
        assert graph.children == {root: (a,), a: (b,), b: ()}

    @pytest.mark.parametrize("seed", range(30))
    def test_random_digraphs_become_dags_idempotently(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 15))
        labels = [f"c{i}" for i in range(n)]
        edges = set()
        for _ in range(int(rng.integers(n, 4 * n))):
            i, j = rng.integers(0, n, size=2)
            if i != j:
                edges.add((labels[i], labels[j]))
        for j in range(1, min(4, n)):
            edges.add(("c0", labels[j]))  # keep the root connected to something
        lines = [f"{p}\t{c}" for p, c in sorted(edges)]
        vocab = build_vocabulary(["t\tc0\tx"])
        raw = load_hierarchy(lines, vocab)
        graph, _ = prune_to_dag(raw, vocab, "c0")
        assert toposort_ok(graph.children)
        assert sorted(graph.rank) == sorted(graph.children)
        assert sorted(graph.rank.values()) == list(range(len(graph.children)))
        assert all(graph.rank[p] < graph.rank[c] for p, kids in graph.children.items() for c in kids)
        # idempotence: pruning the pruned edge set changes nothing
        relines = [
            f"{vocab.category_label(p)}\t{vocab.category_label(c)}"
            for p, kids in graph.children.items() for c in kids
        ]
        if relines:
            raw2 = load_hierarchy(relines, vocab)
            graph2, report2 = prune_to_dag(raw2, vocab, "c0")
            assert graph2.children == graph.children
            assert report2.back_edges == 0
            assert report2.pattern_nodes == 0


class TestLoadCorpus:
    def test_contexts_kept(self):
        vocab, graph, corpus, _ = build_world(
            ["t\tc1\ta b c", "a\tc1\tt", "b\tc1\tt", "c\tc1\tt"],
            ["root\tc1"],
        )
        assert corpus.ctx_offsets[1] - corpus.ctx_offsets[0] == 3

    def test_out_of_vocab_context_skipped(self):
        lines = ["t\tc1\ta b rare", "a\tc1\tt b", "b\tc1\tt a"]
        vocab = build_vocabulary(lines, min_count=2)
        raw = load_hierarchy(["root\tc1"], vocab)
        graph, _ = prune_to_dag(raw, vocab, "root")
        corpus = load_corpus(lines, vocab, graph)
        assert vocab.entity_id("rare") is None
        assert corpus.ctx_offsets[1] - corpus.ctx_offsets[0] == 2
        assert corpus.dropped_contexts == 1

    def test_all_docs_filtered_errors(self):
        lines = ["t\tnot_in_graph\ta"]
        vocab = build_vocabulary(lines)
        raw = load_hierarchy(["root\tc1"], vocab)
        graph, _ = prune_to_dag(raw, vocab, "root")
        with pytest.raises(CorpusError):
            load_corpus(lines, vocab, graph)

    def test_documents_reference_only_known_ids(self):
        vocab, graph, corpus, _ = build_world(
            ["t\tc1,c2\ta b", "a\tc2\tt", "b\tc1\ta t"],
            ["root\tc1", "root\tc2", "c1\tc3"],
        )
        for i in range(len(corpus)):
            assert 0 <= corpus.doc_target[i] < vocab.n_entities
            contexts = corpus.ctx_ids[corpus.ctx_offsets[i]:corpus.ctx_offsets[i + 1]]
            assert all(0 <= c < vocab.n_entities for c in contexts)
            labels = corpus.entity_categories[int(corpus.doc_target[i])]
            assert all(c in graph for c in labels)
            assert labels

    def test_entity_labeling_is_union_over_docs(self):
        vocab, graph, corpus, _ = build_world(
            ["t\tc1\ta", "t\tc2\ta", "a\tc1\tt"],
            ["root\tc1", "root\tc2"],
        )
        t = vocab.entity_id("t")
        got = {vocab.category_label(c) for c in corpus.entity_categories[t]}
        assert got == {"c1", "c2"}
        assert corpus.entity_categories[t] == tuple(sorted(corpus.entity_categories[t]))

    def test_flat_arrays_keep_documents_without_contexts(self):
        vocab, graph, corpus, _ = build_world(
            ["t\tc1\ta b", "a\tc1\t", "b\tc1\tt", "x\tmissing\tt"],
            ["root\tc1"],
        )
        assert len(corpus) == 3 and corpus.skipped_documents == 1
        assert corpus.doc_target.tolist() == [vocab.entity_id(x) for x in "tab"]
        assert corpus.ctx_offsets.tolist() == [0, 2, 2, 3]
        assert corpus.ctx_ids.tolist() == [vocab.entity_id(x) for x in "abt"]
        assert corpus.n_pairs == 3
        for arr in (corpus.doc_target, corpus.ctx_offsets, corpus.ctx_ids):
            assert arr.dtype == np.int64

    def test_load_leaves_graph_unchanged(self):
        lines = ["t\tc1,c3\ta b", "a\tc2\tt", "b\tc3,gone\ta"]
        vocab = build_vocabulary(lines)
        raw = load_hierarchy(["root\tc1", "root\tc2", "c1\tc3", "c3\tc1"], vocab)
        graph, _ = prune_to_dag(raw, vocab, "root")
        children, parents = dict(graph.children), dict(graph.parents)
        load_corpus(lines, vocab, graph)
        assert graph.children == children
        assert graph.parents == parents
        assert not hasattr(graph, "entity_categories")
