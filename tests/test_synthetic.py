import hashlib

import pytest

from catembed.cli import RunConfig
from catembed.corpus import build_vocabulary, load_corpus, load_hierarchy, prune_to_dag
from catembed.errors import ConfigError
from catembed.synthetic import generate_world


def load_world(world):
    vocab = build_vocabulary(world.corpus_path)
    raw = load_hierarchy(world.hierarchy_path, vocab)
    graph, _ = prune_to_dag(raw, vocab, world.root_label)
    corpus = load_corpus(world.corpus_path, vocab, graph)
    return vocab, graph, corpus


class TestGenerateWorld:
    def test_default_world_parses(self, tmp_path):
        world = generate_world(tmp_path, RunConfig(seed=5))
        vocab, graph, corpus = load_world(world)
        assert len(world.leaf_labels) == 3
        assert vocab.n_entities == 30
        assert len(corpus) == 200
        assert corpus.n_pairs == 200 * 20

    def test_same_seed_identical_files(self, tmp_path):
        w1 = generate_world(tmp_path / "a", RunConfig(seed=9))
        w2 = generate_world(tmp_path / "b", RunConfig(seed=9))
        for attr in ("corpus_path", "hierarchy_path", "gold_path"):
            assert getattr(w1, attr).read_bytes() == getattr(w2, attr).read_bytes()

    def test_different_seed_differs(self, tmp_path):
        w1 = generate_world(tmp_path / "a", RunConfig(seed=9))
        w2 = generate_world(tmp_path / "b", RunConfig(seed=10))
        assert w1.corpus_path.read_bytes() != w2.corpus_path.read_bytes()

    def test_p_in_one_keeps_contexts_in_leaf(self, tmp_path):
        world = generate_world(tmp_path, RunConfig(p_in=1.0, seed=2, docs=50))
        leaf_of = {}
        for line in world.gold_path.read_text().splitlines():
            ent, leaf = line.split("\t")
            leaf_of[ent] = leaf
        for line in world.corpus_path.read_text().splitlines():
            target, label, ctxs = line.split("\t")
            assert leaf_of[target] == label
            for ctx in ctxs.split():
                assert leaf_of[ctx] == label

    def test_corpus_is_pinned(self, tmp_path):
        # several leaves per parent: same-leaf and cross-leaf draws both skip an id range
        cfg = RunConfig(parents=3, leaves_per_parent=4, entities_per_leaf=5, docs=300, p_in=0.5, seed=3)
        world = generate_world(tmp_path, cfg)
        assert hashlib.md5(world.corpus_path.read_bytes()).hexdigest() == "d77388eadd5ea94b965c00afff22dd82"

    def test_gold_covers_every_entity(self, tmp_path):
        cfg = RunConfig(parents=2, leaves_per_parent=3, entities_per_leaf=4, docs=30, seed=1)
        world = generate_world(tmp_path, cfg)
        gold_lines = world.gold_path.read_text().splitlines()
        assert len(gold_lines) == 2 * 3 * 4
        assert len(world.leaf_labels) == 6

    def test_hierarchy_shape(self, tmp_path):
        cfg = RunConfig(parents=2, leaves_per_parent=3, entities_per_leaf=4, docs=30, seed=1)
        world = generate_world(tmp_path, cfg)
        edges = [tuple(line.split("\t")) for line in world.hierarchy_path.read_text().splitlines()]
        roots = [e for e in edges if e[0] == "root"]
        assert len(roots) == 2
        assert len(edges) == 2 + 6

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"parents": 0},
            {"entities_per_leaf": 1},
            {"p_in": 1.5},
            {"docs": 0},
            {"parents": 1, "leaves_per_parent": 1},
        ],
    )
    def test_invalid_spec_rejected(self, tmp_path, kwargs):
        with pytest.raises(ConfigError):
            generate_world(tmp_path, RunConfig(**kwargs))
