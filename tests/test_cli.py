import json
import subprocess
import sys

import numpy as np
import pytest

from catembed import cli
from catembed.cli import build_parser, effective_config, main
from catembed.corpus import build_vocabulary, load_hierarchy, prune_to_dag
from catembed.embeddings import EmbeddingIndex, load_binary, load_text

from test_hierarchy import brute_path_lengths
from test_kernels import child_env


@pytest.fixture(scope="module")
def world_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("world")
    rc = main([
        "gen-synthetic", "--output", str(out), "--seed", "3",
        "--parents", "3", "--entities-per-leaf", "5", "--docs", "80",
        "--contexts-per-doc", "8",
    ])
    assert rc == 0
    return out


def train_args(world_dir, out_dir, *extra):
    return [
        "train",
        "--corpus", str(world_dir / "corpus.tsv"),
        "--hierarchy", str(world_dir / "hierarchy.tsv"),
        "--root", "root",
        "--output", str(out_dir),
        "--dim", "12", "--epochs", "2", "--negatives", "4",
        "--chunk", "100", "--seed", "7",
        "--verbosity", "0",
        *extra,
    ]


@pytest.fixture(scope="module")
def trained_dir(world_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    assert main(train_args(world_dir, out)) == 0
    return out


class TestGenSynthetic:
    def test_writes_expected_files(self, world_dir):
        for name in ("corpus.tsv", "hierarchy.tsv", "gold.tsv", "config.echo"):
            assert (world_dir / name).exists()

    def test_same_seed_reproduces(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["gen-synthetic", "--output", str(out), "--seed", "11", "--verbosity", "0"]) == 0
        assert (a / "corpus.tsv").read_bytes() == (b / "corpus.tsv").read_bytes()


class TestBuildVocab:
    def test_writes_vocab_file(self, world_dir, tmp_path):
        out = tmp_path / "vocab"
        rc = main(["build-vocab", "--corpus", str(world_dir / "corpus.tsv"),
                   "--output", str(out), "--verbosity", "0"])
        assert rc == 0
        lines = (out / "vocab.tsv").read_text().splitlines()
        assert len(lines) == 15 + 3  # 15 entities + 3 leaf categories
        assert all("\t" in line for line in lines)

    def test_min_count_filter(self, tmp_path):
        corpus = tmp_path / "c.tsv"
        corpus.write_text("t\tc1\ta a a\nu\tc1\tb\n", encoding="utf-8")
        out = tmp_path / "v"
        rc = main(["build-vocab", "--corpus", str(corpus), "--min-count", "3",
                   "--output", str(out), "--verbosity", "0"])
        assert rc == 0
        body = (out / "vocab.tsv").read_text()
        assert "e:a" in body and "e:b" not in body

    def test_missing_path_nonzero_exit(self, tmp_path, capsys):
        rc = main(["build-vocab", "--corpus", str(tmp_path / "missing.tsv"),
                   "--output", str(tmp_path / "o"), "--verbosity", "0"])
        assert rc == 1
        assert "missing.tsv" in capsys.readouterr().err


class TestTrain:
    def test_writes_embeddings_and_echo(self, trained_dir):
        assert (trained_dir / "embeddings.txt").exists()
        assert (trained_dir / "config.echo").exists()

    def test_determinism_byte_identical(self, world_dir, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(train_args(world_dir, a)) == 0
        assert main(train_args(world_dir, b)) == 0
        assert (a / "embeddings.txt").read_bytes() == (b / "embeddings.txt").read_bytes()

    def test_rerun_from_echoed_config_reproduces(self, world_dir, trained_dir, tmp_path):
        out = tmp_path / "redo"
        rc = main(["train", "--config", str(trained_dir / "config.echo"),
                   "--output", str(out), "--verbosity", "0"])
        assert rc == 0
        assert (out / "embeddings.txt").read_bytes() == (trained_dir / "embeddings.txt").read_bytes()

    def test_invalid_mode_rejected_by_parser(self, world_dir, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(train_args(world_dir, tmp_path / "x", "--mode", "bogus"))
        assert exc.value.code != 0

    def test_workers_flag_removed(self, world_dir, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["train", "--help"])
        assert "--workers" not in capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            main(train_args(world_dir, tmp_path / "x", "--workers", "2"))
        assert exc.value.code == 2
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err

    def test_extreme_noise_alpha_fails_fast(self, world_dir, tmp_path, capsys):
        assert main(train_args(world_dir, tmp_path / "x", "--noise-alpha", "600")) == 1
        assert capsys.readouterr().err.startswith("error: noise_alpha=600.0")

    def test_drop_pattern_with_comma_rejected(self, world_dir, tmp_path, capsys):
        # config.echo joins patterns with ',', so a re-run would read 'q,z' back as 'q' and 'z'
        assert main(train_args(world_dir, tmp_path / "x", "--drop-pattern", "q,z")) == 1
        assert "drop pattern 'q,z'" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_hce_error_names_root_only_entity(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.tsv"
        corpus.write_text("alpha\troot\tbeta gamma\nbeta\tc1\talpha gamma\ngamma\tc1\talpha beta\n",
                          encoding="utf-8")
        hier = tmp_path / "hierarchy.tsv"
        hier.write_text("root\tc1\n", encoding="utf-8")
        rc = main(["train", "--corpus", str(corpus), "--hierarchy", str(hier), "--root", "root",
                   "--mode", "hce", "--output", str(tmp_path / "o"), "--dim", "4", "--epochs", "1",
                   "--verbosity", "0"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: entity 'alpha': ")
        assert "root only" in err

    @pytest.mark.parametrize("target,cats,named", [
        ("alpha", "Living people", "'c:Living people'"),
        ("Jane\xa0Doe", "c1", "'e:Jane\\xa0Doe'"),
    ])
    def test_whitespace_label_refused_before_training(self, tmp_path, capsys, target, cats, named):
        # the export formats end a row's label at whitespace, so no reader could load this run's output
        corpus = tmp_path / "corpus.tsv"
        corpus.write_text(f"{target}\t{cats}\tbeta gamma\nbeta\tc1\tgamma\ngamma\tc1\tbeta\n", encoding="utf-8")
        hier = tmp_path / "hierarchy.tsv"
        hier.write_text(f"root\tc1\nroot\t{cats}\n", encoding="utf-8")
        out = tmp_path / "o"
        rc = main(["train", "--corpus", str(corpus), "--hierarchy", str(hier), "--root", "root",
                   "--output", str(out), "--dim", "4", "--epochs", "1", "--verbosity", "0"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: label {named} holds whitespace") and err.count("\n") == 1
        assert not (out / "embeddings.txt").exists()

    def test_paper_named_hyperparameters_accepted(self, world_dir, tmp_path):
        out = tmp_path / "paper"
        rc = main(train_args(world_dir, out, "--mode", "hce", "--negatives", "10", "--chunk", "500"))
        assert rc == 0


class TestEvalCategorize:
    def test_reports_written(self, world_dir, trained_dir, tmp_path, capsys):
        out = tmp_path / "cat"
        rc = main([
            "eval-categorize",
            "--embeddings", str(trained_dir / "embeddings.txt"),
            "--gold", str(world_dir / "gold.tsv"),
            "--output", str(out), "--method", "both", "--verbosity", "0",
        ])
        assert rc == 0
        report = json.loads((out / "categorize_report.json").read_text())
        assert 0.0 <= report["cluster"]["purity"] <= 1.0
        assert 0.0 <= report["nn"]["purity"] <= 1.0
        assert report["n_excluded"] == 0
        assert (out / "categorize_report.txt").exists()
        assert "purity" in capsys.readouterr().out

    def test_bundled_fixture_is_default_gold(self, trained_dir, tmp_path, capsys):
        out = tmp_path / "dota"
        rc = main([
            "eval-categorize",
            "--embeddings", str(trained_dir / "embeddings.txt"),
            "--output", str(out), "--method", "nn", "--verbosity", "0",
        ])
        # synthetic labels do not overlap the fixture: every entity unresolved
        assert rc == 1

    def test_overflowing_distances_are_a_one_line_error(self, tmp_path):
        # entries near 1e200: the cosine runs normalize, the euclidean ones overflow
        rng = np.random.default_rng(0)
        emb, gold = tmp_path / "big.txt", tmp_path / "gold.tsv"
        rows = [f"e:x{i} " + " ".join(f"{v:.6g}" for v in rng.normal(size=3) * 1e200) for i in range(6)]
        emb.write_text("6 3\n" + "\n".join(rows) + "\n", encoding="utf-8")
        gold.write_text("".join(f"x{i}\t{'ab'[i % 2]}\n" for i in range(6)), encoding="utf-8")
        out = subprocess.run(
            [sys.executable, "-m", "catembed.cli", "eval-categorize", "--embeddings", str(emb),
             "--gold", str(gold), "--output", str(tmp_path / "o"), "--verbosity", "0"],
            env=child_env(), capture_output=True, text=True,
        )
        assert out.returncode == 1
        assert out.stderr == "error: squared distances between the vectors overflow float64\n"

    def test_missing_embeddings_nonzero(self, tmp_path, capsys):
        rc = main(["eval-categorize", "--embeddings", str(tmp_path / "absent.txt"),
                   "--output", str(tmp_path / "o"), "--verbosity", "0"])
        assert rc == 1


class TestEvalRelatedness:
    def test_end_to_end(self, world_dir, trained_dir, tmp_path):
        dataset = tmp_path / "pairs.tsv"
        dataset.write_text(
            "p0_l0_e00\tp0_l0_e01\t9.0\n"
            "p0_l0_e00\tp1_l0_e00\t2.0\n"
            "p1_l0_e02\tp1_l0_e03\t8.0\n"
            "p2_l0_e00\tp0_l0_e02\t1.0\n",
            encoding="utf-8",
        )
        out = tmp_path / "rel"
        rc = main([
            "eval-relatedness",
            "--embeddings", str(trained_dir / "embeddings.txt"),
            "--dataset", str(dataset),
            "--output", str(out), "--verbosity", "0",
        ])
        assert rc == 0
        report = json.loads((out / "relatedness_report.json").read_text())
        assert report["n_mapped"] == 4
        assert -1.0 <= report["spearman"] <= 1.0

    def test_non_numeric_embedding_is_a_one_line_error(self, tmp_path, capsys):
        emb = tmp_path / "bad.txt"
        emb.write_text("1 3\nc:b 1 x 3\n", encoding="utf-8")
        data = tmp_path / "rel.tsv"
        data.write_text("a\tb\t1.0\n", encoding="utf-8")
        rc = main(["eval-relatedness", "--embeddings", str(emb), "--dataset", str(data),
                   "--output", str(tmp_path / "o"), "--verbosity", "0"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {emb}:2: non-numeric value") and err.count("\n") == 1

    def test_unmapped_words_dropped(self, trained_dir, tmp_path):
        dataset = tmp_path / "pairs.tsv"
        dataset.write_text(
            "p0_l0_e00\tp0_l0_e01\t9.0\n"
            "p0_l0_e00\tnot_a_word\t5.0\n"
            "p1_l0_e00\tp1_l0_e01\t7.0\n",
            encoding="utf-8",
        )
        out = tmp_path / "rel"
        rc = main([
            "eval-relatedness",
            "--embeddings", str(trained_dir / "embeddings.txt"),
            "--dataset", str(dataset), "--output", str(out), "--verbosity", "0",
        ])
        assert rc == 0
        report = json.loads((out / "relatedness_report.json").read_text())
        assert report["n_unmapped"] == 1


class TestNeighbors:
    def test_row_count_and_format(self, trained_dir, capsys):
        rc = main(["neighbors", "--embeddings", str(trained_dir / "embeddings.txt"),
                   "--label", "p0_l0_e00", "--top-n", "5", "--verbosity", "0"])
        assert rc == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert len(rows) == 5
        for row in rows:
            tag, _sim = row.split("\t")
            assert tag[:2] in ("e:", "c:")

    def test_top_n_capped_at_rows(self, trained_dir, capsys):
        rc = main(["neighbors", "--embeddings", str(trained_dir / "embeddings.txt"),
                   "--label", "p0_l0_e00", "--top-n", "1000", "--verbosity", "0"])
        assert rc == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert len(rows) == 15 + 7 - 1  # all rows except the query itself

    @pytest.mark.parametrize("top_n", ["0", "-1"])
    def test_top_n_below_one_rejected(self, trained_dir, capsys, top_n):
        rc = main(["neighbors", "--embeddings", str(trained_dir / "embeddings.txt"),
                   "--label", "p0_l0_e00", "--top-n", top_n, "--verbosity", "0"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: --top-n must be >= 1, got {top_n}")

    def test_absent_label_nonzero(self, trained_dir, capsys):
        rc = main(["neighbors", "--embeddings", str(trained_dir / "embeddings.txt"),
                   "--label", "nope", "--verbosity", "0"])
        assert rc == 1

    def test_identical_vector_ranks_first(self, trained_dir, tmp_path, capsys):
        index = load_text(trained_dir / "embeddings.txt")
        index.cat_vecs[0] = index.ent_vecs[0]  # category clone of entity 0
        path = tmp_path / "twin.txt"
        index.save_text(path)
        rc = main(["neighbors", "--embeddings", str(path),
                   "--label", index.ent_labels[0], "--top-n", "1", "--verbosity", "0"])
        assert rc == 0
        top = capsys.readouterr().out.strip().splitlines()[0]
        assert top.startswith("c:" + index.cat_labels[0])
        assert float(top.split("\t")[1]) == pytest.approx(1.0, abs=5e-4)


    @pytest.mark.parametrize("scale", [1e160, 1e-170])
    def test_scaled_vectors_rank_alike(self, trained_dir, tmp_path, capsys, scale):
        # the plain norm of these rows overflows to inf or underflows to 0
        index = load_text(trained_dir / "embeddings.txt")
        outputs = []
        for factor in (1.0, scale):
            path = tmp_path / f"x{factor}.txt"
            EmbeddingIndex(index.ent_labels, index.cat_labels, index.ent_vecs * factor, index.cat_vecs * factor).save_text(path)
            rc = main(["neighbors", "--embeddings", str(path),
                       "--label", index.ent_labels[0], "--top-n", "5", "--verbosity", "0"])
            assert rc == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[1] == outputs[0]


class TestInspectWeights:
    def test_prints_weight_table(self, world_dir, capsys):
        rc = main([
            "inspect-weights",
            "--corpus", str(world_dir / "corpus.tsv"),
            "--hierarchy", str(world_dir / "hierarchy.tsv"),
            "--root", "root", "--mode", "hce",
            "--entity", "p0_l0_e00", "--verbosity", "0",
        ])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        rows = [line for line in out if line.startswith("c:")]
        assert len(rows) == 2  # leaf + parent branch (root excluded)
        weights = [float(r.split("\t")[1]) for r in rows]
        assert sum(weights) == pytest.approx(1.0, abs=1e-6)

    @pytest.fixture()
    def diamond(self, tmp_path):
        # root -> a -> d, root -> b -> d, a -> m -> d: a reaches d in 1 and 2 steps
        hier = tmp_path / "hierarchy.tsv"
        hier.write_text("root\ta\nroot\tb\nroot\tx\na\td\nb\td\na\tm\nm\td\n", encoding="utf-8")
        corpus = tmp_path / "corpus.tsv"
        corpus.write_text("ent\td\tother\nother\tx\tent\n", encoding="utf-8")
        return corpus, hier

    @staticmethod
    def inspect_rows(corpus, hier, mode, capsys):
        rc = main(["inspect-weights", "--corpus", str(corpus), "--hierarchy", str(hier), "--root", "root",
                   "--mode", mode, "--entity", "ent", "--verbosity", "0"])
        assert rc == 0
        rows = [line.split("\t") for line in capsys.readouterr().out.splitlines() if line.startswith("c:")]
        return {label[2:]: (float(w), float(steps.removeprefix("avg_steps=")), marker)
                for label, w, steps, marker in rows}

    def test_hce_avg_steps_match_path_enumeration(self, diamond, capsys):
        corpus, hier = diamond
        vocab = build_vocabulary(corpus)
        graph, _ = prune_to_dag(load_hierarchy(hier, vocab), vocab, "root")
        d = vocab.category_id("d")
        rows = self.inspect_rows(corpus, hier, "hce", capsys)
        assert set(rows) == {"a", "b", "m", "d"}
        for label, (_w, steps, marker) in rows.items():
            assert marker == ("direct" if label == "d" else "ancestor")
            expected = 0.0 if label == "d" else float(np.mean(brute_path_lengths(graph, vocab.category_id(label), {d})))
            assert steps == pytest.approx(expected, abs=5e-4)
        assert rows["a"][1] == pytest.approx(1.5, abs=5e-4)
        assert sum(w for w, _s, _m in rows.values()) == pytest.approx(1.0, abs=1e-5)

    def test_ce_prints_direct_categories_only(self, diamond, capsys):
        rows = self.inspect_rows(*diamond, "ce", capsys)
        assert rows == {"d": (1.0, 0.0, "direct")}

    def test_unknown_entity_nonzero(self, world_dir, capsys):
        rc = main([
            "inspect-weights",
            "--corpus", str(world_dir / "corpus.tsv"),
            "--hierarchy", str(world_dir / "hierarchy.tsv"),
            "--root", "root", "--entity", "ghost", "--verbosity", "0",
        ])
        assert rc == 1


class TestExport:
    def test_text_binary_round_trip(self, trained_dir, tmp_path):
        src = trained_dir / "embeddings.txt"
        bin_path = tmp_path / "emb.bin"
        txt_path = tmp_path / "emb.txt"
        assert main(["export", "--input", str(src), "--output", str(bin_path), "--to", "binary"]) == 0
        assert main(["export", "--input", str(bin_path), "--output", str(txt_path), "--to", "text"]) == 0
        a = load_text(src)
        b = load_binary(bin_path)
        c = load_text(txt_path)
        assert a.ent_labels == b.ent_labels == c.ent_labels
        assert np.allclose(a.ent_vecs, b.ent_vecs, rtol=1e-5, atol=1e-12)
        assert np.allclose(b.ent_vecs, c.ent_vecs, rtol=1e-5, atol=1e-12)


class TestConfigFile:
    def test_flags_override_file(self, world_dir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"corpus={world_dir / 'corpus.tsv'}\n"
            f"hierarchy={world_dir / 'hierarchy.tsv'}\n"
            "root=root\ndim=6\nepochs=1\nnegatives=2\nchunk=50\nseed=1\nverbosity=0\n",
            encoding="utf-8",
        )
        out = tmp_path / "o"
        rc = main(["train", "--config", str(cfg), "--output", str(out), "--dim", "9"])
        assert rc == 0
        header = (out / "embeddings.txt").read_text().split("\n", 1)[0]
        assert header.endswith(" 9")  # flag wins over the file's dim=6
        echoed = (out / "config.echo").read_text()
        assert "dim=9" in echoed

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus_key=1\n", encoding="utf-8")
        rc = main(["train", "--config", str(cfg), "--verbosity", "0"])
        assert rc == 1
        assert "bogus_key" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["epochs=two", "lr0=fast", "shuffle=maybe"])
    def test_unparsable_value_is_a_one_line_error(self, tmp_path, capsys, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"# comment\n{line}\n", encoding="utf-8")
        assert main(["train", "--config", str(cfg), "--verbosity", "0"]) == 1
        key, _, value = line.partition("=")
        err = capsys.readouterr().err
        assert err == f"error: {cfg}:2: bad value for {key!r}: {value!r}\n"

    def test_checkpoint_every_is_no_longer_an_option(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("checkpoint_every=2\n", encoding="utf-8")
        assert main(["train", "--config", str(cfg), "--verbosity", "0"]) == 1
        assert "unknown option 'checkpoint_every'" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", [1, 2])
    def test_workers_in_config_file(self, world_dir, tmp_path, capsys, workers):
        # config.echo files written by earlier releases hold workers=1
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"corpus={world_dir / 'corpus.tsv'}\n"
            f"hierarchy={world_dir / 'hierarchy.tsv'}\n"
            f"root=root\ndim=6\nepochs=1\nnegatives=2\nchunk=50\nverbosity=0\nworkers={workers}\n",
            encoding="utf-8",
        )
        rc = main(["train", "--config", str(cfg), "--output", str(tmp_path / "o")])
        err = capsys.readouterr().err
        if workers == 1:
            assert rc == 0 and err == ""
        else:
            assert rc == 1 and err == "error: workers must be 1 (training runs in one thread), got 2\n"

    @pytest.mark.parametrize("command", ["build-vocab", "train", "inspect-weights"])
    def test_config_file_read_once_per_run(self, world_dir, tmp_path, monkeypatch, command):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"corpus={world_dir / 'corpus.tsv'}\nhierarchy={world_dir / 'hierarchy.tsv'}\n"
            f"output={tmp_path / 'o'}\ndim=4\nepochs=1\nverbosity=0\n",
            encoding="utf-8",
        )
        reads = []
        inner = cli.read_lines

        def counting(source):
            reads.append(source)
            return inner(source)

        monkeypatch.setattr(cli, "read_lines", counting)
        extra = ["--entity", "p0_l0_e00"] if command == "inspect-weights" else []
        assert main([command, "--config", str(cfg), *extra]) == 0
        assert [str(r) for r in reads].count(str(cfg)) == 1

    def test_config_built_once_and_passed_to_the_command(self, monkeypatch):
        built, got = [], []
        cfg = cli.RunConfig(verbosity=0)
        monkeypatch.setattr(cli, "effective_config", lambda args: built.append(args) or cfg)
        monkeypatch.setattr(cli, "cmd_neighbors", lambda cfg, args: got.append(cfg) or 0)
        monkeypatch.setattr(cli, "cmd_export", lambda cfg, args: got.append(cfg) or 0)
        assert main(["neighbors", "--label", "x"]) == 0
        assert main(["export", "--input", "a", "--output", "b", "--to", "text"]) == 0
        assert len(built) == 1 and got[0] is cfg and got[1] is None  # export takes no --config

    def test_lr_min_follows_lr0_from_flags_and_file(self, tmp_path):
        from_flags = effective_config(build_parser().parse_args(["train", "--lr0", "0.05"]))
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lr0=0.05\n", encoding="utf-8")
        from_file = effective_config(build_parser().parse_args(["train", "--config", str(cfg)]))
        assert from_flags.lr_min == from_file.lr_min == pytest.approx(5e-6, rel=1e-12)

    def test_lr_min_from_file_is_a_float(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lr0=0.05\nlr_min=0.001\n", encoding="utf-8")
        config = effective_config(build_parser().parse_args(["train", "--config", str(cfg)]))
        assert config.lr_min == 0.001


GOOD_EMBEDDING = b"2 2\ne:a 1 0\ne:b 0 1\n"
BAD_UTF8_CASES = {
    # name: (files as {name: bytes}, argv built from the tmp dir, the file that holds the bad byte)
    "corpus": (
        {"corpus.tsv": b"a\tc1\tb\nb\tc1\ta\n\xff\tc1\tb\n"},
        lambda d: ["build-vocab", "--corpus", str(d / "corpus.tsv"), "--output", str(d / "o")],
        "corpus.tsv",
    ),
    "hierarchy": (
        {"corpus.tsv": b"a\tc1\tb\n", "hierarchy.tsv": b"root\tc1\nroot\tc2\nc1\tc\xff\n"},
        lambda d: ["train", "--corpus", str(d / "corpus.tsv"), "--hierarchy", str(d / "hierarchy.tsv"),
                   "--output", str(d / "o")],
        "hierarchy.tsv",
    ),
    "gold": (
        {"emb.txt": GOOD_EMBEDDING, "gold.tsv": b"a\tc1\nb\tc2\n\xff\tc1\n"},
        lambda d: ["eval-categorize", "--embeddings", str(d / "emb.txt"), "--gold", str(d / "gold.tsv"),
                   "--output", str(d / "o")],
        "gold.tsv",
    ),
    "relatedness": (
        {"emb.txt": GOOD_EMBEDDING, "pairs.tsv": b"a\tb\t5.0\nb\tc\t3.0\na\t\xff\t1.0\n"},
        lambda d: ["eval-relatedness", "--embeddings", str(d / "emb.txt"), "--dataset", str(d / "pairs.tsv"),
                   "--output", str(d / "o")],
        "pairs.tsv",
    ),
    "config": (
        {"run.cfg": b"# comment\ndim=3\nroot=r\xff\n"},
        lambda d: ["build-vocab", "--config", str(d / "run.cfg")],
        "run.cfg",
    ),
    # line 2 is longer than the 4 KB format probe, so the file is sniffed as text
    "text-embedding": (
        {"emb.txt": b"2 1\ne:" + b"a" * 5000 + b" 1\ne:\xff 2\n"},
        lambda d: ["neighbors", "--embeddings", str(d / "emb.txt"), "--label", "a"],
        "emb.txt",
    ),
    # short enough for the 4 KB probe to see the bad byte; row 1 has no binary layout, so it is read as text
    "short-text-embedding": (
        {"small.txt": b"2 1\ne:a 1\ne:\xff 2\n"},
        lambda d: ["neighbors", "--embeddings", str(d / "small.txt"), "--label", "a"],
        "small.txt",
    ),
    "binary-label": (
        {"emb.bin": b"2 1\ne:a " + np.float64(1.0).tobytes() + b"\ne:\xff " + np.float64(2.0).tobytes() + b"\n"},
        lambda d: ["neighbors", "--embeddings", str(d / "emb.bin"), "--label", "a"],
        "emb.bin",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_UTF8_CASES))
def test_invalid_utf8_is_a_one_line_error_with_its_line(tmp_path, capsys, case):
    files, argv, bad = BAD_UTF8_CASES[case]
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    assert main(argv(tmp_path) + ["--verbosity", "0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path / bad}:3: ")
    assert "UTF-8" in err and err.count("\n") == 1 and "Traceback" not in err
