import hashlib
import json
import logging
import os
import subprocess
import sys

import numpy as np
import pytest

from catembed import cli, trainer
from catembed.cli import build_parser, effective_config, load_config_file, main
from catembed.corpus import build_vocabulary, load_corpus, load_hierarchy, prune_to_dag
from catembed.embeddings import EmbeddingIndex, load_embeddings

from test_hierarchy import brute_path_lengths


def child_env():
    """Minimal child environment that imports the same catembed as this process."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])
    return {"PATH": "/usr/bin:/bin", "PYTHONPATH": path}


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

    def test_rerun_from_echoed_config_reproduces(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["gen-synthetic", "--output", str(a), "--seed", "7", "--parents", "4", "--leaves-per-parent", "2",
                     "--entities-per-leaf", "3", "--docs", "50", "--contexts-per-doc", "5", "--p-in", "0.5",
                     "--verbosity", "0"]) == 0
        assert main(["gen-synthetic", "--config", str(a / "config.echo"), "--output", str(b)]) == 0
        for name in ("corpus.tsv", "hierarchy.tsv", "gold.tsv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        assert "p_in=0.5\n" in (a / "config.echo").read_text()


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


def test_each_run_sets_its_own_verbosity(tmp_path, capsys):
    # three commands in one process; the log level follows each one's --verbosity
    world = tmp_path / "world"
    assert main(["gen-synthetic", "--output", str(world), "--seed", "42", "--verbosity", "0"]) == 0
    assert "INFO" not in capsys.readouterr().err
    vocab_args = ["build-vocab", "--corpus", str(world / "corpus.tsv"), "--output", str(tmp_path / "v")]
    assert main([*vocab_args, "--verbosity", "1"]) == 0
    assert capsys.readouterr().err.startswith("INFO catembed: wrote ")
    assert main([*vocab_args, "--verbosity", "0"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("source", ["flag", "file"])
def test_negative_verbosity_rejected(world_dir, tmp_path, capsys, source):
    # main() maps every value but 0 and 1 to debug, so -1 would log at debug
    cfg = tmp_path / "run.cfg"
    cfg.write_text("verbosity=-1\n", encoding="utf-8")
    extra = ["--verbosity", "-1"] if source == "flag" else ["--config", str(cfg)]
    assert main([
        "train", "--corpus", str(world_dir / "corpus.tsv"), "--hierarchy", str(world_dir / "hierarchy.tsv"),
        "--output", str(tmp_path / "o"), *extra,
    ]) == 1
    assert capsys.readouterr().err == "error: verbosity must be >= 0, got -1\n"
    assert not (tmp_path / "o").exists()


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

    def test_invalid_mode_rejected_by_validate(self, world_dir, tmp_path, capsys):
        # a flag gets the refusal a config file or a library caller gets
        assert main(train_args(world_dir, tmp_path / "x", "--mode", "bogus")) == 1
        assert capsys.readouterr().err == "error: mode must be one of ('ce', 'hce'), got 'bogus'\n"
        assert not (tmp_path / "x").exists()

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

    def test_diverging_run_is_a_one_line_error(self, tmp_path):
        # the quickstart world: at lr0 1e308 the first step overflows the rows
        world = tmp_path / "world"
        assert main(["gen-synthetic", "--output", str(world), "--seed", "42", "--verbosity", "0"]) == 0
        out = subprocess.run(
            [sys.executable, "-m", "catembed.cli", "train", "--corpus", str(world / "corpus.tsv"),
             "--hierarchy", str(world / "hierarchy.tsv"), "--root", "root", "--seed", "42",
             "--lr0", "1e308", "--lr-min", "1e-3", "--output", str(tmp_path / "run"), "--verbosity", "0"],
            env=child_env(), capture_output=True, text=True,
        )
        assert out.returncode == 1
        assert out.stderr == "error: non-finite loss at epoch 1, pairs 0: nan\n"
        assert not (tmp_path / "run").exists()

    def test_missing_corpus_is_a_one_line_error(self, world_dir, tmp_path, capsys):
        rc = main(["train", "--hierarchy", str(world_dir / "hierarchy.tsv"), "--output", str(tmp_path / "o"),
                   "--verbosity", "0"])
        assert rc == 1
        assert capsys.readouterr().err == "error: missing --corpus path\n"
        assert not (tmp_path / "o").exists()

    def test_out_of_memory_is_a_one_line_error(self, world_dir, tmp_path, monkeypatch, capsys):
        def exhausted(cfg, args):
            raise MemoryError

        monkeypatch.setattr(cli, "cmd_train", exhausted)
        assert main(train_args(world_dir, tmp_path / "o")) == 1
        assert capsys.readouterr().err == "error: out of memory in train\n"

    def test_drop_pattern_with_comma_rejected(self, world_dir, tmp_path, capsys):
        # config.echo joins patterns with ',', so a re-run would read 'q,z' back as 'q' and 'z'
        assert main(train_args(world_dir, tmp_path / "x", "--drop-pattern", "q,z")) == 1
        assert capsys.readouterr().err == (
            "error: drop_patterns=['q,z'] cannot be written to config.echo and read back unchanged\n"
        )
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("pattern", ["p1 ", " p1"])
    def test_drop_pattern_with_surrounding_whitespace_rejected(self, world_dir, tmp_path, capsys, pattern):
        # config.echo is read back stripped, so a re-run would drop 'p1' where this run matched nothing
        assert main(train_args(world_dir, tmp_path / "x", "--drop-pattern", pattern)) == 1
        err = capsys.readouterr().err
        assert err == f"error: drop_patterns={[pattern]!r} cannot be written to config.echo and read back unchanged\n"
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
        assert err.startswith("error: entity 'alpha': ") and err.count("\n") == 1
        assert "root only" in err
        assert not (tmp_path / "o").exists()  # a failed run leaves no output directory

    @pytest.mark.parametrize("target,cats,named", [
        ("alpha", "Living people", "'c:Living people'"),
        ("Jane\xa0Doe", "c1", "'e:Jane\\xa0Doe'"),
    ])
    def test_whitespace_label_refused_before_training(self, tmp_path, capsys, target, cats, named):
        # the export ends a row's label at whitespace, so no reader could load this run's output
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

    @pytest.mark.parametrize("extra,lines", [((), range(20, 21)), (("--subsample", "1e-3"), range(1, 21))])
    def test_progress_logged_once_per_twentieth(self, tmp_path, caplog, extra, lines):
        # 510 pairs in chunks of 500: 40 chunks over 20 epochs, and each epoch starts a twentieth
        world = tmp_path / "world"
        assert main(["gen-synthetic", "--output", str(world), "--seed", "3", "--docs", "51",
                     "--contexts-per-doc", "10", "--verbosity", "0"]) == 0
        caplog.set_level(logging.INFO, logger="catembed")
        assert main(["train", "--corpus", str(world / "corpus.tsv"), "--hierarchy", str(world / "hierarchy.tsv"),
                     "--output", str(tmp_path / "run"), "--dim", "8", "--epochs", "20", "--chunk", "500",
                     *extra]) == 0
        progress = [r.getMessage() for r in caplog.records if " | lr " in r.getMessage()]
        assert len(progress) in lines
        assert progress[0].startswith("epoch 1 | lr ")  # the first chunk always reaches the first twentieth


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
        printed = capsys.readouterr().out
        assert "purity" in printed
        assert (out / "categorize_report.txt").read_text(encoding="utf-8") == printed

    def test_bundled_fixture_is_default_gold(self, trained_dir, tmp_path, capsys):
        out = tmp_path / "dota"
        rc = main([
            "eval-categorize",
            "--embeddings", str(trained_dir / "embeddings.txt"),
            "--output", str(out), "--method", "nn", "--verbosity", "0",
        ])
        # synthetic labels do not overlap the fixture: every entity unresolved
        assert rc == 1

    @pytest.mark.parametrize("method", ["both", "nn"])
    def test_overflowing_distances_are_a_one_line_error(self, tmp_path, method):
        # entries near 1e200: the cosine runs normalize, the euclidean ones and NN overflow
        rng = np.random.default_rng(0)
        emb, gold = tmp_path / "big.txt", tmp_path / "gold.tsv"
        labels = [f"e:x{i}" for i in range(6)] + ["c:a", "c:b"]
        rows = [label + " " + " ".join(f"{v:.6g}" for v in rng.normal(size=3) * 1e200) for label in labels]
        emb.write_text("8 3\n" + "\n".join(rows) + "\n", encoding="utf-8")
        gold.write_text("".join(f"x{i}\t{'ab'[i % 2]}\n" for i in range(6)), encoding="utf-8")
        out = subprocess.run(
            [sys.executable, "-m", "catembed.cli", "eval-categorize", "--embeddings", str(emb),
             "--gold", str(gold), "--output", str(tmp_path / "o"), "--method", method, "--verbosity", "0"],
            env=child_env(), capture_output=True, text=True,
        )
        assert out.returncode == 1
        assert out.stderr == "error: squared distances between the vectors overflow float64\n"

    def test_text_report_lists_unresolved_and_classes_without_vectors(self, tmp_path, capsys):
        emb, gold = tmp_path / "emb.txt", tmp_path / "gold.tsv"
        emb.write_text("4 2\ne:x0 1 0\ne:x1 1 0.1\ne:x2 0 1\nc:a 1 0\n", encoding="utf-8")
        gold.write_text("x0\ta\nx1\ta\nx2\ty\nghost\ta\n", encoding="utf-8")
        rc = main(["eval-categorize", "--embeddings", str(emb), "--gold", str(gold),
                   "--output", str(tmp_path / "o"), "--method", "nn", "--verbosity", "0"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert "unresolved: ghost" in lines
        assert "  categories without vectors: y" in lines

    def test_missing_embeddings_nonzero(self, tmp_path, capsys):
        rc = main(["eval-categorize", "--embeddings", str(tmp_path / "absent.txt"),
                   "--output", str(tmp_path / "o"), "--verbosity", "0"])
        assert rc == 1

    def test_negative_seed_is_a_one_line_error(self, trained_dir, world_dir, tmp_path, capsys):
        out = tmp_path / "o"
        rc = main(["eval-categorize", "--embeddings", str(trained_dir / "embeddings.txt"),
                   "--gold", str(world_dir / "gold.tsv"), "--output", str(out), "--seed", "-1", "--verbosity", "0"])
        assert rc == 1
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert not out.exists()


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

    @pytest.mark.parametrize("word, label", [("Jazz", "e:jazz"), ("music", "c:music")])
    def test_zero_vector_is_a_one_line_error_naming_word_and_row(self, tmp_path, capsys, word, label):
        # a 3-row file whose row for `word` is zero
        rows = {"e:jazz": "1 2 3", "e:rock": "3 1 2", "c:music": "2 2 1", label: "0 0 0"}
        emb = tmp_path / "emb.txt"
        emb.write_text("3 3\n" + "".join(f"{row} {vec}\n" for row, vec in rows.items()), encoding="utf-8")
        data = tmp_path / "rel.tsv"
        data.write_text(f"rock\t{word}\t5.0\n", encoding="utf-8")
        rc = main(["eval-relatedness", "--embeddings", str(emb), "--dataset", str(data),
                   "--output", str(tmp_path / "o"), "--verbosity", "0"])
        assert rc == 1
        assert capsys.readouterr().err == f"error: word {word!r} maps to row {label!r}, a zero vector: cosine undefined\n"

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

    def test_category_query_skips_its_own_row(self, trained_dir, capsys):
        index = load_embeddings(trained_dir / "embeddings.txt")
        rc = main(["neighbors", "--embeddings", str(trained_dir / "embeddings.txt"),
                   "--label", "p1_l0", "--top-n", "1000", "--verbosity", "0"])
        assert rc == 0
        tags = [row.split("\t")[0] for row in capsys.readouterr().out.strip().splitlines()]
        every = ["e:" + lab for lab in index.ent_labels] + ["c:" + lab for lab in index.cat_labels]
        assert sorted(tags) == sorted(tag for tag in every if tag != "c:p1_l0")
        assert len(tags) == 21

    def test_label_on_both_kinds_resolves_to_the_entity(self, tmp_path, capsys):
        path = tmp_path / "both.txt"
        path.write_text("3 2\ne:music 1 0\nc:music 0 1\ne:x 1 0.1\n")
        rc = main(["neighbors", "--embeddings", str(path), "--label", "Music", "--top-n", "1000", "--verbosity", "0"])
        assert rc == 0
        assert capsys.readouterr().out.splitlines() == ["e:x\t0.9950", "c:music\t0.0000"]

    @pytest.mark.parametrize("top_n", ["0", "-1"])
    def test_top_n_below_one_rejected(self, trained_dir, capsys, top_n):
        rc = main(["neighbors", "--embeddings", str(trained_dir / "embeddings.txt"),
                   "--label", "p0_l0_e00", "--top-n", top_n, "--verbosity", "0"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: --top-n must be >= 1, got {top_n}")

    def test_zero_vector_is_a_one_line_error(self, tmp_path, capsys):
        path = tmp_path / "zero.txt"
        path.write_text("2 2\ne:z 0 0\ne:x 1 0\n", encoding="utf-8")
        rc = main(["neighbors", "--embeddings", str(path), "--label", "z", "--verbosity", "0"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: label 'z' has a zero vector\n"

    def test_zero_candidate_row_scores_zero(self, tmp_path, capsys):
        path = tmp_path / "zero.txt"
        path.write_text("3 2\ne:q 1 2\ne:z 0 0\ne:x 2 1\n", encoding="utf-8")
        rc = main(["neighbors", "--embeddings", str(path), "--label", "q", "--verbosity", "0"])
        assert rc == 0
        assert capsys.readouterr().out.splitlines() == ["e:x\t0.8000", "e:z\t0.0000"]

    def test_absent_label_nonzero(self, trained_dir, capsys):
        rc = main(["neighbors", "--embeddings", str(trained_dir / "embeddings.txt"),
                   "--label", "nope", "--verbosity", "0"])
        assert rc == 1

    def test_identical_vector_ranks_first(self, trained_dir, tmp_path, capsys):
        index = load_embeddings(trained_dir / "embeddings.txt")
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
        index = load_embeddings(trained_dir / "embeddings.txt")
        outputs = []
        for factor in (1.0, scale):
            path = tmp_path / f"x{factor}.txt"
            EmbeddingIndex(index.ent_labels, index.cat_labels, index.vecs * factor).save_text(path)
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

    def test_logs_corpus_filtering(self, tmp_path, capsys):
        # solo falls under min_count, gone is no hierarchy category, and rare's only label is gone
        hier = tmp_path / "hierarchy.tsv"
        hier.write_text("root\ta\n", encoding="utf-8")
        corpus = tmp_path / "corpus.tsv"
        corpus.write_text("ent\ta\tother rare solo\nother\ta,gone\tent\nrare\tgone\tent\n", encoding="utf-8")
        rc = main(["inspect-weights", "--corpus", str(corpus), "--hierarchy", str(hier), "--root", "root",
                   "--min-count", "2", "--entity", "ent", "--verbosity", "1"])
        assert rc == 0
        err = capsys.readouterr().err.splitlines()
        assert err[1:] == [
            "INFO catembed: corpus filtering: 1 documents skipped, 1 contexts dropped, 2 labels dropped",
            "INFO catembed: corpus: 2 documents, 3 pairs, 3 entities, 3 categories",
        ]

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

    @pytest.mark.parametrize("mode", ["ce", "hce"])
    def test_rows_are_the_trainers_weight_slice(self, tmp_path, capsys, mode):
        # three levels under the root, two-parent categories, nested and shared
        # direct sets, the root beside a deeper label, and a context-only entity
        hier = tmp_path / "hierarchy.tsv"
        hier.write_text("root\ta\nroot\tb\nroot\tx\na\tc\nb\tc\na\td\nc\te\nd\te\nc\tf\nb\tf\n", encoding="utf-8")
        corpus = tmp_path / "corpus.tsv"
        corpus.write_text(
            "e1\te\te2 e3 ctx\ne2\tf,d\te1 e4\ne3\tc,e\te5 ctx\ne4\troot,f\te1 e6\n"
            "e5\te\te2 e3\ne6\tx\te4 ctx\ne1\tb\te5\n",
            encoding="utf-8",
        )
        vocab = build_vocabulary(corpus)
        graph, _ = prune_to_dag(load_hierarchy(hier, vocab), vocab, "root")
        labeling = load_corpus(corpus, vocab, graph).entity_categories
        offsets, ids, ws = trainer.weight_csr(graph, labeling, vocab.entity_labels(), mode)
        assert sorted(map(vocab.entity_label, labeling)) == [f"e{i}" for i in range(1, 7)]  # ctx is context-only
        assert mode == "ce" or max(np.diff(offsets)) >= 4  # ancestors up to two levels above a direct one
        for ent in labeling:
            label = vocab.entity_label(ent)
            rc = main(["inspect-weights", "--corpus", str(corpus), "--hierarchy", str(hier), "--root", "root",
                       "--mode", mode, "--entity", label, "--verbosity", "0"])
            assert rc == 0
            out = capsys.readouterr().out.splitlines()
            assert out[0] == f"# entity {label} mode={mode}"
            printed = [line.split("\t")[:2] for line in out[1:]]
            lo, hi = offsets[ent], offsets[ent + 1]
            assert printed == [[f"c:{vocab.category_label(c)}", f"{w:.6f}"] for c, w in zip(ids[lo:hi], ws[lo:hi])]

    def test_hce_root_only_entity_is_named(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.tsv"
        corpus.write_text("alpha\troot\tbeta\nbeta\tc1\talpha\n", encoding="utf-8")
        hier = tmp_path / "hierarchy.tsv"
        hier.write_text("root\tc1\n", encoding="utf-8")
        rc = main(["inspect-weights", "--corpus", str(corpus), "--hierarchy", str(hier), "--root", "root",
                   "--mode", "hce", "--entity", "alpha", "--verbosity", "0"])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: entity 'alpha': no weighted categories (directly labeled with the root only)\n"
        )

    def test_context_only_entity_is_a_one_line_error(self, tmp_path, capsys):
        corpus, hier = tmp_path / "corpus.tsv", tmp_path / "hierarchy.tsv"
        corpus.write_text("alpha\tc1\tbeta\n", encoding="utf-8")
        hier.write_text("root\tc1\n", encoding="utf-8")
        rc = main(["inspect-weights", "--corpus", str(corpus), "--hierarchy", str(hier), "--root", "root",
                   "--entity", "beta", "--verbosity", "0"])
        assert rc == 1
        assert capsys.readouterr().err == "error: entity 'beta' has no category labeling\n"

    def test_unknown_entity_nonzero(self, world_dir, capsys):
        rc = main([
            "inspect-weights",
            "--corpus", str(world_dir / "corpus.tsv"),
            "--hierarchy", str(world_dir / "hierarchy.tsv"),
            "--root", "root", "--entity", "ghost", "--verbosity", "0",
        ])
        assert rc == 1


def test_every_public_name_resolves():
    import catembed

    missing = [name for name in catembed.__all__ if not hasattr(catembed, name)]
    assert missing == []


def test_export_command_removed(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    assert "export" not in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main(["export", "--input", "a.txt", "--output", "b.bin", "--to", "binary"])
    assert exc.value.code == 2
    assert "invalid choice: 'export'" in capsys.readouterr().err


def test_trained_export_rewrites_byte_for_byte(trained_dir, tmp_path):
    # every value train writes is already at 6 digits, so load then save is the identity
    src = trained_dir / "embeddings.txt"
    again = tmp_path / "again.txt"
    load_embeddings(src).save_text(again)
    assert again.read_bytes() == src.read_bytes()


def test_quickstart_outputs_are_pinned(tmp_path):
    # the README quickstart at seed 42: any change to training or categorization shows here
    world, run = tmp_path / "world", tmp_path / "run"
    assert main(["gen-synthetic", "--output", str(world), "--seed", "42", "--verbosity", "0"]) == 0
    assert main([
        "train", "--corpus", str(world / "corpus.tsv"), "--hierarchy", str(world / "hierarchy.tsv"),
        "--root", "root", "--mode", "hce", "--dim", "100", "--epochs", "5", "--negatives", "10",
        "--chunk", "500", "--seed", "42", "--output", str(run), "--verbosity", "0",
    ]) == 0
    assert main([
        "eval-categorize", "--embeddings", str(run / "embeddings.txt"), "--gold", str(world / "gold.tsv"),
        "--output", str(run / "eval"), "--method", "both", "--verbosity", "0",
    ]) == 0
    assert hashlib.md5((run / "embeddings.txt").read_bytes()).hexdigest() == "f449a4788b25cad4417f0f8164efd488"
    report = run / "eval" / "categorize_report.json"
    assert hashlib.md5(report.read_bytes()).hexdigest() == "f7b80c407e26f3f4b89a932898eeb6c5"


# case: (command, its flags, its config-file line or None where a file cannot hold the value, the refusal's start)
REFUSED_VALUES = {
    # every min_count up to 1 keeps the same entities, so the echo would record a value that did nothing
    "min-count": ("train", ["--min-count", "-3"], "min_count=-3", "min_count must be >= 1, got -3\n"),
    # an unset shell variable gives --output "", which would write the world into the working directory
    "empty-output": ("gen-synthetic", ["--output", ""], "output=", "missing --output path\n"),
    "pattern-u2028": ("train", ["--drop-pattern", "zz\u2028yy"], "drop_patterns=zz\u2028yy", "drop_patterns=["),
    "pattern-u0085": ("train", ["--drop-pattern", "zz\x85yy"], "drop_patterns=zz\x85yy", "drop_patterns=["),
    "output-u2028": ("gen-synthetic", ["--output", "w\u2028x"], "output=w\u2028x", "output='w"),
    "output-u0085": ("gen-synthetic", ["--output", "w\x85x"], "output=w\x85x", "output='w"),
    "empty-pattern": ("train", ["--drop-pattern", ""], None, "drop_patterns=['']"),  # a file reads it as none
    "trailing-space": ("train", ["--output", "o "], None, "output='o '"),  # a file reads the value stripped
    "mode-upper": ("train", ["--mode", "HCE"], "mode=HCE", "mode must be one of"),
}


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

    @pytest.mark.parametrize("lines, key", [("dim=4\ndim=6", "dim"), ("min-count=2\nmin_count=3", "min_count")],
                             ids=["dim", "min-count"])
    def test_repeated_key_rejected(self, world_dir, tmp_path, capsys, lines, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{lines}\n", encoding="utf-8")
        out = tmp_path / "o"
        assert main(train_args(world_dir, out, "--config", str(cfg))) == 1
        assert capsys.readouterr().err == f"error: {cfg}:2: duplicate option {key!r}\n"
        assert not out.exists()

    def test_line_without_equals_is_a_one_line_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("# comment\ndim 8\n", encoding="utf-8")
        assert main(["train", "--config", str(cfg), "--verbosity", "0"]) == 1
        assert capsys.readouterr().err == f"error: {cfg}:2: expected key=value, got 'dim 8'\n"

    @pytest.mark.parametrize("value,parsed", [("off", False), ("No", False), ("on", True)])
    def test_bool_words_parse(self, tmp_path, value, parsed):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"shuffle={value}\n", encoding="utf-8")
        assert load_config_file(cfg) == {"shuffle": parsed}
        assert load_config_file(cfg)["shuffle"] is parsed

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

    @pytest.mark.parametrize("line", [
        "workers=2", "dim=0", "epochs=0", "negatives=0", "chunk=0",
        "lr0=0.01\nlr_min=0.02", "mode=bogus", "subsample=-1", "subsample=inf",
        "seed=-1", "lr0=inf", "noise_alpha=nan", "p_in=2", "parents=0", "mode=HCE", "min_count=0",
    ])
    def test_bad_training_value_refused_before_any_output(self, world_dir, tmp_path, capsys, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"corpus={world_dir / 'corpus.tsv'}\nhierarchy={world_dir / 'hierarchy.tsv'}\n{line}\n",
                       encoding="utf-8")
        out = tmp_path / "o"
        assert main(["train", "--config", str(cfg), "--output", str(out), "--verbosity", "0"]) == 1
        assert capsys.readouterr().err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("line, message", [
        ("p_in=2", "error: p_in must be in [0, 1], got 2.0\n"),
        ("parents=0", "error: need at least one parent and one leaf per parent\n"),
    ])
    def test_bad_world_value_stops_train(self, world_dir, tmp_path, capsys, line, message):
        # a train echo must also be a valid gen-synthetic config, so train checks the world values too
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"corpus={world_dir / 'corpus.tsv'}\nhierarchy={world_dir / 'hierarchy.tsv'}\n{line}\n",
                       encoding="utf-8")
        out = tmp_path / "o"
        assert main(["train", "--config", str(cfg), "--output", str(out), "--verbosity", "0"]) == 1
        assert capsys.readouterr().err == message

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
        assert main(["neighbors", "--label", "x"]) == 0
        assert len(built) == 1 and got == [cfg]

    def test_lr_min_follows_lr0_from_flags_and_file(self, tmp_path):
        from_flags = effective_config(build_parser().parse_args(["train", "--lr0", "0.05"]))
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lr0=0.05\n", encoding="utf-8")
        from_file = effective_config(build_parser().parse_args(["train", "--config", str(cfg)]))
        assert from_flags.lr_min == from_file.lr_min == pytest.approx(5e-6, rel=1e-12)

    def test_every_field_reads_back_from_the_echo(self, tmp_path):
        # every field away from its default but workers, whose one valid value is the default;
        # a field whose type config.echo cannot hold fails here
        cfg = cli.RunConfig(
            dim=7, epochs=3, lr0=0.125, lr_min=1e-3, negatives=2, chunk=64, noise_alpha=0.5, seed=9,
            mode="ce", shuffle=False, subsample=1e-4,
            corpus="in dir/corpus.tsv", hierarchy="h#.tsv", embeddings="e=1.txt", gold="gold.tsv", dataset="d.tsv",
            output="run out", root="Top", drop_patterns=["admin", "list of"], min_count=2, verbosity=2,
            parents=4, leaves_per_parent=2, entities_per_leaf=3, docs=50, contexts_per_doc=5, p_in=0.5,
        )
        default = cli.RunConfig()
        assert [name for name in cli._FIELD_TYPES if getattr(cfg, name) == getattr(default, name)] == ["workers"]
        cfg.validate()
        cli.echo_config(cfg, tmp_path)
        assert cli.RunConfig(**load_config_file(tmp_path / "config.echo")) == cfg

    @pytest.mark.parametrize("case, source", [
        (case, source) for case, (_, _, line, _) in REFUSED_VALUES.items() for source in ("flag", "file")
        if source == "flag" or line is not None
    ])
    def test_value_refused_before_any_file(self, world_dir, tmp_path, monkeypatch, capsys, case, source):
        command, flags, line, expected = REFUSED_VALUES[case]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{line}\n", encoding="utf-8")
        if source == "file" and len(line.splitlines()) > 1:
            expected = f"{cfg}:2: expected key=value"  # the file's line ends inside the value
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)  # relative outputs, the default 'out' included, land here
        paths = ["--corpus", str(world_dir / "corpus.tsv"), "--hierarchy", str(world_dir / "hierarchy.tsv")]
        extra = flags if source == "flag" else ["--config", str(cfg)]
        assert main([command, *(paths if command == "train" else []), *extra, "--verbosity", "0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {expected}") and err.count("\n") == 1
        assert list(cwd.iterdir()) == []

    def test_lr_min_from_file_is_a_float(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lr0=0.05\nlr_min=0.001\n", encoding="utf-8")
        config = effective_config(build_parser().parse_args(["train", "--config", str(cfg)]))
        assert config.lr_min == 0.001


GOOD_EMBEDDING = b"2 2\ne:a 1 0\ne:b 0 1\n"
BAD_UTF8_CASES = {
    # name: (files as {name: bytes}, argv built from the tmp dir, the file and line that hold the bad byte)
    "corpus": (
        {"corpus.tsv": b"a\tc1\tb\nb\tc1\ta\n\xff\tc1\tb\n"},
        lambda d: ["build-vocab", "--corpus", str(d / "corpus.tsv"), "--output", str(d / "o")],
        "corpus.tsv:3",
    ),
    "hierarchy": (
        {"corpus.tsv": b"a\tc1\tb\n", "hierarchy.tsv": b"root\tc1\nroot\tc2\nc1\tc\xff\n"},
        lambda d: ["train", "--corpus", str(d / "corpus.tsv"), "--hierarchy", str(d / "hierarchy.tsv"),
                   "--output", str(d / "o")],
        "hierarchy.tsv:3",
    ),
    "gold": (
        {"emb.txt": GOOD_EMBEDDING, "gold.tsv": b"a\tc1\nb\tc2\n\xff\tc1\n"},
        lambda d: ["eval-categorize", "--embeddings", str(d / "emb.txt"), "--gold", str(d / "gold.tsv"),
                   "--output", str(d / "o")],
        "gold.tsv:3",
    ),
    "relatedness": (
        {"emb.txt": GOOD_EMBEDDING, "pairs.tsv": b"a\tb\t5.0\nb\tc\t3.0\na\t\xff\t1.0\n"},
        lambda d: ["eval-relatedness", "--embeddings", str(d / "emb.txt"), "--dataset", str(d / "pairs.tsv"),
                   "--output", str(d / "o")],
        "pairs.tsv:3",
    ),
    "config": (
        {"run.cfg": b"# comment\ndim=3\nroot=r\xff\n"},
        lambda d: ["build-vocab", "--config", str(d / "run.cfg")],
        "run.cfg:3",
    ),
    "text-embedding": (
        {"emb.txt": b"2 1\ne:" + b"a" * 5000 + b" 1\ne:\xff 2\n"},
        lambda d: ["neighbors", "--embeddings", str(d / "emb.txt"), "--label", "a"],
        "emb.txt:3",
    ),
    "short-text-embedding": (
        {"small.txt": b"2 1\ne:a 1\ne:\xff 2\n"},
        lambda d: ["neighbors", "--embeddings", str(d / "small.txt"), "--label", "a"],
        "small.txt:3",
    ),
    # the binary layout of earlier releases: label, space, little-endian float64s, newline;
    # the float64 1.0 ends in the bytes 0xf0 0x3f, and 0x3f is no UTF-8 continuation byte
    "binary-layout": (
        {"emb.bin": b"2 1\ne:a " + np.float64(1.0).tobytes() + b"\ne:b " + np.float64(2.0).tobytes() + b"\n"},
        lambda d: ["neighbors", "--embeddings", str(d / "emb.bin"), "--label", "a"],
        "emb.bin:2",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_UTF8_CASES))
def test_invalid_utf8_is_a_one_line_error_with_its_line(tmp_path, capsys, case):
    files, argv, bad = BAD_UTF8_CASES[case]
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    assert main(argv(tmp_path) + ["--verbosity", "0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path / bad}: invalid UTF-8 at byte ")
    assert err.count("\n") == 1 and "Traceback" not in err
