"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import math
import time

import numpy as np
from catembed.categorize import load_gold, purity_from_labels, run_categorization
from catembed.cli import dota_gold_path, main
from catembed.corpus import build_vocabulary, load_corpus, load_hierarchy, prune_to_dag
from catembed.hierarchy import AncestorWeights, category_weights, steps_down
from catembed.relatedness import spearman
from catembed.sampler import build_noise_table
from catembed.synthetic import SyntheticSpec, generate_world
from catembed.trainer import TrainConfig, train

from oracles import pair_loss_and_grad
from test_categorize import brute_purity, partition_to_labels, set_partitions
from test_embeddings import index_from_table
from test_hierarchy import brute_ancestors, brute_path_lengths, random_rooted_dag
from test_trainer import EMPTY_WEIGHTS, fd_gradient, random_table


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE [{num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_gradient_oracle():
    rng = np.random.default_rng(101)
    start = time.time()
    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 9))
        table = random_table(rng, 6, 4, dim)
        n_cats = int(rng.integers(0, 4))
        cats = tuple(int(x) for x in rng.choice(4, size=n_cats, replace=False))
        ws = rng.random(n_cats) + 0.1
        ws = ws / ws.sum() if n_cats else np.empty(0)
        negs = rng.integers(0, 6, size=int(rng.integers(1, 4)))
        t, c = int(rng.integers(6)), int(rng.integers(6))
        grad = pair_loss_and_grad(table, (t, c), AncestorWeights(cats, ws), negs)
        fd = fd_gradient(table, t, c, cats, ws, negs, eps=1e-5)
        for key, fd_vec in fd.items():
            an_vec = grad.deltas[key]
            denom = np.maximum(np.maximum(np.abs(an_vec), np.abs(fd_vec)), 1e-8)
            worst = max(worst, float(np.max(np.abs(an_vec - fd_vec) / denom)))
    elapsed = time.time() - start
    report(
        1,
        worst < 1e-4 and elapsed < 5.0,
        f"100 instances, worst relative gradient error {worst:.2e} (< 1e-4), {elapsed:.2f}s (< 5s)",
    )


def test_criterion_02_purity_oracle():
    start = time.time()
    checked = 0
    exact = True
    for n in range(1, 7):
        partitions = list(set_partitions(list(range(n))))
        label_cache = [partition_to_labels(p, n) for p in partitions]
        for i, omega in enumerate(partitions):
            for j, gold in enumerate(partitions):
                got = purity_from_labels(label_cache[i], label_cache[j])
                want = brute_purity(omega, gold)
                checked += 1
                if abs(got - want) > 1e-12:
                    exact = False
    elapsed = time.time() - start
    report(
        2,
        exact and elapsed < 10.0,
        f"{checked} partition pairs of <= 6 items match brute force, {elapsed:.2f}s (< 10s)",
    )


def test_criterion_03_spearman_oracle():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(3, 40))
        x = rng.permutation(n).astype(float)
        y = rng.permutation(n).astype(float)
        rx = np.argsort(np.argsort(x)) + 1
        ry = np.argsort(np.argsort(y)) + 1
        d = rx - ry
        closed = 1 - 6 * float(d @ d) / (n * (n * n - 1))
        worst = max(worst, abs(spearman(x, y) - closed))
    base = spearman([3.0, 1.0, 4.0, 1.5], [30.0, 10.0, 40.0, 15.0])
    monotone = spearman([3.0, 1.0, 4.0, 1.5], [math.exp(30.0), math.exp(10.0), math.exp(40.0), math.exp(15.0)])
    hand = spearman([1.0, 2.0, 3.0], [2.0, 1.0, 3.0])
    ok = worst <= 1e-12 and base == monotone == 1.0 and abs(hand - 0.5) <= 1e-12
    report(
        3,
        ok,
        f"1000 permutations within {worst:.1e} of the closed form (<= 1e-12); "
        f"monotone invariance exact; hand example rho = {hand}",
    )


def test_criterion_04_weight_contract():
    rng = np.random.default_rng(104)
    n_dags = 0
    contract_ok = True
    brute_ok = True
    while n_dags < 1000:
        n = int(rng.integers(2, 21))
        graph = random_rooted_dag(rng, n)
        size = int(rng.integers(1, max(2, n // 2)))
        direct = set(int(x) for x in rng.choice(np.arange(1, n), size=min(size, n - 1), replace=False))
        if not direct:
            continue
        n_dags += 1
        steps = steps_down(graph, direct)
        w = category_weights(steps)
        if not (np.all(w.weights > 0) and abs(w.weights.sum() - 1.0) <= 1e-9):
            contract_ok = False
        for i, ci in enumerate(w.categories):
            for j, cj in enumerate(w.categories):
                if steps[ci] < steps[cj] and not w.weights[i] > w.weights[j]:
                    contract_ok = False
        if n <= 12:
            if set(steps) != brute_ancestors(graph, direct):
                brute_ok = False
            for c in w.categories:
                if c in direct:
                    continue
                lengths = brute_path_lengths(graph, c, direct)
                if abs(steps[c] - float(np.mean(lengths))) > 1e-12:
                    brute_ok = False
    report(
        4,
        contract_ok and brute_ok,
        "1000 random DAGs: weights positive, sum 1 +- 1e-9, strictly decreasing in "
        "avg steps; ancestors/avg-steps match enumeration on <= 12 nodes",
    )


def test_criterion_05_end_to_end_synthetic(tmp_path):
    start = time.time()
    world = generate_world(
        tmp_path,
        SyntheticSpec(parents=3, leaves_per_parent=1, entities_per_leaf=10,
                      docs=200, contexts_per_doc=20, p_in=0.9, seed=42),
    )
    vocab = build_vocabulary(world.corpus_path)
    raw = load_hierarchy(world.hierarchy_path, vocab)
    graph, _ = prune_to_dag(raw, vocab, world.root_label)
    corpus = load_corpus(world.corpus_path, vocab, graph)
    cfg = TrainConfig(dim=50, epochs=5, negatives=10, chunk=500, seed=42, mode="hce")
    table = train(corpus, graph, cfg)
    index = index_from_table(table, vocab)
    gold = load_gold(world.gold_path)
    rep = run_categorization(index, gold, method="both", seed=0)
    elapsed = time.time() - start
    nn_p, cl_p = rep["nn"]["purity"], rep["cluster"]["purity"]
    report(
        5,
        nn_p >= 0.95 and cl_p >= 0.90 and elapsed < 60.0,
        f"synthetic HCE run: NN purity {nn_p:.3f} (>= 0.95), clustering purity "
        f"{cl_p:.3f} (>= 0.90), {elapsed:.1f}s (< 60s)",
    )


def test_criterion_06_hierarchy_benefit(tmp_path):
    def cos(a, b):
        return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))

    wins = 0
    for seed in range(10):
        world = generate_world(
            tmp_path / str(seed),
            SyntheticSpec(parents=2, leaves_per_parent=3, entities_per_leaf=5,
                          docs=150, contexts_per_doc=12, p_in=0.9, seed=seed),
        )
        vocab = build_vocabulary(world.corpus_path)
        raw = load_hierarchy(world.hierarchy_path, vocab)
        graph, _ = prune_to_dag(raw, vocab, world.root_label)
        corpus = load_corpus(world.corpus_path, vocab, graph)
        cfg = TrainConfig(dim=32, epochs=3, negatives=5, chunk=200, seed=seed, mode="hce")
        table = train(corpus, graph, cfg)
        ok = True
        for p in ("p0", "p1"):
            own = [i for i, lab in enumerate(vocab.entity_labels()) if lab.startswith(p + "_")]
            other = [i for i, lab in enumerate(vocab.entity_labels()) if not lab.startswith(p + "_")]
            pv = table.cat_in[vocab.category_id(p)]
            if not cos(pv, table.ent_in[own].mean(0)) > cos(pv, table.ent_in[other].mean(0)):
                ok = False
        wins += int(ok)
    report(
        6,
        wins >= 9,
        f"parent vectors closer to their own subtree centroid in {wins}/10 seeds (>= 9)",
    )


def test_criterion_07_negative_sampler_distribution():
    # counts (3, 1): one target occurrence + two contexts vs one bare target
    vocab = build_vocabulary(["a\tc1\ta a", "b\tc1\t"])
    counts = dict(zip(vocab.entity_labels(), vocab.entity_counts()))
    assert counts == {"a": 3, "b": 1}
    table = build_noise_table(vocab, alpha=1.0)
    draws = table.sample(10**6, np.random.default_rng(777))
    freq = np.bincount(draws, minlength=2) / len(draws)
    ok = abs(freq[0] - 0.75) < 0.01 and abs(freq[1] - 0.25) < 0.01
    report(
        7,
        ok,
        f"10^6 draws: empirical ({freq[0]:.4f}, {freq[1]:.4f}) within 1% of (0.75, 0.25)",
    )


def test_criterion_08_dag_preprocessing():
    def kahn_ok(children):
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

    rng = np.random.default_rng(108)
    all_ok = True
    for _ in range(1000):
        n = int(rng.integers(3, 16))
        labels = [f"c{i}" for i in range(n)]
        edges = set()
        for _ in range(int(rng.integers(n, 5 * n))):
            i, j = rng.integers(0, n, size=2)
            if i != j:
                edges.add((labels[i], labels[j]))
        for j in range(1, min(3, n)):
            edges.add(("c0", labels[j]))
        lines = [f"{p}\t{c}" for p, c in sorted(edges)]
        vocab = build_vocabulary(["t\tc0\tx"])
        raw = load_hierarchy(lines, vocab)
        graph, _ = prune_to_dag(raw, vocab, "c0")
        if not kahn_ok(graph.children):
            all_ok = False
        relines = [
            f"{vocab.category_label(p)}\t{vocab.category_label(c)}"
            for p, kids in graph.children.items() for c in kids
        ]
        if relines:
            raw2 = load_hierarchy(relines, vocab)
            graph2, _ = prune_to_dag(raw2, vocab, "c0")
            if graph2.children != graph.children:
                all_ok = False
    report(8, all_ok, "1000 random cyclic digraphs: output topologically sortable and pruning idempotent")


def test_criterion_09_determinism_and_fixture(tmp_path):
    world_dir = tmp_path / "world"
    assert main(["gen-synthetic", "--output", str(world_dir), "--seed", "5",
                 "--docs", "80", "--entities-per-leaf", "5", "--contexts-per-doc", "8",
                 "--verbosity", "0"]) == 0
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        rc = main([
            "train", "--corpus", str(world_dir / "corpus.tsv"),
            "--hierarchy", str(world_dir / "hierarchy.tsv"), "--root", "root",
            "--output", str(out), "--dim", "16", "--epochs", "2",
            "--negatives", "5", "--chunk", "100", "--seed", "9",
            "--verbosity", "0",
        ])
        assert rc == 0
        outs.append((out / "embeddings.txt").read_bytes())
    identical = outs[0] == outs[1]

    gold = load_gold(dota_gold_path())
    sizes: dict[str, int] = {}
    for cat in gold.categories:
        sizes[cat] = sizes.get(cat, 0) + 1
    fixture_ok = len(gold) == 450 and gold.n_classes == 15 and set(sizes.values()) == {30}
    report(
        9,
        identical and fixture_ok,
        f"two seeded runs byte-identical: {identical}; fixture parses into "
        f"{gold.n_classes} classes x {min(sizes.values())}-{max(sizes.values())} entities",
    )


def test_criterion_10_skipgram_reduction():
    rng = np.random.default_rng(110)
    worst = 0.0
    for _ in range(50):
        dim = int(rng.integers(2, 9))
        table = random_table(rng, 7, 2, dim)
        t, c = int(rng.integers(7)), int(rng.integers(7))
        negs = rng.integers(0, 7, size=int(rng.integers(1, 5)))

        def sgns_terms(tab, tt, cc, nn):
            def log_sig(x):
                x = max(-30.0, min(30.0, x))
                return math.log(1.0 / (1.0 + math.exp(-x)))

            terms = [-log_sig(float(np.dot(tab.ent_out[cc], tab.ent_in[tt])))]
            for n in nn:
                terms.append(-log_sig(-float(np.dot(tab.ent_out[n], tab.ent_in[tt]))))
            return terms

        terms = sgns_terms(table, t, c, negs)
        # term-by-term: positive alone, then each added negative
        got_pos = pair_loss_and_grad(table, (t, c), EMPTY_WEIGHTS, np.empty(0, dtype=np.int64)).loss
        worst = max(worst, abs(got_pos - terms[0]))
        running = terms[0]
        for i in range(1, len(terms)):
            got = pair_loss_and_grad(table, (t, c), EMPTY_WEIGHTS, negs[:i]).loss
            running += terms[i]
            worst = max(worst, abs(got - running))
    report(
        10,
        worst <= 1e-12,
        f"empty category set: per-pair loss matches plain skip-gram negative "
        f"sampling term-by-term within {worst:.1e} (<= 1e-12)",
    )
