import numpy as np
import pytest

from catembed.corpus import CategoryGraph
from catembed.errors import HierarchyError
from catembed import hierarchy
from catembed.hierarchy import WEIGHT_SUM_TOL, steps_down, weight_csr


def make_graph(n, edges, root=0):
    children = {i: [] for i in range(n)}
    for p, c in edges:
        children[p].append(c)
    return CategoryGraph(root=root, children={k: tuple(sorted(v)) for k, v in children.items()})


def random_rooted_dag(rng, n):
    """Random DAG on nodes 0..n-1 with node 0 the root and everything reachable."""
    edges = set()
    for child in range(1, n):
        n_parents = int(rng.integers(1, min(child, 3) + 1))
        for p in rng.choice(child, size=n_parents, replace=False):
            edges.add((int(p), child))
    for _ in range(int(rng.integers(0, n))):
        i, j = sorted(rng.choice(n, size=2, replace=False))
        edges.add((int(i), int(j)))
    return make_graph(n, edges)


def brute_ancestors(graph, direct):
    """Oracle: transitive closure by repeated edge relaxation."""
    reaches = {n: set(graph.children[n]) for n in graph.children}
    changed = True
    while changed:
        changed = False
        for node, targets in reaches.items():
            extra = set()
            for t in targets:
                extra |= reaches[t]
            if not extra <= targets:
                targets |= extra
                changed = True
    result = set(direct)
    for node in graph.children:
        if reaches[node] & set(direct):
            result.add(node)
    result.discard(graph.root)
    return result


def brute_path_lengths(graph, start, targets):
    """Oracle: enumerate every downward path from start ending at a target."""
    lengths = []

    def rec(node, depth):
        if depth > 0 and node in targets:
            lengths.append(depth)
        for child in graph.children[node]:
            rec(child, depth + 1)

    rec(start, 0)
    return lengths


def weight_slice(graph, direct, mode="hce"):
    """One entity's ``(categories, weights)`` slice of ``weight_csr``."""
    _, ids, ws = weight_csr(graph, {0: tuple(sorted(direct))}, ["e0"], mode)
    return tuple(ids.tolist()), ws


def weight_contract_holds(cats, ws, steps):
    """Distinct categories, positive weights summing to 1, and strictly more weight for fewer mean steps."""
    return (
        len(set(cats)) == len(cats)
        and bool(np.all(ws > 0))
        and abs(float(ws.sum()) - 1.0) <= WEIGHT_SUM_TOL
        and all(wi > wj for ci, wi in zip(cats, ws) for cj, wj in zip(cats, ws) if steps[ci] < steps[cj])
    )


class TestAncestors:
    def test_chain(self):
        # root(0) -> c2(1) -> c1(2)
        g = make_graph(3, [(0, 1), (1, 2)])
        assert set(steps_down(g, {2})) == {1, 2}

    def test_child_of_root_is_alone(self):
        g = make_graph(2, [(0, 1)])
        assert set(steps_down(g, {1})) == {1}

    def test_diamond(self):
        # root(0) -> a(1) -> d(3), root -> b(2) -> d
        g = make_graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        assert set(steps_down(g, {3})) == {1, 2, 3}

    def test_empty_direct_errors(self):
        g = make_graph(2, [(0, 1)])
        with pytest.raises(HierarchyError):
            steps_down(g, set())

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_bruteforce_closure(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 21))
        g = random_rooted_dag(rng, n)
        size = int(rng.integers(1, max(2, n // 2)))
        direct = set(int(x) for x in rng.choice(np.arange(1, n), size=min(size, n - 1), replace=False)) if n > 1 else {0}
        assert set(steps_down(g, direct)) == brute_ancestors(g, direct)


class TestAvgStepsDown:
    def test_direct_is_zero(self):
        g = make_graph(3, [(0, 1), (1, 2)])
        assert steps_down(g, {2})[2] == 0.0

    def test_chain_of_two(self):
        # c3(1) -> c2(2) -> c1(3) under root(0)
        g = make_graph(4, [(0, 1), (1, 2), (2, 3)])
        assert steps_down(g, {3})[1] == 2.0

    def test_diamond_averages_paths(self):
        # c_i(1) reaches d(4) via 1 step and via a 3-step chain: mean 2.0
        g = make_graph(5, [(0, 1), (1, 4), (1, 2), (2, 3), (3, 4)])
        assert steps_down(g, {4})[1] == 2.0
        assert brute_path_lengths(g, 1, {4}) in ([1, 3], [3, 1])

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_path_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 13))
        g = random_rooted_dag(rng, n)
        k = int(rng.integers(1, max(2, n // 2)))
        direct = set(int(x) for x in rng.choice(np.arange(1, n), size=min(k, n - 1), replace=False)) if n > 1 else {0}
        for c_i, got in sorted(steps_down(g, direct).items()):
            if c_i in direct:
                assert got == 0.0
            else:
                lengths = brute_path_lengths(g, c_i, direct)
                assert got == pytest.approx(float(np.mean(lengths)), abs=1e-12)


class TestCategoryWeights:
    def test_single_direct_no_ancestors(self):
        g = make_graph(2, [(0, 1)])
        cats, ws = weight_slice(g, {1})
        assert cats == (1,)
        assert ws[0] == pytest.approx(1.0)

    def test_chain_weights(self):
        # c3(1) -> c2(2) -> c1(3); direct {c1}: raw (1, 1/2, 1/3) -> (6/11, 3/11, 2/11)
        g = make_graph(4, [(0, 1), (1, 2), (2, 3)])
        by_cat = dict(zip(*weight_slice(g, {3})))
        assert by_cat[3] == pytest.approx(6 / 11)
        assert by_cat[2] == pytest.approx(3 / 11)
        assert by_cat[1] == pytest.approx(2 / 11)

    def test_sibling_directs_share_parent(self):
        # parent p(1) with direct children c1(2), c2(3): raw (1, 1, 1/2)
        g = make_graph(4, [(0, 1), (1, 2), (1, 3)])
        by_cat = dict(zip(*weight_slice(g, {2, 3})))
        assert by_cat[2] == pytest.approx(0.4)
        assert by_cat[3] == pytest.approx(0.4)
        assert by_cat[1] == pytest.approx(0.2)

    def test_root_only_direct_errors(self):
        g = make_graph(2, [(0, 1)])
        with pytest.raises(HierarchyError, match="^entity 'e0': no weighted categories"):
            weight_slice(g, {0})

    @pytest.mark.parametrize("seed", range(60))
    def test_weight_contract_random_dags(self, seed):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(2, 21))
        g = random_rooted_dag(rng, n)
        size = int(rng.integers(1, max(2, n // 2)))
        direct = set(int(x) for x in rng.choice(np.arange(1, n), size=min(size, n - 1), replace=False)) if n > 1 else set()
        if not direct:
            return
        steps = steps_down(g, direct)
        cats, ws = weight_slice(g, direct)
        assert cats == tuple(steps)
        assert weight_contract_holds(cats, ws, steps)


class TestCeWeights:
    def test_two_direct(self):
        cats, ws = weight_slice(make_graph(3, [(0, 1), (0, 2)]), {2, 1}, "ce")
        assert cats == (1, 2)
        assert ws.tolist() == [1.0, 1.0]

    def test_single(self):
        cats, ws = weight_slice(make_graph(2, [(0, 1)]), {5}, "ce")
        assert cats == (5,)
        assert ws.tolist() == [1.0]


class TestWeightCsr:
    def test_csr_layout(self):
        g = make_graph(4, [(0, 1), (1, 2), (2, 3)])
        labeling = {0: (3,), 2: (2, 3)}
        offsets, ids, ws = weight_csr(g, labeling, ["e0", "e1", "e2"], mode="hce")
        assert offsets.tolist()[0] == 0
        assert offsets[1] - offsets[0] == 3  # entity 0: c1 + two ancestors
        assert offsets[2] - offsets[1] == 0  # entity 1 unlabeled
        assert ws[offsets[0]:offsets[1]].sum() == pytest.approx(1.0)

    def test_ce_mode_unnormalized(self):
        g = make_graph(3, [(0, 1), (0, 2)])
        offsets, ids, ws = weight_csr(g, {0: (1, 2)}, ["e0"], mode="ce")
        assert ws.tolist() == [1.0, 1.0]
        assert sorted(ids.tolist()) == [1, 2]

    def test_failing_entity_is_named(self):
        g = make_graph(3, [(0, 1), (1, 2)])
        labeling = {0: (2,), 1: (0,)}  # entity 1 is labeled with the root only: no weighted category
        with pytest.raises(HierarchyError, match="^entity 'e1': no weighted categories"):
            weight_csr(g, labeling, ["e0", "e1"], mode="hce")

    @pytest.mark.parametrize("root_only_first", [True, False])
    def test_first_of_two_failing_entities_is_named(self, root_only_first):
        g = make_graph(3, [(0, 1), (1, 2)])
        root_only, missing = (0,), (1, 9)  # category 9 is not in the graph
        first, second = (root_only, missing) if root_only_first else (missing, root_only)
        labeling = {0: (2,), 1: first, 2: (1, 2), 3: second, 4: (1,)}
        message = (
            "^entity 'e1': no weighted categories \\(directly labeled with the root only\\)$"
            if root_only_first else "^entity 'e1': category 9 not in graph$"
        )
        with pytest.raises(HierarchyError, match=message):
            weight_csr(g, labeling, [f"e{i}" for i in range(5)], mode="hce")

    def test_ce_mode_skips_the_graph_check(self):
        g = make_graph(2, [(0, 1)])
        offsets, ids, ws = weight_csr(g, {0: (0,), 1: (1, 9)}, ["e0", "e1"], mode="ce")
        assert offsets.tolist() == [0, 1, 3]
        assert ids.tolist() == [0, 1, 9]
        assert ws.tolist() == [1.0, 1.0, 1.0]

    def test_unknown_mode_refused(self):
        g = make_graph(2, [(0, 1)])
        with pytest.raises(HierarchyError) as info:
            weight_csr(g, {0: (1,)}, ["e0"], mode="flat")
        assert str(info.value) == "unknown mode 'flat'"

    def test_no_labeled_entity_gives_empty_arrays(self):
        g = make_graph(2, [(0, 1)])
        for mode in ("ce", "hce"):
            offsets, ids, ws = weight_csr(g, {}, ["e0", "e1"], mode=mode)
            assert offsets.tolist() == [0, 0, 0]
            assert (ids.dtype, ws.dtype, len(ids), len(ws)) == (np.int64, np.float64, 0, 0)


class TestWalkCount:
    """Each distinct direct category's ancestors are walked once per call."""

    @pytest.fixture
    def walked(self, monkeypatch):
        calls = []
        inner = hierarchy._ancestor_paths

        def counting(graph, cat):
            calls.append(cat)
            return inner(graph, cat)

        monkeypatch.setattr(hierarchy, "_ancestor_paths", counting)
        return calls

    def test_weight_csr_walks_each_direct_category_once(self, walked):
        g = make_graph(5, [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4)])
        labeling = {0: (4,), 1: (2,), 2: (2, 4), 3: (4,), 4: (2,), 5: (2, 4)}
        weight_csr(g, labeling, [f"e{i}" for i in range(6)], mode="hce")
        assert sorted(walked) == [2, 4]

    def test_steps_down_goes_through_the_same_walk(self, walked):
        g = make_graph(5, [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4)])
        steps_down(g, {2, 4})
        assert sorted(walked) == [2, 4]


@pytest.mark.parametrize("root, children, message", [
    (5, {0: (), 1: ()}, "^root category 5 is not a node of the graph$"),
    (0, {0: (1,)}, "^category 1, a child of 0, is not a node of the graph$"),
])
def test_rootless_or_open_graph_refused_at_construction(root, children, message):
    with pytest.raises(HierarchyError, match=message):
        CategoryGraph(root=root, children=children)


def test_cycle_in_ancestor_closure_errors():
    with pytest.raises(HierarchyError, match="cycle"):
        make_graph(4, [(0, 1), (1, 2), (2, 3), (3, 2)])


def test_cycle_outside_every_closure_refused_at_construction():
    # 2 <-> 3 is no ancestor of the direct category 1, so no closure walk would meet it
    with pytest.raises(HierarchyError, match="cycle"):
        make_graph(4, [(0, 1), (0, 2), (2, 3), (3, 2)])


def reference_category_weights(graph, direct):
    """Whole-graph path statistics and weights as computed before ``steps_down``: test-only oracle."""
    direct = frozenset(direct)
    n, s = {}, {}
    for node in sorted(graph.children, key=graph.rank.__getitem__, reverse=True):
        count = 1 if node in direct else 0
        total = 0
        for child in graph.children[node]:
            count += n[child]
            total += s[child] + n[child]
        n[node] = count
        s[node] = total
    cats = tuple(sorted(c for c in n if n[c] and c != graph.root))
    if not cats:
        raise HierarchyError("entity has no weighted categories (directly labeled with the root only)")
    raw = np.array(
        [1.0 if c in direct else 1.0 / (1.0 + s[c] / n[c]) for c in cats],
        dtype=np.float64,
    )
    return cats, raw / raw.sum()


def reference_weight_csr(graph, labeling, n_entities, mode):
    offsets = np.zeros(n_entities + 1, dtype=np.int64)
    ids, ws = [], []
    for ent in range(n_entities):
        direct = labeling.get(ent)
        if direct:
            if mode == "hce":
                cats, weights = reference_category_weights(graph, direct)
            else:
                cats, weights = tuple(sorted(set(direct))), np.ones(len(set(direct)))
            ids.extend(cats)
            ws.extend(weights)
        offsets[ent + 1] = len(ids)
    return offsets, np.asarray(ids, dtype=np.int64), np.asarray(ws, dtype=np.float64)


def layered_dag(rng, widths, extra_parents):
    """Multi-level DAG: each node has one parent on the level above plus extra parents on any level above."""
    levels = [[0]]
    edges = set()
    nxt = 1
    for width in widths:
        level = list(range(nxt, nxt + width))
        nxt += width
        above = [v for lvl in levels for v in lvl]
        for child in level:
            edges.add((int(rng.choice(levels[-1])), child))
            for p in rng.choice(above, size=min(extra_parents, len(above)), replace=False):
                if rng.random() < 0.5:
                    edges.add((int(p), child))
        levels.append(level)
    return make_graph(nxt, edges), levels


def perfbench_like_world(seed):
    """A deep DAG whose entities share direct categories, nest them, name the root and weigh many ancestors."""
    rng = np.random.default_rng(seed)
    g, levels = layered_dag(rng, widths=(3, 6, 12, 24, 40, 60, 80, 100), extra_parents=2)
    pool = [int(c) for lvl in levels[-3:] for c in rng.choice(lvl, size=12, replace=False)]
    labeling = {}
    for ent in range(240):
        if ent % 10 == 9:
            continue  # unlabeled entity: empty slice
        direct = {pool[int(i)] for i in rng.integers(0, len(pool), size=int(rng.integers(1, 4)))}
        if ent % 5 == 0:
            direct.add(int(rng.choice(g.parents[min(direct)])))  # nest a parent of a direct category
        if ent % 7 == 0:
            direct.add(g.root)
        labeling[ent] = tuple(sorted(direct))
    return g, labeling


class TestMatchesWholeGraphReference:
    """``weight_csr`` arrays are bitwise equal to the whole-graph computation."""

    @staticmethod
    def assert_csr_equal(g, labeling, n_entities):
        for mode in ("ce", "hce"):
            got = weight_csr(g, labeling, [f"e{i}" for i in range(n_entities)], mode)
            want = reference_weight_csr(g, labeling, n_entities, mode)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_dags_with_root_and_nested_directs(self, seed):
        rng = np.random.default_rng(5000 + seed)
        n = int(rng.integers(2, 31))
        g = random_rooted_dag(rng, n)
        n_entities = 12
        labeling = {}
        for ent in range(n_entities):
            if ent % 4 == 3:
                continue  # unlabeled entity: empty slice
            direct = {int(x) for x in rng.choice(n, size=int(rng.integers(1, min(n, 4) + 1)), replace=False)}
            if ent % 3 == 0:
                leaf = max(direct)
                direct.add(int(rng.choice(g.parents[leaf])) if g.parents[leaf] else 0)  # nest a parent
            if direct == {0}:
                direct.add(int(rng.integers(1, n)))
            labeling[ent] = tuple(sorted(direct))
        self.assert_csr_equal(g, labeling, n_entities)

    def test_multi_level_dag_with_extra_parents(self):
        rng = np.random.default_rng(77)
        g, levels = layered_dag(rng, widths=(4, 10, 25, 50, 80), extra_parents=3)
        deep = levels[-1] + levels[-2]
        n_entities = 150
        labeling = {}
        for ent in range(n_entities):
            size = int(rng.integers(1, 6))
            labeling[ent] = tuple(sorted({int(x) for x in rng.choice(deep, size=size)}))
        self.assert_csr_equal(g, labeling, n_entities)

    @pytest.mark.parametrize("depth", [48, 70])
    def test_path_counts_beyond_float64_integers(self, depth):
        # A ladder of two-node levels, each node a child of both nodes above,
        # plus edges that skip a level. Path counts and summed lengths pass
        # 2**53 (depth 48), where float64 stops holding every integer, and
        # 2**63 (depth 70), where int64 overflows.
        edges = [(0, 1), (0, 2)]
        for lv in range(1, depth):
            for child in (2 * lv + 1, 2 * lv + 2):
                edges += [(2 * lv - 1, child), (2 * lv, child)]
            if lv >= 2:
                edges.append((2 * lv - 3, 2 * lv + 1))
        g = make_graph(2 * depth + 1, edges)
        labeling = {0: (2 * depth,), 1: (2 * depth - 1, 2 * depth), 2: (3, 2 * depth), 3: (1,)}
        self.assert_csr_equal(g, labeling, 4)

    @pytest.mark.parametrize("seed", range(3))
    def test_perfbench_like_world(self, seed):
        g, labeling = perfbench_like_world(seed)
        self.assert_csr_equal(g, labeling, 240)
        offsets, _, _ = weight_csr(g, labeling, [f"e{i}" for i in range(240)], "hce")
        lengths = np.diff(offsets)[sorted(labeling)].tolist()
        assert max(lengths) > 8  # past numpy's 8-term unrolled sum
        assert len(lengths) - len(set(lengths)) > 50  # many slices share a length
        shared = list(labeling.values())
        assert len(set(shared)) < len(shared)  # some entities share a whole direct set
        assert any(g.root in direct for direct in shared)
