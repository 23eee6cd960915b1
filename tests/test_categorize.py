import re
import weakref

import numpy as np
import pytest

from catembed import categorize
from catembed.categorize import (
    LINKAGES,
    SWEEP,
    GoldLabeling,
    _cluster_misclassifications,
    _metric_space,
    _pairwise_sq_dists,
    _repair_empty,
    agglomerative,
    kmeans,
    load_gold,
    nn_classify,
    purity_from_labels,
    run_categorization,
)
from catembed.embeddings import EmbeddingIndex
from catembed.errors import EvalError, FormatError


METRICS = ("euclidean", "cosine")


def space(pts, metric="euclidean"):
    """The points and distance matrix run_categorization hands the clustering of ``metric``."""
    return _metric_space(pts, metric)


def sq_dists(pts, metric="euclidean"):
    return _metric_space(pts, metric)[1]


def set_partitions(items):
    """Yield every partition of ``items`` as a list of lists (Bell recursion)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [first]] + part[i + 1:]
        yield part + [[first]]


def brute_purity(omega, gold):
    """Set-based transcription of the purity definition."""
    n = sum(len(c) for c in omega)
    return sum(max(len(set(c) & set(g)) for g in gold) for c in omega) / n


def partition_to_labels(partition, n):
    labels = np.empty(n, dtype=np.int64)
    for ci, members in enumerate(partition):
        labels[members] = ci
    return labels


def gold_from_classes(classes):
    return GoldLabeling(
        entities=[f"e{i}" for i in range(len(classes))],
        categories=[f"g{c}" for c in classes],
        class_labels=[f"g{c}" for c in dict.fromkeys(classes)],
    )


class TestPurity:
    def test_perfect_clustering(self):
        classes = [0, 0, 1, 1, 2]
        assert purity_from_labels(np.array(classes), gold_from_classes(classes).class_indices()) == 1.0

    def test_worked_example(self):
        # clusters {a,b,c},{d,e}; gold g1={a,b,d}, g2={c,e} -> (2+1)/5
        gold = gold_from_classes([0, 0, 1, 0, 1])
        assert purity_from_labels(np.array([0, 0, 0, 1, 1]), gold.class_indices()) == pytest.approx(0.6)

    def test_single_cluster(self):
        gold = gold_from_classes([0, 0, 0, 1, 1])
        assert purity_from_labels(np.zeros(5, dtype=np.int64), gold.class_indices()) == pytest.approx(3 / 5)

    @pytest.mark.parametrize("assignment, classes, message", [
        ([0, 1, 1], [0, 1], "solution covers 3 items, gold has 2"),
        ([], [], "empty clustering"),
    ])
    def test_refuses_mismatched_or_empty(self, assignment, classes, message):
        with pytest.raises(EvalError, match=f"^{re.escape(message)}$"):
            purity_from_labels(np.array(assignment, dtype=np.int64), np.array(classes, dtype=np.int64))

    def test_matches_bruteforce_on_all_small_partitions(self):
        # exhaustive over every partition pair of 4 items (the <= 6 sweep is in
        # the acceptance suite)
        items = list(range(4))
        partitions = list(set_partitions(items))
        for omega in partitions:
            for gold_part in partitions:
                labels_omega = partition_to_labels(omega, 4)
                labels_gold = partition_to_labels(gold_part, 4)
                got = purity_from_labels(labels_omega, labels_gold)
                assert got == pytest.approx(brute_purity(omega, gold_part), abs=1e-12)

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(0)
        assign = rng.integers(0, 4, size=30)
        classes = rng.integers(0, 3, size=30)
        base = purity_from_labels(assign, classes)
        perm = rng.permutation(4)
        assert purity_from_labels(perm[assign], classes) == pytest.approx(base)

    def test_pure_iff_every_cluster_single_class(self):
        classes = np.array([0, 0, 1, 1])
        assert purity_from_labels(np.array([1, 1, 0, 0]), classes) == 1.0
        assert purity_from_labels(np.array([0, 1, 0, 1]), classes) < 1.0


class TestKmeans:
    def test_recovers_separated_blobs(self):
        pts = np.array([[0.0, 0.0], [0.1, 0.0], [10.0, 10.0], [10.1, 10.0]])
        sol = kmeans(*space(pts), 2, seed=0)
        # oracle: brute-force best 2-partition by inertia
        best = None
        for mask in range(1, 7):  # proper bipartitions of 4 points up to symmetry
            a = [i for i in range(4) if mask & (1 << i)]
            b = [i for i in range(4) if not mask & (1 << i)]
            if not a or not b:
                continue
            inertia = sum(((pts[g] - pts[g].mean(0)) ** 2).sum() for g in (a, b))
            if best is None or inertia < best[0]:
                best = (inertia, a, b)
        want = {frozenset(best[1]), frozenset(best[2])}
        got = {frozenset(np.where(sol.assignment == c)[0].tolist()) for c in (0, 1)}
        assert got == want
        assert sol.objective == pytest.approx(best[0])

    def test_k_equals_points(self):
        pts = np.random.default_rng(1).normal(size=(5, 3))
        sol = kmeans(*space(pts), 5, seed=0)
        assert sorted(sol.assignment.tolist()) == [0, 1, 2, 3, 4]
        assert sol.objective == 0.0

    def test_k_one(self):
        pts = np.random.default_rng(2).normal(size=(6, 2))
        sol = kmeans(*space(pts), 1, seed=0)
        assert np.all(sol.assignment == 0)

    def test_k_larger_than_points_errors(self):
        with pytest.raises(EvalError):
            kmeans(*space(np.zeros((3, 2))), 4)

    def test_k_zero_errors(self):
        with pytest.raises(EvalError):
            kmeans(*space(np.zeros((3, 2))), 0)

    @pytest.mark.parametrize("arg", ["restarts", "max_iters"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_iteration_counts_below_one_error(self, arg, value):
        pts = np.random.default_rng(2).normal(size=(6, 2))
        with pytest.raises(EvalError, match=f"{arg} must be >= 1"):
            kmeans(*space(pts), 2, **{arg: value})

    def test_deterministic_given_seed(self):
        pts = np.random.default_rng(3).normal(size=(20, 4))
        a = kmeans(*space(pts), 3, seed=11)
        b = kmeans(*space(pts), 3, seed=11)
        assert np.array_equal(a.assignment, b.assignment)

    # at 1e160 and 1e-170 the plain row norms overflow to inf or underflow to 0;
    # at 1e-162 they are nonzero but their squares have lost digits
    @pytest.mark.parametrize("factor", [1.0, 1e160, 1e-170, 1e-162])
    def test_cosine_metric_ignores_scale(self, factor):
        rng = np.random.default_rng(4)
        base = rng.normal(size=(12, 3))
        scales = rng.uniform(0.5, 5.0, size=(12, 1))
        a = kmeans(*space(base, "cosine"), 3, seed=2)
        b = kmeans(*space(base * scales * factor, "cosine"), 3, seed=2)
        assert np.array_equal(a.assignment, b.assignment)
        assert b.objective == pytest.approx(a.objective, rel=1e-12)

    @pytest.mark.parametrize("k", [1, 3])
    def test_overflowing_distances_rejected(self, k):
        # finite vectors whose squared distances exceed float64
        pts = np.random.default_rng(7).normal(size=(40, 3)) * 1e160
        with pytest.raises(EvalError, match="^squared distances between the vectors overflow float64$"):
            kmeans(*space(pts), k, seed=0)

    def test_objective_non_increasing_within_restart(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(40, 3))
        # re-run Lloyd manually from the same seeding and track the objective
        from catembed.categorize import _kmeanspp_init, _pairwise_sq_dists, _repair_empty

        centers = _kmeanspp_init(x, sq_dists(x), 4, np.random.default_rng(9))
        prev = None
        assignment = np.full(len(x), -1, dtype=np.int64)
        for _ in range(50):
            d2 = _pairwise_sq_dists(x, centers)
            new_assignment = d2.argmin(axis=1)
            d2_assigned = d2[np.arange(len(x)), new_assignment]
            _repair_empty(new_assignment, d2_assigned, 4)
            obj = float(d2_assigned.sum())
            if prev is not None:
                assert obj <= prev + 1e-9
            prev = obj
            if np.array_equal(new_assignment, assignment):
                break
            assignment = new_assignment
            for j in range(4):
                centers[j] = x[assignment == j].mean(axis=0)


class TestAgglomerative:
    def test_three_collinear_points(self):
        # merge costs: {0,1} distance 1, {1,10} gap 9 -> clusters {0,1},{10}
        pts = np.array([[0.0], [1.0], [10.0]])
        sol = agglomerative(sq_dists(pts), 2, linkage="average")
        assert sol.assignment[0] == sol.assignment[1] != sol.assignment[2]

    def test_k_equals_points_gives_singletons(self):
        pts = np.random.default_rng(1).normal(size=(4, 2))
        sol = agglomerative(sq_dists(pts), 4)
        assert sorted(sol.assignment.tolist()) == [0, 1, 2, 3]

    def test_duplicates_merge_first(self):
        pts = np.array([[5.0, 5.0], [0.0, 0.0], [5.0, 5.0], [9.0, 9.0]])
        for linkage in ("ward", "complete", "average"):
            sol = agglomerative(sq_dists(pts), 3, linkage=linkage)
            assert sol.assignment[0] == sol.assignment[2]

    @pytest.mark.parametrize("k, linkage, message", [
        (0, "average", "k must be >= 1, got 0"),
        (4, "average", "k=4 exceeds the number of points (3)"),
        (2, "single", "linkage must be one of ('ward', 'complete', 'average'), got 'single'"),
    ])
    def test_refuses_bad_arguments(self, k, linkage, message):
        with pytest.raises(EvalError, match=f"^{re.escape(message)}$"):
            agglomerative(sq_dists(np.array([[0.0], [1.0], [10.0]])), k, linkage=linkage)

    @pytest.mark.parametrize("linkage", LINKAGES)
    def test_overflowing_distances_rejected(self, linkage):
        # the all-inf matrix once merged slot 0 with itself, doubling its
        # member list on every merge until memory ran out
        pts = np.random.default_rng(7).normal(size=(40, 3)) * 1e160
        with pytest.raises(EvalError, match="^squared distances between the vectors overflow float64$"):
            agglomerative(sq_dists(pts), 2, linkage=linkage)

    @pytest.mark.parametrize("scale", [1e160, 1e-170])
    def test_cosine_ignores_extreme_norms(self, scale):
        # the plain row norms overflow to inf or underflow to 0
        rng = np.random.default_rng(8)
        x = np.vstack([rng.normal(size=(20, 3)) + [6, 0, 0], rng.normal(size=(20, 3)) + [0, 6, 0]])
        a = agglomerative(sq_dists(x, "cosine"), 2, linkage="average")
        b = agglomerative(sq_dists(x * scale, "cosine"), 2, linkage="average")
        assert np.bincount(a.assignment).tolist() == [20, 20]
        assert np.array_equal(a.assignment, b.assignment)

    @pytest.mark.parametrize("linkage", ["complete", "average"])
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_scipy_linkage(self, linkage, seed):
        scipy_hier = pytest.importorskip("scipy.cluster.hierarchy")
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(14, 3))  # continuous data: ties have measure zero
        k = int(rng.integers(2, 6))
        sol = agglomerative(sq_dists(pts), k, linkage=linkage)
        Z = scipy_hier.linkage(pts, method=linkage, metric="euclidean")
        ref = scipy_hier.fcluster(Z, k, criterion="maxclust")
        # same partition up to relabeling
        assert purity_from_labels(sol.assignment, ref) == 1.0
        assert purity_from_labels(ref, sol.assignment) == 1.0

    @pytest.mark.parametrize("seed", range(8))
    def test_ward_matches_scipy(self, seed):
        scipy_hier = pytest.importorskip("scipy.cluster.hierarchy")
        rng = np.random.default_rng(100 + seed)
        pts = rng.normal(size=(12, 3))
        k = 3
        sol = agglomerative(sq_dists(pts), k, linkage="ward")
        Z = scipy_hier.linkage(pts, method="ward")
        ref = scipy_hier.fcluster(Z, k, criterion="maxclust")
        assert purity_from_labels(sol.assignment, ref) == 1.0
        assert purity_from_labels(ref, sol.assignment) == 1.0


def reference_rows(x, metric):
    """Rows as the clustering sees them: float64, unit length under cosine.

    Under cosine a nonzero row whose plain norm is inf or below 2**-500 is
    first divided by its largest absolute entry.
    """
    x = np.asarray(x, dtype=np.float64)
    if metric == "cosine":
        peak = np.abs(x).max(axis=1, keepdims=True)
        with np.errstate(over="ignore"):
            norms = np.linalg.norm(x, axis=1, keepdims=True)
        extreme = ((norms == np.inf) | (norms < 2.0**-500)) & (peak > 0)
        x = np.where(extreme, x / np.where(extreme, peak, 1.0), x)
        norms = np.linalg.norm(x, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        x = x / norms
    return x


def reference_agglomerative(x, k, metric, linkage):
    """Oracle for ``agglomerative``: the one-shot (n, n, d) difference tensor
    and a Lance-Williams update that visits one active cluster at a time."""
    x = reference_rows(x, metric)
    n = len(x)
    diff = x[:, None, :] - x[None, :, :]
    d = (diff**2).sum(axis=2)
    if linkage != "ward":
        d = np.sqrt(np.maximum(d, 0.0))
    np.fill_diagonal(d, np.inf)
    active = np.ones(n, dtype=bool)
    sizes = np.ones(n, dtype=np.int64)
    members = [[i] for i in range(n)]
    for _ in range(n - k):
        i, j = divmod(int(np.argmin(d)), n)
        if i > j:
            i, j = j, i
        a, b = sizes[i], sizes[j]
        dij = d[i, j]
        for c in np.where(active)[0]:
            if c == i or c == j:
                continue
            if linkage == "average":
                d_new = (a * d[i, c] + b * d[j, c]) / (a + b)
            elif linkage == "complete":
                d_new = max(d[i, c], d[j, c])
            else:
                cc = sizes[c]
                d_new = ((a + cc) * d[i, c] + (b + cc) * d[j, c] - cc * dij) / (a + b + cc)
            d[i, c] = d[c, i] = d_new
        members[i].extend(members[j])
        sizes[i] += sizes[j]
        active[j] = False
        d[j, :] = np.inf
        d[:, j] = np.inf
    assignment = np.empty(n, dtype=np.int64)
    for cluster, slot in enumerate(np.where(active)[0]):
        assignment[members[slot]] = cluster
    return assignment


def reference_kmeans(x, k, metric, restarts, max_iters, seed):
    """Oracle for ``kmeans``: the same seeding and Lloyd loop, with the one-shot
    (n, k, d) difference tensor and a full-row argmin. Returns
    ``(assignment, objective)``."""
    x = reference_rows(x, metric)
    n = len(x)
    if k == n:
        return np.arange(n), 0.0
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(restarts):
        centers = np.empty((k, x.shape[1]))
        centers[0] = x[rng.integers(n)]
        d2 = ((x - centers[0]) ** 2).sum(axis=1)
        for j in range(1, k):
            total = d2.sum()
            centers[j] = x[int(rng.integers(n)) if total <= 0 else int(rng.choice(n, p=d2 / total))]
            d2 = np.minimum(d2, ((x - centers[j]) ** 2).sum(axis=1))
        assignment = np.full(n, -1, dtype=np.int64)
        for _it in range(max_iters):
            dist = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
            new_assignment = dist.argmin(axis=1)
            d2_assigned = dist[np.arange(n), new_assignment]
            _repair_empty(new_assignment, d2_assigned, k)
            if np.array_equal(new_assignment, assignment):
                break
            assignment = new_assignment
            for j in range(k):
                centers[j] = x[assignment == j].mean(axis=0)
        dist = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        objective = float(dist[np.arange(n), assignment].sum())
        if best is None or objective < best[1]:
            best = (assignment.copy(), objective)
    return best


def gaussian_blobs(seed=0, n=60, dim=6):
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(4, dim)) * 4
    return centers[rng.integers(0, 4, size=n)] + rng.normal(size=(n, dim))


def integer_grid(seed=0, n=45):
    """Points on a 5x5 integer grid: duplicates and exactly tied distances."""
    pts = np.random.default_rng(seed).integers(-2, 3, size=(n, 2)).astype(np.float64)
    assert len(np.unique(pts, axis=0)) < n
    return pts


AGGLOMERATIVE_COMBOS = [(m, link) for algo, m, link in SWEEP if algo == "agglomerative"]


class TestExactEquivalence:
    @pytest.mark.parametrize("n, m, d", [
        (11, 37, 9),  # x shorter than y
        (37, 11, 9),  # y shorter than x
        (1, 5, 3),  # one row
        (5, 1, 3),
        (20, 13, 1),  # d = 1
    ])
    def test_blocked_distances_equal_one_shot_tensor(self, n, m, d):
        rng = np.random.default_rng(8)
        for scale in (1.0, 1e150, 1e-160):
            x, y = rng.normal(size=(n, d)) * scale, rng.normal(size=(m, d)) * scale
            for a, b in ((x, y), (x, x), (y, y)):  # y is x takes the mirrored upper-triangle path
                with np.errstate(over="ignore"):
                    want = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
                    assert np.array_equal(_pairwise_sq_dists(a, b), want)
                    assert np.array_equal(_pairwise_sq_dists(a, b.copy()), want)

    @pytest.mark.parametrize("metric,linkage", AGGLOMERATIVE_COMBOS)
    @pytest.mark.parametrize("data", ["blobs", "grid", "grid150"])
    @pytest.mark.parametrize("seed", range(3))
    def test_agglomerative_matches_reference(self, metric, linkage, data, seed):
        if data == "grid150":  # many rows share a cached nearest neighbour
            pts, ks = integer_grid(seed, n=150), (1, 2, 25, 149)
        else:
            pts = gaussian_blobs(seed) if data == "blobs" else integer_grid(seed)
            ks = (1, 2, 4, 9, len(pts) - 1)
        for k in ks:
            sol = agglomerative(sq_dists(pts, metric), k, linkage=linkage)
            assert np.array_equal(sol.assignment, reference_agglomerative(pts, k, metric, linkage))

    def test_merge_rounding_onto_a_cached_minimum(self):
        # an average-linkage update rounds a merged distance exactly onto a
        # row's cached minimum: the lower column must become its neighbour
        pts = np.array([[1], [0], [0], [1], [0], [2], [1], [1], [0]]) * 0.1
        sol = agglomerative(sq_dists(pts), 2, linkage="average")
        assert np.array_equal(sol.assignment, reference_agglomerative(pts, 2, "euclidean", "average"))

    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize("data", ["blobs", "grid", "shifted", "tiny"])
    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("scale", [1.0, 1e150, 1e-160, 1e160])
    def test_kmeans_matches_reference(self, metric, data, seed, scale):
        # shifted: |x|^2 + |c|^2 - 2 x.c cancels to noise, so the exact refine
        # decides; tiny: squared distances are subnormal and lose bits outright.
        # The scales push norms and distances towards overflow and underflow.
        pts = gaussian_blobs(seed) if data in ("blobs", "shifted") else integer_grid(seed)
        if data == "shifted":
            pts = pts + 1e9
        elif data == "tiny":
            pts = pts * 1e-158
        pts = pts * scale
        x, sq = space(pts, metric)
        before = x.tobytes(), sq.tobytes()
        # at 1e160 the euclidean distances overflow, except on the tiny data; cosine normalizes first
        if metric == "euclidean" and scale == 1e160 and data != "tiny":
            for k in (1, 2, 4, len(pts) - 1):
                with pytest.raises(EvalError, match="^squared distances between the vectors overflow float64$"):
                    kmeans(x, sq, k, restarts=3, seed=seed)
            return
        for k in (1, 2, 4, len(pts) - 1):
            for max_iters in (1, 2, 100):
                sol = kmeans(x, sq, k, restarts=3, max_iters=max_iters, seed=seed)
                assignment, objective = reference_kmeans(pts, k, metric, 3, max_iters, seed)
                assert np.array_equal(sol.assignment, assignment)
                assert sol.objective == objective
        assert (x.tobytes(), sq.tobytes()) == before  # only read

    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize("data", ["blobs", "grid", "shifted", "tiny"])
    def test_kmeans_matches_reference_at_sweep_restarts(self, monkeypatch, metric, data):
        # run_categorization runs 10 restarts. On duplicate points (grid, tiny)
        # k = n - 1 empties a cluster, so the repair path is checked bitwise too.
        repairs = []

        def spy(*args):
            repairs.append(args[2])
            return _repair_empty(*args)

        monkeypatch.setattr(categorize, "_repair_empty", spy)
        pts = gaussian_blobs(1) if data in ("blobs", "shifted") else integer_grid(1)
        pts = pts + 1e9 if data == "shifted" else pts * 1e-158 if data == "tiny" else pts
        for k in (2, 4, len(pts) - 1):
            for max_iters in (1, 100):
                sol = kmeans(*space(pts, metric), k, restarts=10, max_iters=max_iters, seed=1)
                assignment, objective = reference_kmeans(pts, k, metric, 10, max_iters, 1)
                assert np.array_equal(sol.assignment, assignment)
                assert sol.objective == objective
        if data in ("grid", "tiny"):
            assert len(pts) - 1 in repairs

    @pytest.mark.parametrize("dim", [1, 2, 3, 8, 50, 120])
    @pytest.mark.parametrize("seed", range(3))
    def test_center_update_equals_per_cluster_mean(self, dim, seed):
        rng = np.random.default_rng(seed)
        n, k = 200, 40
        x = rng.normal(size=(n, dim)) * 10.0 ** rng.integers(-6, 7, size=dim)
        x[rng.random(x.shape) < 0.1] = -0.0  # numpy's sums start from +0.0
        # clusters 0-9 hold one point each, 10-39 share the rest
        assignment = np.concatenate([np.arange(k), rng.integers(10, k, n - k)])
        rng.shuffle(assignment)
        sizes = np.bincount(assignment, minlength=k)
        assert (sizes[:10] == 1).all()
        centers = np.full((k, dim), np.nan)
        categorize._update_centers(centers, x, assignment, sizes, np.empty(x.shape, dtype=np.int64))
        want = np.array([x[assignment == j].mean(axis=0) for j in range(k)])
        assert centers.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_batched_nn_equals_per_entity_loop(self, seed):
        rng = np.random.default_rng(seed)
        cands = np.vstack([integer_grid(seed, n=12), [[0.0, 0.0]], [[0.0, 0.0]]])
        ents = np.vstack([integer_grid(seed + 10, n=30), rng.normal(size=(30, 2))])
        d2 = _pairwise_sq_dists(ents, cands)
        assert (np.sum(d2 == d2.min(axis=1, keepdims=True), axis=1) > 1).any()  # ties occur
        per_entity = [int(((cands - e[None, :]) ** 2).sum(axis=1).argmin()) for e in ents]
        assert nn_classify(ents, cands).tolist() == per_entity


    @pytest.mark.parametrize("seed", range(6))
    def test_contingency_table_matches_per_cluster_loop(self, seed):
        rng = np.random.default_rng(seed)
        assignment = rng.choice([-3, 5, 9, 100], size=17)  # any labels, as np.unique takes them
        gold = gold_from_classes(rng.integers(0, 4, size=17).tolist())
        classes = gold.class_indices()
        total, want = 0, {}
        for cluster in np.unique(assignment):
            in_cluster = assignment == cluster
            overlap = np.bincount(classes[in_cluster], minlength=gold.n_classes)
            total += int(overlap.max())
            for i in np.flatnonzero(in_cluster & (classes != overlap.argmax())):
                want.setdefault(gold.class_labels[overlap.argmax()], []).append(
                    {"entity": gold.entities[i], "gold": gold.categories[i]})
        assert purity_from_labels(assignment, classes) == total / len(assignment)
        got = _cluster_misclassifications(assignment, classes, gold)
        assert list(got.items()) == list(want.items())


class TestNNClassify:
    def test_exact_match_wins(self):
        cands = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert nn_classify(np.array([[3.0, 4.0]]), cands)[0] == 1

    def test_distance_comparison(self):
        cands = np.array([[1.0, 0.0], [3.0, 4.0]])
        assert nn_classify(np.array([[0.0, 0.0]]), cands)[0] == 0  # distances 1 vs 5

    def test_tie_goes_to_lowest_index(self):
        cands = np.array([[1.0, 0.0], [-1.0, 0.0]])
        assert nn_classify(np.array([[0.0, 0.0]]), cands)[0] == 0

    def test_translation_invariance(self):
        rng = np.random.default_rng(6)
        cands = rng.normal(size=(5, 3))
        e = rng.normal(size=(1, 3))
        shift = rng.normal(size=3)
        assert nn_classify(e, cands)[0] == nn_classify(e + shift, cands + shift)[0]

    def test_needs_candidates(self):
        with pytest.raises(EvalError):
            nn_classify(np.zeros((1, 2)), np.zeros((0, 2)))

    @pytest.mark.parametrize("ents, cands", [
        ([[0.0, 1e200]], [[1e200, 0.0], [-1e200, 0.0]]),
        ([[0.0, 0.0], [np.nan, 0.0], [1.0, 1.0]], [[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]]),  # a NaN entity
        ([[0.0, 0.0], [1.0, 1.0]], [[1.0, 0.0], [np.nan, 0.0], [2.0, 2.0]]),  # a NaN candidate
    ], ids=["overflow", "nan-entity", "nan-candidate"])
    def test_overflowing_distance_refused(self, ents, cands):
        with pytest.raises(EvalError, match="^squared distances between the vectors overflow float64$"):
            nn_classify(np.array(ents), np.array(cands))

    def test_duplicate_candidates_take_the_exact_path(self, monkeypatch):
        # each candidate row appears twice, so every entity ties between the
        # two copies of its nearest row: the filter settles no entity, all of
        # them take their exact distances, and the first copy wins
        rng = np.random.default_rng(3)
        cands = np.repeat(rng.normal(size=(3, 4)), 2, axis=0)
        ents = rng.normal(size=(25, 4))
        exact_rows = []
        inner = categorize._pairwise_sq_dists

        def spy(x, y):
            exact_rows.append(len(x))
            return inner(x, y)

        monkeypatch.setattr(categorize, "_pairwise_sq_dists", spy)
        got = nn_classify(ents, cands).tolist()
        assert exact_rows == [len(ents)]
        assert got == [int(((cands - e) ** 2).sum(axis=1).argmin()) for e in ents]
        assert all(j % 2 == 0 for j in got) and len(set(got)) > 1


def separable_index(per_class=6, n_classes=3, dim=8, spread=0.05, seed=0):
    """Synthetic embedding where classes are far apart and categories sit on
    their class centroids."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(n_classes, dim)) * 10
    ent_labels, cat_labels, ent_vecs, cat_vecs = [], [], [], []
    gold_entities, gold_categories = [], []
    for cls in range(n_classes):
        cat_labels.append(f"class{cls}")
        cat_vecs.append(centers[cls])
        for i in range(per_class):
            ent_labels.append(f"cls{cls}_e{i}")
            ent_vecs.append(centers[cls] + rng.normal(scale=spread, size=dim))
            gold_entities.append(f"cls{cls}_e{i}")
            gold_categories.append(f"class{cls}")
    index = EmbeddingIndex(ent_labels, cat_labels, np.vstack(ent_vecs + cat_vecs))
    gold = GoldLabeling(gold_entities, gold_categories, cat_labels[:])
    return index, gold


class TestRunCategorization:
    def test_separable_embedding_perfect_scores(self):
        index, gold = separable_index()
        report = run_categorization(index, gold, method="both")
        assert report["cluster"]["purity"] == 1.0
        assert report["nn"]["purity"] == 1.0
        assert report["nn"]["accuracy"] == 1.0
        assert report["cluster"]["best_params"]["algorithm"] in ("agglomerative", "kmeans")

    def test_missing_entity_counted(self):
        index, gold = separable_index()
        gold.entities[0] = "not_in_embedding"
        report = run_categorization(index, gold, method="nn")
        assert report["n_excluded"] == 1
        assert report["excluded"] == ["not_in_embedding"]
        assert report["n_scored"] == len(gold) - 1

    def test_no_resolvable_entity_errors(self):
        index, gold = separable_index()
        gold = GoldLabeling(["zzz"], ["class0"], ["class0"])
        with pytest.raises(EvalError):
            run_categorization(index, gold)

    def test_unknown_method_refused(self):
        index, gold = separable_index()
        with pytest.raises(EvalError) as info:
            run_categorization(index, gold, method="knn")
        assert str(info.value) == "method must be cluster, nn or both, got 'knn'"

    def test_clustering_one_gold_class_refused(self):
        index, gold = separable_index()
        gold = gold.subset(range(6))  # the six entities of class0
        assert gold.n_classes == 1
        with pytest.raises(EvalError) as info:
            run_categorization(index, gold, method="cluster")
        assert str(info.value) == "clustering needs at least 2 gold classes"

    def test_no_resolvable_category_errors(self):
        index, gold = separable_index()
        gold = GoldLabeling(gold.entities, ["zzz"] * len(gold), ["zzz"])
        with pytest.raises(EvalError) as info:
            run_categorization(index, gold, method="nn")
        assert str(info.value) == "no gold category resolves to an embedding row"

    def test_class_without_vector_reported_and_left_out(self):
        index, gold = separable_index()
        gold = GoldLabeling(gold.entities, [c if c != "class2" else "y" for c in gold.categories],
                            ["class0", "class1", "y"])
        nn = run_categorization(index, gold, method="nn")["nn"]
        assert nn["missing_categories"] == ["y"]
        assert list(nn["prediction_counts"]) == ["class0", "class1"]  # every entity lands on a class with a vector
        assert sum(nn["prediction_counts"].values()) == len(gold)

    def test_sweep_reports_every_combo(self):
        index, gold = separable_index(per_class=4)
        report = run_categorization(index, gold, method="cluster")
        combos = {(c["algorithm"], c["metric"], c["linkage"]) for c in report["cluster"]["sweep"]}
        assert ("kmeans", "euclidean", None) in combos
        assert ("agglomerative", "euclidean", "ward") in combos
        assert ("agglomerative", "cosine", "ward") not in combos
        assert len(combos) == 7

    def test_sweep_calls_public_entry_points(self, monkeypatch):
        # perfbench's tracer times the sweep by swapping these module attributes
        calls = {}
        for name in ("kmeans", "agglomerative", "nn_classify"):
            def counted(*args, _name=name, _fn=getattr(categorize, name), **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(categorize, name, counted)
        index, gold = separable_index(per_class=4)
        run_categorization(index, gold, method="both")
        assert calls == {"kmeans": 2, "agglomerative": 5, "nn_classify": 1}

    def test_sweep_builds_one_matrix_per_metric(self, monkeypatch):
        built, alive, passed = [], [], []
        real_space, real_agglomerative, real_kmeans = (
            categorize._metric_space, categorize.agglomerative, categorize.kmeans)

        def build(vectors, metric):
            alive.append(sum(ref() is not None for _, ref in built))  # matrices alive before this build
            x, sq = real_space(vectors, metric)
            built.append((metric, weakref.ref(sq)))
            return x, sq

        def agglomerative_spy(sq, k, linkage):
            passed.append(("agglomerative", None, sq.copy()))
            return real_agglomerative(sq, k, linkage)

        def kmeans_spy(x, sq, k, *, seed):
            passed.append(("kmeans", x.copy(), sq.copy()))
            return real_kmeans(x, sq, k, seed=seed)

        monkeypatch.setattr(categorize, "_metric_space", build)
        monkeypatch.setattr(categorize, "agglomerative", agglomerative_spy)
        monkeypatch.setattr(categorize, "kmeans", kmeans_spy)
        index, gold = separable_index(per_class=4)
        report = run_categorization(index, gold, method="cluster")
        assert [metric for metric, _ in built] == ["cosine", "euclidean"]
        assert alive == [0, 0]  # the cosine matrix is freed before the euclidean one is built
        assert [algo for algo, *_ in passed] == ["agglomerative"] * 2 + ["kmeans"] + ["agglomerative"] * 3 + ["kmeans"]
        for (_, x, sq), metric in zip(passed, ["cosine"] * 3 + ["euclidean"] * 4):
            want_x, want_sq = real_space(index.ent_vecs, metric)
            assert np.array_equal(sq, want_sq)
            assert x is None or np.array_equal(x, want_x)
        assert [tuple(c[kk] for kk in ("algorithm", "metric", "linkage")) for c in report["cluster"]["sweep"]] == list(SWEEP)

    def test_sweep_runs_only_read_the_shared_space(self, monkeypatch):
        # every run of a metric gets the same points and matrix, so no run may write them
        runs = []

        def unchanged(name, fn):
            def spy(*args, **kwargs):
                before = [a.tobytes() for a in args if isinstance(a, np.ndarray)]
                result = fn(*args, **kwargs)
                runs.append(name)
                assert [a.tobytes() for a in args if isinstance(a, np.ndarray)] == before, name
                return result
            return spy

        for name in ("kmeans", "agglomerative"):
            monkeypatch.setattr(categorize, name, unchanged(name, getattr(categorize, name)))
        index, gold = separable_index(per_class=5, n_classes=4)
        run_categorization(index, gold, method="cluster")
        assert sorted(runs) == ["agglomerative"] * 5 + ["kmeans"] * 2

    def test_sweep_refuses_oversized_n_before_building(self, monkeypatch):
        index, gold = separable_index(per_class=4)  # n = 12, so two 1152-byte matrices
        monkeypatch.setattr(categorize, "AGGLOMERATIVE_MAX_BYTES", 2 * 12 * 12 * 8)  # exactly at the limit
        assert run_categorization(index, gold, method="cluster")["cluster"]["purity"] == 1.0
        monkeypatch.setattr(categorize, "AGGLOMERATIVE_MAX_BYTES", 2 * 12 * 12 * 8 - 1)
        monkeypatch.setattr(categorize, "_metric_space", lambda *args: pytest.fail("matrix built"))
        with pytest.raises(EvalError) as info:
            run_categorization(index, gold, method="cluster")
        assert str(info.value) == (
            "agglomerative clustering of n=12 items needs two 1152-byte distance matrices, above the 2303-byte limit"
        )

    def test_misclassification_grouped_by_predicted(self):
        # two classes bundled together plus one far entity guarantees a mix-up
        ent_labels = ["a", "b", "c", "d"]
        cat_labels = ["g1", "g2"]
        ent_vecs = np.array([[0.0], [0.1], [0.2], [10.0]])
        cat_vecs = np.array([[0.0], [10.0]])
        index = EmbeddingIndex(ent_labels, cat_labels, np.vstack([ent_vecs, cat_vecs]))
        gold = GoldLabeling(["a", "b", "c", "d"], ["g1", "g2", "g1", "g2"], ["g1", "g2"])
        report = run_categorization(index, gold, method="nn")
        assert report["nn"]["misclassified"] == {"g1": [{"entity": "b", "gold": "g2"}]}


class TestGoldLoader:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "gold.tsv"
        path.write_text("cat\tanimals\ndog\tanimals\ncar\tvehicles\n", encoding="utf-8")
        gold = load_gold(path)
        assert gold.entities == ["cat", "dog", "car"]
        assert gold.class_labels == ["animals", "vehicles"]
        assert gold.n_classes == 2

    def test_class_labels_fold_as_category_lookups_do(self, tmp_path):
        # NN resolves each class with match_category, which folds case; so must the classes
        path = tmp_path / "gold.tsv"
        path.write_text("dog\tanimals\ncat\tAnimals\ncar\tvehicles\nbus\tvehicles\n", encoding="utf-8")
        gold = load_gold(path)
        assert gold.class_labels == ["animals", "vehicles"]
        assert gold.categories == ["animals", "animals", "vehicles", "vehicles"]
        index = EmbeddingIndex(["dog", "cat", "car", "bus"], ["animals", "vehicles"],
                               np.array([[0.0], [0.1], [10.0], [10.1], [0.0], [10.0]]))
        report = run_categorization(index, gold, method="nn")
        assert report["n_classes"] == 2
        assert report["nn"]["accuracy"] == 1.0
        assert report["nn"]["misclassified"] == {}

    def test_field_count_message_names_fields(self, tmp_path):
        path = tmp_path / "gold.tsv"
        path.write_text("cat\tanimals\n\ndog\n", encoding="utf-8")
        with pytest.raises(FormatError, match=r":3: expected 2 tab-separated fields \(entity, category\), got 1$"):
            load_gold(path)

    def test_duplicate_entity_rejected(self, tmp_path):
        path = tmp_path / "gold.tsv"
        path.write_text("cat\tanimals\ncat\tpets\n", encoding="utf-8")
        with pytest.raises(FormatError):
            load_gold(path)

    def test_duplicate_entity_found_as_lookups_fold_labels(self, tmp_path):
        # both lines would score the same embedding row
        path = tmp_path / "gold.tsv"
        path.write_text("p0_l0_e01\tp0_l0\nP0_L0_E01\tp1_l0\n", encoding="utf-8")
        with pytest.raises(FormatError, match=r":2: duplicate entity 'P0_L0_E01'$"):
            load_gold(path)

    @pytest.mark.parametrize("line", ["cat\t \n", " \tanimals\n"])
    def test_empty_label_rejected(self, tmp_path, line):
        path = tmp_path / "g.tsv"
        path.write_text(line, encoding="utf-8")
        with pytest.raises(FormatError) as info:
            load_gold(path)
        assert str(info.value) == f"{path}:1: empty label"

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("\n  \n", encoding="utf-8")
        with pytest.raises(EvalError) as info:
            load_gold(path)
        assert str(info.value) == f"gold file {path} is empty"

    def test_bundled_dota_fixture_shape(self):
        from catembed.cli import dota_gold_path

        gold = load_gold(dota_gold_path())
        assert len(gold) == 450
        assert gold.n_classes == 15
        sizes = {}
        for cat in gold.categories:
            sizes[cat] = sizes.get(cat, 0) + 1
        assert set(sizes.values()) == {30}
