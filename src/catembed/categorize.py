"""Concept categorization: clustering scored with purity, and NN classification.

Clustering is self-contained (k-means++ and bottom-up agglomerative merging)
so results are deterministic given a seed, including tie-breaking, which
external toolkits do not guarantee. Both algorithms run on points and their
squared euclidean distance matrix, which ``run_categorization`` prepares once
per metric with ``_metric_space``; the cosine metric is euclidean machinery on
length-normalized copies of the vectors.

NN classification and each k-means assignment step find nearest rows with one
routine, ``_nearest_centers``: a matrix-product filter with a proven rounding
bound, the exact distances of the rows the bound cannot decide, and the lowest
index on ties.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import normalize_label, records
from .embeddings import EmbeddingIndex, unit_rows
from .errors import EvalError, FormatError

LINKAGES = ("ward", "complete", "average")
# run_categorization's (algorithm, metric, linkage) runs, in report order;
# it runs them metric by metric, so that each metric's runs share one matrix
SWEEP = (
    ("agglomerative", "cosine", "average"),
    ("agglomerative", "cosine", "complete"),
    ("agglomerative", "euclidean", "average"),
    ("agglomerative", "euclidean", "complete"),
    ("agglomerative", "euclidean", "ward"),
    ("kmeans", "cosine", None),
    ("kmeans", "euclidean", None),
)


@dataclass
class GoldLabeling:
    """Gold concept -> category assignment; one line per concept on disk."""

    entities: list[str]
    categories: list[str]  # parallel to entities
    class_labels: list[str]  # unique categories, first-seen order

    def __len__(self) -> int:
        return len(self.entities)

    @property
    def n_classes(self) -> int:
        return len(self.class_labels)

    def class_indices(self) -> np.ndarray:
        lookup = {lab: i for i, lab in enumerate(self.class_labels)}
        return np.array([lookup[c] for c in self.categories], dtype=np.int64)

    def subset(self, keep: Iterable[int]) -> "GoldLabeling":
        keep = list(keep)
        ents = [self.entities[i] for i in keep]
        cats = [self.categories[i] for i in keep]
        classes = list(dict.fromkeys(cats))
        return GoldLabeling(ents, cats, classes)


def load_gold(path: str | Path) -> GoldLabeling:
    path = Path(path)
    entities: list[str] = []
    categories: list[str] = []
    seen: set[str] = set()
    classes: dict[str, str] = {}  # folded class label -> its first spelling, which names the class
    for name, lineno, fields in records(path, ("entity", "category")):
        entity, category = (f.strip() for f in fields)
        if not entity or not category:
            raise FormatError("empty label", name, lineno)
        key = normalize_label(entity)  # the folding entity lookups use
        if key in seen:
            raise FormatError(f"duplicate entity {entity!r}", name, lineno)
        seen.add(key)
        entities.append(entity)
        categories.append(classes.setdefault(normalize_label(category), category))
    if not entities:
        raise EvalError(f"gold file {path} is empty")
    return GoldLabeling(entities, categories, list(classes.values()))


@dataclass
class ClusteringSolution:
    assignment: np.ndarray  # cluster index per item, in [0, k)
    objective: float = float("nan")


def _pairwise_sq_dists(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Squared euclidean distance from every row of ``x`` to every row of ``y``.

    One row of ``x`` is taken at a time, in one scratch buffer of ``y``'s
    shape, so memory stays at the (n, m) result. Each entry sums its d
    squared differences in one contiguous reduction, bitwise equal to
    reducing the full (n, m, d) tensor. When ``y is x`` each row is computed
    from its own index on and mirrored into its column (``(a - b)**2`` equals
    ``(b - a)**2`` bit for bit), the same matrix at half the work.
    """
    same = y is x
    out = np.empty((len(x), len(y)))
    buf = np.empty(y.shape)
    for i, row in enumerate(x):
        first = i if same else 0
        diff = buf[first:]
        np.subtract(row, y[first:], out=diff)
        np.square(diff, out=diff)
        diff.sum(axis=1, out=out[i, first:])
        if same:
            out[i + 1:, i] = out[i, i + 1:]
    return out


_U = 2.0**-53  # unit roundoff of float64
_TINY = 2.0**-1021  # _U * _TINY is the smallest subnormal, 2**-1074


def _nearest_centers(x: np.ndarray, sq_x: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Per row of ``x``, the first argmin of its row of ``_pairwise_sq_dists(x, centers)``.

    Filter: one matmul gives ``approx = |x|^2 + |c|^2 - 2 x.c`` (``sq_x`` holds
    ``|x|^2``). With u = 2^-53 and g_m = mu / (1 - mu), a length-d dot product
    summed in any order errs by at most g_d times the dot product of the
    absolute values (Higham, Accuracy and Stability of Numerical Algorithms,
    3.1), so the three reductions err by g_d |x|^2, g_d |c|^2 and
    g_d |x||c|, and the two additions by at most (2 + u)(1 + g_d) u
    (|x| + |c|)^2: ``|approx - e| <= (g_d + 2.01u)(|x| + |c|)^2``, with e the
    real squared distance. The exact value ``ref`` rounds each difference and
    its square (g_3), then sums d terms (g_(d-1)): ``|ref - e| <= g_(d+2) e``,
    and ``e <= (|x| + |c|)^2``. So ``|approx - ref| <= 1.01 (2d + 4) u
    (|x| + |c|)^2`` for any d below 10^13, less than a third of
    ``tol = 8(d + 4) u ((|x| + |c|)^2 + 2^-1021)``; the margin covers the
    rounding of the norms, of tol and of ``approx -/+ tol``. The absolute
    term covers underflow: each of the 5d products above can lose at most
    2^-1075 outright, which no relative bound sees.

    Refine: ``ref_j`` lies in ``approx_j -/+ tol_j``, so every j with
    ``approx_j - tol_j > min_l(approx_l + tol_l) >= min_l ref_l`` is strictly
    farther than the nearest center, and the candidates (every other j) hold
    each index tied at the minimum. A row with one candidate is done. Any
    other row, or a row whose approx or tol is not finite, takes the first
    argmin of its exact row, which is the first argmin over its candidates.
    """
    sq_c = (centers * centers).sum(axis=1)
    approx = sq_x[:, None] + sq_c[None, :] - 2.0 * (x @ centers.T)
    scale = np.sqrt(sq_x)[:, None] + np.sqrt(sq_c)[None, :]
    tol = (8 * (x.shape[1] + 4) * _U) * (scale * scale + _TINY)
    upper = approx + tol
    candidate = approx - tol <= upper.min(axis=1, keepdims=True)
    nearest = candidate.argmax(axis=1)
    exact = np.flatnonzero((candidate.sum(axis=1) != 1) | ~np.isfinite(upper).all(axis=1))
    nearest[exact] = _pairwise_sq_dists(x[exact], centers).argmin(axis=1)
    return nearest


def _row_sq_dists(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Squared euclidean distance from each row of ``x`` to ``y``: one row, or one row per row of ``x``.

    Each entry sums its d squared differences in one contiguous reduction, so
    it is bitwise the entry ``_pairwise_sq_dists`` gives for the same two rows.
    """
    diff = x - y
    np.square(diff, out=diff)
    return diff.sum(axis=1)


_OVERFLOW = "squared distances between the vectors overflow float64"
# kmeans, agglomerative and nn_classify detect that overflow and raise EvalError(_OVERFLOW);
# numpy's RuntimeWarnings about it, there or in _metric_space, would only print ahead of that one line
_QUIET_OVERFLOW = np.errstate(over="ignore", invalid="ignore")


@_QUIET_OVERFLOW
def _metric_space(vectors: np.ndarray, metric: str) -> tuple[np.ndarray, np.ndarray]:
    """``(x, sq_dists)``: the points the clustering of ``metric`` runs on, and their squared distances.

    ``x`` holds the rows as C-contiguous float64, scaled to unit length by
    :func:`unit_rows` for cosine, and ``sq_dists`` is ``_pairwise_sq_dists(x, x)``.
    """
    x = np.ascontiguousarray(vectors, dtype=np.float64)
    if metric == "cosine":
        x, _ = unit_rows(x)
    return x, _pairwise_sq_dists(x, x)


def _kmeanspp_init(x: np.ndarray, sq_dists: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeds; every seed is a point, so its distances are its row of ``sq_dists``."""
    n = len(x)
    centers = np.empty((k, x.shape[1]))
    idx = int(rng.integers(n))
    centers[0] = x[idx]
    d2 = sq_dists[idx]
    for j in range(1, k):
        total = d2.sum()
        if not np.isfinite(total):
            raise EvalError(_OVERFLOW)
        if total <= 0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centers[j] = x[idx]
        d2 = np.minimum(d2, sq_dists[idx])
    return centers


def _repair_empty(assignment: np.ndarray, d2_assigned: np.ndarray, k: int) -> np.ndarray:
    """Give every empty cluster the farthest point of a multi-member cluster; return the cluster sizes.

    ``d2_assigned[i]`` is point i's squared distance to its assigned center.
    Empty clusters are filled in index order, each by the point farthest from
    its center among the points of clusters that keep a member, the first
    such point on ties. ``kmeans`` calls it only when a cluster is empty and
    only with more points than clusters (k < n), so the n points sit in at
    most k - 1 clusters and one of them always holds two.
    """
    sizes = np.bincount(assignment, minlength=k)
    for cluster in range(k):
        while sizes[cluster] == 0:
            candidates = np.flatnonzero(sizes[assignment] > 1)
            steal = candidates[np.argmax(d2_assigned[candidates])]
            sizes[assignment[steal]] -= 1
            assignment[steal] = cluster
            d2_assigned[steal] = 0.0
            sizes[cluster] += 1
    return sizes


def _update_centers(centers: np.ndarray, x: np.ndarray, assignment: np.ndarray, sizes: np.ndarray,
                    index: np.ndarray) -> None:
    """Set every ``centers[j]`` to ``x[assignment == j].mean(axis=0)``, bitwise.

    ``sizes`` counts the points per cluster, none of them 0; ``centers`` and
    ``x`` are C-contiguous and ``index`` is a work buffer of ``x``'s shape, int64.
    For d >= 2 that mean sums its rows one at a time in item order, starting
    from 0.0, then divides by the count. One ``np.add.at`` over the flat
    centers, at ``assignment * d + col``, adds the rows in that same order.
    For d = 1 numpy sums the column pairwise, so the mean is taken per cluster.
    """
    d = x.shape[1]
    if d == 1:
        for j in range(len(centers)):
            centers[j] = x[assignment == j].mean(axis=0)
        return
    np.add((assignment * d)[:, None], np.arange(d), out=index)
    centers.fill(0.0)
    # 1-d index and values take numpy's fast path; 2-d ones ran ~5x slower
    np.add.at(centers.reshape(-1), index.reshape(-1), x.reshape(-1))
    centers /= sizes[:, None]


@_QUIET_OVERFLOW
def kmeans(
    x: np.ndarray,
    sq_dists: np.ndarray,
    k: int,
    restarts: int = 10,
    max_iters: int = 100,
    seed: int = 0,
) -> ClusteringSolution:
    """Lloyd's algorithm with k-means++ seeding, best of ``restarts`` by inertia.

    A Lloyd step assigns each point to its nearest center (``_nearest_centers``),
    repairs empty clusters only when ``np.bincount`` finds one, and recomputes
    every center as the mean of its points with one ``np.add.at``
    (``_update_centers``), bitwise the per-cluster mean.

    ``x`` and ``sq_dists`` are ``_metric_space``'s points and distances; both
    are only read.
    """
    n = len(x)
    if k < 1:
        raise EvalError(f"k must be >= 1, got {k}")
    if k > n:
        raise EvalError(f"k={k} exceeds the number of points ({n})")
    if restarts < 1:
        raise EvalError(f"restarts must be >= 1, got {restarts}")
    if max_iters < 1:
        raise EvalError(f"max_iters must be >= 1, got {max_iters}")
    if k == n:
        return ClusteringSolution(assignment=np.arange(n), objective=0.0)

    rng = np.random.default_rng(seed)
    sq_x = (x * x).sum(axis=1)
    index = np.empty(x.shape, dtype=np.int64)  # every Lloyd step's scatter index, built in place
    best: ClusteringSolution | None = None
    for _ in range(restarts):
        centers = _kmeanspp_init(x, sq_dists, k, rng)
        assignment = np.full(n, -1, dtype=np.int64)
        for _it in range(max_iters):
            new_assignment = _nearest_centers(x, sq_x, centers)
            sizes = np.bincount(new_assignment, minlength=k)
            if not sizes.all():
                sizes = _repair_empty(new_assignment, _row_sq_dists(x, centers[new_assignment]), k)
            if np.array_equal(new_assignment, assignment):
                break
            assignment = new_assignment
            _update_centers(centers, x, assignment, sizes, index)
        objective = float(_row_sq_dists(x, centers[assignment]).sum())
        if not np.isfinite(objective):
            raise EvalError(_OVERFLOW)
        if best is None or objective < best.objective:
            best = ClusteringSolution(assignment=assignment.copy(), objective=objective)
    assert best is not None
    return best


# Most bytes of n x n float64 distance matrices run_categorization's sweep holds
# at once, a shared matrix and an agglomerative run's working copy: 1 GiB, so
# n <= 8,192.
AGGLOMERATIVE_MAX_BYTES = 1 << 30


@_QUIET_OVERFLOW
def agglomerative(sq_dists: np.ndarray, k: int, linkage: str = "average") -> ClusteringSolution:
    """Bottom-up merging until k clusters; ties go to the smallest slot pair.

    Each merge updates the merged row and column whole, retired slots
    included, and rescans only the rows whose nearest neighbour it took away,
    so a run is O(n^2) time on typical data rather than O(n^3).

    ``sq_dists`` is ``_metric_space``'s distance matrix, so that runs of
    several linkages share one build; it is only read, and the run merges on
    its own copy, so two n x n matrices are held at once.
    """
    n = len(sq_dists)
    if k < 1:
        raise EvalError(f"k must be >= 1, got {k}")
    if k > n:
        raise EvalError(f"k={k} exceeds the number of points ({n})")
    if linkage not in LINKAGES:
        raise EvalError(f"linkage must be one of {LINKAGES}, got {linkage!r}")

    # Initial dissimilarity: squared euclidean for ward (Lance-Williams form),
    # plain euclidean otherwise.
    d = sq_dists.copy() if linkage == "ward" else np.sqrt(sq_dists)
    np.fill_diagonal(d, np.inf)

    # Müllner's "generic" algorithm (arXiv:1109.2378): per row, the first
    # argmin column nn and its value mind, kept exact through every merge.
    nn = d.argmin(axis=1)
    mind = d[np.arange(n), nn]
    active = np.ones(n, dtype=bool)
    sizes = np.ones(n, dtype=np.int64)
    members: list[list[int]] = [[i] for i in range(n)]

    for _ in range(n - k):
        # the first row holding the global minimum and that row's first
        # argmin: the lexicographically smallest (i, j) slot pair, as a
        # row-major argmin over the whole matrix finds it. d stays symmetric,
        # so row j holds the same minimum and j > i.
        i = int(np.argmin(mind))
        if not np.isfinite(mind[i]):
            raise EvalError(_OVERFLOW)
        j = int(nn[i])
        a, b = sizes[i], sizes[j]
        # Lance-Williams update of the merged row against every slot at once;
        # elementwise the same arithmetic as one active cluster c at a time.
        # Retired slots hold inf in rows i and j, and so do columns i and j
        # (the diagonal and the finite d[i, j] meet inf), so they stay inf.
        di, dj = d[i], d[j]
        if linkage == "average":
            d_new = (a * di + b * dj) / (a + b)
        elif linkage == "complete":
            d_new = np.maximum(di, dj)
        else:  # ward
            d_new = ((a + sizes) * di + (b + sizes) * dj - sizes * d[i, j]) / (a + b + sizes)
        d[i] = d_new
        d[:, i] = d_new
        members[i].extend(members[j])
        sizes[i] += sizes[j]
        active[j] = False
        d[j] = np.inf
        d[:, j] = np.inf
        # a retired slot has no neighbour: it is never stale, and at inf it
        # never takes i as closer
        nn[j], mind[j] = -1, np.inf
        # rows whose neighbour was i or j, row i among them, rescan; every
        # other row compares its new distance to i with its cached minimum,
        # the lower column winning ties (the rescan overwrites stale rows)
        rescan = np.flatnonzero((nn == i) | (nn == j))
        closer = (d_new < mind) | ((d_new == mind) & (i < nn))
        nn[closer] = i
        mind[closer] = d_new[closer]
        nn[rescan] = d[rescan].argmin(axis=1)
        mind[rescan] = d[rescan, nn[rescan]]

    assignment = np.empty(n, dtype=np.int64)
    for cluster, slot in enumerate(np.where(active)[0]):
        assignment[members[slot]] = cluster
    return ClusteringSolution(assignment=assignment)


def purity_from_labels(assignment: np.ndarray, classes: np.ndarray) -> float:
    """Fraction of items sitting in their cluster's majority gold class."""
    if len(assignment) != len(classes):
        raise EvalError(
            f"solution covers {len(assignment)} items, gold has {len(classes)}"
        )
    n = len(assignment)
    if n == 0:
        raise EvalError("empty clustering")
    return int(_contingency(assignment, classes)[1].max(axis=1).sum()) / n


def _contingency(assignment: np.ndarray, classes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(row per item, cluster x class counts)``; the rows follow ``np.unique(assignment)``."""
    _, rows = np.unique(assignment, return_inverse=True)
    n_classes = int(classes.max()) + 1
    counts = np.bincount(rows * n_classes + classes, minlength=(int(rows.max()) + 1) * n_classes)
    return rows, counts.reshape(-1, n_classes)


@_QUIET_OVERFLOW
def nn_classify(entity_vecs: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """Per entity row, the index of the candidate category vector nearest in euclidean distance.

    The nearest row is the first argmin of the exact squared distances, so
    the lowest index wins a tie; ``_nearest_centers`` finds it, as it does
    for each Lloyd step of ``kmeans``.
    """
    if len(candidates) < 1:
        raise EvalError("nn_classify needs at least one candidate")
    nearest = _nearest_centers(entity_vecs, (entity_vecs * entity_vecs).sum(axis=1), candidates)
    # argmin picks a row's first NaN, so a chosen distance is not finite when its row holds a NaN or no finite value
    if not np.isfinite(_row_sq_dists(entity_vecs, candidates[nearest])).all():
        raise EvalError(_OVERFLOW)
    return nearest


def run_categorization(
    index: EmbeddingIndex,
    gold: GoldLabeling,
    method: str = "both",
    seed: int = 0,
) -> dict:
    """Score an embedding against a gold labeling.

    ``cluster`` sweeps every clustering algorithm/metric/linkage combination
    with k equal to the number of gold classes and reports the best purity
    with its winning parameters; ``nn`` assigns each concept to the nearest
    candidate category vector. Gold entities missing from the embedding are
    excluded and counted.
    """
    if method not in ("cluster", "nn", "both"):
        raise EvalError(f"method must be cluster, nn or both, got {method!r}")

    resolved, rows, excluded = _resolve(gold.entities, index.match_entity)
    if not resolved:
        raise EvalError("no gold entity resolves to an embedding row")
    sub = gold.subset(resolved)
    vectors = index.ent_vecs[rows]
    classes = sub.class_indices()

    report: dict = {
        "n_gold": len(gold),
        "n_scored": len(sub),
        "n_excluded": len(excluded),
        "excluded": excluded,
        "n_classes": sub.n_classes,
    }

    if method in ("cluster", "both"):
        if sub.n_classes < 2:
            raise EvalError("clustering needs at least 2 gold classes")
        # every run of one metric shares its points and distance matrix; only
        # one shared matrix is alive at a time, next to an agglomerative run's
        # working copy
        n = len(vectors)
        if 2 * n * n * 8 > AGGLOMERATIVE_MAX_BYTES:
            raise EvalError(f"agglomerative clustering of n={n} items needs two {n * n * 8}-byte distance "
                            f"matrices, above the {AGGLOMERATIVE_MAX_BYTES}-byte limit")
        purity, assignment = {}, {}  # per SWEEP run
        for metric in ("cosine", "euclidean"):
            x, sq_dists = _metric_space(vectors, metric)
            for run in (run for run in SWEEP if run[1] == metric):
                algo, _, link = run
                if algo == "kmeans":
                    sol = kmeans(x, sq_dists, sub.n_classes, seed=seed)
                else:
                    sol = agglomerative(sq_dists, sub.n_classes, link)
                purity[run] = purity_from_labels(sol.assignment, classes)
                assignment[run] = sol.assignment
            del x, sq_dists  # freed before the next metric's matrix is built
        best = max(SWEEP, key=purity.__getitem__)  # max keeps the first on ties
        params = ("algorithm", "metric", "linkage")
        report["cluster"] = {
            "purity": purity[best],
            "best_params": dict(zip(params, best)),
            "sweep": [{**dict(zip(params, run)), "purity": purity[run]} for run in SWEEP],
            "misclassified": _cluster_misclassifications(assignment[best], classes, sub),
        }

    if method in ("nn", "both"):
        found, cand_rows, missing_cats = _resolve(sub.class_labels, index.match_category)
        cand_labels = [sub.class_labels[i] for i in found]
        if not cand_labels:
            raise EvalError("no gold category resolves to an embedding row")
        nearest = nn_classify(vectors, index.cat_vecs[cand_rows])
        predicted = [cand_labels[j] for j in nearest]
        accuracy = float(np.mean([p == g for p, g in zip(predicted, sub.categories)]))
        counts = dict(zip(cand_labels, np.bincount(nearest, minlength=len(cand_labels)).tolist()))
        report["nn"] = {
            "purity": purity_from_labels(nearest, classes),
            "accuracy": accuracy,
            "missing_categories": missing_cats,
            "prediction_counts": counts,  # a single dominant category signals hubness
            "misclassified": _misclassifications(predicted, sub),
        }
    return report


def _resolve(labels: list[str], match: Callable[[str], int | None]) -> tuple[list[int], list[int], list[str]]:
    """``(positions, rows, missing)``: the positions in ``labels`` that ``match`` finds, their rows, the rest."""
    matched = [match(label) for label in labels]
    positions = [i for i, row in enumerate(matched) if row is not None]
    return positions, [matched[i] for i in positions], [lab for lab, row in zip(labels, matched) if row is None]


def _misclassifications(predicted: list[str], gold: GoldLabeling) -> dict[str, list[dict]]:
    """Entities wrongly pulled into each predicted category, in gold order."""
    by_predicted: dict[str, list[dict]] = {}
    for entity, gold_cat, pred in zip(gold.entities, gold.categories, predicted):
        if pred != gold_cat:
            by_predicted.setdefault(pred, []).append({"entity": entity, "gold": gold_cat})
    return by_predicted


def _cluster_misclassifications(assignment: np.ndarray, classes: np.ndarray,
                                gold: GoldLabeling) -> dict[str, list[dict]]:
    """Map each cluster to its majority class, then list the out-of-class items, cluster by cluster."""
    rows, counts = _contingency(assignment, classes)
    majority = counts.argmax(axis=1)  # argmax keeps the lowest class on ties
    order = np.argsort(rows, kind="stable")  # cluster first, then item index
    return _misclassifications([gold.class_labels[majority[rows[i]]] for i in order], gold.subset(order))
