"""Concept categorization: clustering scored with purity, and NN classification.

Clustering is self-contained (k-means++ and bottom-up agglomerative merging)
so results are deterministic given a seed, including tie-breaking, which
external toolkits do not guarantee. The cosine metric runs euclidean machinery
on length-normalized copies of the vectors.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import records
from .embeddings import EmbeddingIndex, scaled_norm
from .errors import EvalError, FormatError

METRICS = ("euclidean", "cosine")
LINKAGES = ("ward", "complete", "average")


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
    if not path.exists():
        raise EvalError(f"gold file not found: {path}")
    entities: list[str] = []
    categories: list[str] = []
    seen: set[str] = set()
    classes: dict[str, None] = {}
    for name, lineno, fields in records(path, ("entity", "category")):
        entity, category = (f.strip() for f in fields)
        if not entity or not category:
            raise FormatError("empty label", name, lineno)
        if entity in seen:
            raise FormatError(f"duplicate entity {entity!r}", name, lineno)
        seen.add(entity)
        entities.append(entity)
        categories.append(category)
        classes.setdefault(category)
    if not entities:
        raise EvalError(f"gold file {path} is empty")
    return GoldLabeling(entities, categories, list(classes))


@dataclass
class ClusteringSolution:
    assignment: np.ndarray  # cluster index per item, in [0, k)
    k: int
    objective: float = float("nan")


def _normalize_rows(x: np.ndarray) -> np.ndarray:
    x, norms = scaled_norm(x)
    norms[norms == 0] = 1.0
    return x / norms


# Differences _pairwise_sq_dists holds at once; 64k was fastest for n = 500,
# d = 100 on a 2-core x86-64 machine, and 8x smaller or larger was slower.
_BLOCK_ELEMENTS = 1 << 16


def _pairwise_sq_dists(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Squared euclidean distance from every row of ``x`` to every row of ``y``.

    Rows of ``x`` are taken in blocks so that memory stays at the (n, m)
    result. Each entry still sums its d squared differences in one contiguous
    reduction, so it is bitwise equal to reducing the full (n, m, d) tensor.
    When ``y is x`` each block is computed against the rows from its own
    first row on and mirrored into the transpose: ``(a - b)**2`` equals
    ``(b - a)**2`` bit for bit, so the matrix is the same at half the work.
    """
    same = y is x
    out = np.empty((len(x), len(y)))
    step = max(1, _BLOCK_ELEMENTS // max(1, y.size))
    # one scratch block for the whole call: allocating each block of a
    # shrinking width anew raised the deep-dag benchmark's peak RSS by 1.5 MB
    buf = np.empty((min(step, len(x)), len(y), x.shape[1]))
    for start in range(0, len(x), step):
        stop, first = start + step, start if same else 0
        diff = buf[:len(x) - start, first:]
        np.subtract(x[start:stop, None, :], y[None, first:, :], out=diff)
        np.square(diff, out=diff)
        diff.sum(axis=2, out=out[start:stop, first:])
        if same:
            out[stop:, start:stop] = out[start:stop, stop:].T
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


def _sq_dists_to_assigned(x: np.ndarray, centers: np.ndarray, assignment: np.ndarray) -> np.ndarray:
    """``_pairwise_sq_dists(x, centers)[i, assignment[i]]`` for every i, bitwise."""
    diff = x - centers[assignment]
    np.square(diff, out=diff)
    return diff.sum(axis=1)


_OVERFLOW = "squared distances between the vectors overflow float64"
# kmeans and agglomerative detect that overflow and raise EvalError(_OVERFLOW);
# numpy's RuntimeWarnings about it would only print ahead of that one line
_QUIET_OVERFLOW = np.errstate(over="ignore", invalid="ignore")


def _kmeanspp_init(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = len(x)
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[rng.integers(n)]
    d2 = _pairwise_sq_dists(x, centers[:1])[:, 0]
    for j in range(1, k):
        total = d2.sum()
        if not np.isfinite(total):
            raise EvalError(_OVERFLOW)
        if total <= 0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centers[j] = x[idx]
        d2 = np.minimum(d2, _pairwise_sq_dists(x, centers[j:j + 1])[:, 0])
    return centers


def _repair_empty(assignment: np.ndarray, d2_assigned: np.ndarray, k: int) -> None:
    """Give every empty cluster the farthest point of a multi-member cluster."""
    sizes = np.bincount(assignment, minlength=k)
    for cluster in range(k):
        while sizes[cluster] == 0:
            eligible = sizes[assignment] > 1
            if not eligible.any():
                raise EvalError("cannot repair empty cluster: all clusters singletons")
            candidates = np.where(eligible)[0]
            steal = candidates[np.argmax(d2_assigned[candidates])]
            sizes[assignment[steal]] -= 1
            assignment[steal] = cluster
            d2_assigned[steal] = 0.0
            sizes[cluster] += 1


@_QUIET_OVERFLOW
def kmeans(
    vectors: np.ndarray,
    k: int,
    metric: str = "euclidean",
    restarts: int = 10,
    max_iters: int = 100,
    seed: int = 0,
) -> ClusteringSolution:
    """Lloyd's algorithm with k-means++ seeding, best of ``restarts`` by inertia."""
    x = np.asarray(vectors, dtype=np.float64)
    n = len(x)
    if k < 1:
        raise EvalError(f"k must be >= 1, got {k}")
    if k > n:
        raise EvalError(f"k={k} exceeds the number of points ({n})")
    if metric not in METRICS:
        raise EvalError(f"metric must be one of {METRICS}, got {metric!r}")
    if restarts < 1:
        raise EvalError(f"restarts must be >= 1, got {restarts}")
    if max_iters < 1:
        raise EvalError(f"max_iters must be >= 1, got {max_iters}")
    if metric == "cosine":
        x = _normalize_rows(x)
    if k == n:
        return ClusteringSolution(assignment=np.arange(n), k=k, objective=0.0)

    rng = np.random.default_rng(seed)
    sq_x = (x * x).sum(axis=1)
    best: ClusteringSolution | None = None
    for _ in range(restarts):
        centers = _kmeanspp_init(x, k, rng)
        assignment = np.full(n, -1, dtype=np.int64)
        for _it in range(max_iters):
            new_assignment = _nearest_centers(x, sq_x, centers)
            d2_assigned = _sq_dists_to_assigned(x, centers, new_assignment)
            _repair_empty(new_assignment, d2_assigned, k)
            if np.array_equal(new_assignment, assignment):
                break
            assignment = new_assignment
            for j in range(k):
                centers[j] = x[assignment == j].mean(axis=0)
        objective = float(_sq_dists_to_assigned(x, centers, assignment).sum())
        if not np.isfinite(objective):
            raise EvalError(_OVERFLOW)
        if best is None or objective < best.objective:
            best = ClusteringSolution(assignment=assignment.copy(), k=k, objective=objective)
    assert best is not None
    return best


# Largest n x n float64 distance matrix agglomerative() builds: 1 GiB, n <= 11,585.
AGGLOMERATIVE_MAX_BYTES = 1 << 30


@_QUIET_OVERFLOW
def agglomerative(
    vectors: np.ndarray,
    k: int,
    metric: str = "euclidean",
    linkage: str = "average",
) -> ClusteringSolution:
    """Bottom-up merging until k clusters; ties go to the smallest slot pair.

    Each merge rescans only the rows whose nearest neighbour it took away,
    so a run is O(n^2) time on typical data rather than O(n^3).
    """
    x = np.asarray(vectors, dtype=np.float64)
    n = len(x)
    if k < 1:
        raise EvalError(f"k must be >= 1, got {k}")
    if k > n:
        raise EvalError(f"k={k} exceeds the number of points ({n})")
    if metric not in METRICS:
        raise EvalError(f"metric must be one of {METRICS}, got {metric!r}")
    if linkage not in LINKAGES:
        raise EvalError(f"linkage must be one of {LINKAGES}, got {linkage!r}")
    if linkage == "ward" and metric != "euclidean":
        raise EvalError("ward linkage requires the euclidean metric")
    if n * n * 8 > AGGLOMERATIVE_MAX_BYTES:
        raise EvalError(
            f"agglomerative clustering of n={n} items needs an {n * n * 8}-byte distance matrix, "
            f"above the {AGGLOMERATIVE_MAX_BYTES}-byte limit"
        )
    if metric == "cosine":
        x = _normalize_rows(x)

    # Initial dissimilarity: squared euclidean for ward (Lance-Williams form),
    # plain euclidean otherwise.
    d = _pairwise_sq_dists(x, x)
    if linkage != "ward":
        np.sqrt(d, out=d)
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
        # Lance-Williams update of the merged row against every other active
        # cluster c at once; elementwise the same arithmetic as one c at a time
        c = np.flatnonzero(active)
        c = c[(c != i) & (c != j)]
        di, dj = d[i, c], d[j, c]
        if linkage == "average":
            d_new = (a * di + b * dj) / (a + b)
        elif linkage == "complete":
            d_new = np.maximum(di, dj)
        else:  # ward
            cc = sizes[c]
            d_new = ((a + cc) * di + (b + cc) * dj - cc * d[i, j]) / (a + b + cc)
        d[i, c] = d_new
        d[c, i] = d_new
        members[i].extend(members[j])
        sizes[i] += sizes[j]
        active[j] = False
        d[j, :] = np.inf
        d[:, j] = np.inf
        mind[j] = np.inf
        # rows whose neighbour was i or j rescan; any other row compares its
        # new distance to i with its cached minimum, the lower column winning ties
        stale = (nn[c] == i) | (nn[c] == j)
        rest, d_rest = c[~stale], d_new[~stale]
        closer = (d_rest < mind[rest]) | ((d_rest == mind[rest]) & (i < nn[rest]))
        nn[rest[closer]] = i
        mind[rest[closer]] = d_rest[closer]
        rescan = np.append(c[stale], i)
        nn[rescan] = d[rescan].argmin(axis=1)
        mind[rescan] = d[rescan, nn[rescan]]

    assignment = np.empty(n, dtype=np.int64)
    for cluster, slot in enumerate(np.where(active)[0]):
        assignment[members[slot]] = cluster
    return ClusteringSolution(assignment=assignment, k=k)


def purity(solution: ClusteringSolution, gold: GoldLabeling) -> float:
    """Fraction of items sitting in their cluster's majority gold class."""
    classes = gold.class_indices()
    return purity_from_labels(solution.assignment, classes)


def purity_from_labels(assignment: np.ndarray, classes: np.ndarray) -> float:
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


def nn_classify(entity_vecs: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """Per entity row, the index of the candidate category vector nearest in euclidean distance."""
    if len(candidates) < 1:
        raise EvalError("nn_classify needs at least one candidate")
    return _pairwise_sq_dists(entity_vecs, candidates).argmin(axis=1)  # first minimum: lowest index on ties


def _sweep_combos() -> list[tuple[str, str, str | None]]:
    combos: list[tuple[str, str, str | None]] = []
    for metric in METRICS:
        for link in LINKAGES:
            if link == "ward" and metric != "euclidean":
                continue
            combos.append(("agglomerative", metric, link))
    for metric in METRICS:
        combos.append(("kmeans", metric, None))
    return sorted(combos, key=lambda c: (c[0], c[1], c[2] or ""))


def run_categorization(
    index: EmbeddingIndex,
    gold: GoldLabeling,
    method: str = "both",
    restarts: int = 10,
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

    resolved: list[int] = []
    excluded: list[str] = []
    rows: list[int] = []
    for i, label in enumerate(gold.entities):
        row = index.match_entity(label)
        if row is None:
            excluded.append(label)
        else:
            resolved.append(i)
            rows.append(row)
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
        combos = []
        for algo, metric, link in _sweep_combos():
            if algo == "kmeans":
                sol = kmeans(vectors, sub.n_classes, metric=metric, restarts=restarts, seed=seed)
            else:
                sol = agglomerative(vectors, sub.n_classes, metric=metric, linkage=link)
            combos.append({
                "algorithm": algo,
                "metric": metric,
                "linkage": link,
                "purity": purity(sol, sub),
                "solution": sol,
            })
        best = max(combos, key=lambda c: c["purity"])  # max keeps the first on ties
        best_sol = best["solution"]
        report["cluster"] = {
            "purity": best["purity"],
            "best_params": {kk: best[kk] for kk in ("algorithm", "metric", "linkage")},
            "sweep": [
                {kk: c[kk] for kk in ("algorithm", "metric", "linkage", "purity")}
                for c in combos
            ],
            "misclassified": _cluster_misclassifications(best_sol, sub),
        }

    if method in ("nn", "both"):
        cand_rows: list[int] = []
        cand_labels: list[str] = []
        missing_cats: list[str] = []
        for cat in sub.class_labels:
            row = index.match_category(cat)
            if row is None:
                missing_cats.append(cat)
            else:
                cand_rows.append(row)
                cand_labels.append(cat)
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


def _misclassifications(predicted: list[str], gold: GoldLabeling) -> dict[str, list[dict]]:
    """Entities wrongly pulled into each predicted category, in gold order."""
    by_predicted: dict[str, list[dict]] = {}
    for entity, gold_cat, pred in zip(gold.entities, gold.categories, predicted):
        if pred != gold_cat:
            by_predicted.setdefault(pred, []).append({"entity": entity, "gold": gold_cat})
    return by_predicted


def _cluster_misclassifications(solution: ClusteringSolution, gold: GoldLabeling) -> dict[str, list[dict]]:
    """Map each cluster to its majority class, then list the out-of-class items, cluster by cluster."""
    rows, counts = _contingency(solution.assignment, gold.class_indices())
    majority = counts.argmax(axis=1)  # argmax keeps the lowest class on ties
    order = np.argsort(rows, kind="stable")  # cluster first, then item index
    return _misclassifications([gold.class_labels[majority[rows[i]]] for i in order], gold.subset(order))
