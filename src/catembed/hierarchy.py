"""Downward step distances over an entity's ancestors, and category prediction weights.

The hierarchical model weights each weighted category c_i of an entity by
``1 / (1 + l(c_i))`` where ``l`` is the average length, in edges, of all
downward paths from c_i to the entity's direct categories; weights are then
normalized to sum to 1. Direct categories have ``l = 0`` (the +1 keeps the
reciprocal defined there). The flat model instead uses the direct categories
only, each with weight exactly 1.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .corpus import CategoryGraph
from .errors import HierarchyError

WEIGHT_SUM_TOL = 1e-9


@dataclass
class AncestorWeights:
    """Per-entity category weights, ordered by ascending category index."""

    categories: tuple[int, ...]
    weights: np.ndarray  # float64, parallel to categories

    def __len__(self) -> int:
        return len(self.categories)

    def check_normalized(self) -> None:
        if len(self.categories) != len(set(self.categories)):
            raise HierarchyError("duplicate categories in weight list")
        if np.any(self.weights <= 0):
            raise HierarchyError("non-positive category weight")
        total = float(self.weights.sum())
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise HierarchyError(f"weights sum to {total!r}, expected 1.0")


def steps_down(graph: CategoryGraph, direct: Iterable[int]) -> dict[int, float]:
    """Mean downward steps to ``direct`` from every weighted category of an entity.

    The keys are the direct categories plus all their transitive ancestors,
    excluding the root: the root ancestors every entity and carries no
    discriminative signal, so it never receives a weight even when it labels
    an entity directly. A direct category maps to 0.0; any other key maps to
    the mean length, in edges, of all downward paths from it to a member of
    ``direct``. Only the ancestor closure of ``direct`` is walked; the graph
    is acyclic by construction, so the walk needs no cycle check.
    """
    direct = set(direct)
    if not direct:
        raise HierarchyError("entity has no direct categories")
    for cat in direct:
        if cat not in graph:
            raise HierarchyError(f"category {cat} not in graph")
    # The ancestor closure, visited in descending rank: every category comes
    # after all of its children, so its counts are complete when it is reached.
    parents_of = graph.parents
    closure = set(direct)
    stack = list(direct)
    while stack:
        for parent in parents_of[stack.pop()]:
            if parent not in closure:
                closure.add(parent)
                stack.append(parent)
    order = sorted(closure, key=graph.rank.__getitem__, reverse=True)
    # n[v]: downward paths from v ending in ``direct`` (a direct v contributes
    # its zero-length path); s[v]: their summed length in edges.
    n = {node: int(node in direct) for node in order}
    s = dict.fromkeys(order, 0)
    for node in order:
        for parent in parents_of[node]:
            n[parent] += n[node]
            s[parent] += s[node] + n[node]
    return {c: 0.0 if c in direct else s[c] / n[c] for c in order if c != graph.root}


def category_weights(steps: Mapping[int, float]) -> AncestorWeights:
    """Normalized ``1 / (1 + steps)`` weights over an entity's weighted categories.

    ``steps`` is the result of :func:`steps_down`. Closer categories (fewer
    average downward steps) receive strictly larger weight; the result sums to 1.
    """
    if not steps:
        raise HierarchyError("no weighted categories (directly labeled with the root only)")
    cats = tuple(sorted(steps))
    raw = np.array([1.0 / (1.0 + steps[c]) for c in cats], dtype=np.float64)
    out = AncestorWeights(categories=cats, weights=raw / raw.sum())
    out.check_normalized()
    return out


def ce_weights(direct: Iterable[int]) -> AncestorWeights:
    """Direct categories only, each with weight exactly 1 (unnormalized)."""
    cats = tuple(sorted(set(direct)))
    if not cats:
        raise HierarchyError("entity has no direct categories")
    return AncestorWeights(categories=cats, weights=np.ones(len(cats), dtype=np.float64))


def weight_csr(
    graph: CategoryGraph,
    entity_categories: Mapping[int, tuple[int, ...]],
    entity_labels: Sequence[str],
    mode: str,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flatten per-entity weights into CSR arrays for the training kernel.

    Computed once at training start from the direct categories of each entity
    (``Corpus.entity_categories``), for one entity per label in
    ``entity_labels``. Entities without a labeling (context-only entities)
    get an empty slice. A weight failure raises :class:`HierarchyError`
    naming the entity by its label.

    Returns ``(offsets, cat_ids, cat_ws)`` where entity e's categories live in
    ``cat_ids[offsets[e]:offsets[e+1]]``.
    """
    if mode not in ("ce", "hce"):
        raise HierarchyError(f"unknown mode {mode!r}")
    offsets = np.zeros(len(entity_labels) + 1, dtype=np.int64)
    ids: list[int] = []
    ws: list[float] = []
    for ent, label in enumerate(entity_labels):
        direct = entity_categories.get(ent)
        if direct:
            try:
                aw = category_weights(steps_down(graph, direct)) if mode == "hce" else ce_weights(direct)
            except HierarchyError as exc:
                raise HierarchyError(f"entity {label!r}: {exc}") from exc
            ids.extend(aw.categories)
            ws.extend(aw.weights)
        offsets[ent + 1] = len(ids)
    return offsets, np.asarray(ids, dtype=np.int64), np.asarray(ws, dtype=np.float64)
