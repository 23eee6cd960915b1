"""Downward step distances over an entity's ancestors, and category prediction weights.

The hierarchical model weights each weighted category c_i of an entity by
``1 / (1 + l(c_i))`` where ``l`` is the average length, in edges, of all
downward paths from c_i to the entity's direct categories; weights are then
normalized to sum to 1. Direct categories have ``l = 0`` (the +1 keeps the
reciprocal defined there). The flat model instead uses the direct categories
only, each with weight exactly 1.

Path statistics add up over the direct set: the number of downward paths
from c_i to a set D, and their summed length, are the sums over d in D of the
same figures for d alone. So :func:`steps_down` and :func:`weight_csr` walk
the ancestors of each distinct direct category once and sum the walks per
entity. The counts are exact integers, so the order of the sum does not
matter.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
import heapq
from itertools import chain

import numpy as np

from .corpus import CategoryGraph, csr_offsets, slice_index
from .errors import HierarchyError

MODES = ("ce", "hce")
WEIGHT_SUM_TOL = 1e-9
_ROOT_ONLY = "no weighted categories (directly labeled with the root only)"


def _checked_direct(graph: CategoryGraph, direct: Iterable[int]) -> set[int]:
    direct = set(direct)
    if not direct:
        raise HierarchyError("entity has no direct categories")
    for cat in direct:
        if cat not in graph:
            raise HierarchyError(f"category {cat} not in graph")
    return direct


def _ancestor_paths(graph: CategoryGraph, cat: int) -> tuple[list[int], list[int], list[int]]:
    """``cat`` and all its ancestors, root included, with their downward paths to ``cat``.

    Returns parallel lists ``(nodes, n, s)``: ``n[i]`` counts the downward
    paths from ``nodes[i]`` to ``cat`` and ``s[i]`` sums their lengths in
    edges. ``nodes`` starts with ``cat`` itself (its zero-length path: n 1,
    s 0). Only the ancestor closure is walked; the graph is acyclic by
    construction, so the walk needs no cycle check.
    """
    parents_of, rank = graph.parents, graph.rank
    n = {cat: 1}
    s = {cat: 0}
    # Highest rank first: a node's children all rank above it, so each is
    # popped, and has added its counts to the node, before the node is.
    heap = [(-rank[cat], cat)]
    while heap:
        node = heapq.heappop(heap)[1]
        count = n[node]
        length = s[node] + count
        for parent in parents_of[node]:
            if parent in n:
                n[parent] += count
                s[parent] += length
            else:
                n[parent] = count
                s[parent] = length
                heapq.heappush(heap, (-rank[parent], parent))
    return list(n), list(n.values()), list(s.values())


def _steps_csr(graph: CategoryGraph, direct_sets: Sequence[set[int]]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`steps_down` for many checked direct sets at once, as CSR arrays.

    Set j's weighted categories, ascending, are ``cats[offsets[j]:offsets[j+1]]``
    and ``steps`` holds their mean downward steps at the same positions.
    Each distinct direct category is walked once.
    """
    direct_cats = sorted(set().union(*direct_sets))
    walks = [_ancestor_paths(graph, cat) for cat in direct_cats]
    walk_len = np.array([len(nodes) for nodes, _, _ in walks], dtype=np.int64)
    nodes = np.fromiter(chain.from_iterable(w[0] for w in walks), np.int64, int(walk_len.sum()))
    # Sums below 2**53 convert to float64 exactly, so s / n rounds as the
    # division of Python ints does; larger sums stay Python ints. Every path
    # from a proper ancestor has at least one edge, so s bounds n there.
    widest = max(map(len, direct_sets))
    exact = np.int64 if (max(max(w[2]) for w in walks) + 1) * widest < 2**53 else object
    n = np.fromiter(chain.from_iterable(w[1] for w in walks), exact, len(nodes))
    s = np.fromiter(chain.from_iterable(w[2] for w in walks), exact, len(nodes))

    # One piece per (set, direct category): that category's walk.
    col = {cat: i for i, cat in enumerate(direct_cats)}
    piece = np.array([col[cat] for direct in direct_sets for cat in direct], dtype=np.int64)
    piece_len = walk_len[piece]
    at = slice_index(csr_offsets(walk_len)[piece], piece_len)
    is_direct = np.zeros(len(at), dtype=bool)
    is_direct[csr_offsets(piece_len)[:-1]] = True  # each walk starts at its direct category
    span = int(nodes.max()) + 1
    owner = np.repeat(np.arange(len(direct_sets), dtype=np.int64), [len(direct) for direct in direct_sets])
    cats = nodes[at]
    key = np.repeat(owner * span, piece_len) + cats
    keep = cats != graph.root  # the root ancestors everything and is never weighted

    # Sort the entries by (set, category) and add up each run of equal keys.
    order = np.flatnonzero(keep)[np.argsort(key[keep])]
    key = key[order]
    first = np.flatnonzero(np.diff(key, prepend=-1))
    n_sum = np.add.reduceat(n[at[order]], first)
    s_sum = np.add.reduceat(s[at[order]], first)
    steps = np.where(np.logical_or.reduceat(is_direct[order], first), 0.0, np.asarray(s_sum / n_sum, dtype=np.float64))
    key = key[first]
    return csr_offsets(np.bincount(key // span, minlength=len(direct_sets))), key % span, steps


def _slice_sums(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """``values[offsets[j]:offsets[j+1]].sum()`` for every j, bitwise.

    numpy's pairwise summation groups terms by the slice length, and
    ``np.add.reduceat`` groups them differently, so slices of one length are
    summed together as the rows of a 2-D array instead.
    """
    lengths = np.diff(offsets)
    sums = np.empty(len(lengths), dtype=values.dtype)
    for length in np.flatnonzero(np.bincount(lengths)):
        rows = np.flatnonzero(lengths == length)
        sums[rows] = values[offsets[rows, None] + np.arange(length)].sum(axis=1)
    return sums


def steps_down(graph: CategoryGraph, direct: Iterable[int]) -> dict[int, float]:
    """Mean downward steps to ``direct`` from every weighted category of an entity.

    The keys, ascending, are the direct categories plus all their transitive
    ancestors, excluding the root: the root ancestors every entity and
    carries no discriminative signal, so it never receives a weight even
    when it labels an entity directly. A direct category maps to 0.0; any
    other key maps to the mean length, in edges, of all downward paths from
    it to a member of ``direct``. Only the ancestors of ``direct`` are walked.
    """
    _, cats, steps = _steps_csr(graph, [_checked_direct(graph, direct)])
    return dict(zip(cats.tolist(), steps.tolist()))


def weight_csr(
    graph: CategoryGraph,
    entity_categories: Mapping[int, tuple[int, ...]],
    entity_labels: Sequence[str],
    mode: str,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flatten per-entity weights into CSR arrays for the training kernel.

    Computed once at training start from the direct categories of each entity
    (``Corpus.entity_categories``), for one entity per label in
    ``entity_labels``. In ``hce`` mode an entity's slice holds the keys of
    :func:`steps_down`, ascending, weighted ``1 / (1 + steps)`` and
    normalized to sum to 1 within ``WEIGHT_SUM_TOL``; in ``ce`` mode it holds
    the sorted direct categories, root included, each at weight exactly 1
    and unchecked against the graph. Entities with the same direct
    categories share one computation. Entities without a labeling
    (context-only entities) get an empty slice. A weight failure raises
    :class:`HierarchyError` naming the first failing entity by its label.

    Returns ``(offsets, cat_ids, cat_ws)`` where entity e's categories live in
    ``cat_ids[offsets[e]:offsets[e+1]]``.
    """
    if mode not in MODES:
        raise HierarchyError(f"unknown mode {mode!r}")
    row_of: dict[tuple[int, ...], int] = {}
    rows = np.array(
        [row_of.setdefault(direct, len(row_of)) if direct else -1 for direct in map(entity_categories.get, range(len(entity_labels)))],
        dtype=np.int64,
    )
    direct_sets = [set(direct) for direct in row_of]
    if mode == "hce" and ({graph.root} in direct_sets or not graph.children.keys() >= set().union(*direct_sets)):
        for ent in np.flatnonzero(rows >= 0).tolist():
            try:
                if _checked_direct(graph, entity_categories[ent]) == {graph.root}:
                    raise HierarchyError(_ROOT_ONLY)
            except HierarchyError as exc:
                raise HierarchyError(f"entity {entity_labels[ent]!r}: {exc}") from exc

    # One slice per distinct direct set, then one gather into entity order.
    if mode == "hce" and direct_sets:
        set_offsets, set_ids, steps = _steps_csr(graph, direct_sets)
        raw = 1.0 / (1.0 + steps)
        set_ws = raw / np.repeat(_slice_sums(raw, set_offsets), np.diff(set_offsets))
    else:
        set_offsets = csr_offsets(np.array([len(direct) for direct in direct_sets], dtype=np.int64))
        set_ids = np.fromiter(chain.from_iterable(map(sorted, direct_sets)), np.int64, int(set_offsets[-1]))
        set_ws = np.ones(len(set_ids), dtype=np.float64)
    labeled = np.flatnonzero(rows >= 0)
    lengths = np.zeros(len(entity_labels), dtype=np.int64)
    lengths[labeled] = np.diff(set_offsets)[rows[labeled]]
    at = slice_index(set_offsets[rows[labeled]], lengths[labeled])
    return csr_offsets(lengths), set_ids[at], set_ws[at]
