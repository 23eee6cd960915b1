"""Text input reading, plus corpus and category-hierarchy ingestion.

Every text input is read here: :func:`read_lines` decodes UTF-8 once and
:func:`records` splits the four tab-separated formats, one record per line:

* corpus:      ``target<TAB>cat1,cat2,...<TAB>ctx1 ctx2 ...`` -- context labels
  are space-separated, so labels never contain spaces (use underscores) or tabs.
* hierarchy:   ``parent<TAB>child`` edges between category labels.
* gold:        ``entity<TAB>category`` (:func:`catembed.categorize.load_gold`).
* relatedness: ``word1<TAB>word2<TAB>score`` (:func:`catembed.relatedness.load_relatedness`).

Blank lines are skipped. An invalid UTF-8 byte or a wrong field count raises
:class:`FormatError` with the source name and line number.

Loading is single-threaded. A :class:`CategoryGraph` is immutable once
:func:`prune_to_dag` returns it; :func:`load_corpus` only reads it. The
resulting :class:`Vocabulary`, :class:`CategoryGraph` and :class:`Corpus` are
only read by training.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import CorpusError, FormatError, HierarchyError


class NodeKind(enum.Enum):
    ENTITY = "e"
    CATEGORY = "c"


class NodeId(NamedTuple):
    """Reference to one embedding row: a dense index within its kind."""

    kind: NodeKind
    index: int


def normalize_label(text: str) -> str:
    """Case-fold a label and replace spaces with the on-disk underscore form."""
    return text.strip().lower().replace(" ", "_")


class FoldedLabels:
    """Case- and space-insensitive lookup into a growing label list.

    ``labels`` is shared, not copied; labels appended to it later are folded
    on the next lookup. The lowest index wins when two labels fold together.
    """

    def __init__(self, labels: list[str]):
        self._labels = labels
        self._folded: dict[str, int] = {}
        self._seen = 0

    def get(self, word: str) -> int | None:
        for idx in range(self._seen, len(self._labels)):
            self._folded.setdefault(normalize_label(self._labels[idx]), idx)
        self._seen = len(self._labels)
        return self._folded.get(normalize_label(word))


def read_lines(source: str | Path | Iterable[str]) -> tuple[str, Iterable[str]]:
    """The source name and its lines, from a path (decoded as UTF-8) or a line stream."""
    if not isinstance(source, (str, Path)):
        return "<stream>", source
    path = Path(source)
    if not path.exists():
        raise CorpusError(f"input file not found: {path}")
    data = path.read_bytes()
    try:
        return str(path), data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        # the bytes before the first bad one decode; a sentinel counts the line it opens
        lineno = len((data[:exc.start].decode("utf-8") + "x").splitlines())
        raise FormatError(f"invalid UTF-8 at byte {exc.start}", str(path), lineno) from None


def records(source: str | Path | Iterable[str], names: tuple[str, ...]) -> Iterator[tuple[str, int, list[str]]]:
    """``(source name, line number, fields)`` per non-blank line of ``len(names)`` tab-separated fields."""
    name, lines = read_lines(source)
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        fields = line.rstrip("\n").split("\t")
        if len(fields) != len(names):
            raise FormatError(
                f"expected {len(names)} tab-separated fields ({', '.join(names)}), got {len(fields)}", name, lineno,
            )
        yield name, lineno, fields


class Vocabulary:
    """Bidirectional label/index maps for entities and categories.

    Entity indices are assigned in first-seen order over the document stream
    (target first, then contexts, line by line) after the ``min_count`` filter;
    category indices in first-seen order over label lists and hierarchy edges.
    """

    def __init__(self):
        self._ent_index: dict[str, int] = {}
        self._ent_labels: list[str] = []
        self._ent_counts: list[int] = []
        self._cat_index: dict[str, int] = {}
        self._cat_labels: list[str] = []
        self._folded_ent = FoldedLabels(self._ent_labels)
        self._folded_cat = FoldedLabels(self._cat_labels)

    @property
    def n_entities(self) -> int:
        return len(self._ent_labels)

    @property
    def n_categories(self) -> int:
        return len(self._cat_labels)

    def entity_counts(self) -> np.ndarray:
        """Occurrence count (as target plus as context) per entity index."""
        return np.asarray(self._ent_counts, dtype=np.int64)

    def add_entity(self, label: str, count: int) -> int:
        idx = self._ent_index.get(label)
        if idx is None:
            idx = len(self._ent_labels)
            self._ent_index[label] = idx
            self._ent_labels.append(label)
            self._ent_counts.append(count)
        return idx

    def add_category(self, label: str) -> int:
        idx = self._cat_index.get(label)
        if idx is None:
            idx = len(self._cat_labels)
            self._cat_index[label] = idx
            self._cat_labels.append(label)
        return idx

    def entity_id(self, label: str) -> int | None:
        return self._ent_index.get(label)

    def category_id(self, label: str) -> int | None:
        return self._cat_index.get(label)

    def entity_label(self, index: int) -> str:
        return self._ent_labels[index]

    def category_label(self, index: int) -> str:
        return self._cat_labels[index]

    def entity_labels(self) -> list[str]:
        return list(self._ent_labels)

    def category_labels(self) -> list[str]:
        return list(self._cat_labels)

    def match_entity(self, word: str) -> int | None:
        """Case/space-insensitive entity lookup; lowest index wins on case clashes."""
        return self._folded_ent.get(word)

    def match_category(self, word: str) -> int | None:
        return self._folded_cat.get(word)


def _iter_documents(source) -> Iterator[tuple[str, list[str], list[str]]]:
    """``(target, category labels, context labels)`` per corpus line."""
    for name, lineno, (target, cats, contexts) in records(source, ("target", "categories", "contexts")):
        target = target.strip()
        if not target:
            raise FormatError("empty target label", name, lineno)
        labels = [c.strip() for c in cats.split(",") if c.strip()]
        if not labels:
            raise FormatError(f"document {target!r} has no category labels", name, lineno)
        yield target, labels, contexts.split()


def build_vocabulary(source: str | Path | Iterable[str], min_count: int = 1) -> Vocabulary:
    """Scan a document stream and build the entity/category vocabulary.

    Entities whose total occurrence count (as target plus as context) falls
    below ``min_count`` are excluded. Categories carry no count threshold.
    """
    counts: dict[str, int] = {}
    categories: dict[str, None] = {}
    n_docs = 0
    for target, labels, contexts in _iter_documents(source):
        n_docs += 1
        counts[target] = counts.get(target, 0) + 1
        for cat in labels:
            categories.setdefault(cat)
        for ctx in contexts:
            counts[ctx] = counts.get(ctx, 0) + 1
    if n_docs == 0:
        raise CorpusError("empty corpus: no documents found")
    vocab = Vocabulary()
    for label, count in counts.items():
        if count >= min_count:
            vocab.add_entity(label, count)
    for label in categories:
        vocab.add_category(label)
    return vocab


@dataclass
class DirectedGraph:
    """Raw category digraph as loaded from disk; may contain cycles."""

    nodes: set[int] = field(default_factory=set)
    children: dict[int, set[int]] = field(default_factory=dict)

    def add_edge(self, parent: int, child: int) -> None:
        self.nodes.add(parent)
        self.nodes.add(child)
        self.children.setdefault(parent, set()).add(child)

    @property
    def n_edges(self) -> int:
        return sum(len(c) for c in self.children.values())


def load_hierarchy(source: str | Path | Iterable[str], vocab: Vocabulary) -> DirectedGraph:
    """Read ``parent<TAB>child`` edges; unseen labels become new categories.

    Duplicate edges collapse to one; a self-loop is a format error.
    """
    graph = DirectedGraph()
    for name, lineno, fields in records(source, ("parent", "child")):
        parent, child = (f.strip() for f in fields)
        if not parent or not child:
            raise FormatError("empty category label in edge", name, lineno)
        if parent == child:
            raise FormatError(f"self-loop edge on {parent!r}", name, lineno)
        graph.add_edge(vocab.add_category(parent), vocab.add_category(child))
    return graph


@dataclass
class PruneReport:
    nodes_in: int = 0
    edges_in: int = 0
    pattern_nodes: int = 0
    pattern_edges: int = 0
    unreachable_nodes: int = 0
    unreachable_edges: int = 0
    back_edges: int = 0
    nodes_out: int = 0
    edges_out: int = 0

    def __str__(self) -> str:
        return (
            f"pruned {self.nodes_in} nodes/{self.edges_in} edges -> "
            f"{self.nodes_out} nodes/{self.edges_out} edges "
            f"(pattern: -{self.pattern_nodes}n/-{self.pattern_edges}e, "
            f"unreachable: -{self.unreachable_nodes}n/-{self.unreachable_edges}e, "
            f"back edges: -{self.back_edges}e)"
        )


@dataclass
class CategoryGraph:
    """Rooted category DAG, immutable after :func:`prune_to_dag` builds it.

    The labeling of entities with direct categories is corpus data and lives
    on :class:`Corpus`.
    """

    root: int
    children: dict[int, tuple[int, ...]]
    parents: dict[int, tuple[int, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.parents:
            rev: dict[int, list[int]] = {n: [] for n in self.children}
            for parent, kids in self.children.items():
                for child in kids:
                    rev[child].append(parent)
            self.parents = {n: tuple(sorted(ps)) for n, ps in rev.items()}

    def __contains__(self, category: int) -> bool:
        return category in self.children

    @property
    def nodes(self) -> list[int]:
        return sorted(self.children)

    @property
    def n_edges(self) -> int:
        return sum(len(c) for c in self.children.values())

    def topological_order(self) -> list[int]:
        """Kahn's algorithm; raises if a cycle survived pruning."""
        indeg = {n: len(self.parents[n]) for n in self.children}
        ready = sorted(n for n, d in indeg.items() if d == 0)
        order: list[int] = []
        while ready:
            node = ready.pop()
            order.append(node)
            for child in self.children[node]:
                indeg[child] -= 1
                if indeg[child] == 0:
                    ready.append(child)
        if len(order) != len(self.children):
            raise HierarchyError("category graph contains a cycle")
        return order


def prune_to_dag(
    graph: DirectedGraph,
    vocab: Vocabulary,
    root_label: str,
    drop_patterns: Iterable[str] = (),
) -> tuple[CategoryGraph, PruneReport]:
    """Prune a raw category digraph down to a DAG rooted at ``root_label``.

    Three passes: (1) drop categories whose label contains any of
    ``drop_patterns``; (2) drop nodes unreachable from the root; (3) run a DFS
    from the root with children in ascending index order and delete every back
    edge (an edge to a node still on the DFS stack). The result is acyclic
    and applying the same pruning again is a no-op.
    """
    patterns = [p for p in drop_patterns if p]
    report = PruneReport(nodes_in=len(graph.nodes), edges_in=graph.n_edges)

    root = vocab.category_id(root_label)
    if root is None or root not in graph.nodes:
        raise HierarchyError(f"root category {root_label!r} not present in the hierarchy")
    if any(p in root_label for p in patterns):
        raise HierarchyError(f"root category {root_label!r} matches a drop pattern")

    dropped = {
        n for n in graph.nodes
        if any(p in vocab.category_label(n) for p in patterns)
    }
    kept_children: dict[int, list[int]] = {}
    kept_edges = 0
    for node in graph.nodes - dropped:
        kids = [c for c in graph.children.get(node, ()) if c not in dropped]
        kept_children[node] = sorted(kids)
        kept_edges += len(kids)
    report.pattern_nodes = len(dropped)
    report.pattern_edges = report.edges_in - kept_edges

    # Reachability from root over the surviving edges.
    reachable: set[int] = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if node in reachable:
            continue
        reachable.add(node)
        stack.extend(kept_children[node])
    unreachable = set(kept_children) - reachable
    report.unreachable_nodes = len(unreachable)
    report.unreachable_edges = sum(len(kept_children[n]) for n in unreachable)

    adjacency = {n: kept_children[n] for n in reachable}

    # Iterative DFS from root; children in ascending index order. An edge into
    # a node currently on the stack closes a cycle and is deleted.
    WHITE, ON_STACK, DONE = 0, 1, 2
    state = {n: WHITE for n in adjacency}
    back_edges: set[tuple[int, int]] = set()
    dfs: list[tuple[int, int]] = [(root, 0)]
    state[root] = ON_STACK
    while dfs:
        node, child_pos = dfs[-1]
        kids = adjacency[node]
        if child_pos == len(kids):
            state[node] = DONE
            dfs.pop()
            continue
        dfs[-1] = (node, child_pos + 1)
        child = kids[child_pos]
        if state[child] == ON_STACK:
            back_edges.add((node, child))
        elif state[child] == WHITE:
            state[child] = ON_STACK
            dfs.append((child, 0))
    report.back_edges = len(back_edges)

    children = {
        n: tuple(c for c in kids if (n, c) not in back_edges)
        for n, kids in adjacency.items()
    }
    report.nodes_out = len(children)
    report.edges_out = sum(len(c) for c in children.values())

    result = CategoryGraph(root=root, children=children)
    result.topological_order()  # defensive: guaranteed acyclic by construction
    return result, report


@dataclass
class Corpus:
    """Training documents as flat int64 arrays, plus the entity labeling.

    Document ``i`` has target ``doc_target[i]`` and contexts
    ``ctx_ids[ctx_offsets[i]:ctx_offsets[i + 1]]``; documents without contexts
    are kept. ``entity_categories`` maps each target entity to the sorted union
    of its surviving labels over its documents.
    """

    doc_target: np.ndarray
    ctx_offsets: np.ndarray
    ctx_ids: np.ndarray
    entity_categories: dict[int, tuple[int, ...]]
    vocab: Vocabulary
    skipped_documents: int = 0
    dropped_contexts: int = 0
    dropped_labels: int = 0

    @property
    def n_pairs(self) -> int:
        return len(self.ctx_ids)

    def __len__(self) -> int:
        return len(self.doc_target)


def load_corpus(
    source: str | Path | Iterable[str],
    vocab: Vocabulary,
    graph: CategoryGraph,
) -> Corpus:
    """Materialize documents against a built vocabulary and pruned graph.

    Out-of-vocabulary context entities are skipped silently (counted); a
    document is dropped when its target is out of vocabulary or none of its
    labels survive in the graph. ``graph`` is only read.
    """
    targets: list[int] = []
    offsets = [0]
    ctx_ids: list[int] = []
    skipped = 0
    dropped_contexts = 0
    dropped_labels = 0
    direct: dict[int, set[int]] = {}
    for target, labels, contexts in _iter_documents(source):
        target_id = vocab.entity_id(target)
        cat_ids = [cid for cid in map(vocab.category_id, labels) if cid is not None and cid in graph]
        dropped_labels += len(labels) - len(cat_ids)
        if target_id is None or not cat_ids:
            skipped += 1
            continue
        known = [cid for cid in map(vocab.entity_id, contexts) if cid is not None]
        dropped_contexts += len(contexts) - len(known)
        ctx_ids.extend(known)
        targets.append(target_id)
        offsets.append(len(ctx_ids))
        direct.setdefault(target_id, set()).update(cat_ids)
    if not targets:
        raise CorpusError("all documents were filtered out (check vocabulary and hierarchy)")
    return Corpus(
        doc_target=np.asarray(targets, dtype=np.int64),
        ctx_offsets=np.asarray(offsets, dtype=np.int64),
        ctx_ids=np.asarray(ctx_ids, dtype=np.int64),
        entity_categories={ent: tuple(sorted(cats)) for ent, cats in direct.items()},
        vocab=vocab,
        skipped_documents=skipped,
        dropped_contexts=dropped_contexts,
        dropped_labels=dropped_labels,
    )
