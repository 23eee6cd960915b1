"""Text input reading, plus corpus and category-hierarchy ingestion.

Every text input is read here: :func:`read_lines` decodes UTF-8 once and
:func:`records` splits the four tab-separated formats, one record per line:

* corpus:      ``target<TAB>cat1,cat2,...<TAB>ctx1 ctx2 ...`` -- context labels
  are space-separated, so labels never contain spaces (use underscores) or tabs.
* hierarchy:   ``parent<TAB>child`` edges between category labels.
* gold:        ``entity<TAB>category`` (:func:`catembed.categorize.load_gold`).
* relatedness: ``word1<TAB>word2<TAB>score`` (:func:`catembed.relatedness.load_relatedness`).

Blank lines are skipped, and so is one leading UTF-8 byte-order mark, which
some editors write. An invalid UTF-8 byte or a wrong field count raises
:class:`FormatError` with the source name and line number.

:func:`load_hierarchy` returns the raw hierarchy as a plain child map, which
may contain cycles; :func:`prune_to_dag` cuts it down to a
:class:`CategoryGraph`, whose construction checks that it is rooted, closed
and acyclic. Every later layer relies on that one check. Loading is
single-threaded; :func:`load_corpus` only reads the graph, and the resulting
:class:`Vocabulary`, :class:`CategoryGraph` and :class:`Corpus` are only read
by training.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import CorpusError, FormatError, HierarchyError


def normalize_label(text: str) -> str:
    """Case-fold a label and replace spaces with the on-disk underscore form."""
    return text.strip().lower().replace(" ", "_")


def read_lines(source: str | Path | Iterable[str]) -> tuple[str, Iterable[str]]:
    """The source name and its lines, from a path (UTF-8, one leading byte-order mark dropped) or a line stream."""
    if not isinstance(source, (str, Path)):
        return "<stream>", source
    path = Path(source)
    if not path.exists():
        raise CorpusError(f"input file not found: {path}")
    data = path.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the bytes before the first bad one decode; a sentinel counts the line it opens
        lineno = len((data[:exc.start].decode("utf-8") + "x").splitlines())
        raise FormatError(f"invalid UTF-8 at byte {exc.start}", str(path), lineno) from None
    del data  # freed before splitlines builds the lines: two copies of the file at the peak, not three
    lines = text.splitlines()
    if lines:  # a leading UTF-8 byte-order mark is not part of the first label
        lines[0] = lines[0].removeprefix("\ufeff")
    return str(path), lines


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
    """Bidirectional label/index maps for entities and categories, and their rows.

    Entity indices are assigned in first-seen order over the document stream
    (target first, then contexts, line by line) after the ``min_count`` filter;
    category indices in first-seen order over label lists and hierarchy edges.
    Entity e is row e and category c row ``n_entities + c`` (:meth:`row`,
    :meth:`label`); words match folded, and the lowest index wins a clash.
    """

    def __init__(self):
        self._ent_index: dict[str, int] = {}
        self._ent_folded: dict[str, int] = {}
        self._ent_labels: list[str] = []
        self._ent_counts: list[int] = []
        self._cat_index: dict[str, int] = {}
        self._cat_folded: dict[str, int] = {}
        self._cat_labels: list[str] = []

    @property
    def n_entities(self) -> int:
        return len(self._ent_labels)

    @property
    def n_categories(self) -> int:
        return len(self._cat_labels)

    @property
    def n_rows(self) -> int:
        return len(self._ent_labels) + len(self._cat_labels)

    def entity_counts(self) -> np.ndarray:
        """Occurrence count (as target plus as context) per entity index."""
        return np.asarray(self._ent_counts, dtype=np.int64)

    def add_entity(self, label: str, count: int) -> int:
        idx = self._ent_index.get(label)
        if idx is None:
            idx = len(self._ent_labels)
            self._ent_index[label] = idx
            self._ent_folded.setdefault(normalize_label(label), idx)
            self._ent_labels.append(label)
            self._ent_counts.append(count)
        return idx

    def add_category(self, label: str) -> int:
        idx = self._cat_index.get(label)
        if idx is None:
            idx = len(self._cat_labels)
            self._cat_index[label] = idx
            self._cat_folded.setdefault(normalize_label(label), idx)
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
        """Index of the entity a word names, folded; None if there is none."""
        return self._ent_folded.get(normalize_label(word))

    def match_category(self, word: str) -> int | None:
        """Index of the category a word names, folded; None if there is none."""
        return self._cat_folded.get(normalize_label(word))

    def row(self, word: str) -> int | None:
        """Row of a word: its folded entity's row, else its folded category's row, else None."""
        ent = self.match_entity(word)
        if ent is not None:
            return ent
        cat = self.match_category(word)
        return None if cat is None else self.n_entities + cat

    def label(self, row: int) -> str:
        """The export's label of a row: ``e:`` and the entity's label, or ``c:`` and the category's."""
        n_ent = self.n_entities
        return "e:" + self._ent_labels[row] if row < n_ent else "c:" + self._cat_labels[row - n_ent]


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


def load_hierarchy(source: str | Path | Iterable[str], vocab: Vocabulary) -> dict[int, set[int]]:
    """Read ``parent<TAB>child`` edges into a child map; unseen labels become new categories.

    The map has a key for every node, leaves included, and may contain
    cycles. Duplicate edges collapse to one; a self-loop is a format error.
    """
    children: dict[int, set[int]] = {}
    for name, lineno, fields in records(source, ("parent", "child")):
        parent, child = (f.strip() for f in fields)
        if not parent or not child:
            raise FormatError("empty category label in edge", name, lineno)
        if parent == child:
            raise FormatError(f"self-loop edge on {parent!r}", name, lineno)
        parent_id, child_id = vocab.add_category(parent), vocab.add_category(child)
        children.setdefault(parent_id, set()).add(child_id)
        children.setdefault(child_id, set())
    return children


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
    """Rooted category DAG; construction checks the whole graph contract.

    ``__post_init__`` raises :class:`HierarchyError` unless ``root`` and
    every child are keys of ``children`` and the graph is acyclic, so every
    walk over a ``CategoryGraph`` may assume a closed DAG. It derives
    ``parents`` and ``rank``, a topological position per node (each parent
    ranks before its children). The labeling of entities with direct
    categories is corpus data and lives on :class:`Corpus`.
    """

    root: int
    children: dict[int, tuple[int, ...]]
    parents: dict[int, tuple[int, ...]] = field(init=False)
    rank: dict[int, int] = field(init=False)

    def __post_init__(self) -> None:
        if self.root not in self.children:
            raise HierarchyError(f"root category {self.root} is not a node of the graph")
        rev: dict[int, list[int]] = {n: [] for n in self.children}
        for parent, kids in self.children.items():
            for child in kids:
                if child not in rev:
                    raise HierarchyError(f"category {child}, a child of {parent}, is not a node of the graph")
                rev[child].append(parent)
        self.parents = {n: tuple(sorted(ps)) for n, ps in rev.items()}
        # Kahn's algorithm: a node is ranked once all of its parents are.
        indeg = {n: len(ps) for n, ps in rev.items()}
        ready = sorted(n for n, d in indeg.items() if d == 0)
        self.rank = {}
        while ready:
            node = ready.pop()
            self.rank[node] = len(self.rank)
            for child in self.children[node]:
                indeg[child] -= 1
                if indeg[child] == 0:
                    ready.append(child)
        if len(self.rank) != len(self.children):
            raise HierarchyError("category graph contains a cycle")

    def __contains__(self, category: int) -> bool:
        return category in self.children


def prune_to_dag(
    raw: dict[int, set[int]],
    vocab: Vocabulary,
    root_label: str,
    drop_patterns: Iterable[str] = (),
) -> tuple[CategoryGraph, PruneReport]:
    """Prune the raw child map of :func:`load_hierarchy` down to a DAG rooted at ``root_label``.

    Two passes: (1) drop categories whose label contains any of
    ``drop_patterns``; (2) run one DFS from the root with children in
    ascending index order, drop the nodes it never reaches and delete every
    back edge (an edge to a node still on the DFS stack). The result is
    acyclic, which :class:`CategoryGraph` checks again as it is built, and
    applying the same pruning again is a no-op.
    """
    patterns = [p for p in drop_patterns if p]
    report = PruneReport(nodes_in=len(raw), edges_in=sum(map(len, raw.values())))

    root = vocab.category_id(root_label)
    if root is None or root not in raw:
        raise HierarchyError(f"root category {root_label!r} not present in the hierarchy")
    if any(p in root_label for p in patterns):
        raise HierarchyError(f"root category {root_label!r} matches a drop pattern")

    dropped = {n for n in raw if any(p in vocab.category_label(n) for p in patterns)}
    kept_children = {n: sorted(kids - dropped) for n, kids in raw.items() if n not in dropped}
    report.pattern_nodes = len(dropped)
    report.pattern_edges = report.edges_in - sum(map(len, kept_children.values()))

    # Iterative DFS from root, children in ascending index order. It reaches
    # exactly the nodes reachable from the root; an edge into a node still on
    # the DFS stack closes a cycle and is deleted.
    ON_STACK, DONE = 1, 2
    state = {root: ON_STACK}
    back_edges: set[tuple[int, int]] = set()
    dfs: list[tuple[int, int]] = [(root, 0)]
    while dfs:
        node, child_pos = dfs[-1]
        kids = kept_children[node]
        if child_pos == len(kids):
            state[node] = DONE
            dfs.pop()
            continue
        dfs[-1] = (node, child_pos + 1)
        child = kids[child_pos]
        if child not in state:
            state[child] = ON_STACK
            dfs.append((child, 0))
        elif state[child] == ON_STACK:
            back_edges.add((node, child))
    unreachable = kept_children.keys() - state
    report.unreachable_nodes = len(unreachable)
    report.unreachable_edges = sum(len(kept_children[n]) for n in unreachable)
    report.back_edges = len(back_edges)

    children = {
        n: tuple(c for c in kept_children[n] if (n, c) not in back_edges)
        for n in state
    }
    report.nodes_out = len(children)
    report.edges_out = sum(len(c) for c in children.values())
    return CategoryGraph(root=root, children=children), report


def csr_offsets(lengths) -> np.ndarray:
    """CSR offsets of slices with the given lengths."""
    offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return offsets


def slice_index(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Indices of the slices ``[starts[i], starts[i] + lengths[i])``, concatenated."""
    offsets = csr_offsets(lengths)
    return np.repeat(starts - offsets[:-1], lengths) + np.arange(offsets[-1])


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
