"""Embedding storage and the on-disk export formats.

Text format: first line ``<row_count> <dim>``, then one row per line,
``<prefixed_label> <v1> ... <vd>`` with prefix ``e:`` for entities and ``c:``
for categories, floats printed with 6 significant digits. The binary variant
keeps the same text header line, then per row the prefixed label, a single
space, ``dim`` little-endian float64 values, and a newline byte.

Only input vectors are exported; output (context) vectors exist solely to
train against and are discarded here.
"""

from __future__ import annotations

import codecs
import mmap
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import FoldedLabels, NodeId, NodeKind, Vocabulary, read_lines
from .errors import CorpusError, FormatError


@dataclass
class EmbeddingTable:
    """Training-side vectors: inputs for entities and categories, outputs for entities."""

    ent_in: np.ndarray
    cat_in: np.ndarray
    ent_out: np.ndarray

    @property
    def dim(self) -> int:
        return self.ent_in.shape[1]

    @property
    def n_entities(self) -> int:
        return self.ent_in.shape[0]

    @property
    def n_categories(self) -> int:
        return self.cat_in.shape[0]

    def assert_finite(self) -> None:
        for name in ("ent_in", "cat_in", "ent_out"):
            if not np.isfinite(getattr(self, name)).all():
                raise CorpusError(f"non-finite values in {name}")


def init_embeddings(n_entities: int, n_categories: int, dim: int, seed: int) -> EmbeddingTable:
    """Fresh table: inputs uniform in [-0.5/dim, 0.5/dim), outputs zero."""
    if n_entities < 1 or n_categories < 1 or dim < 1:
        raise CorpusError("embedding table sizes must be >= 1")
    rng = np.random.default_rng(seed)
    scale = 1.0 / dim
    ent_in = (rng.random((n_entities, dim)) - 0.5) * scale
    cat_in = (rng.random((n_categories, dim)) - 0.5) * scale
    ent_out = np.zeros((n_entities, dim))
    return EmbeddingTable(ent_in=ent_in, cat_in=cat_in, ent_out=ent_out)


class EmbeddingIndex:
    """Loaded embedding file: label-addressable input vectors for evaluation."""

    def __init__(self, ent_labels: list[str], cat_labels: list[str], ent_vecs: np.ndarray, cat_vecs: np.ndarray):
        self.ent_labels = ent_labels
        self.cat_labels = cat_labels
        self.ent_vecs = ent_vecs
        self.cat_vecs = cat_vecs
        self._folded_ent = FoldedLabels(ent_labels)
        self._folded_cat = FoldedLabels(cat_labels)

    @property
    def dim(self) -> int:
        return self.ent_vecs.shape[1] if self.ent_vecs.size else self.cat_vecs.shape[1]

    @property
    def n_rows(self) -> int:
        return len(self.ent_labels) + len(self.cat_labels)

    def match_entity(self, word: str) -> int | None:
        return self._folded_ent.get(word)

    def match_category(self, word: str) -> int | None:
        return self._folded_cat.get(word)

    def vector(self, node: NodeId) -> np.ndarray:
        return (self.ent_vecs if node.kind is NodeKind.ENTITY else self.cat_vecs)[node.index]

    def _rows(self):
        """``(prefixed label, vector)`` per row: entities first, then categories."""
        for label, vec in zip(self.ent_labels, self.ent_vecs):
            yield "e:" + label, vec
        for label, vec in zip(self.cat_labels, self.cat_vecs):
            yield "c:" + label, vec

    def save_text(self, path: str | Path) -> None:
        check_labels(self.ent_labels, self.cat_labels)
        fmt = "%s " + " ".join(["%.6g"] * self.dim) + "\n"
        with Path(path).open("w", encoding="utf-8") as fh:
            fh.write(f"{self.n_rows} {self.dim}\n")
            for label, vec in self._rows():
                fh.write(fmt % (label, *vec.tolist()))

    def save_binary(self, path: str | Path) -> None:
        check_labels(self.ent_labels, self.cat_labels)
        with Path(path).open("wb") as fh:
            fh.write(f"{self.n_rows} {self.dim}\n".encode("utf-8"))
            for label, vec in self._rows():
                fh.write(label.encode("utf-8") + b" ")
                fh.write(np.ascontiguousarray(vec, dtype="<f8").tobytes())
                fh.write(b"\n")


def check_labels(ent_labels: list[str], cat_labels: list[str]) -> None:
    """Refuse a label that holds whitespace: both export formats end a row's label at the first one."""
    for prefix, labels in (("e:", ent_labels), ("c:", cat_labels)):
        for label in labels:
            if any(map(str.isspace, label)):
                raise CorpusError(f"label {prefix + label!r} holds whitespace, which an embedding export cannot store")


def save_text(table: EmbeddingTable, vocab: Vocabulary, path: str | Path) -> None:
    _view(table, vocab).save_text(path)


def save_binary(table: EmbeddingTable, vocab: Vocabulary, path: str | Path) -> None:
    _view(table, vocab).save_binary(path)


def _view(table: EmbeddingTable, vocab: Vocabulary) -> EmbeddingIndex:
    return EmbeddingIndex(vocab.entity_labels(), vocab.category_labels(), table.ent_in, table.cat_in)


def _split_prefixed(label: str, source: str, lineno: int) -> tuple[NodeKind, str]:
    if label.startswith("e:"):
        return NodeKind.ENTITY, label[2:]
    if label.startswith("c:"):
        return NodeKind.CATEGORY, label[2:]
    raise FormatError(f"row label {label!r} lacks an e:/c: prefix", source, lineno)


def _index(rows: list[tuple[NodeKind, str, np.ndarray, int]], dim: int) -> tuple[EmbeddingIndex, int | None]:
    """Index over ``(kind, label, vector, position)`` rows in file order.

    Also returns the position of the first row that holds a NaN or an infinity, or None.
    """
    labels, vecs, bad = [], [], []
    for kind in (NodeKind.ENTITY, NodeKind.CATEGORY):
        part = [r for r in rows if r[0] is kind]
        stacked = np.vstack([r[2] for r in part]) if part else np.empty((0, dim))
        labels.append([r[1] for r in part])
        vecs.append(stacked)
        bad += [part[i][3] for i in np.flatnonzero(~np.isfinite(stacked).all(axis=1))]
    return EmbeddingIndex(labels[0], labels[1], vecs[0], vecs[1]), min(bad, default=None)


def _header(line: str | bytes, source: str) -> tuple[int, int]:
    """``n_rows dim`` from the first line, which both formats share."""
    try:
        n_rows, dim = (int(x) for x in line.split())
    except ValueError:
        raise FormatError(f"bad header {line!r}", source, 1) from None
    if n_rows < 0 or dim < 1:
        raise FormatError(f"bad header {line!r}: need rows >= 0 and dim >= 1", source, 1)
    return n_rows, dim


def load_text(path: str | Path) -> EmbeddingIndex:
    path = Path(path)
    if not path.exists():
        raise CorpusError(f"embedding file not found: {path}")
    _, lines = read_lines(path)
    if not lines:
        raise FormatError("empty embedding file", str(path), 1)
    n_rows, dim = _header(lines[0], str(path))
    rows: list[tuple[NodeKind, str, np.ndarray, int]] = []
    for lineno, line in enumerate(lines[1:], 2):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != dim + 1:
            raise FormatError(f"expected {dim + 1} columns, got {len(parts)}", str(path), lineno)
        kind, label = _split_prefixed(parts[0], str(path), lineno)
        try:
            vec = np.array([float(x) for x in parts[1:]])
        except ValueError as exc:
            raise FormatError(f"non-numeric value ({exc})", str(path), lineno) from None
        rows.append((kind, label, vec, lineno))
    if len(rows) != n_rows:
        raise FormatError(f"header promised {n_rows} rows, found {len(rows)}", str(path))
    index, bad = _index(rows, dim)
    if bad is not None:
        raise FormatError("non-finite value", str(path), bad)
    return index


def load_binary(path: str | Path) -> EmbeddingIndex:
    path = Path(path)
    if not path.exists():
        raise CorpusError(f"embedding file not found: {path}")
    data = path.read_bytes()
    nl = data.find(b"\n")
    if nl < 0:
        raise FormatError("missing header line", str(path), 1)
    n_rows, dim = _header(data[:nl], str(path))
    rows: list[tuple[NodeKind, str, np.ndarray, int]] = []
    pos = nl + 1
    row_bytes = 8 * dim
    for row in range(n_rows):
        sp = data.find(b" ", pos)
        if sp < 0:
            raise FormatError(f"truncated row {row + 1}", str(path))
        try:
            label = data[pos:sp].decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"row {row + 1} label is not valid UTF-8", str(path), row + 2) from None
        kind, label = _split_prefixed(label, str(path), row + 2)
        start = sp + 1
        end = start + row_bytes
        if end + 1 > len(data) or data[end:end + 1] != b"\n":
            raise FormatError(f"truncated or misaligned row {row + 1}", str(path))
        rows.append((kind, label, np.frombuffer(data[start:end], dtype="<f8").astype(np.float64), row + 1))
        pos = end + 1
    if pos != len(data):
        raise FormatError(f"header promised {n_rows} rows, found {len(data) - pos} more bytes after them", str(path))
    index, bad = _index(rows, dim)
    if bad is not None:
        raise FormatError(f"non-finite value in row {bad}", str(path))
    return index


def load_embeddings(path: str | Path) -> EmbeddingIndex:
    """Load an export, sniffing text vs binary from the content."""
    path = Path(path)
    if not path.exists():
        raise CorpusError(f"embedding file not found: {path}")
    with path.open("rb") as fh:
        header = fh.readline()
        probe = fh.read(4096)
    try:
        # final=False: the probe may end inside a multi-byte character.
        codecs.getincrementaldecoder("utf-8")().decode(probe, final=False)
        header.decode("ascii")
    except UnicodeDecodeError:
        text = False
    else:
        # A text row after the header never contains NUL; binary float payloads often do.
        # A probe without a newline may hold only row 1's label, which says nothing: the layout then decides alone.
        text = b"\x00" not in probe and b"\n" in probe
    # A text file with a bad byte in the probe fails that test too, so binary also needs row 1 in binary layout.
    return load_text(path) if text or not _binary_row_one(path, header) else load_binary(path)


def _binary_row_one(path: Path, header: bytes) -> bool:
    """Whether row 1 is a label, a space, then 8 * dim bytes and a newline, as ``load_binary`` requires.

    A text row whose ``dim`` values happen to fill exactly 8 * dim bytes has that layout too, so a
    payload that reads as ``dim`` numbers counts as text.
    """
    try:
        dim = int(header.split()[1])
    except (IndexError, ValueError):
        return False
    with path.open("rb") as fh, mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as data:
        space = data.find(b" ", len(header))
        end = space + 1 + 8 * dim
        if space < 0 or dim < 1 or data[end:end + 1] != b"\n":
            return False
        values = data[space + 1:end].split()
    try:
        return len([float(v) for v in values]) != dim
    except ValueError:
        return True
