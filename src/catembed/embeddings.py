"""Embedding storage and the on-disk export format.

The export is UTF-8 text: first line ``<row_count> <dim>``, then one row per
line, ``<prefixed_label> <v1> ... <vd>`` with prefix ``e:`` for entities and
``c:`` for categories, floats printed with 6 significant digits.

Only input vectors are exported; output (context) vectors exist solely to
train against and are discarded here.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import Vocabulary, read_lines
from .errors import CorpusError, FormatError


@dataclass
class EmbeddingTable:
    """Training-side vectors: every input row in ``inp``, and the entities' output rows.

    ``inp`` holds entity rows first, so category c is row ``n_entities + c``;
    ``ent_in`` and ``cat_in`` are views of its two parts.
    """

    inp: np.ndarray
    n_entities: int
    ent_out: np.ndarray

    @property
    def ent_in(self) -> np.ndarray:
        return self.inp[:self.n_entities]

    @property
    def cat_in(self) -> np.ndarray:
        return self.inp[self.n_entities:]

    def assert_finite(self) -> None:
        for name in ("ent_in", "cat_in", "ent_out"):
            if not np.isfinite(getattr(self, name)).all():
                raise CorpusError(f"non-finite values in {name}")


def init_embeddings(n_entities: int, n_categories: int, dim: int, seed: int) -> EmbeddingTable:
    """Fresh table: inputs uniform in [-0.5/dim, 0.5/dim), outputs zero."""
    if n_entities < 1 or n_categories < 1 or dim < 1:
        raise CorpusError("embedding table sizes must be >= 1")
    rng = np.random.default_rng(seed)
    inp = (rng.random((n_entities + n_categories, dim)) - 0.5) * (1.0 / dim)
    return EmbeddingTable(inp=inp, n_entities=n_entities, ent_out=np.zeros((n_entities, dim)))


class EmbeddingIndex(Vocabulary):
    """Loaded embedding file: a :class:`Vocabulary` plus one matrix of its input vectors.

    ``vecs`` has shape ``(n_ent + n_cat, d)``, entity rows first, each kind
    in file order; ``ent_vecs`` and ``cat_vecs`` are views of its two parts,
    and ``ent_labels`` and ``cat_labels`` the labels of each kind. Words map
    to rows and rows to labels by the vocabulary's rule. A label that repeats
    within a kind, or a ``vecs`` with other than one row per label, is refused.
    """

    def __init__(self, ent_labels: list[str], cat_labels: list[str], vecs: np.ndarray):
        super().__init__()
        # a repeated label gets its first index back, below the count read before adding it
        for label in ent_labels:
            if self.n_entities > (ent := self.add_entity(label, 0)):
                raise CorpusError(f"duplicate row label {self.label(ent)!r}")
        for label in cat_labels:
            if self.n_categories > (cat := self.add_category(label)):
                raise CorpusError(f"duplicate row label {self.label(self.n_entities + cat)!r}")
        if len(vecs) != self.n_rows:
            raise CorpusError(f"{len(vecs)} vectors for {self.n_rows} row labels")
        self.ent_labels, self.cat_labels = self._ent_labels, self._cat_labels
        self.vecs = vecs
        self.ent_vecs = vecs[:self.n_entities]
        self.cat_vecs = vecs[self.n_entities:]

    @property
    def dim(self) -> int:
        return self.vecs.shape[1]

    def save_text(self, path: str | Path) -> None:
        """Write the export: entities first, then categories."""
        _write_text(path, self.vecs, self)


def check_labels(vocab: Vocabulary) -> None:
    """Refuse a label that holds whitespace: the export ends a row's label at the first one."""
    for row in range(vocab.n_rows):
        label = vocab.label(row)
        if any(map(str.isspace, label)):
            raise CorpusError(f"label {label!r} holds whitespace, which an embedding export cannot store")


# below this norm the squares np.linalg.norm sums fall under 2**-1000, next to the subnormals
_TINY_NORM = 2.0**-500


def unit_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(unit, zero)``: the rows of matrix ``x`` scaled to unit length, and a mask of its zero rows.

    An ordinary row is divided by its plain norm, bit for bit ``row /
    np.linalg.norm(row)``. ``np.linalg.norm`` overflows to inf on a row whose
    norm is above about 1.3e154, and below ``_TINY_NORM`` the squares it sums
    fall towards the subnormals and lose digits, down to 0 on a nonzero row
    near 1e-170. Such a row is first divided by its largest absolute entry,
    which puts its norm between 1 and sqrt(d). A zero row stays zero and is
    flagged in ``zero``.
    """
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(x, axis=1, keepdims=True)
    rescale = np.isinf(norm) | (norm < _TINY_NORM)
    if rescale.any():
        peak = np.abs(x).max(axis=1, keepdims=True)
        x = np.where(rescale, x / np.where(peak > 0.0, peak, 1.0), x)
        norm = np.where(rescale, np.linalg.norm(x, axis=1, keepdims=True), norm)
    zero = norm[:, 0] == 0.0
    return x / np.where(zero[:, None], 1.0, norm), zero


def save_text(table: EmbeddingTable, vocab: Vocabulary, path: str | Path) -> None:
    _write_text(path, table.inp, vocab)


def _write_text(path: str | Path, vecs: np.ndarray, vocab: Vocabulary) -> None:
    """Write the export of one row matrix, row r labeled ``vocab.label(r)``; a bad label or row count writes nothing."""
    if len(vecs) != vocab.n_rows:
        raise CorpusError(f"{len(vecs)} vectors for {vocab.n_rows} row labels")
    check_labels(vocab)
    dim = vecs.shape[1]
    fmt = "%s " + " ".join(["%.6g"] * dim) + "\n"
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write(f"{vocab.n_rows} {dim}\n")
        for row, vec in enumerate(vecs):
            fh.write(fmt % (vocab.label(row), *vec.tolist()))


def _header(line: str, source: str) -> tuple[int, int]:
    """``n_rows dim`` from the first line."""
    try:
        n_rows, dim = (int(x) for x in line.split())
    except ValueError:
        raise FormatError(f"bad header {line!r}", source, 1) from None
    if n_rows < 0 or dim < 1:
        raise FormatError(f"bad header {line!r}: need rows >= 0 and dim >= 1", source, 1)
    return n_rows, dim


def load_embeddings(path: str | Path) -> EmbeddingIndex:
    """Load a text export; a malformed row fails with its ``<path>:<line>``.

    The values of all rows are parsed in C by one ``np.loadtxt`` call
    (:func:`_parse_block`), which splits only on whitespace that
    ``str.split`` splits on and accepts only tokens that ``float()`` accepts,
    with the same value. If ``loadtxt`` refuses the file, or its rows do not
    all come out ``dim`` wide, the file is parsed again line by line with
    ``float()`` (:func:`_parse_lines`); that pass either accepts what
    ``loadtxt`` could not (``1_000``, non-ASCII digits) or raises the error of
    the first bad line. Nothing is allocated from the header's row count,
    which is only compared with the rows found.

    Rows of each kind keep their file order. A file that interleaves the
    kinds is reordered entity rows first; every file :func:`save_text` writes
    is already in that order.
    """
    source, lines = read_lines(path)
    if not lines:
        raise FormatError("empty embedding file", source, 1)
    n_rows, dim = _header(lines[0], source)
    names, vecs, linenos = _parse_block(lines[1:], dim) or _parse_lines(lines[1:], dim, source)
    if len(names) != n_rows:
        raise FormatError(f"header promised {n_rows} rows, found {len(names)}", source)
    bad = np.flatnonzero(~np.isfinite(vecs).all(axis=1))
    if bad.size:
        raise FormatError("non-finite value", source, linenos[bad[0]])
    is_cat = [name.startswith("c:") for name in names]
    if is_cat != sorted(is_cat):
        vecs = vecs[np.argsort(is_cat, kind="stable")]
    ent_labels = [name[2:] for name, cat in zip(names, is_cat) if not cat]
    cat_labels = [name[2:] for name, cat in zip(names, is_cat) if cat]
    return EmbeddingIndex(ent_labels, cat_labels, vecs)


_Rows = tuple[list[str], np.ndarray, list[int]]  # prefixed labels, values, line numbers


def _parse_block(body: list[str], dim: int) -> _Rows | None:
    """The rows of ``body`` (line 2 on) from one ``np.loadtxt`` call, or None if a line needs :func:`_parse_lines`."""
    names, linenos = [], []

    def values():  # each row's values, streamed so that they are never all held at once
        for lineno, line in enumerate(body, 2):
            parts = line.split(None, 1)
            if not parts:
                continue
            if len(parts) == 1 or parts[0][:2] not in ("e:", "c:"):
                raise ValueError  # a row only _parse_lines can judge
            names.append(parts[0])
            linenos.append(lineno)
            yield parts[1]

    if not any(map(str.split, body)):
        return None  # no rows, which loadtxt would warn about
    try:
        # a row per line at most: allocating that many up front spares loadtxt growing its result;
        # an allocation too large for a file of mostly blank lines falls back too
        vecs = np.loadtxt(values(), comments=None, ndmin=2, dtype=np.float64, max_rows=len(body))
    except (ValueError, MemoryError):
        return None
    if len(set(names)) != len(names) or vecs.shape != (len(names), dim):
        return None
    return names, vecs, linenos


def _parse_lines(body: list[str], dim: int, source: str) -> _Rows:
    """The rows of ``body`` (line 2 on), one line at a time with ``float()``; a bad line raises its ``FormatError``.

    Each row is kept as its own float64 array, not as Python floats, so a file
    refused at its last line peaks near its values' float64 bytes.
    """
    names: list[str] = []
    rows: list[np.ndarray] = []
    linenos: list[int] = []
    seen: set[str] = set()  # prefixed labels; folded clashes stay two rows
    for lineno, line in enumerate(body, 2):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != dim + 1:
            raise FormatError(f"expected {dim + 1} columns, got {len(parts)}", source, lineno)
        if parts[0][:2] not in ("e:", "c:"):
            raise FormatError(f"row label {parts[0]!r} lacks an e:/c: prefix", source, lineno)
        if parts[0] in seen:
            raise FormatError(f"duplicate row label {parts[0]!r}", source, lineno)
        seen.add(parts[0])
        try:
            rows.append(np.array([float(x) for x in parts[1:]]))
        except ValueError as exc:
            raise FormatError(f"non-numeric value ({exc})", source, lineno) from None
        names.append(parts[0])
        linenos.append(lineno)
    return names, np.array(rows, dtype=np.float64).reshape(-1, dim), linenos
