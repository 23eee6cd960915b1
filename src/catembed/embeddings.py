"""Embedding storage and the on-disk export format.

The export is UTF-8 text: first line ``<row_count> <dim>``, then one row per
line, ``<prefixed_label> <v1> ... <vd>`` with prefix ``e:`` for entities and
``c:`` for categories, floats printed with 6 significant digits.

Only input vectors are exported; output (context) vectors exist solely to
train against and are discarded here.
"""

from __future__ import annotations

from collections.abc import Container, Iterator
from dataclasses import dataclass
from itertools import chain
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
    """Load a text export; the first bad line fails with its ``<path>:<line>``.

    One pass reads the lines in order: each row's label is checked as it is
    reached, and its values go on to one ``np.loadtxt`` call, which parses a
    row in C before it asks for the next. A row is checked for, in order, its
    column count (``loadtxt`` holds each row to the first one's width), its
    ``e:``/``c:`` prefix, a repeated label, and a value ``loadtxt`` cannot
    read (it reads ``.5``, ``-2.5e-07``, ``nan``, not ``1_000`` or non-ASCII
    digits). Then a non-finite value, and a row count other than the header's,
    are refused; that count allocates nothing.

    Rows of each kind keep their file order. A file that interleaves the
    kinds is reordered entity rows first; every file :func:`save_text` writes
    is already in that order.
    """
    source, lines = read_lines(path)
    if not lines:
        raise FormatError("empty embedding file", source, 1)
    rows = iter(lines)
    n_rows, dim = _header(next(rows), source)
    linenos: dict[str, int] = {}  # prefixed label -> its line, in file order; folded clashes stay two rows
    last = ""  # the row loadtxt was handed last

    def values() -> Iterator[str]:  # each row's values, once its label passes
        nonlocal last
        for lineno, line in enumerate(rows, 2):
            parts = line.split(None, 1)
            if not parts:
                continue
            last = line
            # the first row's columns are counted here; loadtxt holds every later row to its width
            if not linenos or len(parts) == 1 or parts[0][:2] not in ("e:", "c:") or parts[0] in linenos:
                if fault := _row_fault(line, dim, linenos):
                    raise FormatError(fault, source, lineno)
            linenos[parts[0]] = lineno
            yield parts[1]

    stream = values()
    try:
        vecs = _read_values(next(stream, None), stream, dim, len(lines) - 1)
    except ValueError:  # loadtxt refused the row it was handed last
        if fault := _row_fault(last, dim, ()):
            raise FormatError(fault, source, linenos[last.split(None, 1)[0]]) from None
        raise  # no row fault explains it: loadtxt's own error
    if len(linenos) != n_rows:
        raise FormatError(f"header promised {n_rows} rows, found {len(linenos)}", source)
    bad = np.flatnonzero(~np.isfinite(vecs).all(axis=1))
    if bad.size:
        raise FormatError("non-finite value", source, list(linenos.values())[bad[0]])
    is_cat = [name.startswith("c:") for name in linenos]
    if is_cat != sorted(is_cat):
        vecs = vecs[np.argsort(is_cat, kind="stable")]
    ent_labels = [name[2:] for name, cat in zip(linenos, is_cat) if not cat]
    cat_labels = [name[2:] for name, cat in zip(linenos, is_cat) if cat]
    return EmbeddingIndex(ent_labels, cat_labels, vecs)


def _row_fault(line: str, dim: int, seen: Container[str]) -> str | None:
    """A row's first fault: its column count, its prefix, a label in ``seen``, or a value ``np.loadtxt`` cannot read.

    It takes one ``loadtxt`` call per value, so it runs only on the first row and on a refused one.
    """
    parts = line.split()
    if len(parts) != dim + 1:
        return f"expected {dim + 1} columns, got {len(parts)}"
    if parts[0][:2] not in ("e:", "c:"):
        return f"row label {parts[0]!r} lacks an e:/c: prefix"
    if parts[0] in seen:
        return f"duplicate row label {parts[0]!r}"
    for token in parts[1:]:
        try:
            np.loadtxt([token], comments=None)
        except ValueError:
            return f"non-numeric value (could not convert string to float: {token!r})"
    return None


def _read_values(first: str | None, rest: Iterator[str], dim: int, max_rows: int) -> np.ndarray:
    """The values of the rows ``first`` and then ``rest``, from one ``np.loadtxt`` pass."""
    if first is None:
        return np.empty((0, dim))
    try:  # bounded, loadtxt allocates its result once, as it reads the first row
        return np.loadtxt(chain([first], rest), comments=None, ndmin=2, max_rows=max_rows)
    except MemoryError:  # too many lines, most of them blank: start again from the first row, unbounded
        return np.loadtxt(chain([first], rest), comments=None, ndmin=2)
