"""Word-vector table loading and comment-to-vector aggregation.

The table file is the plain-text vector format: a header line
``<count> <dimension>`` followed by one ``<word> <f1> ... <fd>`` line per
word. A row is split once on whitespace and converted in one
``np.array(parts, dtype=float)``, which applies Python's ``float`` to each
string. Finiteness is checked a block of rows at a time, yet errors and
warnings keep file order: a row's error is raised only once the rows
before it pass, and a duplicate row is checked in full before its
warning. A comment becomes the unweighted mean of its in-vocabulary token
vectors; duplicate tokens count as often as they occur, and
out-of-vocabulary tokens are skipped. ``comment_vectors`` gives many
comments' vectors at once, as the same doubles.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .errors import EmbeddingFormatError
from .fileio import write_replacing

# The loader checks finiteness over the rows it has not yet checked, in one
# ``np.isfinite`` over at most this many cells, so the check's copy stays
# small at any table size.
_FINITE_BLOCK_CELLS = 2**16


# eq=False: ndarray values make field-wise comparison ambiguous; compare
# tables explicitly (see tests) instead of relying on ==.
@dataclass(frozen=True, eq=False)
class EmbeddingTable:
    dimension: int
    entries: dict[str, np.ndarray]

    def __contains__(self, word: str) -> bool:
        return word in self.entries

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True, eq=False)
class CommentVector:
    """Aggregated comment vector plus the fraction of tokens found in the
    table. coverage == 0 exactly when values is the zero vector."""

    values: np.ndarray
    token_coverage: float


def load_embedding_table(path: str | Path) -> EmbeddingTable:
    """Stream a table file; error line numbers are the file's own lines.

    Each row's components convert as Python's ``float`` would. The first
    faulty row in file order raises ``EmbeddingFormatError``: a wrong
    component count, a component ``float`` rejects, or a non-finite one. A
    duplicate word keeps its first row and warns; a header count unequal
    to the number of non-blank rows warns."""
    with open(path, encoding="utf-8") as fh:
        return _read_table(path, fh)


def _read_table(path: str | Path, lines: Iterator[str]) -> EmbeddingTable:
    first = next(lines, "").rstrip("\n")
    if not first.strip():
        raise EmbeddingFormatError(f"{path}: empty vector file", line_no=1)

    header = first.split()
    if len(header) != 2:
        raise EmbeddingFormatError(
            f"{path}: header must be '<count> <dimension>', got {first!r}", line_no=1
        )
    try:
        count, dimension = int(header[0]), int(header[1])
    except ValueError:
        raise EmbeddingFormatError(f"{path}: non-integer header {first!r}", line_no=1) from None
    if dimension <= 0:
        raise EmbeddingFormatError(f"{path}: dimension must be positive, got {dimension}", line_no=1)

    entries: dict[str, np.ndarray] = {}
    pending: dict[int, np.ndarray] = {}  # rows not yet checked for finiteness, by line
    block_rows = max(1, _FINITE_BLOCK_CELLS // dimension)

    def check_pending() -> None:
        if pending:
            finite = np.isfinite(list(pending.values())).all(axis=1)
            if not finite.all():
                line_no = list(pending)[int(finite.argmin())]
                raise EmbeddingFormatError(
                    f"{path}: line {line_no}: non-finite component", line_no=line_no
                )
            pending.clear()

    rows = 0
    for line_no, line in enumerate(lines, start=2):
        parts = line.split()
        if not parts:
            continue
        rows += 1
        problem = None
        if len(parts) - 1 != dimension:
            problem = f"expected {dimension} components, got {len(parts) - 1}"
        else:
            try:
                vector = np.array(parts[1:], dtype=float)
            except ValueError:
                problem = "non-numeric component"
        if problem is not None:
            check_pending()
            raise EmbeddingFormatError(f"{path}: line {line_no}: {problem}", line_no=line_no)
        pending[line_no] = vector
        word = parts[0]
        if word in entries:
            check_pending()
            warnings.warn(f"{path}: line {line_no}: duplicate word {word!r} ignored", stacklevel=3)
            continue
        entries[word] = vector
        if len(pending) == block_rows:
            check_pending()
    check_pending()

    if not entries:
        raise EmbeddingFormatError(f"{path}: no vector rows", line_no=1)
    if rows != count:
        warnings.warn(f"{path}: header count {count} != {rows} parsed rows", stacklevel=3)
    return EmbeddingTable(dimension=dimension, entries=entries)


def save_embedding_table(table: EmbeddingTable, path: str | Path) -> None:
    """Write the table in the text vector format (floats via repr, so a
    save/load round trip reproduces the table exactly). What would not
    load back raises before ``path`` is touched: a dimension below 1, an
    empty table, a word that is empty, holds whitespace or holds a lone
    surrogate, and a vector that is not ``dimension`` finite numbers."""
    if table.dimension < 1:
        raise EmbeddingFormatError(f"dimension must be positive, got {table.dimension}; cannot save")
    if not table.entries:
        raise EmbeddingFormatError("the table has no words; cannot save")
    for word, vector in table.entries.items():
        if np.shape(vector) != (table.dimension,) or not np.isfinite(vector).all():
            raise EmbeddingFormatError(f"word {word!r} needs {table.dimension} finite components; cannot save")
        if word.split() != [word]:
            raise EmbeddingFormatError(f"word {word!r} is empty or holds whitespace; cannot save")
        try:
            word.encode("utf-8")
        except UnicodeEncodeError:
            raise EmbeddingFormatError(
                f"word {word!r} holds a lone surrogate, which UTF-8 cannot encode; cannot save"
            ) from None
    with write_replacing(path) as fh:
        fh.write(f"{len(table.entries)} {table.dimension}\n")
        for word, vector in table.entries.items():
            fh.write(word + " " + " ".join(repr(float(v)) for v in vector) + "\n")


def comment_vector(tokens: Sequence[str], table: EmbeddingTable) -> CommentVector:
    """Mean of the in-vocabulary token vectors.

    Returns the zero vector with coverage 0 when no token is known
    (including the empty token list).
    """
    found = sum(token in table.entries for token in tokens)
    values = comment_vectors([tokens], table)[0]
    return CommentVector(values=values, token_coverage=found / len(tokens) if found else 0.0)


def comment_vectors(comments: Sequence[Sequence[str]], table: EmbeddingTable) -> np.ndarray:
    """The mean of each token list's in-vocabulary token vectors (the zero
    vector where none is known), as the rows of one matrix, with one
    ``np.mean`` per number of in-vocabulary tokens: the mean along the
    token axis of a (comments × tokens × dimension) stack is the same
    double as each comment's own ``np.mean``, where ``np.add.reduceat`` or
    a running sum is not. ``comment_vector`` reads its values here."""
    words: dict[str, int] = {}
    found = [[words.setdefault(t, len(words)) for t in tokens if t in table.entries] for tokens in comments]
    vectors = np.array([table.entries[word] for word in words], dtype=float)
    rows = np.zeros((len(comments), table.dimension))
    by_count: dict[int, list[int]] = {}
    for row, ids in enumerate(found):
        if ids:
            by_count.setdefault(len(ids), []).append(row)
    for members in by_count.values():
        with np.errstate(over="ignore"):
            rows[members] = np.mean(vectors[[found[row] for row in members]], axis=1)
    # A token sum past the largest double is taken again from the vectors
    # scaled by a power of two below 1 / count (exact unless a component
    # turns subnormal), and the mean scaled back.
    for row in np.flatnonzero(~np.isfinite(rows).all(axis=1)):
        shift = len(found[row]).bit_length()
        rows[row] = np.ldexp(np.mean(np.ldexp(vectors[found[row]], -shift), axis=0), shift)
    if not np.isfinite(rows).all():  # load guarantees finite entries; a table built in code may not
        raise EmbeddingFormatError("non-finite comment vector")
    return rows
