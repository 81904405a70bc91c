"""Word-vector table loading and comment-to-vector aggregation.

The table file is the plain-text vector format: a header line
``<count> <dimension>`` followed by one ``<word> <f1> ... <fd>`` line per
word. A comment becomes the unweighted mean of its in-vocabulary token
vectors; duplicate tokens count as often as they occur, and
out-of-vocabulary tokens are skipped.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .errors import EmbeddingFormatError


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
    """Stream a table file; error line numbers are the file's own lines."""
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
    for line_no, line in enumerate(lines, start=2):
        if not line.strip():
            continue
        parts = line.split()
        word = parts[0]
        if len(parts) - 1 != dimension:
            raise EmbeddingFormatError(
                f"{path}: line {line_no}: expected {dimension} components, got {len(parts) - 1}",
                line_no=line_no,
            )
        try:
            vector = np.array([float(p) for p in parts[1:]], dtype=float)
        except ValueError:
            raise EmbeddingFormatError(
                f"{path}: line {line_no}: non-numeric component", line_no=line_no
            ) from None
        if not np.all(np.isfinite(vector)):
            raise EmbeddingFormatError(
                f"{path}: line {line_no}: non-finite component", line_no=line_no
            )
        if word in entries:
            warnings.warn(f"{path}: line {line_no}: duplicate word {word!r} ignored", stacklevel=3)
            continue
        entries[word] = vector

    if not entries:
        raise EmbeddingFormatError(f"{path}: no vector rows", line_no=1)
    if len(entries) != count:
        warnings.warn(f"{path}: header count {count} != {len(entries)} parsed rows", stacklevel=3)
    return EmbeddingTable(dimension=dimension, entries=entries)


def save_embedding_table(table: EmbeddingTable, path: str | Path) -> None:
    """Write the table in the text vector format (floats via repr, so a
    save/load round trip reproduces the table exactly). Words that are
    empty or hold whitespace would not load back, so they raise first."""
    for word in table.entries:
        if word.split() != [word]:
            raise EmbeddingFormatError(f"word {word!r} is empty or holds whitespace; cannot save")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(table.entries)} {table.dimension}\n")
        for word, vector in table.entries.items():
            fh.write(word + " " + " ".join(repr(float(v)) for v in vector) + "\n")


def comment_vector(tokens: Sequence[str], table: EmbeddingTable) -> CommentVector:
    """Mean of the in-vocabulary token vectors.

    Returns the zero vector with coverage 0 when no token is known
    (including the empty token list).
    """
    found = [table.entries[token] for token in tokens if token in table.entries]
    if not found:
        return CommentVector(values=np.zeros(table.dimension), token_coverage=0.0)
    mean = np.mean(found, axis=0)
    if not math.isfinite(float(np.sum(mean))):  # defensive; load guarantees finite entries
        raise EmbeddingFormatError("non-finite comment vector")
    return CommentVector(values=mean, token_coverage=len(found) / len(tokens))
