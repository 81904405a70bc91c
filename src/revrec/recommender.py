"""Reviewer ranking from historical review records.

Two rankers live here. ``recommend`` scores every history record against
the query with the selected similarity methods (file-path Jaccard,
file-path adapted Hamming, comment cosine, comment Jaccard) into one
min-max normalized column per method; ``rank_selection`` averages any
sub-selection's columns per record and sums per reviewer.
``revfinder_recommend`` is the file-path-only baseline: four string-overlap
scores per record, summed per reviewer into four rankings that are merged
by Borda count. The overlaps are exact integer kernels: a bit-parallel
longest common subsequence and a grow-only longest common substring
search.

A score depends only on the query and one key of the record: its file
path for FP_JC, FP_HD and the baseline, its comment for RC_CS and RC_JC.
Both rankers take their history as a ``History``: the records with their
distinct keys, reviewer groups and, from each method's first use, that
method's features of the distinct keys (see ``similarity``), so that
``recommend`` scores each method as one array pass per query, with the
same doubles as ``method_score``. ``History.prefix`` cuts all of these
from a longer history instead of building them again. Reviewers are
ranked with ``_rank``: one math.fsum per reviewer group, ties by
reviewer id.

Both rankers are pure functions of their inputs and independent of history
order, so callers may evaluate many queries concurrently.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

from .corpus import ReviewRecord
from .embedding import EmbeddingTable, comment_vector
from .errors import ConfigurationError, EmptyHistoryError
from .similarity import (
    PathCodes,
    TokenPostings,
    VectorRows,
    adapted_hamming_similarity,
    cosine,
    jaccard,
)
from .textprep import preprocess_comment, tokenize_path


class MethodId(Enum):
    FP_JC = "FP_JC"  # file-path Jaccard
    FP_HD = "FP_HD"  # file-path adapted Hamming
    RC_CS = "RC_CS"  # comment cosine over word vectors
    RC_JC = "RC_JC"  # comment Jaccard

REVFINDER = "REVFINDER"

# A selection is either a set of similarity methods or the baseline marker.
MethodSelection = Union[frozenset, str]


def parse_method_selection(spec: str) -> MethodSelection:
    """Parse one '+'-joined selection, e.g. "FP_JC+RC_JC" or "REVFINDER"."""
    text = spec.strip()
    if text.upper() == REVFINDER:
        return REVFINDER
    methods = set()
    for part in text.split("+"):
        name = part.strip().upper()
        try:
            methods.add(MethodId(name))
        except ValueError:
            valid = ", ".join(m.value for m in MethodId)
            raise ConfigurationError(
                f"unknown method {part.strip()!r} in {spec!r} (valid: {valid}, REVFINDER)"
            ) from None
    if not methods:
        raise ConfigurationError(f"empty method selection in {spec!r}")
    return frozenset(methods)


def selection_label(selection: MethodSelection) -> str:
    if selection == REVFINDER:
        return REVFINDER
    ordered = [m.value for m in MethodId if m in selection]
    return "+".join(ordered)


@dataclass(frozen=True)
class RecommendationList:
    """Ranked (reviewer_id, score) pairs: scores non-increasing, reviewers
    unique, ties ordered lexicographically by reviewer id; ``columns`` are
    the normalized method columns behind it (empty for the baseline)."""

    entries: tuple[tuple[str, float], ...]
    query_ref: tuple[str, str]
    columns: Mapping[MethodId, list[float]] = field(default_factory=dict, compare=False)

    def reviewers(self) -> list[str]:
        return [reviewer for reviewer, _ in self.entries]

    def top(self, n: int) -> tuple[tuple[str, float], ...]:
        return self.entries[:n]


# The record field each method scores.
_FIELD = {
    MethodId.FP_JC: "file_path",
    MethodId.FP_HD: "file_path",
    MethodId.RC_CS: "comment",
    MethodId.RC_JC: "comment",
}


def _compared(method, record, table, stopwords):
    """What ``method`` compares of a record: its path's token set (FP_JC),
    its path (FP_HD), its comment's tokens (RC_JC) or vector (RC_CS)."""
    if method is MethodId.FP_JC:
        return tokenize_path(record.file_path)
    if method is MethodId.FP_HD:
        return record.file_path
    if method is MethodId.RC_JC:
        return preprocess_comment(record.comment, stopwords)
    if method is not MethodId.RC_CS:
        raise ConfigurationError(f"unknown method {method!r}")
    if table is None:
        raise ConfigurationError("RC_CS needs a word-vector table (see --embeddings)")
    return comment_vector(preprocess_comment(record.comment, stopwords), table).values


def method_score(
    query: ReviewRecord,
    past: ReviewRecord,
    method: MethodId,
    table: EmbeddingTable | None = None,
    stopwords: frozenset[str] | None = None,
) -> float:
    """Similarity of one past record to the query under one method: the
    scalar reference that ``History.scores`` equals key by key."""
    q, p = (_compared(method, record, table, stopwords) for record in (query, past))
    if method is MethodId.FP_HD:
        return adapted_hamming_similarity(q, p)
    return cosine(q, p) if method is MethodId.RC_CS else jaccard(q, p)


def _ranked_entries(totals: dict[str, float]) -> tuple[tuple[str, float], ...]:
    return tuple(sorted(totals.items(), key=lambda item: (-item[1], item[0])))


def _rank(groups: Sequence[tuple[str, Sequence[int]]], column: Sequence[float]) -> tuple:
    """Each reviewer's math.fsum of its records' scores in ``column``, best first."""
    return _ranked_entries({r: math.fsum([column[i] for i in ix]) for r, ix in groups})


def _distinct(history: Sequence[ReviewRecord], field: str) -> tuple[list[ReviewRecord], list[int]]:
    """One record per distinct value of ``field``, in first-seen order, and
    for each history record the position of its value in that list."""
    seen: dict[str, tuple[int, ReviewRecord]] = {}
    positions = [seen.setdefault(getattr(past, field), (len(seen), past))[0] for past in history]
    return [past for _, past in seen.values()], positions


class History(tuple):
    """A non-empty tuple of review records with what depends on them alone,
    built once: ``keys[field]`` is ``_distinct`` of ``file_path`` and of
    ``comment``, ``positions[field]`` is its record positions as an index
    array, and ``groups`` holds each reviewer with the indices of its
    records. ``History(h)`` returns ``h`` when it already is one.

    ``feature`` builds a method's features of the distinct keys on first
    use and keeps them: comment features per stop-word list, comment
    vectors per table (the table object itself is the key). Until then a
    key that a method cannot score raises nothing, so a history whose
    paths have no tokens still serves the comment methods. Two threads
    that race on a first use both build, and either equal result is kept."""

    def __new__(cls, records: Iterable[ReviewRecord]):
        if isinstance(records, History):
            return records
        self = super().__new__(cls, records)
        if not self:
            raise EmptyHistoryError("cannot recommend from an empty history")
        self.keys = {field: _distinct(self, field) for field in ("file_path", "comment")}
        self.positions = {f: np.array(ix, dtype=np.intp) for f, (_, ix) in self.keys.items()}
        self.features = {}
        groups: dict[str, list[int]] = {}
        for idx, past in enumerate(self):
            groups.setdefault(past.reviewer_id, []).append(idx)
        self.groups = tuple((reviewer, tuple(indices)) for reviewer, indices in groups.items())
        return self

    def prefix(self, m: int) -> History:
        """The History of the first ``m`` records, cut from this one's: a
        prefix's distinct keys in first-seen order are this one's first K,
        and it scores with this one's features so far over their first K."""
        if m < 1:
            raise EmptyHistoryError("cannot recommend from an empty history")
        part = tuple.__new__(History, self[:m])
        part.positions = {f: ix[:m] for f, ix in self.positions.items()}
        part.keys = {f: (h[:part.positions[f].max() + 1], ix[:m]) for f, (h, ix) in self.keys.items()}
        part.features = dict(self.features)
        part.groups = tuple((r, ix[:bisect_left(ix, m)]) for r, ix in self.groups if ix[0] < m)
        return part

    def feature(
        self,
        method: MethodId,
        table: EmbeddingTable | None = None,
        stopwords: frozenset[str] | None = None,
    ) -> TokenPostings | PathCodes | VectorRows:
        """``method``'s features of the distinct keys of its field: token
        postings, padded code points or comment vectors (see ``similarity``)."""
        key = {MethodId.RC_JC: (method, stopwords),
               MethodId.RC_CS: (method, table, stopwords)}.get(method, method)
        built = self.features.get(key)
        if built is None:
            kind = {MethodId.FP_HD: PathCodes, MethodId.RC_CS: VectorRows}.get(method, TokenPostings)
            holders = self.keys[_FIELD[method]][0]
            built = self.features[key] = kind([_compared(method, r, table, stopwords) for r in holders])
        return built

    def scores(
        self,
        query: ReviewRecord,
        method: MethodId,
        table: EmbeddingTable | None = None,
        stopwords: frozenset[str] | None = None,
    ) -> np.ndarray:
        """``method_score(query, past, method, table, stopwords)`` for one
        ``past`` per distinct key of the method's field, in ``keys`` order,
        as the same doubles, from one array pass over ``feature``."""
        built = self.feature(method, table, stopwords)
        compared, n = _compared(method, query, table, stopwords), len(self.keys[_FIELD[method]][0])
        if method is MethodId.FP_HD:
            return built.adapted_hamming(compared, n)
        return (built.cosine if method is MethodId.RC_CS else built.jaccard)(compared, n)


def _is_method_set(selection: object) -> bool:
    """True for a non-empty frozenset of MethodId, which ``recommend`` takes."""
    return isinstance(selection, frozenset) and bool(selection) and selection <= frozenset(MethodId)


def recommend(
    query: ReviewRecord,
    history: Sequence[ReviewRecord],
    methods: frozenset,
    table: EmbeddingTable | None = None,
    stopwords: frozenset[str] | None = None,
) -> RecommendationList:
    """Rank every reviewer in the history by summed similarity to the query.

    Each method's raw scores are min-max normalized across the history
    (constant columns become all zeros) and ranked by ``rank_selection``;
    the result carries those columns for ranking sub-selections.
    """
    history = History(history)
    if not _is_method_set(methods):
        raise ConfigurationError(f"expected a non-empty set of similarity methods, got {methods!r}")

    columns = {}
    for m in MethodId:
        if m in methods:
            scores = history.scores(query, m, table, stopwords)
            # The extremes of the distinct scores are those of the column.
            lo, hi = scores.min(), scores.max()
            normed = np.zeros(len(scores)) if hi == lo else (scores - lo) / (hi - lo)
            columns[m] = normed[history.positions[_FIELD[m]]].tolist()
    return rank_selection(history.groups, columns, methods, (query.change_id, query.patch_id))


def rank_selection(
    groups: Sequence[tuple[str, Sequence[int]]],
    columns: Mapping[MethodId, list[float]],
    methods: frozenset,
    query_ref: tuple[str, str],
) -> RecommendationList:
    """Average the selected columns per record and sum each reviewer's
    group (see ``History.groups``) with math.fsum, so the ranking does not
    depend on history order.

    The mean of one column is the column, and of two is ``(a + b) / 2``:
    IEEE addition is correctly rounded, so it equals ``fsum([a, b])``.
    """
    selected = [columns[m] for m in MethodId if m in methods]
    n = len(selected)
    if n == 1:
        combined = selected[0]
    elif n == 2:
        combined = [(a + b) / 2 for a, b in zip(*selected)]
    else:
        combined = [math.fsum(values) / n for values in zip(*selected)]
    return RecommendationList(entries=_rank(groups, combined), query_ref=query_ref, columns=columns)


# Baseline string-overlap components, computed on raw path characters and
# normalized by the longer path's length.

def _lcp_len(p: str, q: str) -> int:
    n = 0
    for a, b in zip(p, q):
        if a != b:
            break
        n += 1
    return n


def _lcsubstr_len(p: str, q: str) -> int:
    # A common substring of length L ending at p[i] implies one of length
    # L - 1, so ``best`` only grows: each substring search either raises it
    # or moves on to the next end position.
    best = 0
    for i in range(len(p)):
        while best <= i and p[i - best:i + 1] in q:
            best += 1
    return best


def _lcsubseq_len(p: str, q: str) -> int:
    # Bit-parallel LCS length (Hyyrö 2004). After reading p[:i], bit j of
    # ``v`` is clear exactly where LCS(p[:i], q[:j + 1]) exceeds
    # LCS(p[:i], q[:j]), so the clear bits count LCS(p[:i], q).
    masks: dict[str, int] = {}
    for j, b in enumerate(q):
        masks[b] = masks.get(b, 0) | (1 << j)
    full = (1 << len(q)) - 1
    v = full
    for a in p:
        u = v & masks.get(a, 0)
        v = ((v + u) | (v - u)) & full
    return len(q) - v.bit_count()


@lru_cache(maxsize=65536)
def _path_overlap_scores(p: str, q: str) -> tuple[float, float, float, float]:
    longer = max(len(p), len(q))
    if longer == 0:
        return (0.0, 0.0, 0.0, 0.0)
    return (
        _lcp_len(p, q) / longer,
        _lcp_len(p[::-1], q[::-1]) / longer,
        _lcsubstr_len(p, q) / longer,
        _lcsubseq_len(p, q) / longer,
    )


def revfinder_recommend(query: ReviewRecord, history: Sequence[ReviewRecord]) -> RecommendationList:
    """File-path baseline: four per-component reviewer rankings merged by
    Borda count.

    For each component, per-record scores sum onto reviewers and the
    reviewers are ranked (ties lexicographic). A reviewer at 0-based rank
    i in a component list of n reviewers earns n - i points, so the top
    reviewer gets n and the last gets 1; final ranking is by total points.
    """
    history = History(history)
    holders, positions = history.keys["file_path"]
    rows = [_path_overlap_scores(query.file_path, past.file_path) for past in holders]
    borda: dict[str, float] = {}
    for component in zip(*rows):
        ranking = _rank(history.groups, [component[i] for i in positions])
        n = len(ranking)
        for idx, (reviewer, _) in enumerate(ranking):
            borda[reviewer] = borda.get(reviewer, 0.0) + (n - idx)

    return RecommendationList(
        entries=_ranked_entries(borda), query_ref=(query.change_id, query.patch_id)
    )
