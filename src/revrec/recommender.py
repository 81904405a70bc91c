"""Reviewer ranking from historical review records.

Two rankers live here. ``recommend`` scores every history record against
the query with the selected similarity methods (file-path Jaccard,
file-path adapted Hamming, comment cosine, comment Jaccard) into one
min-max normalized column per method. ``_fsums`` averages the columns
per record and sums the means per reviewer, one math.fsum at a time. It
returns the normalized scores of the distinct keys with its ranking, and
evaluation's filter (``evaluation.SubSelections``) ranks sub-selections
from those scores, summing exactly with ``_fsums`` only where its bounds
cannot decide. ``revfinder_recommend`` is the file-path-only baseline:
four string-overlap scores per record, summed per reviewer into four
rankings that are merged by Borda count. ``revfinder_points`` gives
those points for queries on several paths at once, and
``revfinder_recommend`` is its one-path case. The overlaps are exact
integer kernels over all distinct paths at once
(``similarity.PathOverlaps``), whose reference is the textbook dynamic
programs of ``tests/oracle.py``; ``_path_overlap_scores``, a one-pair
shell over them, is read only by the benchmark. The reviewer sums come
from the distinct paths' overlaps, split at a grid per query path that
makes both sums over each reviewer's records exact
(``_reviewer_sums``), so they are the doubles ``_fsums`` gives, which
sums a query path the grid cannot hold; the four rankings and the Borda
points are array sorts and sums over all the query paths. Both rankers
order reviewers by (-total, reviewer id) (``_entries``).

A score depends only on the query and one key of the record: its file
path for FP_JC, FP_HD and the baseline, its comment for RC_CS and RC_JC.
Both rankers take their history as a ``History``: the records with their
distinct keys, reviewer groups and, from each method's first use, that
method's features of the distinct keys (see ``similarity``), so that each
method scores as one array pass per query, with the same doubles as
``method_score``. FP_HD and the baseline read one packed-path feature,
and RC_CS's comment vectors carry their comment lookup.
``History.prefix`` cuts all of these from a longer history instead of
building them again. The reviewer groups of a History and of a prefix
are in reviewer-id order, laid out by one routine, from which
``History.group_sums`` sums per-key values onto reviewers for
evaluation's filter and the baseline's sums.

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
from .embedding import EmbeddingTable, comment_vector, comment_vectors
from .errors import ConfigurationError, EmptyHistoryError
from .similarity import (
    PathOverlaps,
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
    the normalized method scores behind it, one per distinct key of the
    method's field in ``History.keys`` order (empty for the baseline)."""

    entries: tuple[tuple[str, float], ...]
    query_ref: tuple[str, str]
    columns: Mapping[MethodId, np.ndarray] = field(default_factory=dict, compare=False)

    def reviewers(self) -> list[str]:
        return [reviewer for reviewer, _ in self.entries]

    def top(self, n: int) -> tuple[tuple[str, float], ...]:
        return self.entries[:n]


# The record field each method, and the baseline, scores.
_FIELD = {
    MethodId.FP_JC: "file_path",
    MethodId.FP_HD: "file_path",
    MethodId.RC_CS: "comment",
    MethodId.RC_JC: "comment",
    REVFINDER: "file_path",
}


def _compared(method, record, table, stopwords):
    """What ``method`` compares of a record: its path's token set (FP_JC),
    its path (FP_HD, REVFINDER), its comment's tokens (RC_JC) or vector
    (RC_CS)."""
    if method is MethodId.FP_JC:
        return tokenize_path(record.file_path)
    if method is MethodId.FP_HD or method == REVFINDER:
        return record.file_path
    if method is MethodId.RC_JC:
        return preprocess_comment(record.comment, stopwords)
    if method is not MethodId.RC_CS:
        raise ConfigurationError(f"unknown method {method!r}")
    return comment_vector(preprocess_comment(record.comment, stopwords), _required(table)).values


def _required(table: EmbeddingTable | None) -> EmbeddingTable:
    if table is None:
        raise ConfigurationError("RC_CS needs a word-vector table (see --embeddings)")
    return table


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
    records, in reviewer-id order, laid out by ``_lay_out``. ``History(h)``
    returns ``h`` when it already is one.

    ``feature`` builds a method's (or REVFINDER's) features of the
    distinct keys on first use and keeps them: FP_HD reads REVFINDER's
    packed paths, comment features are kept per stop-word list, and
    comment vectors per table (the table object itself is the key), built
    in one pass (``embedding.comment_vectors``) with their comment lookup.
    Until then a key that a method cannot score raises nothing, so a
    history whose paths have no tokens still serves the comment methods;
    FP_HD raises on an empty path when it scores it. Two threads that race
    on a first use both build, and either equal result is kept."""

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
        self._lay_out(tuple((reviewer, tuple(indices)) for reviewer, indices in sorted(groups.items())))
        return self

    def _lay_out(self, groups: tuple[tuple[str, tuple[int, ...]], ...]) -> None:
        """Set ``groups``, ``grouped`` (the record indices in groups order)
        and ``group_starts`` (each group's first place in ``grouped``)."""
        self.groups = groups
        self.grouped = np.array([i for _, ix in groups for i in ix], dtype=np.intp)
        self.group_starts = np.cumsum([0] + [len(ix) for _, ix in groups[:-1]])

    def prefix(self, m: int) -> History:
        """The History of the first ``m`` records, cut from this one's: a
        prefix's distinct keys in first-seen order are this one's first K,
        and it scores with this one's features so far over their first K.
        It keeps its own copy of the feature dict, so what it builds later
        is its own, and it scores and raises like ``History`` of its
        records."""
        if m < 1:
            raise EmptyHistoryError("cannot recommend from an empty history")
        part = tuple.__new__(History, self[:m])
        part.positions = {f: ix[:m] for f, ix in self.positions.items()}
        part.keys = {f: (h[:part.positions[f].max() + 1], ix[:m]) for f, (h, ix) in self.keys.items()}
        part.features = dict(self.features)
        part._lay_out(tuple((r, ix[:bisect_left(ix, m)]) for r, ix in self.groups if ix[0] < m))
        return part

    def feature(
        self,
        method: MethodId | str,
        table: EmbeddingTable | None = None,
        stopwords: frozenset[str] | None = None,
    ) -> TokenPostings | VectorRows | PathOverlaps:
        """``method``'s features of the distinct keys of its field: token
        postings, comment vectors or, for FP_HD and REVFINDER, the paths
        packed for adapted Hamming and the overlaps (see ``similarity``)."""
        key = {MethodId.FP_HD: REVFINDER,
               MethodId.RC_JC: (method, stopwords),
               MethodId.RC_CS: (method, table, stopwords)}.get(method, method)
        built = self.features.get(key)
        if built is None:
            holders = self.keys[_FIELD[method]][0]
            if method is MethodId.RC_CS:
                comments = [preprocess_comment(r.comment, stopwords) for r in holders]
                built = VectorRows([r.comment for r in holders], comment_vectors(comments, _required(table)))
            else:
                kind = PathOverlaps if key == REVFINDER else TokenPostings
                built = kind([_compared(method, r, table, stopwords) for r in holders])
            self.features[key] = built
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
        n = len(self.keys[_FIELD[method]][0])
        if method is MethodId.RC_CS:
            # A comment the rows were built from (a prefix may read its
            # whole's) has its vector among them.
            row = built.index.get(query.comment)
            if row is not None:
                return built.cosine(built.rows[row], n)
        compared = _compared(method, query, table, stopwords)
        if method is MethodId.FP_HD:
            return built.adapted_hamming(compared, n)
        return (built.cosine if method is MethodId.RC_CS else built.jaccard)(compared, n)

    def group_sums(self, field: str, values: np.ndarray) -> np.ndarray:
        """Each reviewer's (last axis, in ``groups`` order) float sum of
        its records' values, from ``values`` per distinct key of ``field``
        (last axis, in ``keys`` order): one gather and one
        ``np.add.reduceat`` over the records in ``groups`` order, with no
        BLAS call."""
        return np.add.reduceat(values[..., self.positions[field][self.grouped]], self.group_starts, axis=-1)


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
    (constant columns become all zeros), averaged per record and summed
    per reviewer (``_fsums``); the result carries the normalized scores of
    the distinct keys, for ranking sub-selections.
    """
    history = History(history)
    if not _is_method_set(methods):
        raise ConfigurationError(f"expected a non-empty set of similarity methods, got {methods!r}")

    columns, per_record = {}, []
    for m in MethodId:
        if m in methods:
            scores = history.scores(query, m, table, stopwords)
            # The extremes of the distinct scores are those of the column.
            lo, hi = scores.min(), scores.max()
            columns[m] = np.zeros(len(scores)) if hi == lo else (scores - lo) / (hi - lo)
            per_record.append(columns[m][history.positions[_FIELD[m]]].tolist())
    entries = _entries(history, _fsums(history.groups, per_record))
    return RecommendationList(entries, (query.change_id, query.patch_id), columns)


def _fsums(groups: Sequence[tuple[str, Sequence[int]]], columns: Sequence[Sequence[float]]) -> list[float]:
    """Each group's math.fsum of its records' means, where a record's mean
    is the math.fsum of its values in ``columns`` (one per-record sequence
    per selected method) over their number p. With p = 1 it is the value,
    and with p = 2 ``(a + b) / 2``: IEEE addition is correctly rounded, so
    it equals ``fsum([a, b]) / 2``."""
    p = len(columns)
    if p == 1:
        means = columns[0]
    elif p == 2:
        means = [(a + b) / 2 for a, b in zip(*columns)]
    else:
        means = [math.fsum(values) / p for values in zip(*columns)]
    return [math.fsum([means[i] for i in ix]) for _, ix in groups]


def _entries(history: History, totals: Sequence[float]) -> tuple[tuple[str, float], ...]:
    """Each reviewer (``totals`` in ``groups`` order) with its total, by
    (-total, reviewer id). A Python sort: each ``recommend`` call ranks a
    few dozen reviewers, and numpy's first calls in a process cost more."""
    ranked = zip([reviewer for reviewer, _ in history.groups], map(float, totals))
    return tuple(sorted(ranked, key=lambda entry: -entry[1]))


@lru_cache(maxsize=65536)
def _path_overlap_scores(p: str, q: str) -> tuple[float, float, float, float]:
    """One pair's four overlaps, from a one-path ``PathOverlaps``. Nothing
    in revrec calls it: it stays only until the benchmark stops reading
    its cache as ``recommender.path_overlap.hit_ratio``."""
    return tuple(PathOverlaps([q]).overlaps(p, 1)[:, 0].tolist())


def _reviewer_sums(history: History, field: str, values: np.ndarray) -> np.ndarray:
    """Reviewer (last axis, in ``groups`` order) sums of ``values``, a
    rows × components × distinct keys of ``field`` array of non-negative
    values: the math.fsum of a reviewer's records' values, as the same
    doubles.

    Each non-zero value of a row is m·2**e with 0.5 <= m < 1 (``np.frexp``)
    and e_min <= e <= e_max, so it is a multiple of 2**(e_min - 53). Cut at
    the row's grid g = 2**(e_min - 26), it is ``high``, a multiple of g
    below 2**e_max, plus ``low``, a multiple of 2**(e_min - 53) below g: in
    those units, integers below 2**(e_max - e_min + 26) and 2**27. A
    reviewer of n_r records sums n_r of each, so while 27 + (e_max - e_min)
    + bit_length(n_r) <= 53 every partial sum of its ``high`` and of its
    ``low`` values (``History.group_sums``) is an integer below 2**53 in
    its unit, exact in any order, and their one IEEE addition rounds the
    exact total as math.fsum does. Rows where that fails are summed record
    by record, one ``_fsums`` per component."""
    positive = values > 0
    exponents = np.frexp(values)[1]
    found = positive.any(axis=(1, 2))
    e_min = np.where(found, np.where(positive, exponents, 1 << 30).min(axis=(1, 2)), 0)
    e_max = np.where(found, np.where(positive, exponents, -(1 << 30)).max(axis=(1, 2)), 0)
    largest = max(len(ix) for _, ix in history.groups)
    exact = 27 + e_max - e_min + largest.bit_length() <= 53
    grid = np.where(exact, e_min - 26, 0)[:, None, None]
    high = np.ldexp(np.floor(np.ldexp(values, -grid)), grid)
    sums = history.group_sums(field, high) + history.group_sums(field, values - high)
    for row in np.flatnonzero(~exact):
        per_record = values[row][:, history.positions[field]].tolist()
        sums[row] = [_fsums(history.groups, [component]) for component in per_record]
    return sums


def revfinder_points(paths: Sequence[str], history: Sequence[ReviewRecord]) -> np.ndarray:
    """REVFINDER's Borda points of each reviewer (columns, in ``groups``
    order) for a query on each of ``paths`` (rows), as integers.

    For each component, per-record scores sum onto reviewers
    (``_reviewer_sums``) and the reviewers are ranked (ties lexicographic).
    A reviewer at 0-based rank i in a component list of n reviewers earns
    n - i points, so the top reviewer gets n and the last gets 1; its
    points are the sum over the four components.
    """
    history = History(history)
    built, n = history.feature(REVFINDER), len(history.keys["file_path"][0])
    totals = _reviewer_sums(history, "file_path", np.array([built.overlaps(path, n) for path in paths]))
    order = np.argsort(-totals, axis=-1, kind="stable")
    return (totals.shape[-1] - order.argsort(axis=-1)).sum(axis=1)


def revfinder_recommend(query: ReviewRecord, history: Sequence[ReviewRecord]) -> RecommendationList:
    """File-path baseline: four per-component reviewer rankings merged by
    Borda count (``revfinder_points``); the final ranking is by total
    points, ties lexicographic."""
    history = History(history)
    borda = revfinder_points([query.file_path], history)[0]
    return RecommendationList(entries=_entries(history, borda), query_ref=(query.change_id, query.patch_id))
