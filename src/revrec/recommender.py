"""Reviewer ranking from historical review records.

Two rankers live here. ``recommend`` scores every history record against
the query with the selected similarity methods (file-path Jaccard,
file-path adapted Hamming, comment cosine, comment Jaccard) into one
min-max normalized column per method; ``rank_selection`` averages any
sub-selection's columns per record and sums per reviewer.
``revfinder_recommend`` is the file-path-only baseline: four string-overlap
scores per record, summed per reviewer into four rankings that are merged
by Borda count.

Both rankers are pure functions of their inputs and independent of history
order, so callers may evaluate many queries concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Mapping, Sequence, Union

from .corpus import ReviewRecord
from .embedding import EmbeddingTable, comment_vector
from .errors import ConfigurationError, EmptyHistoryError
from .similarity import adapted_hamming_similarity, cosine, jaccard
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


def method_score(
    query: ReviewRecord,
    past: ReviewRecord,
    method: MethodId,
    table: EmbeddingTable | None = None,
    stopwords: frozenset[str] | None = None,
) -> float:
    """Similarity of one past record to the query under one method."""
    if method is MethodId.FP_JC:
        return jaccard(tokenize_path(query.file_path), tokenize_path(past.file_path))
    if method is MethodId.FP_HD:
        return adapted_hamming_similarity(query.file_path, past.file_path)
    if method is MethodId.RC_JC:
        return jaccard(
            set(preprocess_comment(query.comment, stopwords)),
            set(preprocess_comment(past.comment, stopwords)),
        )
    if method is MethodId.RC_CS:
        if table is None:
            raise ConfigurationError("RC_CS needs a word-vector table (see --embeddings)")
        u = comment_vector(preprocess_comment(query.comment, stopwords), table)
        v = comment_vector(preprocess_comment(past.comment, stopwords), table)
        return cosine(u.values, v.values)
    raise ConfigurationError(f"unknown method {method!r}")


def _minmax(scores: list[float]) -> list[float]:
    lo, hi = min(scores), max(scores)
    if hi == lo:
        return [0.0] * len(scores)
    return [(s - lo) / (hi - lo) for s in scores]


def _ranked_entries(totals: dict[str, float]) -> tuple[tuple[str, float], ...]:
    return tuple(sorted(totals.items(), key=lambda item: (-item[1], item[0])))


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
    if not history:
        raise EmptyHistoryError("cannot recommend from an empty history")
    if not methods:
        raise ConfigurationError("at least one similarity method is required")

    columns = {
        m: _minmax([method_score(query, past, m, table, stopwords) for past in history])
        for m in MethodId if m in methods
    }
    return rank_selection(history, columns, methods, (query.change_id, query.patch_id))


def rank_selection(
    history: Sequence[ReviewRecord],
    columns: Mapping[MethodId, list[float]],
    methods: frozenset,
    query_ref: tuple[str, str],
) -> RecommendationList:
    """Average the selected columns per record and sum onto reviewers with
    math.fsum, so the ranking does not depend on history order."""
    selected = [columns[m] for m in MethodId if m in methods]
    per_reviewer: dict[str, list[float]] = {}
    for idx, past in enumerate(history):
        combined = math.fsum(column[idx] for column in selected) / len(selected)
        per_reviewer.setdefault(past.reviewer_id, []).append(combined)

    totals = {reviewer: math.fsum(scores) for reviewer, scores in per_reviewer.items()}
    return RecommendationList(entries=_ranked_entries(totals), query_ref=query_ref, columns=columns)


# Baseline string-overlap components, computed on raw path characters and
# normalized by the longer path's length.

def _lcp_len(p: str, q: str) -> int:
    n = 0
    for a, b in zip(p, q):
        if a != b:
            break
        n += 1
    return n


def _lcsuffix_len(p: str, q: str) -> int:
    n = 0
    for a, b in zip(reversed(p), reversed(q)):
        if a != b:
            break
        n += 1
    return n


def _lcsubstr_len(p: str, q: str) -> int:
    best = 0
    prev = [0] * (len(q) + 1)
    for a in p:
        cur = [0] * (len(q) + 1)
        for j, b in enumerate(q, start=1):
            if a == b:
                cur[j] = prev[j - 1] + 1
                best = max(best, cur[j])
        prev = cur
    return best


def _lcsubseq_len(p: str, q: str) -> int:
    prev = [0] * (len(q) + 1)
    for a in p:
        cur = [0]
        for j, b in enumerate(q, start=1):
            cur.append(prev[j - 1] + 1 if a == b else max(prev[j], cur[j - 1]))
        prev = cur
    return prev[len(q)]


@lru_cache(maxsize=65536)
def _path_overlap_scores(p: str, q: str) -> tuple[float, float, float, float]:
    longer = max(len(p), len(q))
    if longer == 0:
        return (0.0, 0.0, 0.0, 0.0)
    return (
        _lcp_len(p, q) / longer,
        _lcsuffix_len(p, q) / longer,
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
    if not history:
        raise EmptyHistoryError("cannot recommend from an empty history")

    component_totals: list[dict[str, list[float]]] = [{} for _ in range(4)]
    for past in history:
        scores = _path_overlap_scores(query.file_path, past.file_path)
        for component, score in enumerate(scores):
            component_totals[component].setdefault(past.reviewer_id, []).append(score)

    borda: dict[str, float] = {}
    for totals in component_totals:
        summed = {reviewer: math.fsum(scores) for reviewer, scores in totals.items()}
        ranking = _ranked_entries(summed)
        n = len(ranking)
        for idx, (reviewer, _) in enumerate(ranking):
            borda[reviewer] = borda.get(reviewer, 0.0) + (n - idx)

    return RecommendationList(
        entries=_ranked_entries(borda), query_ref=(query.change_id, query.patch_id)
    )
