"""Evaluation harness: top-k accuracy, MRR@k, and the two sampling
protocols.

Fixed sampling holds out a seeded-random test fraction and uses everything
else as history. Incremental sampling walks the corpus chronologically in
near-equal chunks: at each step the tail of the current chunk is validated
against all earlier records, and per-step metrics are averaged with equal
weights; fixed sampling is the one-step case of the same loop. Every
step's history is a ``prefix`` of one ``recommender.History`` per run,
whose features (REVFINDER's included) are built once. Each query is
scored once per needed method by one ``recommend`` call for the union of
the similarity selections. Its ranking is reduced within the query to
the one number per query that ``topk_accuracy(ranks, k)`` and
``mrr_at_k(ranks, k)`` read: ``first_correct_rank(ranking, truth) ->
int | None``. Every other selection gets that number for a block of a
step's queries at once, with no ranking made, from one score per
reviewer and ``_first_ranks``, which counts the reviewers ahead of the
best truth reviewer by (-score, reviewer id). For the similarity
selections (``SubSelections``) a score is exact only where it must be:
float sums per reviewer bound every exact sum, and only a window of
reviewers that the bounds cannot order against the best truth reviewer
is summed exactly. For REVFINDER it is the Borda points of each distinct
query path (``recommender.revfinder_points``). A block keeps only its
queries' union columns, and its arrays, those gathered onto every record
included, hold at most a fixed number of cells. Reports are
deterministic byte-for-byte for a given corpus and config. Evaluation
runs serially; the ``jobs`` argument is accepted and has no effect.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from typing import Collection, Sequence

import numpy as np

from .corpus import Corpus, ReviewRecord
from .embedding import EmbeddingTable
from .errors import ConfigurationError, EvaluationError
from .recommender import (
    _FIELD,
    REVFINDER,
    History,
    MethodId,
    MethodSelection,
    RecommendationList,
    _fsums,
    _is_method_set,
    recommend,
    revfinder_points,
    revfinder_recommend,  # not called here; bench/child.py wraps this name
    selection_label,
)

DEFAULT_K_VALUES = (1, 3, 5, 10)


class Sampling(Enum):
    FIXED = "fixed"
    INCREMENTAL = "incremental"


@dataclass(frozen=True)
class EvalConfig:
    methods: tuple[MethodSelection, ...]
    sampling: Sampling = Sampling.FIXED
    k_values: tuple[int, ...] = DEFAULT_K_VALUES
    test_fraction: float = 0.10
    steps: int = 4
    rng_seed: int = 0

    def __post_init__(self):
        if not self.methods:
            raise ConfigurationError("config needs at least one method selection")
        if any(s != REVFINDER and not _is_method_set(s) for s in self.methods):
            raise ConfigurationError(
                f"selections must be REVFINDER or non-empty frozensets of MethodId: {self.methods}"
            )
        if not self.k_values or any(k <= 0 for k in self.k_values):
            raise ConfigurationError(f"k values must be positive: {self.k_values}")
        if list(self.k_values) != sorted(set(self.k_values)):
            raise ConfigurationError(f"k values must be strictly increasing: {self.k_values}")
        if not 0.0 < self.test_fraction < 1.0:
            raise ConfigurationError(f"test_fraction must be in (0,1): {self.test_fraction}")
        if self.steps <= 0:
            raise ConfigurationError(f"steps must be positive: {self.steps}")


@dataclass(frozen=True)
class ReportRow:
    method: str
    k: int
    topk_accuracy: float
    mrr: float


@dataclass(frozen=True)
class EvalReport:
    rows: tuple[ReportRow, ...]
    metadata: dict[str, str] = field(compare=False)

    def to_csv_text(self) -> str:
        lines = [f"# {key}={value}" for key, value in self.metadata.items()]
        lines.append("method,k,topk_accuracy,mrr")
        for row in self.rows:
            lines.append(f"{row.method},{row.k},{row.topk_accuracy!r},{row.mrr!r}")
        return "\n".join(lines) + "\n"

    def to_table_text(self) -> str:
        k_values = sorted({row.k for row in self.rows})
        methods = list(dict.fromkeys(row.method for row in self.rows))
        cells = {(row.method, row.k): row for row in self.rows}
        width = max(len("method"), max(len(m) for m in methods))

        header = "method".ljust(width)
        for k in k_values:
            header += f" | {f'top-{k}':>8} {f'mrr@{k}':>8}"
        rule = "-" * width + ("-+-" + "-" * 17) * len(k_values)

        lines = ["  ".join(f"{key}={value}" for key, value in self.metadata.items())]
        lines += [header, rule]
        for method in methods:
            line = method.ljust(width)
            for k in k_values:
                row = cells[(method, k)]
                line += f" |   {row.topk_accuracy:6.4f}   {row.mrr:6.4f}"
            lines.append(line)
        return "\n".join(lines) + "\n"


def first_correct_rank(ranking: RecommendationList, truth: Collection[str]) -> int | None:
    """1-based rank of the first truth reviewer in the ranking, or None."""
    for rank, (reviewer, _) in enumerate(ranking.entries, start=1):
        if reviewer in truth:
            return rank
    return None


def topk_accuracy(ranks: Sequence[int | None], k: int) -> float:
    """Share of first correct ranks that are at most k."""
    if not ranks:
        raise EvaluationError("no queries to score")
    return sum(rank is not None and rank <= k for rank in ranks) / len(ranks)


def mrr_at_k(ranks: Sequence[int | None], k: int) -> float:
    """Mean reciprocal first correct rank, truncated at k: a query whose
    first correct rank exceeds k (or is None) contributes 0."""
    if not ranks:
        raise EvaluationError("no queries to score")
    total = 0.0
    for rank in ranks:
        if rank is not None and rank <= k:
            total += 1.0 / rank
    return total / len(ranks)


# A unit roundoff and a bound on one rounding's error below the normal
# range (half the spacing of subnormals, 2**-1075), with slack; see
# SubSelections.
_UNIT = 2.0 ** -53
_TINY = 2.0 ** -1070


def _truth_mask(history: History, truths: Sequence[Collection[str]]) -> np.ndarray:
    """Queries × reviewers (in ``history.groups`` order): where a reviewer
    is one of the query's truth reviewers. A block builds it once for
    ``SubSelections.ranks`` and ``_revfinder_ranks``."""
    index = {reviewer: r for r, (reviewer, _) in enumerate(history.groups)}
    mine = np.zeros((len(truths), len(index)), dtype=bool)
    mine.flat[[q * len(index) + index[t] for q, truth in enumerate(truths) for t in truth if t in index]] = True
    return mine


class SubSelections:
    """First correct ranks of several similarity selections in one step's
    history, for a block of queries from each one's normalized distinct-key
    scores (the ``columns`` of ``recommend`` for a union of them), equal to
    those of the rankings ``recommend`` makes of each selection alone.

    A reviewer's exact score under a selection of p methods is
    T = fsum over its records of that record's mean (``recommender._fsums``).
    Let X be the real sum of the selected scores over p. Each mean is an
    fsum rounded once and a division rounded once, and the total is
    rounded once, so ``|T - X| <= 3.01·u·X + 1.01·n_r·η`` for a reviewer
    of n_r records, with u = 2**-53 and η = 2**-1075 the largest error of
    a rounding below the normal range (addition below it is exact).

    The filter's approximation takes S[m], the float sum of column[m]
    over each reviewer's records (``History.group_sums``), then A = W @ S
    with weights fl(1/p). S[m] sums n_r non-negative scores; in any
    order, each term carries at most n_r roundings. The weight, the product by it and the sum of
    at most four terms add five more, so
    ``|A - X| <= γ(n_r + 5)·X + (n_r + 4)·η`` (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2002, ch. 3-4; γ(k) = k·u / (1 - k·u)).
    For n_r < 2**40, adding the two and bounding X by A gives
    ``|A - T| < e = 4·u·(n_r + 16)·A + (n_r + 16)·2**-1070``, about four
    times the bound, which also absorbs the roundings of e and A ± e.

    So T lies in [lo, hi] = [A - e, A + e], and T is 0 exactly when every
    selected S is 0 (a float sum of non-negative terms is 0 only if each
    term is; zeros are decided from S, not A, because a third of a
    subnormal S can round to 0). With floor and ceiling the largest lo and
    hi among the query's truth reviewers, the best truth reviewer's T_best
    lies in [floor, ceiling]: T_best >= T_t >= lo_t for each truth t, and
    T_best <= its own hi <= ceiling. So a reviewer with lo > ceiling is
    ahead of it (score +inf) and one with hi < floor behind (-inf). Every
    other reviewer scores its hi: 0 for a zero, above 0 for the rest, the
    window. A window of two or more gets its exact T (``exact``). One
    alone is the only finite non-zero score, so only its order against
    the zeros is open: it is ahead of them if lo > 0, and otherwise it gets
    its exact T too, which may be 0 (the mean of a subnormal S over p >= 2
    can round to 0) and then ties them. ``_first_ranks`` then counts
    the reviewers ahead by (-score, reviewer id) (Shewchuk's filtered
    exact pattern, Discrete Comput. Geom. 18, 1997).

    The history's reviewers and their ids' order are read once, when the
    object is made for a step; each block's arrays are queries ×
    selections × reviewers.
    """

    def __init__(self, history: History, selections: Sequence[frozenset]):
        self.history, self.selections = history, list(selections)
        self.methods = [m for m in MethodId if any(m in s for s in self.selections)]
        self.weights = np.array([[1 / len(s) if m in s else 0.0 for m in self.methods]
                                 for s in self.selections])
        self.id_order = history.id_order
        slack = np.array([len(ix) for _, ix in history.groups]) + 16.0
        self.relative, self.absolute = 4 * _UNIT * slack, slack * _TINY

    def exact(self, columns, selection: frozenset, r: int) -> float:
        """Reviewer ``r``'s score under ``selection`` for one query's
        ``columns``, as ``recommend`` computes it (``recommender._fsums``)."""
        records = np.asarray(self.history.groups[r][1], dtype=np.intp)
        positions = self.history.positions
        selected = [columns[m][positions[_FIELD[m]][records]].tolist() for m in MethodId if m in selection]
        return _fsums([(r, range(len(records)))], selected)[0]

    def bounds(self, columns: Sequence) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Query × selection × reviewer arrays for each query's ``columns``:
        the ends of the interval that holds each exact score, and where
        that score is surely 0 (both ends 0)."""
        sums = np.empty((len(columns), len(self.methods), len(self.id_order)))
        for i, m in enumerate(self.methods):
            sums[:, i] = self.history.group_sums(_FIELD[m], np.array([c[m] for c in columns]))
        approx = self.weights @ sums
        error = self.relative * approx + self.absolute
        zero = ~((self.weights > 0) @ (sums > 0))
        return np.where(zero, 0.0, approx - error), np.where(zero, 0.0, approx + error), zero

    def ranks(self, columns: Sequence, mine: np.ndarray) -> list[list[int | None]]:
        """Per query, each selection's first correct rank for its truth
        reviewers (``mine``, a ``_truth_mask`` row), or None for all when
        none is in the history."""
        lo, hi, zero = self.bounds(columns)
        found, mine = mine.any(axis=1), mine[:, None]
        floor = np.where(mine, lo, -np.inf).max(axis=-1, keepdims=True)
        ceiling = np.where(mine, hi, -np.inf).max(axis=-1, keepdims=True)
        window = ~zero & (lo <= ceiling) & (hi >= floor)
        scores = np.where(lo > ceiling, np.inf, np.where(hi < floor, -np.inf, hi))
        for q, s in zip(*np.nonzero((window.sum(axis=-1) > 1) | (window & (lo <= 0)).any(axis=-1))):
            for r in np.flatnonzero(window[q, s]):
                scores[q, s, r] = self.exact(columns[q], self.selections[s], r)
        first = _first_ranks(scores, mine, self.id_order).tolist()
        return [row if f else [None] * len(self.selections) for row, f in zip(first, found)]


def _first_ranks(scores: np.ndarray, mine: np.ndarray, id_order: np.ndarray) -> np.ndarray:
    """1 + the number of reviewers (last axis, in ``groups`` order) ahead of
    the best of the ``mine`` reviewers by (-score, reviewer id), where
    ``id_order`` is each reviewer's place in the order of the ids. A row
    with no ``mine`` reviewer gets a meaningless number."""
    best = np.where(mine, scores, -np.inf).max(axis=-1, keepdims=True)
    first = np.where(mine & (scores == best), id_order, len(id_order)).min(axis=-1, keepdims=True)
    return ((scores > best) | ((scores == best) & (id_order < first))).sum(axis=-1) + 1


def _revfinder_ranks(queries: Sequence[ReviewRecord], mine: np.ndarray, history: History) -> list[int | None]:
    """REVFINDER's first correct rank for each query (``_first_ranks`` of
    its Borda points, for its truth reviewers ``mine``, a ``_truth_mask``
    row), with the points of each distinct query path computed once
    (``revfinder_points``)."""
    rows = {path: p for p, path in enumerate(dict.fromkeys(q.file_path for q in queries))}
    points = revfinder_points(list(rows), history)[[rows[q.file_path] for q in queries]]
    first = _first_ranks(points, mine, history.id_order).tolist()
    return [rank if f else None for rank, f in zip(first, mine.any(axis=1))]


def _block_ranks(queries, truths, history, methods, union, others, table, stopwords) -> list[list[int | None]]:
    """Each configured selection's first correct rank for each query of a
    block. Each query is scored once for the similarity selections' union
    by ``recommend``, whose ranking gives the union's rank; every other
    similarity selection is ranked for the whole block by ``others`` (a
    ``SubSelections`` of the step) over the union's columns, and
    REVFINDER, if configured, by ``_revfinder_ranks``."""
    ranks: list[dict] = [{} for _ in queries]
    mine = _truth_mask(history, truths)
    if union:
        columns = []
        for query_ranks, query, truth in zip(ranks, queries, truths):
            # Called through this module's ``recommend`` name: the benchmark
            # (bench/child.py) wraps ``evaluation.recommend`` to time these
            # calls, and tests/test_bench_contract.py fails when it times none.
            scored = recommend(query, history, union, table, stopwords)
            query_ranks[union] = first_correct_rank(scored, truth)
            columns.append(scored.columns)
            del scored  # no ranking outlives its query
        if others.selections:
            for query_ranks, row in zip(ranks, others.ranks(columns, mine)):
                query_ranks.update(zip(others.selections, row))
    if REVFINDER in methods:
        for query_ranks, rank in zip(ranks, _revfinder_ranks(queries, mine, history)):
            query_ranks[REVFINDER] = rank
    return [[query_ranks[selection] for selection in methods] for query_ranks in ranks]


# The most cells that the arrays of one block of a step's queries hold
# (see ``_block_cells``). This bounds a block's memory at any corpus size.
_BLOCK_CELLS = 1 << 17


def _block_cells(history: History, union: frozenset, others: Sequence, revfinder: bool) -> int:
    """The cells that one query adds to its block's arrays: the union's
    columns, one per distinct key of each method's field, and REVFINDER's
    overlaps, four per distinct path; those values gathered onto every
    record (``History.group_sums``), one row per method and four for
    REVFINDER; and each other selection's reviewer bounds."""
    width = {f: len(keys) for f, (keys, _) in history.keys.items()}
    keyed = sum(width[_FIELD[m]] for m in union) + 4 * width["file_path"] * revfinder
    return keyed + (len(union) + 4 * revfinder) * len(history) + len(others) * len(history.groups)


def _score_steps(
    config: EvalConfig,
    records: Sequence[ReviewRecord],
    steps: Sequence[tuple[int, Sequence[ReviewRecord]]],
    table: EmbeddingTable | None,
    stopwords: frozenset[str] | None,
) -> tuple[ReportRow, ...]:
    """Reduce every query of every (m, validation) step to each configured
    selection's first correct rank against the first m ``records``, a
    block of queries at a time, and average each metric over the steps
    with equal weights. The union's and REVFINDER's features are built
    once, before the first query."""
    union = frozenset().union(*(s for s in config.methods if s != REVFINDER))
    others = [s for s in dict.fromkeys(config.methods) if s not in (union, REVFINDER)]
    whole = History(records)
    for method in filter(union.__contains__, MethodId):
        whole.feature(method, table, stopwords)
    if REVFINDER in config.methods:
        whole.feature(REVFINDER)
    ranks = []  # ranks[step][query][position]
    for m, validation in steps:
        history = whole.prefix(m)
        step_others = SubSelections(history, others)
        truths: dict[str, set[str]] = {}
        for record in validation:
            truths.setdefault(record.change_id, set()).add(record.reviewer_id)
        block = max(1, _BLOCK_CELLS // _block_cells(history, union, others, REVFINDER in config.methods))
        step_ranks = []
        for start in range(0, len(validation), block):
            queries = validation[start:start + block]
            step_ranks += _block_ranks(queries, [truths[q.change_id] for q in queries], history,
                                       config.methods, union, step_others, table, stopwords)
        ranks.append(step_ranks)
    rows = []
    for position, selection in enumerate(config.methods):
        # A selection configured twice gets two row groups.
        step_ranks = [[query_ranks[position] for query_ranks in step] for step in ranks]
        for k in config.k_values:
            acc = math.fsum(topk_accuracy(r, k) for r in step_ranks) / len(steps)
            mrr = math.fsum(mrr_at_k(r, k) for r in step_ranks) / len(steps)
            rows.append(
                ReportRow(method=selection_label(selection), k=k, topk_accuracy=acc, mrr=mrr)
            )
    return tuple(rows)


def fixed_test_indices(n: int, test_fraction: float, rng_seed: int) -> list[int]:
    """Seeded uniform sample (without replacement) of ceil(fraction*n)
    record positions, in ascending order."""
    n_test = math.ceil(test_fraction * n)
    return sorted(random.Random(rng_seed).sample(range(n), n_test))


def _min_fixed_corpus_size(test_fraction: float) -> int:
    """Smallest n >= 2 with n - ceil(f * n) >= 1, which leaves a history.
    The test is monotone in n and holds at ceil(1 / (1 - f)) + 1; near
    f = 1, rounding in f * n puts the minimum far below that, so bisect."""
    sizes = range(2, math.ceil(1 / (1 - test_fraction)) + 2)
    return sizes[bisect_left(sizes, True, key=lambda n: n - math.ceil(test_fraction * n) >= 1)]


def _fixed_split(records: Sequence[ReviewRecord], config: EvalConfig) -> tuple:
    """Hold out a seeded-random test fraction as the one validation set,
    with every remaining record, ordered before it, as its history."""
    n = len(records)
    minimum = _min_fixed_corpus_size(config.test_fraction)
    if n < minimum:
        raise EvaluationError(
            f"corpus has {n} records; fixed sampling at fraction "
            f"{config.test_fraction} needs at least {minimum}"
        )
    test_idx = fixed_test_indices(n, config.test_fraction, config.rng_seed)
    test_set = set(test_idx)
    test = [records[i] for i in test_idx]
    history = [r for i, r in enumerate(records) if i not in test_set]
    return history + test, [(len(history), test)], f"history:{len(history)},test:{len(test)}"


def incremental_chunks(n: int, steps: int) -> list[tuple[int, int]]:
    """Contiguous near-equal [start, end) chunks covering range(n); the
    remainder spreads one extra record over the leading chunks."""
    base, rem = divmod(n, steps)
    bounds = []
    start = 0
    for i in range(steps):
        size = base + (1 if i < rem else 0)
        bounds.append((start, start + size))
        start += size
    return bounds


def _incremental_split(records: Sequence[ReviewRecord], config: EvalConfig) -> tuple:
    """Chronological growing window: the corpus splits into ``steps``
    contiguous chunks, and at step i the final ceil(test_fraction *
    chunk_size) records of chunk i are validated against every record
    that precedes them."""
    n = len(records)
    if n < 2 * config.steps:
        raise EvaluationError(
            f"corpus has {n} records; incremental sampling with {config.steps} "
            f"steps needs at least {2 * config.steps}"
        )
    for earlier, later in zip(records, records[1:]):
        if later.timestamp < earlier.timestamp:
            raise EvaluationError("corpus records are not in chronological order")

    steps = []
    for start, end in incremental_chunks(n, config.steps):
        val_size = math.ceil(config.test_fraction * (end - start))
        val_start = end - val_size
        if val_start == 0:
            raise EvaluationError(
                f"step covering records [{start}, {end}) leaves no history "
                f"before its validation set"
            )
        steps.append((val_start, records[val_start:end]))
    partition = ";".join(
        f"step{i + 1}:{m}/{len(validation)}" for i, (m, validation) in enumerate(steps)
    )
    return records, steps, partition


def run_eval(
    corpus: Corpus,
    config: EvalConfig,
    table: EmbeddingTable | None = None,
    stopwords: frozenset[str] | None = None,
    jobs: int = 1,
) -> EvalReport:
    """Evaluate every configured method selection at every k under the
    sampling protocol that ``config`` names.

    Evaluation runs serially. ``jobs`` is accepted and affects neither
    the output nor the execution. The benchmark (bench/child.py) passes it
    positionally, so removing it needs a benchmark change;
    tests/test_bench_contract.py runs that path.
    """
    incremental = config.sampling is Sampling.INCREMENTAL
    split = _incremental_split if incremental else _fixed_split
    records, steps, partition = split(corpus.records, config)
    rows = _score_steps(config, records, steps, table, stopwords)
    metadata = {
        "project": corpus.project,
        "sampling": config.sampling.value,
        "seed": str(config.rng_seed),
        "test_fraction": repr(config.test_fraction),
        **({"steps": str(config.steps)} if incremental else {}),
        "k_values": ",".join(str(k) for k in config.k_values),
        "methods": ";".join(selection_label(s) for s in config.methods),
        "records": str(len(corpus.records)),
        "partition": partition,
    }
    return EvalReport(rows=rows, metadata=metadata)
