"""Evaluation harness: top-k accuracy, MRR@k, and the two sampling
protocols.

Fixed sampling holds out a seeded-random test fraction and uses everything
else as history. Incremental sampling walks the corpus chronologically in
near-equal chunks: at each step the tail of the current chunk is validated
against all earlier records, and per-step metrics are averaged with equal
weights; fixed sampling is the one-step case of the same loop. Each query
is scored once per needed method, and every selection is ranked from
those normalized columns. Reports are deterministic byte-for-byte for a
given corpus and config. Evaluation runs serially; the ``jobs`` argument
is accepted and has no effect.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Sequence

from .corpus import Corpus, ReviewRecord
from .embedding import EmbeddingTable
from .errors import ConfigurationError, EvaluationError
from .recommender import (
    REVFINDER,
    MethodId,
    MethodSelection,
    RecommendationList,
    rank_selection,
    recommend,
    revfinder_recommend,
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
        if not self.k_values or any(k <= 0 for k in self.k_values):
            raise ConfigurationError(f"k values must be positive: {self.k_values}")
        if list(self.k_values) != sorted(set(self.k_values)):
            raise ConfigurationError(f"k values must be strictly increasing: {self.k_values}")
        if not 0.0 < self.test_fraction < 1.0:
            raise ConfigurationError(f"test_fraction must be in (0,1): {self.test_fraction}")
        if self.steps <= 0:
            raise ConfigurationError(f"steps must be positive: {self.steps}")


@dataclass(frozen=True)
class EvalCase:
    """One evaluated query: the record, the reviewers that actually
    reviewed its change within the test partition, and the ranking
    produced without the query in the history."""

    query: ReviewRecord
    truth: frozenset[str]
    recommendation: RecommendationList


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


def first_correct_rank(case: EvalCase) -> int | None:
    """1-based rank of the first truth reviewer in the ranking, or None."""
    for rank, (reviewer, _) in enumerate(case.recommendation.entries, start=1):
        if reviewer in case.truth:
            return rank
    return None


def topk_hit(case: EvalCase, k: int) -> int:
    """1 iff some truth reviewer appears in the first min(k, len) entries."""
    rank = first_correct_rank(case)
    return 1 if rank is not None and rank <= k else 0


def topk_accuracy(cases: Sequence[EvalCase], k: int) -> float:
    if not cases:
        raise EvaluationError("no cases to score")
    return sum(topk_hit(case, k) for case in cases) / len(cases)


def mrr_at_k(cases: Sequence[EvalCase], k: int) -> float:
    """Mean reciprocal rank of the first correct reviewer, truncated at k:
    a case whose first correct rank exceeds k (or has none) contributes 0."""
    if not cases:
        raise EvaluationError("no cases to score")
    total = 0.0
    for case in cases:
        rank = first_correct_rank(case)
        if rank is not None and rank <= k:
            total += 1.0 / rank
    return total / len(cases)


def _score_steps(
    config: EvalConfig,
    steps: Sequence[tuple[Sequence[ReviewRecord], Sequence[ReviewRecord]]],
    table: EmbeddingTable | None,
    stopwords: frozenset[str] | None,
) -> tuple[ReportRow, ...]:
    """Rank every query of every (history, validation) step with every
    configured selection, and average each metric over the steps with
    equal weights. Each query is scored once: one ``recommend`` call with
    the union of the similarity selections, and one ``revfinder_recommend``
    call if the baseline is configured."""
    union = frozenset().union(*(s for s in config.methods if s != REVFINDER))
    # cases[position][step]: a selection configured twice gets two groups.
    cases = [[[] for _ in steps] for _ in config.methods]
    for step, (history, validation) in enumerate(steps):
        for query in validation:
            truth = frozenset(r.reviewer_id for r in validation if r.change_id == query.change_id)
            scored = recommend(query, history, union, table, stopwords) if union else None
            baseline = revfinder_recommend(query, history) if REVFINDER in config.methods else None
            for position, selection in enumerate(config.methods):
                ranking = baseline if selection == REVFINDER else rank_selection(
                    history, scored.columns, selection, scored.query_ref)
                cases[position][step].append(EvalCase(query, truth, ranking))
    rows = []
    for selection, step_cases in zip(config.methods, cases):
        for k in config.k_values:
            acc = math.fsum(topk_accuracy(cases, k) for cases in step_cases) / len(steps)
            mrr = math.fsum(mrr_at_k(cases, k) for cases in step_cases) / len(steps)
            rows.append(
                ReportRow(method=selection_label(selection), k=k, topk_accuracy=acc, mrr=mrr)
            )
    return tuple(rows)


def _check_table_available(config: EvalConfig, table: EmbeddingTable | None) -> None:
    needs_table = any(
        selection != REVFINDER and MethodId.RC_CS in selection for selection in config.methods
    )
    if needs_table and table is None:
        raise ConfigurationError("RC_CS selected but no word-vector table given (see --embeddings)")


def fixed_test_indices(n: int, test_fraction: float, rng_seed: int) -> list[int]:
    """Seeded uniform sample (without replacement) of ceil(fraction*n)
    record positions, in ascending order."""
    n_test = math.ceil(test_fraction * n)
    return sorted(random.Random(rng_seed).sample(range(n), n_test))


def _min_fixed_corpus_size(test_fraction: float) -> int:
    n = 2
    while n - math.ceil(test_fraction * n) < 1:
        n += 1
    return n


def _fixed_split(records: Sequence[ReviewRecord], config: EvalConfig) -> tuple[list, str]:
    """Hold out a seeded-random test fraction as the one validation set,
    with every remaining record as its history."""
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
    return [(history, test)], f"history:{len(history)},test:{len(test)}"


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


def _incremental_split(records: Sequence[ReviewRecord], config: EvalConfig) -> tuple[list, str]:
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
        steps.append((records[:val_start], records[val_start:end]))
    partition = ";".join(
        f"step{i + 1}:{len(history)}/{len(validation)}"
        for i, (history, validation) in enumerate(steps)
    )
    return steps, partition


def run_eval(
    corpus: Corpus,
    config: EvalConfig,
    table: EmbeddingTable | None = None,
    stopwords: frozenset[str] | None = None,
    jobs: int = 1,
) -> EvalReport:
    """Evaluate every configured method selection at every k under the
    sampling protocol that ``config`` names.

    Evaluation runs serially. ``jobs`` is accepted, here and by both
    runners, and affects neither the output nor the execution.
    """
    _check_table_available(config, table)
    incremental = config.sampling is Sampling.INCREMENTAL
    split = _incremental_split if incremental else _fixed_split
    steps, partition = split(corpus.records, config)
    rows = _score_steps(config, steps, table, stopwords)
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


def run_fixed_eval(corpus: Corpus, config: EvalConfig, *args, **kwargs) -> EvalReport:
    """``run_eval`` under fixed sampling, whatever ``config`` names."""
    return run_eval(corpus, replace(config, sampling=Sampling.FIXED), *args, **kwargs)


def run_incremental_eval(corpus: Corpus, config: EvalConfig, *args, **kwargs) -> EvalReport:
    """``run_eval`` under incremental sampling, whatever ``config`` names."""
    return run_eval(corpus, replace(config, sampling=Sampling.INCREMENTAL), *args, **kwargs)
