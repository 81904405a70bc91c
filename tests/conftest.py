"""Shared fixtures: hand-planted corpora with known owners plus random
synthetic corpora and word-vector tables for property and oracle tests."""

from __future__ import annotations

import math
import random
import string
from datetime import datetime, timedelta, timezone
from typing import Mapping, Sequence

import numpy as np
import pytest

from revrec.corpus import Corpus, ReviewRecord
from revrec.embedding import EmbeddingTable
from revrec.recommender import MethodId, RecommendationList

BASE_TIME = datetime(2020, 1, 1, tzinfo=timezone.utc)

NET_VOCAB = ["socket", "packet", "routing", "latency", "congestion",
             "buffer", "retransmit", "gateway"]
DB_VOCAB = ["schema", "index", "transaction", "vacuum", "planner",
            "cursor", "rollback", "shard"]


def make_record(change_id="c1", patch_id="p1", file_path="src/a.py", line=1,
                comment="looks wrong here", reviewer_id="r1", minute=0,
                project="test"):
    return ReviewRecord(
        change_id=change_id,
        patch_id=patch_id,
        file_path=file_path,
        line=line,
        comment=comment,
        reviewer_id=reviewer_id,
        timestamp=BASE_TIME + timedelta(minutes=minute),
        project=project,
    )


def _letters(i: int) -> str:
    return string.ascii_lowercase[i // 26] + string.ascii_lowercase[i % 26]


def planted_records() -> list[ReviewRecord]:
    """100 records, two reviewers with disjoint path and comment domains.

    alice owns net/socket/*, comments from networking vocabulary; bob owns
    db/store/*, comments from database vocabulary. Every change_id is
    unique, so each record's sole truth reviewer is its author.
    """
    records = []
    for i in range(50):
        words = [NET_VOCAB[(i + j) % len(NET_VOCAB)] for j in range(3)]
        records.append(make_record(
            change_id=f"net{i:03d}", file_path=f"net/socket/link{_letters(i)}.py",
            line=i % 40, comment=" ".join(words), reviewer_id="alice",
            minute=2 * i, project="planted"))
        words = [DB_VOCAB[(i + j) % len(DB_VOCAB)] for j in range(3)]
        records.append(make_record(
            change_id=f"db{i:03d}", file_path=f"db/store/rows{_letters(i)}.py",
            line=i % 40, comment=" ".join(words), reviewer_id="bob",
            minute=2 * i + 1, project="planted"))
    return records


def late_owner_records() -> list[ReviewRecord]:
    """40 records where each true owner first reviews inside the chunk that
    queries them, so chronological replay cannot know them yet.

    Positions (1-based) 10, 20, 30, 40 are the validation rows under a
    4-step split at fraction 0.10. Their reviewers only have earlier
    activity in the case of position 40.
    """
    chaff_vocab = ["cleanup", "typo", "rename", "format", "comment", "style"]
    specs = {
        10: ("late1", "net/alpha/mod.py", "socket buffer overrun"),
        20: ("late2", "dbx/beta/mod.py", "schema cursor leak"),
        30: ("late3", "ui/gamma/mod.py", "widget layout overflow"),
        31: ("late1", "net/alpha/handlers.py", "socket retry path"),
        32: ("late1", "net/alpha/frames.py", "buffer resize race"),
        33: ("late1", "net/alpha/codec.py", "socket frame codec"),
        34: ("late2", "dbx/beta/pool.py", "cursor pool growth"),
        35: ("late2", "dbx/beta/txn.py", "schema migration order"),
        36: ("late2", "dbx/beta/scan.py", "cursor scan cost"),
        37: ("late3", "ui/gamma/grid.py", "widget grid spacing"),
        38: ("late3", "ui/gamma/menu.py", "layout menu anchor"),
        39: ("late3", "ui/gamma/tabs.py", "widget tab focus"),
        40: ("late1", "net/alpha/mod2.py", "socket shutdown order"),
    }
    records = []
    for pos in range(1, 41):
        if pos in specs:
            reviewer, path, comment = specs[pos]
        else:
            j = pos % 4
            reviewer = f"c{j + 1}"
            path = f"misc/area{j}/tool{j}.py"
            comment = f"{chaff_vocab[pos % 6]} {chaff_vocab[(pos + 2) % 6]} pass"
        records.append(make_record(
            change_id=f"q{pos:02d}", file_path=path, comment=comment,
            reviewer_id=reviewer, minute=pos, project="lateowner"))
    return records


SYNTH_VOCAB = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot",
               "golf", "hotel", "india", "juliet"]
SYNTH_SEGMENTS = ["core", "net", "db", "ui", "api"]
SYNTH_EXTS = ["py", "cpp", "rs"]


def random_records(rng: random.Random, n: int, project="synth") -> list[ReviewRecord]:
    """Random corpus with reviewer collisions, shared change ids, repeated
    paths, the odd stop word, and occasional equal timestamps."""
    reviewers = [f"rev{c}" for c in string.ascii_lowercase[: rng.randint(2, 5)]]
    records = []
    minute = 0
    for i in range(n):
        seg = rng.choice(SYNTH_SEGMENTS)
        name = rng.choice(["mod", "util", "main", "io"]) + rng.choice(string.ascii_lowercase)
        words = rng.sample(SYNTH_VOCAB, rng.randint(2, 5))
        if rng.random() < 0.3:
            words.insert(rng.randrange(len(words) + 1), rng.choice(["the", "is", "this"]))
        if rng.random() < 0.2:
            words.append(str(rng.randint(0, 999)))
        minute += rng.choice([0, 1, 1, 2])
        records.append(make_record(
            change_id=f"c{rng.randint(0, max(1, n // 2))}",
            patch_id=f"p{rng.randint(1, 2)}",
            file_path=f"{seg}/{rng.choice(SYNTH_SEGMENTS)}/{name}.{rng.choice(SYNTH_EXTS)}",
            line=rng.randint(0, 100),
            comment=" ".join(words),
            reviewer_id=rng.choice(reviewers),
            minute=minute,
            project=project,
        ))
    records.sort(key=lambda r: r.sort_key())
    return records


def random_table(rng: random.Random, dimension: int = 4) -> EmbeddingTable:
    """Vectors on a small integer grid for a random subset of the synthetic
    vocabulary; the withheld words exercise out-of-vocabulary handling."""
    known = rng.sample(SYNTH_VOCAB, rng.randint(6, len(SYNTH_VOCAB)))
    entries = {}
    for word in known:
        vec = [float(rng.randint(0, 8)) for _ in range(dimension)]
        if not any(vec):
            vec[0] = 1.0
        entries[word] = np.array(vec, dtype=np.float64)
    return EmbeddingTable(dimension=dimension, entries=entries)


@pytest.fixture(scope="session")
def planted_corpus() -> Corpus:
    records = sorted(planted_records(), key=lambda r: r.sort_key())
    return Corpus(project="planted", records=tuple(records))


@pytest.fixture(scope="session")
def late_owner_corpus() -> Corpus:
    records = sorted(late_owner_records(), key=lambda r: r.sort_key())
    return Corpus(project="lateowner", records=tuple(records))


@pytest.fixture(scope="session")
def tiny_table() -> EmbeddingTable:
    entries = {
        "api": np.array([1.0, 0.0, 0.0]),
        "broken": np.array([0.0, 1.0, 0.0]),
        "layer": np.array([0.0, 0.0, 1.0]),
        "handler": np.array([1.0, 1.0, 0.0]),
    }
    return EmbeddingTable(dimension=3, entries=entries)


# The reference ranking of a selection that recommend and the filtered
# sub-selection ranks are pinned to: per-record means and per-reviewer
# sums in plain Python, one math.fsum at a time.

def _rank(groups: Sequence[tuple[str, Sequence[int]]], column: Sequence[float]) -> tuple:
    """Each reviewer's math.fsum of its records' scores in ``column``, best
    first, ties by reviewer id."""
    totals = {r: math.fsum([column[i] for i in ix]) for r, ix in groups}
    return tuple(sorted(totals.items(), key=lambda item: (-item[1], item[0])))


def _mean(selected: Sequence[Sequence[float]]) -> Sequence[float]:
    """Per record, the mean of the selected columns' values.

    The mean of one column is the column, and of two is ``(a + b) / 2``:
    IEEE addition is correctly rounded, so it equals ``fsum([a, b])``.
    """
    n = len(selected)
    if n == 1:
        return selected[0]
    if n == 2:
        return [(a + b) / 2 for a, b in zip(*selected)]
    return [math.fsum(values) / n for values in zip(*selected)]


def rank_selection(
    groups: Sequence[tuple[str, Sequence[int]]],
    columns: Mapping[MethodId, list[float]],
    methods: frozenset,
    query_ref: tuple[str, str],
) -> RecommendationList:
    """Average the selected per-record columns per record (``_mean``) and
    sum each reviewer's group (see ``History.groups``) with math.fsum, so
    the ranking does not depend on history order."""
    combined = _mean([columns[m] for m in MethodId if m in methods])
    return RecommendationList(entries=_rank(groups, combined), query_ref=query_ref, columns=columns)
