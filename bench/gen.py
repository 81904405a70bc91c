"""Seeded generator of Gerrit-shaped review corpora and word-vector tables.

A corpus models review data the way Gerrit exports it: one record per
review comment, 1-3 reviewers per change, several files per change and
several comments per file. Change timestamps increase strictly. Reviewer
activity is Zipf-skewed, and each reviewer favours a few modules and a
few personal words, so that similarity methods have a signal to find.
Comments mix topic words with stop words and numbers, and a small share
of them is made of stop words and numbers only, so that preprocessing
leaves nothing. Every generated file passes ``revrec validate`` without
warnings; the table holds distinct words only.

Only the standard library and numpy are used; the same seed gives the
same bytes.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone

import numpy as np

BASE_TIME = datetime(2013, 1, 1, tzinfo=timezone.utc)
SYLLABLES = [c + v for c in "bcdfghklmnprstvz" for v in "aeiou"]
EXTENSIONS = ["py", "py", "py", "rst", "json", "sh", "cfg"]
# Stop words from the bundled list, kept here so that the generator does
# not depend on the package it feeds.
STOP_WORDS = ["the", "is", "this", "that", "it", "to", "of", "and", "in", "be",
              "we", "should", "here", "not", "for", "with", "can", "there", "why"]
EMPTY_SHARE = 0.03


@dataclass(frozen=True)
class CorpusShape:
    """Input properties the rankers' cost and caching depend on."""

    records: int
    reviewers: int
    records_per_path: float  # path reuse: records / distinct paths
    modules: int
    vocabulary: int
    project: str


def _words(rng: random.Random, count: int, taken: set[str]) -> list[str]:
    """`count` distinct pronounceable words that are not in `taken`."""
    out = []
    while len(out) < count:
        word = "".join(rng.choice(SYLLABLES) for _ in range(rng.randint(2, 4)))
        if word not in taken:
            taken.add(word)
            out.append(word)
    return out


def _zipf_weights(n: int, s: float) -> list[float]:
    return [1.0 / (rank ** s) for rank in range(1, n + 1)]


def generate_records(shape: CorpusShape, rng: random.Random, start: datetime = BASE_TIME) -> list[dict]:
    """Exactly ``shape.records`` record dicts in chronological order."""
    taken = set(STOP_WORDS)
    vocab = _words(rng, shape.vocabulary, taken)
    general = vocab[: shape.vocabulary // 4]
    topic_pool = vocab[shape.vocabulary // 4:]
    per_topic = max(4, len(topic_pool) // shape.modules)
    topics = [topic_pool[i * per_topic:(i + 1) * per_topic] or general for i in range(shape.modules)]

    module_names = _words(rng, shape.modules, taken)
    dir_names = _words(rng, shape.modules * 3, taken)
    paths_by_module: list[list[str]] = [[] for _ in range(shape.modules)]
    records: list[dict] = []
    distinct = 0

    def pick_path(module: int, exclude: list[str], records_after: int) -> str:
        # A fresh path whenever reuse would run ahead of the target ratio,
        # otherwise a known path of the module, popular ones first.
        nonlocal distinct
        known = [p for p in paths_by_module[module] if p not in exclude]
        if known and distinct * shape.records_per_path >= records_after:
            return rng.choices(known, _zipf_weights(len(known), 0.7))[0]
        distinct += 1
        sub = dir_names[module * 3 + rng.randrange(3)]
        name = _words(rng, 1, taken)[0]
        path = f"{module_names[module]}/{sub}/{name}_{rng.choice(general)}.{rng.choice(EXTENSIONS)}"
        paths_by_module[module].append(path)
        return path

    reviewers = [f"rev{i:03d}" for i in range(shape.reviewers)]
    activity = _zipf_weights(shape.reviewers, 1.1)
    rng.shuffle(activity)
    homes = [set(rng.sample(range(shape.modules), min(2, shape.modules))) for _ in reviewers]
    personal = [rng.sample(vocab, 6) for _ in reviewers]
    module_weights = _zipf_weights(shape.modules, 0.8)

    def comment(reviewer: int, module: int) -> str:
        if rng.random() < EMPTY_SHARE:
            parts = rng.sample(STOP_WORDS, rng.randint(1, 3)) + [str(rng.randint(0, 99))]
            rng.shuffle(parts)
            return " ".join(parts)
        parts = []
        for _ in range(rng.randint(4, 14)):
            roll = rng.random()
            if roll < 0.40:
                parts.append(rng.choice(topics[module]))
            elif roll < 0.55:
                parts.append(rng.choice(personal[reviewer]))
            elif roll < 0.75:
                parts.append(rng.choice(general))
            elif roll < 0.95:
                parts.append(rng.choice(STOP_WORDS))
            else:
                parts.append(str(rng.randint(0, 4096)))
        text = " ".join(parts)
        return text[0].upper() + text[1:] + rng.choice([".", "?", "", ", nit."])

    when = start
    change = 0
    while len(records) < shape.records:
        change += 1
        when += timedelta(minutes=rng.randint(5, 600))
        module = rng.choices(range(shape.modules), module_weights)[0]
        weights = [a * (8.0 if module in homes[r] else 1.0) for r, a in enumerate(activity)]
        chosen: list[int] = []
        for _ in range(rng.choice([1, 1, 2, 2, 3])):
            pick = rng.choices(range(shape.reviewers), weights)[0]
            if pick not in chosen:
                chosen.append(pick)
        n_files = rng.randint(1, 4)
        plan = [(reviewer, f) for reviewer in chosen
                for f in rng.sample(range(n_files), rng.randint(1, n_files))
                for _ in range(rng.choice([1, 1, 2, 3]))]
        files: list[str] = []
        records_after = len(records)
        for f in range(n_files):
            records_after += sum(1 for _, g in plan if g == f)
            files.append(pick_path(module, files, records_after))
        patch = str(rng.randint(1, 4))
        offset = 0
        for reviewer, f in plan:
            offset += rng.randint(1, 50)
            records.append({
                "change_id": f"I{shape.project}{change:06d}",
                "patch_id": patch,
                "file_path": files[f],
                "line": rng.randint(1, 900),
                "comment": comment(reviewer, module),
                "reviewer_id": reviewers[reviewer],
                "timestamp": (when + timedelta(seconds=offset)).strftime("%Y-%m-%dT%H:%M:%SZ"),
                "project": shape.project,
            })
        when += timedelta(seconds=offset)
    return records[: shape.records]


def comment_vocabulary(records: list[dict]) -> list[str]:
    """Distinct lowercase words (not pure numbers) used in comments, sorted."""
    words = set()
    for record in records:
        for token in record["comment"].replace(".", " ").replace(",", " ").replace("?", " ").split():
            if not token.isdigit():
                words.add(token.lower())
    return sorted(words - set(STOP_WORDS))


def write_records(records: list[dict], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")


def write_table(words: list[str], dimension: int, seed: int, path: str) -> None:
    """Text vector table: header plus one row per distinct word."""
    if len(set(words)) != len(words):
        raise ValueError("table words must be distinct")
    values = np.random.default_rng(seed).standard_normal((len(words), dimension))
    row_format = " ".join(["%.5f"] * dimension)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(words)} {dimension}\n")
        for word, row in zip(words, values.tolist()):
            fh.write(word + " " + row_format % tuple(row) + "\n")


def table_words(vocab: list[str], coverage: float, rng: random.Random) -> list[str]:
    """A random `coverage` share of the comment vocabulary."""
    return rng.sample(vocab, round(coverage * len(vocab)))
