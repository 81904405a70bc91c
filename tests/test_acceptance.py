"""Acceptance suite.

One test per acceptance criterion; each prints a single
``[acceptance] <name>: PASS/FAIL`` line (visible with ``pytest -s``, or in
the captured output of a failing run). The dataset criterion is skipped
unless REVREC_DATASET points at a record file with the four reference
projects.
"""

import itertools
import math
import os
import random
import string
import time
from contextlib import contextmanager

import numpy as np
import pytest

import oracle
from conftest import (
    late_owner_records,
    planted_records,
    random_records,
    random_table,
)
from revrec import cli
from revrec.corpus import Corpus, read_record_file, save_corpus
from revrec.embedding import EmbeddingTable, save_embedding_table
from revrec.evaluation import (
    EvalConfig,
    Sampling,
    mrr_at_k,
    run_eval,
    topk_accuracy,
)
from revrec.recommender import (
    MethodId,
    recommend,
    revfinder_recommend,
    selection_label,
)
from revrec.similarity import adapted_hamming_similarity, cosine, jaccard
from revrec.textprep import default_stopwords, preprocess_comment
from test_evaluation import random_case_set

ALL_SELECTIONS = tuple(
    frozenset(combo)
    for size in range(1, 5)
    for combo in itertools.combinations(MethodId, size)
)


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL")
        raise
    print(f"[acceptance] {name}: PASS")


def test_kernel_properties():
    with criterion("kernel-properties"):
        started = time.monotonic()
        rng = random.Random(101)
        pool = list(string.ascii_lowercase)

        for _ in range(1000):
            x = set(rng.sample(pool, rng.randint(0, 10)))
            y = set(rng.sample(pool, rng.randint(0, 10)))
            s = jaccard(x, y)
            assert 0.0 <= s <= 1.0
            assert s == jaccard(y, x)
            assert jaccard(x, x) == 1.0

        alphabet = "abc/._"
        for _ in range(1000):
            p = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 12)))
            q = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 12)))
            s = adapted_hamming_similarity(p, q)
            assert 0.0 < s <= 1.0
            assert s == adapted_hamming_similarity(q, p)
            assert adapted_hamming_similarity(p, p) == 1.0

        for _ in range(1000):
            dim = rng.randint(1, 8)
            u = np.array([rng.uniform(-4, 4) for _ in range(dim)])
            v = np.array([rng.uniform(-4, 4) for _ in range(dim)])
            s = cosine(u, v)
            assert 0.0 <= s <= 1.0
            assert s == cosine(v, u)
            assert cosine(u, u) == (1.0 if u.any() else 0.0)
            scale = rng.uniform(0.01, 100.0)
            assert abs(cosine(u * scale, v) - s) <= 1e-9
            assert abs(cosine(u, v * scale) - s) <= 1e-9

        elapsed = time.monotonic() - started
        assert elapsed < 5.0, f"kernel property suite took {elapsed:.2f}s"


def test_metric_identities():
    with criterion("metric-identities"):
        rng = random.Random(103)
        for _ in range(200):
            cases = random_case_set(rng, rng.randint(1, 20))
            assert mrr_at_k(cases, 1) == topk_accuracy(cases, 1)
            ks = sorted(rng.sample(range(1, 11), rng.randint(2, 6)))
            accs = [topk_accuracy(cases, k) for k in ks]
            mrrs = [mrr_at_k(cases, k) for k in ks]
            assert accs == sorted(accs)
            assert mrrs == sorted(mrrs)


def test_oracle_equivalence():
    with criterion("oracle-equivalence"):
        started = time.monotonic()
        stopwords = oracle.stopword_list()
        methods = ALL_SELECTIONS + ("REVFINDER",)
        labels = {
            selection_label(sel): (
                {m.value for m in sel} if isinstance(sel, frozenset) else "REVFINDER"
            )
            for sel in methods
        }

        for trial in range(50):
            rng = random.Random(1000 + trial)
            n = rng.randint(6, 12)
            records = random_records(rng, n)
            table = random_table(rng)
            entries = {w: [float(c) for c in vec] for w, vec in table.entries.items()}

            # rankings on a leave-one-out query, every selection
            qi = rng.randrange(n)
            query, history = records[qi], records[:qi] + records[qi + 1 :]
            for sel in ALL_SELECTIONS:
                got = recommend(query, history, sel, table=table)
                want = oracle.recommend(
                    query, history, {m.value for m in sel},
                    entries, table.dimension, stopwords,
                )
                assert [r for r, _ in got.entries] == [r for r, _ in want]
                for (_, gs), (_, ws) in zip(got.entries, want):
                    assert abs(gs - ws) <= 1e-12
            got = revfinder_recommend(query, history)
            want = oracle.revfinder(query, history)
            assert [r for r, _ in got.entries] == [r for r, _ in want]

            # both sampling protocols, every selection at once
            corpus = Corpus(project="synth", records=tuple(records))
            ks = (1, 3, 5)
            fixed = run_eval(
                corpus,
                EvalConfig(methods=methods, k_values=ks, test_fraction=0.2,
                           rng_seed=trial),
                table=table,
            )
            want_fixed = oracle.fixed_eval(
                records, labels, ks, 0.2, trial, entries, table.dimension, stopwords
            )
            for row in fixed.rows:
                acc, mrr = want_fixed[(row.method, row.k)]
                assert abs(row.topk_accuracy - acc) <= 1e-12
                assert abs(row.mrr - mrr) <= 1e-12

            steps = 2 if n < 9 else 3
            incremental = run_eval(
                corpus,
                EvalConfig(methods=methods, sampling=Sampling.INCREMENTAL,
                           k_values=ks, test_fraction=0.2, steps=steps),
                table=table,
            )
            want_inc = oracle.incremental_eval(
                records, labels, ks, 0.2, steps, entries, table.dimension, stopwords
            )
            for row in incremental.rows:
                acc, mrr = want_inc[(row.method, row.k)]
                assert abs(row.topk_accuracy - acc) <= 1e-12
                assert abs(row.mrr - mrr) <= 1e-12

        elapsed = time.monotonic() - started
        assert elapsed < 30.0, f"oracle equivalence took {elapsed:.2f}s"


def test_planted_expertise_end_to_end():
    with criterion("planted-expertise"):
        records = sorted(planted_records(), key=lambda r: r.sort_key())
        corpus = Corpus(project="planted", records=tuple(records))
        methods = (
            frozenset({MethodId.FP_JC}),
            frozenset({MethodId.RC_JC}),
            frozenset({MethodId.FP_JC, MethodId.FP_HD, MethodId.RC_JC}),
            "REVFINDER",
        )
        config = EvalConfig(methods=methods, k_values=(1,), test_fraction=0.10,
                            rng_seed=7)
        report = run_eval(corpus, config)
        top1 = {row.method: row.topk_accuracy for row in report.rows}
        assert top1["FP_JC"] == 1.0
        assert top1["RC_JC"] == 1.0
        assert top1["FP_JC+FP_HD+RC_JC"] == 1.0
        assert top1["REVFINDER"] >= 0.9
        again = run_eval(corpus, config)
        assert report.to_csv_text() == again.to_csv_text()


def test_sampling_sensitivity():
    with criterion("sampling-sensitivity"):
        records = sorted(late_owner_records(), key=lambda r: r.sort_key())
        corpus = Corpus(project="lateowner", records=tuple(records))
        methods = (frozenset({MethodId.FP_JC}),)
        fixed = run_eval(
            corpus,
            EvalConfig(methods=methods, k_values=(10,), test_fraction=0.10,
                       rng_seed=0),
        )
        incremental = run_eval(
            corpus,
            EvalConfig(methods=methods, sampling=Sampling.INCREMENTAL,
                       k_values=(10,), test_fraction=0.10, steps=4),
        )
        fixed_top10 = fixed.rows[0].topk_accuracy
        incremental_top10 = incremental.rows[0].topk_accuracy
        assert fixed_top10 > incremental_top10
        # the constructed fixture pins both sides of the inequality
        assert fixed_top10 == 1.0
        assert incremental_top10 == 0.25


def test_report_determinism(tmp_path):
    with criterion("report-determinism"):
        records = random_records(random.Random(8), 30)
        corpus_path = tmp_path / "corpus.jsonl"
        save_corpus(Corpus(project="synth", records=tuple(records)), corpus_path)
        vectors_path = tmp_path / "vectors.txt"
        save_embedding_table(random_table(random.Random(9)), vectors_path)

        base = [
            "evaluate", "--corpus", str(corpus_path),
            "--embeddings", str(vectors_path),
            "--methods", "FP_JC+RC_CS,RC_JC,REVFINDER",
            "--sampling", "fixed", "--seed", "11", "--k", "1,3,5",
        ]
        outputs = []
        for name, jobs in (("one", "1"), ("two", "1"), ("par", "3")):
            out = tmp_path / name
            assert cli.main(base + ["--jobs", jobs, "--out", str(out)]) == 0
            outputs.append((
                out.with_suffix(".csv").read_bytes(),
                out.with_suffix(".txt").read_bytes(),
            ))
        assert outputs[0] == outputs[1] == outputs[2]


EXPECTED_DATASET = {
    "neutron": (149, 64),
    "nova": (206, 67),
    "qt_base": (139, 48),
    "qt_creator": (53, 25),
}


def _synthesize_vectors(records, path):
    """Seeded random table over the corpus vocabulary, enough for RC_CS to
    run; the dataset ships no trained vectors and report values are not
    asserted anyway."""
    rng = random.Random(0)
    vocab = sorted({
        token for record in records
        for token in preprocess_comment(record.comment, default_stopwords())
    })
    entries = {
        word: np.array([rng.uniform(-1, 1) for _ in range(16)]) for word in vocab
    }
    save_embedding_table(EmbeddingTable(dimension=16, entries=entries), path)


@pytest.mark.skipif(
    "REVREC_DATASET" not in os.environ,
    reason="set REVREC_DATASET to the combined record file to run",
)
def test_dataset_run(tmp_path, capsys):
    dataset = os.environ["REVREC_DATASET"]
    with criterion("dataset-run"):
        assert cli.main(["validate", "--corpus", dataset]) == 0
        out = capsys.readouterr().out
        summary = {}
        for line in out.splitlines():
            if line.startswith("project="):
                fields = dict(part.split("=", 1) for part in line.split())
                summary[fields["project"]] = (
                    int(fields["records"]), int(fields["reviewers"]), fields["span"]
                )
        for project, (n_records, n_reviewers) in EXPECTED_DATASET.items():
            assert summary[project][:2] == (n_records, n_reviewers), project
        assert sum(v[0] for v in summary.values()) == 547
        assert summary["neutron"][2] == "2013/11-2020/08"

        records, errors = read_record_file(dataset)
        assert not errors
        vectors_path = tmp_path / "vectors.txt"
        _synthesize_vectors(records, vectors_path)

        started = time.monotonic()
        for project in EXPECTED_DATASET:
            out_base = tmp_path / f"cmp_{project}"
            code = cli.main([
                "compare", "--corpus", dataset, "--project", project,
                "--embeddings", str(vectors_path), "--seed", "0",
                "--out", str(out_base),
            ])
            assert code == 0
            capsys.readouterr()
            rows = {}
            for line in out_base.with_suffix(".csv").read_text().splitlines():
                if line.startswith("#") or line.startswith("method,") or not line:
                    continue
                method, k, acc, mrr = line.split(",")
                rows.setdefault(method, []).append(
                    (int(k), float(acc), float(mrr))
                )
            assert len(rows) == 16  # 15 method combinations plus the baseline
            for cells in rows.values():
                cells.sort()
                assert [k for k, _, _ in cells] == [1, 3, 5, 10]
                accs = [acc for _, acc, _ in cells]
                mrrs = [mrr for _, _, mrr in cells]
                assert accs == sorted(accs)
                assert mrrs == sorted(mrrs)
                assert all(0.0 <= v <= 1.0 for v in accs + mrrs)
                assert all(m <= a + 1e-12 for a, m in zip(accs, mrrs))
                assert mrrs[0] == accs[0]  # k=1 columns coincide
        elapsed = time.monotonic() - started
        assert elapsed < 300.0, f"compare runs took {elapsed:.2f}s"
