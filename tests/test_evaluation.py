"""Metrics, sampling partitions, and report determinism."""

import math
import random

import pytest

import oracle
import revrec.evaluation
from conftest import make_record, random_records, random_table
from revrec.cli import compare_selections
from revrec.corpus import Corpus
from revrec.errors import ConfigurationError, EvaluationError
from revrec.evaluation import (
    DEFAULT_K_VALUES,
    EvalCase,
    EvalConfig,
    EvalReport,
    ReportRow,
    Sampling,
    first_correct_rank,
    fixed_test_indices,
    incremental_chunks,
    mrr_at_k,
    run_eval,
    run_fixed_eval,
    run_incremental_eval,
    topk_accuracy,
    topk_hit,
)
from revrec.recommender import MethodId, RecommendationList

FP_JC = frozenset({MethodId.FP_JC})


def case(truth, ranked):
    entries = tuple((rid, float(len(ranked) - i)) for i, rid in enumerate(ranked))
    return EvalCase(
        query=make_record(),
        truth=frozenset(truth),
        recommendation=RecommendationList(entries=entries, query_ref=("q", "p")),
    )


def random_case_set(rng, n_cases):
    pool = [f"r{i}" for i in range(6)]
    cases = []
    for _ in range(n_cases):
        ranked = rng.sample(pool, rng.randint(1, len(pool)))
        truth = set(rng.sample(pool + ["ghost"], rng.randint(1, 3)))
        cases.append(case(truth, ranked))
    return cases


class TestTopkHit:
    def test_rank_one_hit(self):
        assert topk_hit(case({"a"}, ["a", "b", "c"]), 1) == 1

    def test_absent_reviewer(self):
        assert topk_hit(case({"z"}, ["a", "b", "c"]), 10) == 0

    def test_position_boundary(self):
        c = case({"b"}, ["a", "b", "c"])
        assert topk_hit(c, 1) == 0
        assert topk_hit(c, 3) == 1

    def test_first_correct_rank(self):
        assert first_correct_rank(case({"b", "c"}, ["a", "b", "c"])) == 2
        assert first_correct_rank(case({"z"}, ["a"])) is None


class TestTopkAccuracy:
    def test_all_hits(self):
        cases = [case({"a"}, ["a", "b"]) for _ in range(5)]
        assert topk_accuracy(cases, 1) == 1.0

    def test_half_hits(self):
        cases = [
            case({"a"}, ["a", "b", "c"]),
            case({"z"}, ["a", "b", "c"]),
            case({"z"}, ["a", "b", "c"]),
            case({"c"}, ["a", "b", "c"]),
        ]
        assert topk_accuracy(cases, 3) == 0.5

    def test_empty_cases_rejected(self):
        with pytest.raises(EvaluationError):
            topk_accuracy([], 1)


class TestMrrAtK:
    def test_perfect_ranking(self):
        cases = [case({"a"}, ["a", "b"]) for _ in range(3)]
        assert mrr_at_k(cases, 5) == 1.0

    def test_ranks_one_and_two(self):
        cases = [case({"a"}, ["a", "b"]), case({"b"}, ["a", "b"])]
        assert mrr_at_k(cases, 5) == 0.75

    def test_truncation_at_k(self):
        # ranks 2 and 4: the rank-4 case contributes 0 at k=3
        cases = [
            case({"b"}, ["a", "b", "c", "d"]),
            case({"d"}, ["a", "b", "c", "d"]),
        ]
        assert mrr_at_k(cases, 3) == 0.25

    def test_mrr_at_one_equals_top1_accuracy(self):
        rng = random.Random(79)
        for _ in range(50):
            cases = random_case_set(rng, rng.randint(1, 12))
            assert mrr_at_k(cases, 1) == topk_accuracy(cases, 1)

    def test_both_metrics_non_decreasing_in_k(self):
        rng = random.Random(83)
        for _ in range(50):
            cases = random_case_set(rng, rng.randint(1, 12))
            accs = [topk_accuracy(cases, k) for k in (1, 2, 3, 5, 8)]
            mrrs = [mrr_at_k(cases, k) for k in (1, 2, 3, 5, 8)]
            assert accs == sorted(accs)
            assert mrrs == sorted(mrrs)
            for acc, mrr in zip(accs, mrrs):
                assert mrr <= acc


class TestEvalConfig:
    def test_defaults(self):
        config = EvalConfig(methods=(FP_JC,))
        assert config.k_values == DEFAULT_K_VALUES
        assert config.sampling is Sampling.FIXED

    @pytest.mark.parametrize("kwargs", [
        {"methods": ()},
        {"methods": (FP_JC,), "k_values": ()},
        {"methods": (FP_JC,), "k_values": (0, 1)},
        {"methods": (FP_JC,), "k_values": (3, 1)},
        {"methods": (FP_JC,), "k_values": (1, 1)},
        {"methods": (FP_JC,), "test_fraction": 0.0},
        {"methods": (FP_JC,), "test_fraction": 1.0},
        {"methods": (FP_JC,), "steps": 0},
    ])
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(ConfigurationError):
            EvalConfig(**kwargs)


class TestFixedPartition:
    def test_twenty_records_fraction_ten(self):
        idx = fixed_test_indices(20, 0.10, 7)
        assert len(idx) == 2
        assert idx == sorted(idx)
        assert all(0 <= i < 20 for i in idx)

    def test_deterministic(self):
        assert fixed_test_indices(50, 0.25, 3) == fixed_test_indices(50, 0.25, 3)

    def test_ceil_rounding(self):
        assert len(fixed_test_indices(11, 0.10, 0)) == 2  # ceil(1.1)

    def test_matches_sampling_oracle(self):
        for n, frac, seed in [(20, 0.1, 7), (31, 0.3, 2), (9, 0.5, 11)]:
            want = sorted(random.Random(seed).sample(range(n), math.ceil(frac * n)))
            assert fixed_test_indices(n, frac, seed) == want


class TestRunFixedEval:
    def _corpus(self, n=20, seed=1):
        return Corpus(project="synth", records=tuple(random_records(random.Random(seed), n)))

    def test_partition_and_determinism(self):
        corpus = self._corpus(20)
        config = EvalConfig(methods=(FP_JC,), rng_seed=7, test_fraction=0.10)
        first = run_fixed_eval(corpus, config)
        second = run_fixed_eval(corpus, config)
        assert first.metadata["partition"] == "history:18,test:2"
        assert first.rows == second.rows
        assert first.to_csv_text() == second.to_csv_text()
        assert first.to_table_text() == second.to_table_text()

    def test_row_grid_complete(self):
        corpus = self._corpus(20)
        config = EvalConfig(methods=(FP_JC, "REVFINDER"), k_values=(1, 3), rng_seed=5)
        report = run_fixed_eval(corpus, config)
        assert [(r.method, r.k) for r in report.rows] == [
            ("FP_JC", 1), ("FP_JC", 3), ("REVFINDER", 1), ("REVFINDER", 3),
        ]

    def test_seeds_change_partition_not_invariants(self):
        corpus = self._corpus(30, seed=2)
        reports = [
            run_fixed_eval(corpus, EvalConfig(methods=(FP_JC,), rng_seed=s))
            for s in (1, 2)
        ]
        for report in reports:
            accs = [r.topk_accuracy for r in report.rows]
            mrrs = [r.mrr for r in report.rows]
            assert accs == sorted(accs)
            assert mrrs == sorted(mrrs)
            assert all(0.0 <= v <= 1.0 for v in accs + mrrs)
            assert report.rows[0].mrr == report.rows[0].topk_accuracy  # k=1

    def test_planted_corpus_perfect_top1(self, planted_corpus):
        config = EvalConfig(methods=(FP_JC,), k_values=(1,), rng_seed=3)
        report = run_fixed_eval(planted_corpus, config)
        assert report.rows[0].topk_accuracy == 1.0

    def test_too_small_corpus_names_minimum(self):
        corpus = self._corpus(5)
        config = EvalConfig(methods=(FP_JC,), test_fraction=0.9)
        with pytest.raises(EvaluationError, match="at least 10"):
            run_fixed_eval(corpus, config)

    def test_single_record_rejected(self):
        corpus = Corpus(project="t", records=(make_record(),))
        with pytest.raises(EvaluationError):
            run_fixed_eval(corpus, EvalConfig(methods=(FP_JC,)))

    def test_rc_cs_needs_table(self):
        corpus = self._corpus(20)
        config = EvalConfig(methods=(frozenset({MethodId.RC_CS}),))
        with pytest.raises(ConfigurationError):
            run_fixed_eval(corpus, config)

    def test_jobs_do_not_change_report(self):
        rng = random.Random(3)
        corpus = self._corpus(24, seed=3)
        table = random_table(rng)
        config = EvalConfig(methods=(frozenset(MethodId), "REVFINDER"), rng_seed=9)
        serial = run_fixed_eval(corpus, config, table=table, jobs=1)
        parallel = run_fixed_eval(corpus, config, table=table, jobs=4)
        assert serial.to_csv_text() == parallel.to_csv_text()


class TestIncrementalChunks:
    def test_even_split(self):
        assert incremental_chunks(40, 4) == [(0, 10), (10, 20), (20, 30), (30, 40)]

    def test_remainder_spreads_left(self):
        assert incremental_chunks(10, 3) == [(0, 4), (4, 7), (7, 10)]

    def test_covers_range_with_near_equal_sizes(self):
        for n in range(8, 60):
            for steps in range(1, 6):
                chunks = incremental_chunks(n, steps)
                sizes = [end - start for start, end in chunks]
                assert sum(sizes) == n
                assert chunks[0][0] == 0 and chunks[-1][1] == n
                assert max(sizes) - min(sizes) <= 1
                assert all(a[1] == b[0] for a, b in zip(chunks, chunks[1:]))


class TestRunIncrementalEval:
    def test_forty_record_partition(self, late_owner_corpus):
        config = EvalConfig(methods=(FP_JC,), sampling=Sampling.INCREMENTAL,
                            k_values=(10,), test_fraction=0.10, steps=4)
        report = run_incremental_eval(late_owner_corpus, config)
        assert report.metadata["partition"] == "step1:9/1;step2:19/1;step3:29/1;step4:39/1"

    def test_step_constant_metrics_average_to_one(self):
        records = [make_record(change_id=f"c{i}", reviewer_id="solo", minute=i)
                   for i in range(16)]
        corpus = Corpus(project="t", records=tuple(records))
        config = EvalConfig(methods=(FP_JC,), sampling=Sampling.INCREMENTAL,
                            k_values=(1, 3), steps=4)
        report = run_incremental_eval(corpus, config)
        assert all(r.topk_accuracy == 1.0 and r.mrr == 1.0 for r in report.rows)

    def test_late_owner_average_strictly_between(self, late_owner_corpus):
        # owners first appear in the chunk that queries them: steps 1-3
        # miss, step 4 hits, so the average sits strictly inside (0, 1)
        config = EvalConfig(methods=(FP_JC,), sampling=Sampling.INCREMENTAL,
                            k_values=(10,), test_fraction=0.10, steps=4)
        report = run_incremental_eval(late_owner_corpus, config)
        assert report.rows[0].topk_accuracy == 0.25

    def test_not_chronological_rejected(self):
        records = (make_record(change_id="a", minute=5),
                   make_record(change_id="b", minute=0),
                   make_record(change_id="c", minute=1),
                   make_record(change_id="d", minute=2))
        corpus = Corpus(project="t", records=records)
        config = EvalConfig(methods=(FP_JC,), sampling=Sampling.INCREMENTAL, steps=2)
        with pytest.raises(EvaluationError, match="chronological"):
            run_incremental_eval(corpus, config)

    def test_too_few_records(self):
        records = tuple(make_record(change_id=f"c{i}", minute=i) for i in range(7))
        corpus = Corpus(project="t", records=records)
        config = EvalConfig(methods=(FP_JC,), sampling=Sampling.INCREMENTAL, steps=4)
        with pytest.raises(EvaluationError, match="at least 8"):
            run_incremental_eval(corpus, config)

    def test_no_history_before_first_validation(self):
        records = tuple(make_record(change_id=f"c{i}", minute=i) for i in range(4))
        corpus = Corpus(project="t", records=records)
        config = EvalConfig(methods=(FP_JC,), sampling=Sampling.INCREMENTAL,
                            steps=2, test_fraction=0.9)
        with pytest.raises(EvaluationError, match="history"):
            run_incremental_eval(corpus, config)

    def test_matches_oracle(self):
        rng = random.Random(89)
        records = random_records(rng, 18)
        corpus = Corpus(project="synth", records=tuple(records))
        config = EvalConfig(methods=(FP_JC, "REVFINDER"), sampling=Sampling.INCREMENTAL,
                            k_values=(1, 3), test_fraction=0.2, steps=3)
        report = run_incremental_eval(corpus, config)
        want = oracle.incremental_eval(
            records, {"FP_JC": {"FP_JC"}, "REVFINDER": "REVFINDER"}, (1, 3), 0.2, 3,
            stopwords=oracle.stopword_list(),
        )
        for row in report.rows:
            acc, mrr = want[(row.method, row.k)]
            assert abs(row.topk_accuracy - acc) < 1e-12
            assert abs(row.mrr - mrr) < 1e-12


class TestScoreOncePerQuery:
    @pytest.mark.parametrize("sampling", list(Sampling))
    @pytest.mark.parametrize("methods, union", [
        (compare_selections(), frozenset(MethodId)),
        ((FP_JC, frozenset({MethodId.FP_HD, MethodId.RC_JC}), "REVFINDER"),
         frozenset({MethodId.FP_JC, MethodId.FP_HD, MethodId.RC_JC})),
        (("REVFINDER",), None),
    ], ids=["compare", "partial", "revfinder-only"])
    def test_one_union_recommend_call_per_query(self, monkeypatch, sampling, methods, union):
        rng = random.Random(97)
        corpus = Corpus(project="synth", records=tuple(random_records(rng, 40)))
        calls = []
        inner = revrec.evaluation.recommend

        def counting(query, history, selection, *args, **kwargs):
            calls.append(selection)
            return inner(query, history, selection, *args, **kwargs)

        monkeypatch.setattr(revrec.evaluation, "recommend", counting)
        config = EvalConfig(methods=methods, sampling=sampling)
        run_eval(corpus, config, random_table(rng))
        if sampling is Sampling.FIXED:
            queries = math.ceil(config.test_fraction * 40)
        else:
            queries = sum(math.ceil(config.test_fraction * (end - start))
                          for start, end in incremental_chunks(40, config.steps))
        assert calls == ([union] * queries if union else [])

    def test_repeated_selection_gives_identical_row_groups(self):
        corpus = Corpus(project="synth", records=tuple(random_records(random.Random(5), 30)))
        single = run_fixed_eval(corpus, EvalConfig(methods=(FP_JC,))).rows
        repeated = run_fixed_eval(corpus, EvalConfig(methods=(FP_JC, FP_JC))).rows
        assert repeated == single + single


class TestRunEvalDispatch:
    def test_sampling_selects_runner(self, late_owner_corpus):
        fixed = run_eval(late_owner_corpus, EvalConfig(methods=(FP_JC,)))
        incremental = run_eval(
            late_owner_corpus,
            EvalConfig(methods=(FP_JC,), sampling=Sampling.INCREMENTAL, steps=4),
        )
        assert fixed.metadata["sampling"] == "fixed"
        assert incremental.metadata["sampling"] == "incremental"

    def test_named_runners_force_their_sampling(self, late_owner_corpus):
        keys = ["project", "sampling", "seed", "test_fraction", "k_values", "methods",
                "records", "partition"]
        incremental_config = EvalConfig(methods=(FP_JC,), sampling=Sampling.INCREMENTAL)
        fixed = run_fixed_eval(late_owner_corpus, incremental_config, None, None, 2)
        assert list(fixed.metadata) == keys
        want = run_eval(late_owner_corpus, EvalConfig(methods=(FP_JC,)))
        assert fixed.to_csv_text() == want.to_csv_text()
        incremental = run_incremental_eval(late_owner_corpus, EvalConfig(methods=(FP_JC,)), jobs=2)
        assert list(incremental.metadata) == keys[:4] + ["steps"] + keys[4:]
        want = run_eval(late_owner_corpus, incremental_config)
        assert incremental.to_csv_text() == want.to_csv_text()


class TestReportFormats:
    def _report(self):
        rows = (
            ReportRow(method="FP_JC", k=1, topk_accuracy=0.5, mrr=0.5),
            ReportRow(method="FP_JC", k=3, topk_accuracy=0.75, mrr=1 / 3),
        )
        return EvalReport(rows=rows, metadata={"project": "t", "seed": "0"})

    def test_csv_shape_and_float_round_trip(self):
        text = self._report().to_csv_text()
        lines = text.splitlines()
        assert lines[0] == "# project=t"
        assert lines[2] == "method,k,topk_accuracy,mrr"
        cells = lines[4].split(",")
        assert cells[0] == "FP_JC" and int(cells[1]) == 3
        assert float(cells[3]) == 1 / 3  # repr floats survive the trip

    def test_table_contains_all_cells(self):
        text = self._report().to_table_text()
        assert "top-1" in text and "mrr@3" in text
        assert "0.7500" in text and "0.3333" in text

    def test_rows_compare_metadata_does_not(self):
        a = self._report()
        b = EvalReport(rows=a.rows, metadata={"project": "other"})
        assert a == b
