"""Metrics, sampling partitions, and report determinism."""

import itertools
import json
import math
import random
import weakref
from dataclasses import replace

import numpy as np
import pytest

import oracle
import revrec.evaluation
import revrec.recommender
from conftest import make_record, random_records, random_table, rank_selection
from revrec.cli import compare_selections
from revrec.corpus import Corpus, ReviewRecord, parse_record_line, validate_record
from revrec.errors import ConfigurationError, EvaluationError, ValidationError
from revrec.evaluation import (
    DEFAULT_K_VALUES,
    EvalConfig,
    EvalReport,
    ReportRow,
    Sampling,
    _min_fixed_corpus_size,
    _truth_mask,
    first_correct_rank,
    fixed_test_indices,
    SubSelections,
    incremental_chunks,
    mrr_at_k,
    run_eval,
    topk_accuracy,
)
from revrec.recommender import (
    _FIELD,
    History,
    MethodId,
    RecommendationList,
    recommend,
    revfinder_recommend,
)

FP_JC = frozenset({MethodId.FP_JC})


def ranking(ranked):
    entries = tuple((rid, float(len(ranked) - i)) for i, rid in enumerate(ranked))
    return RecommendationList(entries=entries, query_ref=("q", "p"))


def case(truth, ranked):
    """The first correct rank of one query: what the metrics reduce over."""
    return first_correct_rank(ranking(ranked), frozenset(truth))


def random_case_set(rng, n_cases):
    pool = [f"r{i}" for i in range(6)]
    cases = []
    for _ in range(n_cases):
        ranked = rng.sample(pool, rng.randint(1, len(pool)))
        truth = set(rng.sample(pool + ["ghost"], rng.randint(1, 3)))
        cases.append(case(truth, ranked))
    return cases


class TestTopkHit:
    # One query's hit is top-k accuracy over that query alone.
    def test_rank_one_hit(self):
        assert topk_accuracy([case({"a"}, ["a", "b", "c"])], 1) == 1

    def test_absent_reviewer(self):
        assert topk_accuracy([case({"z"}, ["a", "b", "c"])], 10) == 0

    def test_position_boundary(self):
        c = case({"b"}, ["a", "b", "c"])
        assert topk_accuracy([c], 1) == 0
        assert topk_accuracy([c], 3) == 1

    def test_first_correct_rank(self):
        assert first_correct_rank(ranking(["a", "b", "c"]), {"b", "c"}) == 2
        assert first_correct_rank(ranking(["a"]), {"z"}) is None


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
        {"methods": ("FP_JC",)},
        {"methods": (frozenset({"FP_JC"}),)},
        {"methods": (frozenset(),)},
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
        first = run_eval(corpus, config)
        second = run_eval(corpus, config)
        assert first.metadata["partition"] == "history:18,test:2"
        assert first.rows == second.rows
        assert first.to_csv_text() == second.to_csv_text()
        assert first.to_table_text() == second.to_table_text()

    def test_row_grid_complete(self):
        corpus = self._corpus(20)
        config = EvalConfig(methods=(FP_JC, "REVFINDER"), k_values=(1, 3), rng_seed=5)
        report = run_eval(corpus, config)
        assert [(r.method, r.k) for r in report.rows] == [
            ("FP_JC", 1), ("FP_JC", 3), ("REVFINDER", 1), ("REVFINDER", 3),
        ]

    def test_seeds_change_partition_not_invariants(self):
        corpus = self._corpus(30, seed=2)
        reports = [
            run_eval(corpus, EvalConfig(methods=(FP_JC,), rng_seed=s))
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
        report = run_eval(planted_corpus, config)
        assert report.rows[0].topk_accuracy == 1.0

    def test_too_small_corpus_names_minimum(self):
        corpus = self._corpus(5)
        config = EvalConfig(methods=(FP_JC,), test_fraction=0.9)
        with pytest.raises(EvaluationError, match="at least 10"):
            run_eval(corpus, config)

    def test_minimum_corpus_size_matches_brute_force(self):
        # The smallest n >= 2 with n - ceil(f * n) >= 1, found by counting up.
        fractions = [i / 1000 for i in range(1, 1000)] + [0.1, 0.3, 0.7, 0.9, 0.99, 0.999]
        for f in fractions:
            n = 2
            while n - math.ceil(f * n) < 1:
                n += 1
            assert _min_fixed_corpus_size(f) == n, f
        # Near 1, where counting up is too slow: the minimum leaves a
        # history and one record fewer does not.
        for f in [0.99999999, 0.9999999999, 1 - 1e-12, 1 - 2**-40, 1 - 2**-53]:
            n = _min_fixed_corpus_size(f)
            assert n - math.ceil(f * n) >= 1 > n - 1 - math.ceil(f * (n - 1)), f

    def test_single_record_rejected(self):
        corpus = Corpus(project="t", records=(make_record(),))
        with pytest.raises(EvaluationError):
            run_eval(corpus, EvalConfig(methods=(FP_JC,)))

    def test_rc_cs_needs_table(self):
        corpus = self._corpus(20)
        config = EvalConfig(methods=(frozenset({MethodId.RC_CS}),))
        with pytest.raises(ConfigurationError):
            run_eval(corpus, config)

    def test_jobs_do_not_change_report(self):
        rng = random.Random(3)
        corpus = self._corpus(24, seed=3)
        table = random_table(rng)
        config = EvalConfig(methods=(frozenset(MethodId), "REVFINDER"), rng_seed=9)
        serial = run_eval(corpus, config, table=table, jobs=1)
        parallel = run_eval(corpus, config, table=table, jobs=4)
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
        report = run_eval(late_owner_corpus, config)
        assert report.metadata["partition"] == "step1:9/1;step2:19/1;step3:29/1;step4:39/1"

    def test_step_constant_metrics_average_to_one(self):
        records = [make_record(change_id=f"c{i}", reviewer_id="solo", minute=i)
                   for i in range(16)]
        corpus = Corpus(project="t", records=tuple(records))
        config = EvalConfig(methods=(FP_JC,), sampling=Sampling.INCREMENTAL,
                            k_values=(1, 3), steps=4)
        report = run_eval(corpus, config)
        assert all(r.topk_accuracy == 1.0 and r.mrr == 1.0 for r in report.rows)

    def test_late_owner_average_strictly_between(self, late_owner_corpus):
        # owners first appear in the chunk that queries them: steps 1-3
        # miss, step 4 hits, so the average sits strictly inside (0, 1)
        config = EvalConfig(methods=(FP_JC,), sampling=Sampling.INCREMENTAL,
                            k_values=(10,), test_fraction=0.10, steps=4)
        report = run_eval(late_owner_corpus, config)
        assert report.rows[0].topk_accuracy == 0.25

    def test_not_chronological_rejected(self):
        records = (make_record(change_id="a", minute=5),
                   make_record(change_id="b", minute=0),
                   make_record(change_id="c", minute=1),
                   make_record(change_id="d", minute=2))
        corpus = Corpus(project="t", records=records)
        config = EvalConfig(methods=(FP_JC,), sampling=Sampling.INCREMENTAL, steps=2)
        with pytest.raises(EvaluationError, match="chronological"):
            run_eval(corpus, config)

    def test_too_few_records(self):
        records = tuple(make_record(change_id=f"c{i}", minute=i) for i in range(7))
        corpus = Corpus(project="t", records=records)
        config = EvalConfig(methods=(FP_JC,), sampling=Sampling.INCREMENTAL, steps=4)
        with pytest.raises(EvaluationError, match="at least 8"):
            run_eval(corpus, config)

    def test_no_history_before_first_validation(self):
        records = tuple(make_record(change_id=f"c{i}", minute=i) for i in range(4))
        corpus = Corpus(project="t", records=records)
        config = EvalConfig(methods=(FP_JC,), sampling=Sampling.INCREMENTAL,
                            steps=2, test_fraction=0.9)
        with pytest.raises(EvaluationError, match="history"):
            run_eval(corpus, config)

    def test_matches_oracle(self):
        rng = random.Random(89)
        records = random_records(rng, 18)
        corpus = Corpus(project="synth", records=tuple(records))
        config = EvalConfig(methods=(FP_JC, "REVFINDER"), sampling=Sampling.INCREMENTAL,
                            k_values=(1, 3), test_fraction=0.2, steps=3)
        report = run_eval(corpus, config)
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
        assert calls == ([union] * self._queries(config, 40) if union else [])

    @pytest.mark.parametrize("sampling", list(Sampling))
    def test_each_run_is_indexed_once(self, monkeypatch, sampling):
        # Each step's history is a prefix view of one History of the run.
        rng = random.Random(99)
        corpus = Corpus(project="synth", records=tuple(random_records(rng, 40)))
        calls = []
        inner = revrec.recommender._distinct

        def counting(history, field):
            calls.append(field)
            return inner(history, field)

        monkeypatch.setattr(revrec.recommender, "_distinct", counting)
        config = EvalConfig(methods=compare_selections(), sampling=sampling)
        run_eval(corpus, config, random_table(rng))
        assert calls == ["file_path", "comment"]

    @pytest.mark.parametrize("sampling", list(Sampling))
    def test_each_method_is_one_array_pass_over_features_built_once_per_run(
            self, monkeypatch, sampling):
        # FP_JC and RC_JC build TokenPostings, FP_HD PathOverlaps (which
        # REVFINDER shares) and RC_CS VectorRows; no score goes through the
        # per-pair method_score.
        rng = random.Random(94)
        corpus = Corpus(project="synth", records=tuple(random_records(rng, 40)))
        calls = {"method_score": 0, "TokenPostings": 0, "PathOverlaps": 0, "VectorRows": 0}
        for name in calls:
            inner = getattr(revrec.recommender, name)

            def counting(*args, name=name, inner=inner, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)

            monkeypatch.setattr(revrec.recommender, name, counting)
        config = EvalConfig(methods=compare_selections(), sampling=sampling)
        run_eval(corpus, config, random_table(rng))
        assert calls == {"method_score": 0, "TokenPostings": 2, "PathOverlaps": 1, "VectorRows": 1}

    @staticmethod
    def _step_queries(config, n):
        if config.sampling is Sampling.FIXED:
            return [math.ceil(config.test_fraction * n)]
        return [math.ceil(config.test_fraction * (end - start))
                for start, end in incremental_chunks(n, config.steps)]

    @classmethod
    def _queries(cls, config, n):
        return sum(cls._step_queries(config, n))

    @pytest.mark.parametrize("sampling", list(Sampling))
    @pytest.mark.parametrize("block_cells", [None, 1], ids=["default", "one-query-blocks"])
    def test_each_other_distinct_selection_is_ranked_once_per_query(self, monkeypatch, sampling, block_cells):
        # The union is scored and ranked by one recommend call per query;
        # FP_JC, configured twice, and FP_HD are ranked from its columns by
        # one SubSelections.ranks call per block of a step's queries, which
        # covers each query's columns once, in order. REVFINDER's overlaps
        # come from one PathOverlaps per run, not from the pair-by-pair
        # _path_overlap_scores.
        rng = random.Random(98)
        corpus = Corpus(project="synth", records=tuple(random_records(rng, 40)))
        fp_hd = frozenset({MethodId.FP_HD})
        calls = {"recommend": [], "ranks": [], "_path_overlap_scores": 0, "PathOverlaps": 0}
        scored, ranked = [], []  # the columns recommend made, and those ranks took
        recommend, ranks = revrec.evaluation.recommend, revrec.evaluation.SubSelections.ranks

        def recommending(query, history, selection, *args, **kwargs):
            calls["recommend"].append(selection)
            ranking = recommend(query, history, selection, *args, **kwargs)
            scored.append(ranking.columns)
            return ranking

        def ranking(others, columns, mine):
            calls["ranks"].append((others.selections, len(columns)))
            ranked.extend(columns)
            return ranks(others, columns, mine)

        for name in ("_path_overlap_scores", "PathOverlaps"):
            inner = getattr(revrec.recommender, name)

            def counting(*args, name=name, inner=inner):
                calls[name] += 1
                return inner(*args)

            monkeypatch.setattr(revrec.recommender, name, counting)
        monkeypatch.setattr(revrec.evaluation, "recommend", recommending)
        monkeypatch.setattr(revrec.evaluation.SubSelections, "ranks", ranking)
        if block_cells:
            monkeypatch.setattr(revrec.evaluation, "_BLOCK_CELLS", block_cells)
        config = EvalConfig(methods=(FP_JC, FP_JC | fp_hd, fp_hd, FP_JC, "REVFINDER"),
                            sampling=sampling)
        counted = run_eval(corpus, config)
        monkeypatch.undo()
        assert counted == run_eval(corpus, config)
        queries = self._queries(config, 40)
        # With the default bound each step is one block; with one cell, each
        # query is a block.
        blocks = [1] * queries if block_cells else self._step_queries(config, 40)
        assert calls == {"recommend": [FP_JC | fp_hd] * queries,
                         "ranks": [([FP_JC, fp_hd], size) for size in blocks],
                         "_path_overlap_scores": 0, "PathOverlaps": 1}
        assert len(ranked) == len(scored) == queries
        assert all(a is b for a, b in zip(ranked, scored))

    @pytest.mark.parametrize("sampling", list(Sampling))
    def test_no_ranking_outlives_its_query(self, monkeypatch, sampling):
        # Evaluation makes one ranking per query, the union's; a block keeps
        # its columns only. REVFINDER is ranked from arrays, with no ranking.
        rng = random.Random(96)
        corpus = Corpus(project="synth", records=tuple(random_records(rng, 40)))
        made = []  # (query, weak reference to a ranking made for it)
        inner = revrec.evaluation.recommend

        def tracking(query, *args, **kwargs):
            alive = [q for q, ref in made if q is not query and ref() is not None]
            assert not alive, f"{len(alive)} rankings of earlier queries are alive"
            ranking = inner(query, *args, **kwargs)
            made.append((query, weakref.ref(ranking)))
            return ranking

        monkeypatch.setattr(revrec.evaluation, "recommend", tracking)
        config = EvalConfig(methods=compare_selections(), sampling=sampling)
        run_eval(corpus, config, random_table(rng))
        assert len(made) == self._queries(config, 40)
        assert all(ref() is None for _, ref in made)

    @pytest.mark.parametrize("sampling", list(Sampling))
    def test_metrics_are_called_once_per_selection_k_and_step(self, monkeypatch, sampling):
        # The benchmark times evaluation.metrics through these two names.
        rng = random.Random(95)
        corpus = Corpus(project="synth", records=tuple(random_records(rng, 40)))
        calls = {"topk_accuracy": 0, "mrr_at_k": 0}
        for name in calls:
            inner = getattr(revrec.evaluation, name)

            def counting(ranks, k, name=name, inner=inner):
                calls[name] += 1
                return inner(ranks, k)

            monkeypatch.setattr(revrec.evaluation, name, counting)
        config = EvalConfig(methods=compare_selections(), sampling=sampling, k_values=(1, 3, 5))
        run_eval(corpus, config, random_table(rng))
        steps = config.steps if sampling is Sampling.INCREMENTAL else 1
        want = len(config.methods) * len(config.k_values) * steps
        assert calls == {"topk_accuracy": want, "mrr_at_k": want}

    def test_repeated_selection_gives_identical_row_groups(self):
        corpus = Corpus(project="synth", records=tuple(random_records(random.Random(5), 30)))
        single = run_eval(corpus, EvalConfig(methods=(FP_JC,))).rows
        repeated = run_eval(corpus, EvalConfig(methods=(FP_JC, FP_JC))).rows
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
        # The sampling named in the config alone picks the runner and its
        # metadata; the positional table, stopwords and jobs change nothing.
        keys = ["project", "sampling", "seed", "test_fraction", "k_values", "methods",
                "records", "partition"]
        fixed_config = EvalConfig(methods=(FP_JC,))
        incremental_config = EvalConfig(methods=(FP_JC,), sampling=Sampling.INCREMENTAL)
        fixed = run_eval(late_owner_corpus, fixed_config, None, None, 2)
        assert list(fixed.metadata) == keys
        assert fixed.to_csv_text() == run_eval(late_owner_corpus, fixed_config).to_csv_text()
        incremental = run_eval(late_owner_corpus, incremental_config, jobs=2)
        assert list(incremental.metadata) == keys[:4] + ["steps"] + keys[4:]
        assert incremental.to_csv_text() == run_eval(
            late_owner_corpus, incremental_config).to_csv_text()
        assert fixed.to_csv_text() != incremental.to_csv_text()


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


class TestSmallCorpusFuzz:
    # Field values that make odd corpora: paths that split into one token
    # or into non-ASCII ones, comments that preprocess to nothing, one
    # reviewer, shared change ids and equal timestamps. About one line in
    # six gets a value that fails parse_record_line and is dropped.
    PATHS = ["a", "a/b.py", "__init__.py", "x-y/z_w", "é/😀", "a/b.py"]
    COMMENTS = ["alpha bravo", "ALPHA", "the is this", "123 456", "!!!", "café", "echo echo"]
    TIMES = ["2020-01-01", "2020-01-01T00:00Z", "2020-01-02 03:04:05.6", "2019-12-31T23:59-01:00"]
    INVALID = {"file_path": "/lead", "line": -1, "comment": "  ", "reviewer_id": "",
               "timestamp": "2020-13-01"}

    def _corpus(self, rng):
        records = []
        for line_no in range(1, rng.randint(0, 14) + 1):
            fields = {
                "change_id": f"c{rng.randint(0, 3)}", "patch_id": "p",
                "file_path": rng.choice(self.PATHS), "line": rng.randint(0, 9),
                "comment": rng.choice(self.COMMENTS), "reviewer_id": rng.choice(["r1", "r2", "r3"]),
                "timestamp": rng.choice(self.TIMES), "project": "fz",
            }
            if rng.random() < 1 / 6:
                bad = rng.choice(sorted(self.INVALID))
                fields[bad] = self.INVALID[bad]
            try:
                records.append(parse_record_line(json.dumps(fields, ensure_ascii=False), line_no))
            except ValidationError:
                pass
        return Corpus(project="fz", records=tuple(sorted(records, key=ReviewRecord.sort_key)))

    @pytest.mark.parametrize("sampling", list(Sampling))
    def test_parsed_corpora_evaluate_or_raise_evaluation_error(self, sampling):
        rng = random.Random(f"fuzz/{sampling.value}")
        evaluated = 0
        for _ in range(150):
            corpus = self._corpus(rng)
            config = EvalConfig(
                methods=compare_selections(), sampling=sampling, k_values=(1, 3),
                test_fraction=rng.choice([0.1, 0.5, 0.9]), steps=rng.randint(1, 4),
                rng_seed=rng.randint(0, 9),
            )
            try:
                report = run_eval(corpus, config, random_table(rng))
            except EvaluationError:
                continue
            evaluated += 1
            assert len(report.rows) == 2 * len(config.methods)
            assert all(0.0 <= row.mrr <= row.topk_accuracy <= 1.0 for row in report.rows)
        assert evaluated >= 50

    # Values that validate accepts at the edges: a comment with no usable
    # tokens, accented and astral paths, and comments that repeat a word
    # whose vector is near the largest double, so that their token sums
    # overflow while their means do not.
    EDGE_COMMENTS = ["42 !!", "big big alpha", "big big", "tiny big bravo", "tiny tiny", "Ünïcode big"]
    EDGE_PATHS = ["é/naïve.py", "src/😀/𝔘x.rs", "a", "core/café/mod.py"]

    @pytest.mark.parametrize("sampling", list(Sampling))
    def test_valid_corpora_evaluate_every_selection(self, sampling):
        rng = random.Random(f"valid/{sampling.value}")
        for trial in range(16):
            records = random_records(rng, rng.randint(8, 24))
            for k in rng.sample(range(len(records)), rng.randint(1, len(records) // 2)):
                records[k] = replace(records[k], comment=rng.choice(self.EDGE_COMMENTS),
                                     file_path=rng.choice(self.EDGE_PATHS + [records[k].file_path]))
            records[0] = replace(records[0], comment="big big big")
            # Repeated keys under another reviewer, and now and then one reviewer for all.
            records += [replace(rng.choice(records), reviewer_id="revz") for _ in range(3)]
            if trial % 4 == 0:
                records = [replace(r, reviewer_id="solo") for r in records]
            for record in records:
                validate_record(record)
            table = random_table(rng, rng.randint(1, 5))
            table.entries["big"] = np.array([rng.choice([-1.6e308, 1e308]) for _ in range(table.dimension)])
            table.entries["tiny"] = np.full(table.dimension, 1e-200)
            config = EvalConfig(
                methods=compare_selections(), sampling=sampling, k_values=(1, 3),
                test_fraction=rng.choice([0.1, 0.25, 0.5]), steps=rng.randint(1, 4),
                rng_seed=rng.randint(0, 9),
            )
            corpus = Corpus(project="synth", records=tuple(sorted(records, key=ReviewRecord.sort_key)))
            report = run_eval(corpus, config, table)
            assert len(report.rows) == 2 * len(config.methods)


ALL_SELECTIONS = [frozenset(combo) for size in range(1, 5)
                  for combo in itertools.combinations(MethodId, size)]


def ulps_above(x, n):
    """The double n ulps above x."""
    for _ in range(n):
        x = math.nextafter(x, math.inf)
    return x


def keyed_history(reviewers):
    """One record per entry of ``reviewers``, each with its own path and
    comment, so that every method's distinct keys are the records."""
    return History([make_record(change_id=f"c{i}", file_path=f"p/{i}.py", comment=f"w{i}",
                                reviewer_id=reviewer, minute=i)
                    for i, reviewer in enumerate(reviewers)])


def reference_ranks(history, columns, selections, truth):
    """First correct ranks of the rankings rank_selection makes from the
    same scores, expanded to one per record."""
    per_record = {m: column[history.positions[_FIELD[m]]].tolist() for m, column in columns.items()}
    return [first_correct_rank(rank_selection(history.groups, per_record, s, ("q", "p")), truth)
            for s in selections]


@pytest.fixture
def exact_calls(monkeypatch):
    """The (selection, reviewer) pairs that SubSelections scored exactly."""
    calls = []
    inner = SubSelections.exact

    def counting(self, columns, selection, r):
        calls.append((selection, self.history.groups[r][0]))
        return inner(self, columns, selection, r)

    monkeypatch.setattr(SubSelections, "exact", counting)
    return calls


class TestSubSelections:
    @pytest.mark.parametrize("sampling", list(Sampling))
    def test_first_correct_ranks_equal_rank_selection(self, monkeypatch, exact_calls, sampling):
        rng = random.Random(f"filter/{sampling.value}")
        compared = 0
        inner = SubSelections.ranks

        def checking(others, columns, mine):
            nonlocal compared
            got = inner(others, columns, mine)
            assert len(got) == len(columns) == len(mine)
            reviewers = [reviewer for reviewer, _ in others.history.groups]
            for row, query_columns, query_mine in zip(got, columns, mine):
                truth = {reviewer for reviewer, m in zip(reviewers, query_mine) if m}
                assert row == reference_ranks(others.history, query_columns, others.selections, truth)
                compared += len(row)
            return got

        monkeypatch.setattr(SubSelections, "ranks", checking)
        for trial in range(12):
            records = random_records(rng, rng.randint(30, 80))
            # Coarse vectors tie often; both orders of the union are used.
            config = EvalConfig(methods=compare_selections()[::rng.choice([1, -1])],
                                sampling=sampling, rng_seed=trial)
            run_eval(Corpus(project="synth", records=tuple(records)), config, random_table(rng))
        assert compared > 1000
        assert exact_calls

    @pytest.mark.parametrize("reviewers, values, truth, selection, rank, exact", [
        # 0.1 + 0.2 is one ulp above 0.3.
        (["reva", "reva", "revb"], [0.1, 0.2, 0.3], {"revb"}, 1, 2, ["reva", "revb"]),
        # Equal sums from different records tie, and ties go by id.
        (["reva", "reva", "revb"], [0.5, 0.25, 0.75], {"revb"}, 1, 2, ["reva", "revb"]),
        # A float sum in record order ties them; the exact sum does not.
        (["revb", "revb", "revb", "reva"], [1.0, 2**-53, 2**-53, 1.0], {"reva"}, 1, 2, ["reva", "revb"]),
        # Equal means of three methods, which weighted float sums misorder.
        (["revb", "reva"], [[1.0, 6 / 7, 1 / 7], [1.0, 1.0, 0.0]], {"reva"}, 3, 1, ["reva", "revb"]),
        # Two truth reviewers a few ulps apart, with revc between them and
        # reva above both: the window spans both truths, and all four
        # reviewers in it are summed exactly.
        (["reva", "revb", "revc", "revd"], [ulps_above(0.3, 3), 0.3, ulps_above(0.3, 1), ulps_above(0.3, 2)],
         {"revb", "revd"}, 1, 2, ["reva", "revb", "revc", "revd"]),
        # The best truth's interval meets no other: the near tie of reva
        # and revb below it and revd above it are decided from the bounds.
        (["reva", "reva", "revb", "revc", "revd"], [0.1, 0.2, 0.3, 0.9, 1.0], {"revc"}, 1, 2, []),
        # A truth alone in the window with a subnormal sum, whose interval
        # reaches below 0, is summed exactly and ranks above a zero with a
        # lower id.
        (["reva", "revb"], [0.0, 2**-1074], {"revb"}, 1, 1, ["revb"]),
        # Its mean over two or three methods rounds to 0, so it ties the
        # zero and goes after it by id.
        (["reva", "revb"], [[0.0, 0.0], [2**-1074, 0.0]], {"revb"}, 2, 2, ["revb"]),
        (["reva", "revb"], [[0.0, 0.0, 0.0], [2**-1074, 0.0, 0.0]], {"revb"}, 3, 2, ["revb"]),
        # The truth is the zero, and the lone window member, whose mean
        # rounds to 0, goes after it by id.
        (["reva", "revb"], [[0.0, 0.0], [2**-1074, 0.0]], {"reva"}, 2, 1, ["revb"]),
    ], ids=["last-bit", "equal-multisets", "naive-misorder", "three-method-means",
            "truths-around-a-rival", "isolated-truth", "subnormal-alone",
            "subnormal-alone-2", "subnormal-alone-3", "subnormal-rival"])
    def test_near_ties_go_to_the_exact_sums(self, exact_calls, reviewers, values, truth, selection, rank, exact):
        # ``values`` holds one score per record, or one per record and method.
        history = keyed_history(reviewers)
        methods = list(MethodId)[:selection]
        grid = np.array(values, dtype=float).reshape(len(reviewers), selection)
        columns = {m: grid[:, i] for i, m in enumerate(methods)}
        selections = [frozenset(methods)]
        got = SubSelections(history, selections).ranks([columns], _truth_mask(history, [truth]))[0]
        assert got == reference_ranks(history, columns, selections, truth) == [rank]
        assert sorted(r for _, r in exact_calls) == exact

    def test_naive_sums_misorder_the_near_ties(self):
        # What the cases above guard against: summing in record order.
        assert 0.1 + 0.2 != 0.3
        assert 1.0 + 2**-53 + 2**-53 == 1.0 != math.fsum([1.0, 2**-53, 2**-53])
        third = 1 / 3
        assert math.fsum([1.0, 6 / 7, 1 / 7]) / 3 == math.fsum([1.0, 1.0, 0.0]) / 3
        assert third * 1.0 + third * (6 / 7) + third * (1 / 7) > third * 1.0 + third * 1.0 + third * 0.0

    def test_intervals_hold_the_exact_sums(self):
        rng = random.Random(137)
        sizes = [1, 2, 3, 10, 100, 1000, 10_000]
        reviewers = [f"rev{i}" for i, size in enumerate(sizes) for _ in range(size)]
        records = [make_record(change_id=f"c{i}", file_path=f"p/{rng.randrange(4000)}.py",
                               comment=f"w{rng.randrange(4000)}", reviewer_id=reviewer)
                   for i, reviewer in enumerate(reviewers)]
        history = History(records)
        assert [len(ix) for _, ix in history.groups] == sizes
        others = SubSelections(history, ALL_SELECTIONS)
        draws = {
            "uniform": lambda: rng.random(),
            "subnormal": lambda: rng.randrange(2**20) * 2.0**-1074,
            "near the normal range": lambda: rng.random() * 2.0**-1020,
            "grid": lambda: rng.randint(0, 7) / 7,
            "mixed": lambda: rng.choice([0.0, 1.0, 2.0**-1074, rng.random(), rng.random() * 1e-300]),
            # A third of these rounds to 0, though a mean of two is not 0.
            "smallest": lambda: rng.choice([0.0, 2.0**-1074, 2.0**-1073]),
        }
        checked = 0
        for draw in draws.values():
            columns = {m: np.array([draw() for _ in history.keys[_FIELD[m]][0]]) for m in MethodId}
            (lo, hi, zero), = zip(*others.bounds([columns]))
            for s, selection in enumerate(ALL_SELECTIONS):
                for r in range(len(sizes)):
                    exact = others.exact(columns, selection, r)
                    assert lo[s, r] <= exact <= hi[s, r], (selection, sizes[r])
                    assert exact == 0.0 or not zero[s, r]
                    checked += 1
        assert checked == len(draws) * 15 * len(sizes)

    def test_truth_absent_from_the_history_has_no_rank(self, exact_calls):
        history = keyed_history(["reva", "revb"])
        # Ties that would need exact sums, in a block with a query that has
        # a truth reviewer.
        tied = {m: np.array([0.5, 0.5]) for m in MethodId}
        apart = {m: np.array([1.0, 0.0]) for m in MethodId}
        mine = _truth_mask(history, [{"ghost"}, {"reva"}, set()])
        ranks = SubSelections(history, ALL_SELECTIONS).ranks([tied, apart, tied], mine)
        assert ranks == [[None] * 15, [1] * 15, [None] * 15]
        assert not exact_calls

    def test_all_zero_columns_tie_by_id_without_exact_sums(self, exact_calls):
        history = keyed_history(["revc", "reva", "revd", "revb", "reva"])
        columns = {m: np.zeros(5) for m in MethodId}
        others = SubSelections(history, ALL_SELECTIONS)
        mine = _truth_mask(history, [{"revc"}, {"revd", "revb", "ghost"}])
        assert others.ranks([columns] * 2, mine) == [[3] * 15, [2] * 15]
        assert not exact_calls


def per_query_ranks(query, truth, history, methods, table):
    """Each selection's first correct rank for one query, from the
    rankings recommend, rank_selection and revfinder_recommend make."""
    union = frozenset().union(*(s for s in methods if s != "REVFINDER"))
    columns = recommend(query, history, union, table).columns if union else {}
    return [first_correct_rank(revfinder_recommend(query, history), truth) if s == "REVFINDER"
            else reference_ranks(history, columns, [s], truth)[0] for s in methods]


class TestBlocks:
    @pytest.mark.parametrize("sampling", list(Sampling))
    def test_block_ranks_equal_the_per_query_rankings(self, monkeypatch, sampling):
        # Small cell bounds split each step into blocks of a few queries.
        # Some records take another's path, so that paths repeat within a
        # block, and some a reviewer of their own, so that no history
        # holds their truth.
        rng = random.Random(f"blocks/{sampling.value}")
        seen = dict.fromkeys(["step of several blocks", "block of several queries",
                              "path repeated in a block", "truth absent"], 0)
        inner = revrec.evaluation._block_ranks

        def checking(queries, truths, history, methods, union, others, table, stopwords):
            got = inner(queries, truths, history, methods, union, others, table, stopwords)
            assert got == [per_query_ranks(q, t, history, methods, table) for q, t in zip(queries, truths)]
            reviewers = {reviewer for reviewer, _ in history.groups}
            seen["block of several queries"] += len(queries) > 1
            seen["path repeated in a block"] += len({q.file_path for q in queries}) < len(queries)
            seen["truth absent"] += sum(not truth & reviewers for truth in truths)
            blocks.append(history)
            return got

        monkeypatch.setattr(revrec.evaluation, "_block_ranks", checking)
        for trial in range(8):
            records = random_records(rng, rng.randint(40, 90))
            for i in rng.sample(range(len(records)), len(records) // 3):
                records[i] = replace(records[i], file_path=rng.choice(records).file_path)
            for i in rng.sample(range(len(records)), 4):
                records[i] = replace(records[i], reviewer_id=f"solo{i}")
            monkeypatch.setattr(revrec.evaluation, "_BLOCK_CELLS", rng.choice([1, 400, 1500, 1 << 17]))
            methods = compare_selections() if trial % 2 else (FP_JC, frozenset({MethodId.RC_JC}), "REVFINDER")
            config = EvalConfig(methods=methods, sampling=sampling, rng_seed=trial,
                                test_fraction=0.25)
            blocks = []
            run_eval(Corpus(project="synth", records=tuple(records)), config, random_table(rng))
            seen["step of several blocks"] += len(blocks) > len(set(map(id, blocks)))
        assert all(seen.values()), seen

    @pytest.mark.parametrize("sampling", list(Sampling))
    def test_a_block_s_record_arrays_stay_within_the_cell_bound(self, monkeypatch, sampling):
        # Three paths and two comments over 1,000 records: the union's
        # columns and REVFINDER's overlaps are a few cells per query, but
        # both are gathered onto every record (History.group_sums), so
        # the bound must split a step into blocks by its records.
        records = [make_record(change_id=f"c{i}", file_path=f"p/{i % 3}.py", comment=f"w{i % 2}",
                               reviewer_id=f"rev{i % 40}", minute=i) for i in range(1_000)]
        bound = 60_000
        gathered, blocks = [], []
        group_sums, block_ranks = History.group_sums, revrec.evaluation._block_ranks

        def gathering(history, field, values):
            gathered.append(values[..., 0].size * len(history))
            return group_sums(history, field, values)

        def blocking(queries, truths, history, *args):
            blocks.append(len(queries))
            return block_ranks(queries, truths, history, *args)

        monkeypatch.setattr(History, "group_sums", gathering)
        monkeypatch.setattr(revrec.evaluation, "_block_ranks", blocking)
        monkeypatch.setattr(revrec.evaluation, "_BLOCK_CELLS", bound)
        config = EvalConfig(methods=(FP_JC, FP_JC | {MethodId.FP_HD}, "REVFINDER"), sampling=sampling)
        counted = run_eval(Corpus(project="synth", records=tuple(records)), config)
        monkeypatch.undo()
        assert counted == run_eval(Corpus(project="synth", records=tuple(records)), config)
        assert len(blocks) > len(TestScoreOncePerQuery._step_queries(config, 1_000))
        assert gathered and max(gathered) <= bound

    def test_a_block_mixes_grid_exact_rows_with_the_per_record_fallback(self, monkeypatch):
        # A query equal to a path of 4,000 characters scores 1.0 against it
        # and 1/4,000 against "a"; with a group of 20,000 records its
        # reviewer sums fail the grid bound (see recommender._reviewer_sums)
        # and are summed record by record, while the short queries of the
        # same block fit the grid.
        rng = random.Random(151)
        long_path = "".join(rng.choices("ab/", k=4_000))
        paths = ["".join(rng.choices("ab/", k=rng.randint(1, 4_000))) for _ in range(4)]
        paths += [long_path, long_path[:-1], "a"]
        sizes = [20_000, 1, 7, 30]
        history = History(rng.sample([
            make_record(change_id=f"c{i}.{j}", file_path=rng.choice(paths), reviewer_id=f"rev{i}")
            for i, size in enumerate(sizes) for j in range(size)], sum(sizes)))
        queries = [make_record(change_id=f"q{i}", file_path=path)
                   for i, path in enumerate(["ab", long_path, "b/a", long_path, "ab"])]
        truths = [{"rev1"}, {"rev2", "rev3"}, {"rev0"}, {"ghost"}, {"rev3", "ghost"}]
        fallbacks = []
        inner = revrec.recommender._fsums

        def counting(groups, columns):
            fallbacks.extend(columns)
            return inner(groups, columns)

        monkeypatch.setattr(revrec.recommender, "_fsums", counting)
        got = revrec.evaluation._revfinder_ranks(queries, _truth_mask(history, truths), history)
        assert len(fallbacks) == 4  # the long path's four components, once for the block
        assert got == [first_correct_rank(revfinder_recommend(q, history), t) for q, t in zip(queries, truths)]
        assert got[3] is None
