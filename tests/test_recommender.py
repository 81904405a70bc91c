"""Reviewer ranking: per-method scores, aggregation, and the baseline."""

import itertools
import random

import pytest

import oracle
from conftest import make_record, random_records, random_table
from revrec.errors import ConfigurationError, EmptyHistoryError
from revrec.recommender import (
    REVFINDER,
    MethodId,
    method_score,
    parse_method_selection,
    rank_selection,
    recommend,
    revfinder_recommend,
    selection_label,
)
from revrec.recommender import _path_overlap_scores

ALL_SELECTIONS = [
    frozenset(combo)
    for size in range(1, 5)
    for combo in itertools.combinations(MethodId, size)
]


class TestParseMethodSelection:
    def test_single(self):
        assert parse_method_selection("FP_JC") == frozenset({MethodId.FP_JC})

    def test_joined_and_case_insensitive(self):
        assert parse_method_selection("fp_jc+rc_cs") == frozenset(
            {MethodId.FP_JC, MethodId.RC_CS}
        )

    def test_baseline(self):
        assert parse_method_selection("revfinder") == REVFINDER

    def test_unknown_method(self):
        with pytest.raises(ConfigurationError, match="FP_XX"):
            parse_method_selection("FP_JC+FP_XX")

    def test_empty(self):
        with pytest.raises(ConfigurationError):
            parse_method_selection("  ")

    def test_labels_are_canonical(self):
        assert selection_label(parse_method_selection("RC_JC+FP_JC")) == "FP_JC+RC_JC"
        assert selection_label(REVFINDER) == "REVFINDER"
        labels = {selection_label(s) for s in ALL_SELECTIONS}
        assert len(labels) == 15


class TestMethodScore:
    def test_identical_records_score_one(self, tiny_table):
        q = make_record(comment="api broken")
        for method in MethodId:
            assert method_score(q, q, method, table=tiny_table) == 1.0

    def test_fp_jc_disjoint(self):
        q = make_record(file_path="nova/db/api.py")
        p = make_record(file_path="qt/gui/widget.cpp")
        assert method_score(q, p, MethodId.FP_JC) == 0.0

    def test_rc_jc_partial(self):
        # {api, broken} vs {api, layer, broken}: 2 common / 3 union
        q = make_record(comment="the API is broken")
        p = make_record(comment="API layer broken")
        assert method_score(q, p, MethodId.RC_JC) == pytest.approx(2 / 3, abs=1e-6)

    def test_rc_cs_requires_table(self):
        q = make_record()
        with pytest.raises(ConfigurationError, match="embeddings"):
            method_score(q, q, MethodId.RC_CS)

    def test_rc_cs_empty_comment_scores_zero(self, tiny_table):
        q = make_record(comment="42 + 42")  # preprocesses to nothing
        p = make_record(comment="api broken")
        assert method_score(q, p, MethodId.RC_CS, table=tiny_table) == 0.0


class TestRecommend:
    def test_single_record_history(self):
        q = make_record(change_id="q")
        hist = [make_record(change_id="h", reviewer_id="r9")]
        result = recommend(q, hist, frozenset({MethodId.FP_JC}))
        # a constant score column normalizes to zero
        assert result.entries == (("r9", 0.0),)
        assert result.query_ref == ("q", "p1")

    def test_planted_owner_ranked_first(self):
        hist = [
            make_record(change_id=f"a{i}", file_path=f"net/mod{i}.py",
                        reviewer_id="A", minute=i)
            for i in range(4)
        ] + [
            make_record(change_id=f"b{i}", file_path=f"db/row{i}.py",
                        reviewer_id="B", minute=10 + i)
            for i in range(4)
        ]
        q = make_record(change_id="q", file_path="net/x.py")
        result = recommend(q, hist, frozenset({MethodId.FP_JC}))
        assert result.reviewers()[0] == "A"
        assert result.entries[0][1] > result.entries[1][1]

    def test_eight_record_oracle_equivalence(self):
        rng = random.Random(47)
        hist = random_records(rng, 8)
        q = make_record(change_id="q", file_path="core/net/modz.py",
                        comment="alpha bravo delta", project="synth")
        got = recommend(q, hist, frozenset({MethodId.FP_JC, MethodId.RC_JC}))
        want = oracle.recommend(q, hist, {"FP_JC", "RC_JC"},
                                stopwords=oracle.stopword_list())
        assert [r for r, _ in got.entries] == [r for r, _ in want]
        for (_, gs), (_, ws) in zip(got.entries, want):
            assert abs(gs - ws) < 1e-12

    def test_history_order_invariance(self):
        rng = random.Random(53)
        hist = random_records(rng, 12)
        table = random_table(rng)
        q = make_record(change_id="q", file_path="db/api/utilq.py",
                        comment="charlie echo golf", project="synth")
        baseline = recommend(q, hist, frozenset(MethodId), table=table)
        for _ in range(5):
            shuffled = hist[:]
            rng.shuffle(shuffled)
            assert recommend(q, shuffled, frozenset(MethodId), table=table) == baseline

    def test_each_reviewer_once_scores_sorted(self):
        rng = random.Random(59)
        for trial in range(20):
            hist = random_records(random.Random(trial), rng.randint(2, 15))
            q = make_record(change_id="q", file_path="ui/core/main.py",
                            comment="india juliet", project="synth")
            result = recommend(q, hist, frozenset({MethodId.FP_JC, MethodId.FP_HD}))
            names = result.reviewers()
            assert len(names) == len(set(names)) == len({r.reviewer_id for r in hist})
            scores = [s for _, s in result.entries]
            assert scores == sorted(scores, reverse=True)
            ties = [n for (n, s), (n2, s2) in zip(result.entries, result.entries[1:])
                    if s == s2 and n > n2]
            assert not ties

    def test_empty_history(self):
        with pytest.raises(EmptyHistoryError):
            recommend(make_record(), [], frozenset({MethodId.FP_JC}))

    def test_empty_methods(self):
        with pytest.raises(ConfigurationError):
            recommend(make_record(), [make_record()], frozenset())

    def test_single_method_order_matches_raw_scores(self):
        # with one method, normalization cannot reorder reviewers of a
        # one-record-each history
        rng = random.Random(61)
        hist = [
            make_record(change_id=f"c{i}", file_path=path, reviewer_id=f"r{i}", minute=i)
            for i, path in enumerate(
                ["net/x.py", "net/deep/x.py", "db/x.py", "ui/gui/win.cpp"]
            )
        ]
        q = make_record(change_id="q", file_path="net/x.py")
        raw = {
            r.reviewer_id: method_score(q, r, MethodId.FP_JC) for r in hist
        }
        result = recommend(q, hist, frozenset({MethodId.FP_JC}))
        want = sorted(raw, key=lambda rid: (-raw[rid], rid))
        assert result.reviewers() == want


class TestRankSelection:
    def test_union_columns_rank_every_subset_like_recommend(self):
        rng = random.Random(61)
        for trial in range(10):
            hist = random_records(random.Random(300 + trial), rng.randint(1, 20))
            table = random_table(rng)
            query = random_records(rng, 1)[0]
            union = recommend(query, hist, frozenset(MethodId), table=table)
            assert list(union.columns) == list(MethodId)
            assert all(len(column) == len(hist) for column in union.columns.values())
            for selection in ALL_SELECTIONS:
                ranked = rank_selection(hist, union.columns, selection, union.query_ref)
                assert ranked.entries == recommend(query, hist, selection, table=table).entries
                assert ranked.columns is union.columns

    def test_recommend_carries_only_selected_columns(self):
        hist = [make_record(change_id="h", reviewer_id="r1")]
        result = recommend(make_record(change_id="q"), hist, frozenset({MethodId.FP_HD}))
        assert list(result.columns) == [MethodId.FP_HD]


class TestRevFinder:
    def test_single_reviewer_positive_score(self):
        hist = [make_record(change_id="h", file_path="net/a.py", reviewer_id="solo")]
        q = make_record(change_id="q", file_path="net/b.py")
        result = revfinder_recommend(q, hist)
        assert result.reviewers() == ["solo"]
        assert result.entries[0][1] > 0

    def test_lcp_component_normalization(self):
        # common prefix "a/b/" of length 4 over the longer length 5
        scores = _path_overlap_scores("a/b/c", "a/b/d")
        assert scores[0] == pytest.approx(0.8)

    def test_component_scores_match_oracle(self):
        rng = random.Random(67)
        pieces = "ab/cd."
        for _ in range(300):
            p = "".join(rng.choice(pieces) for _ in range(rng.randint(1, 12)))
            q = "".join(rng.choice(pieces) for _ in range(rng.randint(1, 12)))
            longer = max(len(p), len(q))
            got = _path_overlap_scores(p, q)
            want = (
                oracle.lcp_len(p, q) / longer,
                oracle.lcsuffix_len(p, q) / longer,
                oracle.lcsubstr_len(p, q) / longer,
                oracle.lcsubseq_len(p, q) / longer,
            )
            assert got == want

    def test_six_record_borda_oracle(self):
        rng = random.Random(71)
        for trial in range(10):
            hist = random_records(random.Random(100 + trial), 6)
            q = make_record(change_id="q", file_path="core/db/ioa.py", project="synth")
            got = revfinder_recommend(q, hist)
            want = oracle.revfinder(q, hist)
            assert list(got.entries) == want

    def test_identical_paths_dominate(self):
        hist = [
            make_record(change_id="h1", file_path="net/exact.py", reviewer_id="match"),
            make_record(change_id="h2", file_path="ui/other.cpp", reviewer_id="far",
                        minute=1),
        ]
        q = make_record(change_id="q", file_path="net/exact.py")
        assert revfinder_recommend(q, hist).reviewers()[0] == "match"

    def test_empty_history(self):
        with pytest.raises(EmptyHistoryError):
            revfinder_recommend(make_record(), [])

    def test_history_order_invariance(self):
        rng = random.Random(73)
        hist = random_records(rng, 10)
        q = make_record(change_id="q", file_path="api/ui/mainz.rs", project="synth")
        baseline = revfinder_recommend(q, hist)
        shuffled = hist[:]
        rng.shuffle(shuffled)
        assert revfinder_recommend(q, shuffled) == baseline


class TestRecommendationList:
    def test_top_truncates(self):
        hist = [make_record(change_id=f"c{i}", reviewer_id=f"r{i}", minute=i)
                for i in range(5)]
        result = revfinder_recommend(make_record(change_id="q"), hist)
        assert len(result.top(3)) == 3
        assert result.top(99) == result.entries
