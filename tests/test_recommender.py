"""Reviewer ranking: per-method scores, aggregation, and the baseline."""

import itertools
import math
import random
from dataclasses import replace
from datetime import timedelta

import numpy as np
import pytest

import oracle
import revrec.evaluation
import revrec.recommender
from conftest import BASE_TIME, SYNTH_VOCAB, make_record, random_records, random_table, rank_selection
from revrec.corpus import Corpus
from revrec.embedding import EmbeddingTable
from revrec.errors import ConfigurationError, EmptyHistoryError, ValidationError
from revrec.evaluation import EvalConfig, Sampling, fixed_test_indices, run_eval
from revrec.recommender import (
    REVFINDER,
    History,
    MethodId,
    method_score,
    parse_method_selection,
    recommend,
    revfinder_recommend,
    selection_label,
)
from revrec.recommender import (
    _FIELD,
    _path_overlap_scores,
    _reviewer_sums,
)
from revrec.similarity import PathOverlaps, VectorRows, cosine

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
        want = oracle.recommend(q, hist, {"FP_JC", "RC_JC"},
                                stopwords=oracle.stopword_list())
        for given in (hist, History(hist)):
            got = recommend(q, given, frozenset({MethodId.FP_JC, MethodId.RC_JC}))
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

    @pytest.mark.parametrize("methods", [REVFINDER, frozenset({"FP_JC"}), {MethodId.FP_JC}])
    def test_rejects_what_is_not_a_method_set(self, methods):
        with pytest.raises(ConfigurationError):
            recommend(make_record(), [make_record()], methods)

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


def repeated_key_history(rng):
    """A random history in which paths and comments recur under other
    reviewers, so that per-key scoring has keys to share."""
    hist = random_records(rng, 24)
    for i in range(12):
        src = rng.choice(hist)
        hist.append(replace(src, change_id=f"x{i}", reviewer_id=f"rev{rng.choice('abcz')}",
                            comment=src.comment if i % 2 else rng.choice(hist).comment))
    return hist


class TestRepeatedKeys:
    def test_recommend_and_revfinder_unchanged_under_permutation(self):
        rng = random.Random(79)
        for trial in range(5):
            hist = repeated_key_history(rng)
            assert len({r.file_path for r in hist}) < len(hist)
            assert len({r.comment for r in hist}) < len(hist)
            table = random_table(rng)
            query = replace(rng.choice(hist), change_id="q")
            got = recommend(query, hist, frozenset(MethodId), table=table)
            base = revfinder_recommend(query, hist)
            shuffled = hist[:]
            rng.shuffle(shuffled)
            for given in (shuffled, History(shuffled), History(hist)):
                assert recommend(query, given, frozenset(MethodId), table=table).entries == got.entries
                assert revfinder_recommend(query, given).entries == base.entries
            want = oracle.recommend(query, hist, [m.value for m in MethodId], table.entries,
                                    table.dimension, oracle.stopword_list())
            assert [r for r, _ in got.entries] == [r for r, _ in want]
            assert all(abs(g - w) < 1e-12 for (_, g), (_, w) in zip(got.entries, want))
            assert list(base.entries) == oracle.revfinder(query, hist)


class TestHistory:
    def test_keys_groups_and_empty_history(self):
        hist = repeated_key_history(random.Random(89))
        history = History(hist)
        assert history == tuple(hist)
        assert History(history) is history
        for field in ("file_path", "comment"):
            holders, positions = history.keys[field]
            values = [getattr(r, field) for r in holders]
            assert values == list(dict.fromkeys(getattr(r, field) for r in hist))
            assert [values[i] for i in positions] == [getattr(r, field) for r in hist]
        groups = history.groups
        assert sorted(i for _, ix in groups for i in ix) == list(range(len(hist)))
        for reviewer, ix in groups:
            assert {hist[i].reviewer_id for i in ix} == {reviewer}
        for given in (hist, hist[::-1]):  # in reviewer-id order whatever the records' order
            assert [reviewer for reviewer, _ in History(given).groups] == sorted({r.reviewer_id for r in hist})
        # The empty history is reported before the selection is checked.
        with pytest.raises(EmptyHistoryError):
            recommend(make_record(), [], REVFINDER)
        with pytest.raises(EmptyHistoryError):
            revfinder_recommend(make_record(), [])


def float_table(rng, dimension):
    """Vectors of mixed magnitudes for most of the synthetic vocabulary, so
    that dots and norms round in their last bit."""
    entries = {
        word: np.array([rng.gauss(0, 1) * 10.0 ** rng.uniform(-5, 5) for _ in range(dimension)])
        for word in rng.sample(SYNTH_VOCAB, 7)
    }
    return EmbeddingTable(dimension=dimension, entries=entries)


def edge_history(rng):
    """A random history plus comments that preprocess to nothing, all-OOV
    and repeated comments, and paths with astral and accented characters."""
    hist = random_records(rng, rng.randint(1, 30))
    extras = [
        ("core/é/ü.py", "42 !!"), ("core/é/ü.py", "the is this"),
        ("net/\U0001d518\U0001f600/x.py", "zulu yankee"), ("ui/ñ/a.rs", "zulu yankee"),
        ("db/x.py", hist[0].comment), ("api/\U0001f600.cpp", "alpha 7 the"),
    ]
    for i, (path, comment) in enumerate(rng.sample(extras, rng.randint(0, len(extras)))):
        hist.append(make_record(change_id=f"e{i}", file_path=path, comment=comment,
                                reviewer_id=f"rev{rng.choice('abz')}", project="synth"))
    rng.shuffle(hist)
    return hist


class TestBatchedScores:
    def test_columns_equal_method_score_bit_for_bit(self):
        rng = random.Random(113)
        columns = 0
        for trial in range(80):
            hist = edge_history(rng)
            history = History(hist)
            table = float_table(rng, rng.randint(1, 60)) if trial % 2 else random_table(rng)
            stopwords = rng.choice([None, frozenset({"alpha", "the"})])
            longest = max(len(r.file_path) for r in hist)
            queries = [
                rng.choice(hist),  # its own record is in the history
                make_record(change_id="q", file_path="a" * (longest + 3), comment="42 !!"),
                make_record(change_id="q", file_path="c", comment="zulu"),
                make_record(change_id="q", file_path="net/\U0001d518/é.py",
                            comment=rng.choice(hist).comment),
                random_records(rng, 1)[0],
            ]
            for query in queries:
                for method in MethodId:
                    field = "file_path" if method.value.startswith("FP") else "comment"
                    holders, _ = history.keys[field]
                    want = [method_score(query, past, method, table, stopwords) for past in holders]
                    got = history.scores(query, method, table, stopwords).tolist()
                    assert [x.hex() for x in got] == [x.hex() for x in want], (method, query)
                    columns += 1
        assert columns == 1600

    def test_identical_tiny_vectors_score_one(self):
        # Their squares underflow to 0, yet neither is a zero vector.
        for u in ([1e-200, 1e-200], [5e-324, 0.0], [1e-160, -3e-170, 0.0]):
            assert cosine(u, list(u)) == 1.0
            assert VectorRows(["a"], [np.array(u)]).cosine(np.array(u), 1).tolist() == [1.0]

    def test_vectors_whose_squares_lose_bits_keep_their_angle(self):
        # Squared, their components are subnormal or overflow, so the plain
        # norms are off by far more than rounding, but not 0 or inf.
        for scale in (1e-162, 1e-158, 1e154):
            u, v = [3 * scale, scale], [scale, 3 * scale]
            assert cosine(u, v) == pytest.approx(0.6, rel=1e-12)
            assert VectorRows(["v"], [np.array(v)]).cosine(np.array(u), 1)[0] == cosine(u, v)

    def test_parallel_huge_vectors_score_one(self):
        # Scaled by powers of two they are one vector, whether their squares
        # overflow, underflow or neither (the plain formula gives [1, 1]
        # against [2, 2] 0.9999999999999998).
        for u, v in (([1e200, 1e200], [2e200, 2e200]), ([1e-160, 1e-160], [2e-160, 2e-160]),
                     ([1.0, 1.0], [2.0, 2.0]),
                     ([1e308, -1e308], [math.ldexp(1e308, -1000), math.ldexp(-1e308, -1000)])):
            assert cosine(u, v) == cosine(v, u) == 1.0
            rows = VectorRows(["u", "v"], [np.array(u), np.array(v)])
            assert rows.cosine(np.array(u), 2).tolist() == rows.cosine(np.array(v), 2).tolist() == [1.0, 1.0]

    def test_scalar_and_batched_cosines_agree_at_extreme_magnitudes(self):
        # Every magnitude from subnormal to near the largest double, zero
        # and repeated vectors, and ordinary ones beside them.
        rng = random.Random(139)
        magnitudes = [5e-324, 1e-310, 1e-200, 1e-160, 1e-154, 1e-3, 1.0, 1e100, 1e154, 1e160, 1e200, 1e308]
        extremes = 0  # non-zero vectors whose plain squared norm loses bits or overflows
        for trial in range(60):
            dimension = rng.randint(1, 5)
            vectors = [np.array([rng.choice([0.0, rng.uniform(-1, 1)]) * rng.choice(magnitudes)
                                 for _ in range(dimension)]) for _ in range(rng.randint(1, 12))]
            vectors += [np.zeros(dimension), np.ldexp(rng.choice(vectors), rng.randint(-8, 0))]
            rng.shuffle(vectors)
            rows = VectorRows([str(k) for k in range(len(vectors))], vectors)
            with np.errstate(over="ignore"):
                squares = [float(np.sum(v * v)) for v in vectors if v.any()]
            extremes += sum(not np.finfo(float).tiny <= x < math.inf for x in squares)
            for u in vectors + [np.array([rng.choice(magnitudes)] * dimension)]:
                n = rng.randint(0, len(vectors))
                got = rows.cosine(u, n).tolist()
                want = [cosine(u, v) for v in vectors[:n]]
                assert [x.hex() for x in got] == [x.hex() for x in want], (u, vectors[:n])
                assert all(0.0 <= x <= 1.0 for x in got)
        assert extremes > 20

    @pytest.mark.parametrize("path, failing", [
        ("__", {MethodId.FP_JC}),  # no path tokens
        ("", {MethodId.FP_JC, MethodId.FP_HD}),
    ])
    def test_errors_match_method_score_and_wait_for_first_use(self, tiny_table, path, failing):
        query = make_record(change_id="q", file_path="a/b.py", comment="api broken")
        bad = make_record(change_id="b", file_path=path, comment="api layer")
        history = History([make_record(), bad])
        for method in MethodId:
            if method in failing:
                with pytest.raises(ValidationError) as want:
                    method_score(query, bad, method, tiny_table)
                with pytest.raises(ValidationError) as got:
                    recommend(query, history, frozenset({method}), tiny_table)
                assert str(got.value) == str(want.value)
                if method is MethodId.FP_HD:
                    # FP_HD reads REVFINDER's packed paths, which hold the
                    # empty path: they were built and kept, and only scoring
                    # raised, so REVFINDER still ranks from them.
                    built = history.features[REVFINDER]
                    assert revfinder_recommend(query, history).reviewers()
                    assert history.features[REVFINDER] is built
                else:
                    assert method not in history.features
            else:  # the comment methods never read the paths
                method_score(query, bad, method, tiny_table)
                recommend(query, history, frozenset({method}), tiny_table)

    def test_query_errors_match_method_score(self):
        query = make_record(change_id="q", file_path="")
        for method in (MethodId.FP_JC, MethodId.FP_HD):
            with pytest.raises(ValidationError) as want:
                method_score(query, make_record(), method)
            with pytest.raises(ValidationError) as got:
                recommend(query, [make_record()], frozenset({method}))
            assert str(got.value) == str(want.value)
        with pytest.raises(ConfigurationError, match="--embeddings"):
            recommend(query, [make_record()], frozenset({MethodId.RC_CS}))

    def test_features_are_built_once_per_method_stopwords_and_table(self):
        hist = repeated_key_history(random.Random(127))
        history = History(hist)
        query = hist[3]
        # Same words, so equal as data; but each table is its own key.
        first = random_table(random.Random(5))
        second = EmbeddingTable(first.dimension, dict(first.entries))
        stop = frozenset({"alpha"})
        for _ in range(2):
            for table, stopwords in ((first, None), (second, None), (first, stop)):
                recommend(query, history, frozenset(MethodId), table, stopwords)
        assert len(history.features) == 2 + 2 + 3  # FP_JC, FP_HD (as REVFINDER); RC_JC x 2; RC_CS x 3
        built = dict(history.features)
        recommend(query, history, frozenset(MethodId), first, stop)
        assert all(history.features[key] is built[key] for key in built)
        assert all(isinstance(key[1], EmbeddingTable)
                    for key in built if isinstance(key, tuple) and key[0] is MethodId.RC_CS)


class TestPrefixViews:
    @pytest.mark.parametrize("sampling", list(Sampling))
    def test_step_scores_equal_a_fresh_history_bit_for_bit(self, monkeypatch, sampling):
        # Every step of run_eval scores against whole.prefix(m), whose keys,
        # groups and features are cut from one History of the run.
        rng = random.Random(131)
        seen = {"strict cut": 0, "postings past the cut": 0, "query between widths": 0}
        for trial in range(24):
            hist = edge_history(rng) + random_records(rng, 12)
            # A path wider than every other, at a position that fixed
            # sampling tests, so that the whole's packed paths are wider than
            # some step's paths.
            long_path = "w/" * rng.randint(20, 40) + "z.py"
            hist.insert(rng.choice(fixed_test_indices(len(hist) + 1, 0.10, 0)), make_record(
                change_id="long", file_path=long_path, comment="zulu alpha", reviewer_id="revz"))
            hist = [replace(r, timestamp=BASE_TIME + timedelta(minutes=i))
                    for i, r in enumerate(hist)]
            table = float_table(rng, rng.randint(1, 60)) if trial % 2 else random_table(rng)
            stopwords = rng.choice([None, frozenset({"alpha", "the"})])
            wholes, steps = [], {}
            prefix, recommend_inner = History.prefix, revrec.evaluation.recommend

            def taking_prefix(whole, m):
                wholes.append(whole)
                return prefix(whole, m)

            def capturing(query, history, *args, **kwargs):
                steps.setdefault(id(history), (history, []))[1].append(query)
                return recommend_inner(query, history, *args, **kwargs)

            monkeypatch.setattr(History, "prefix", taking_prefix)
            monkeypatch.setattr(revrec.evaluation, "recommend", capturing)
            config = EvalConfig(methods=(frozenset(MethodId),), sampling=sampling)
            run_eval(Corpus(project="synth", records=tuple(hist)), config, table, stopwords)
            monkeypatch.undo()
            assert len(steps) == len(wholes) == (config.steps if sampling is Sampling.INCREMENTAL else 1)
            whole = wholes[0]
            assert all(w is whole for w in wholes)
            for step, queries in steps.values():
                fresh = History(tuple(step))
                assert step.keys == fresh.keys and step.groups == fresh.groups
                for field in ("file_path", "comment"):
                    assert step.positions[field].tolist() == fresh.positions[field].tolist()
                    seen["strict cut"] += len(step.keys[field][0]) < len(whole.keys[field][0])
                for method in (MethodId.FP_JC, MethodId.RC_JC):
                    postings = step.features[method if method is MethodId.FP_JC else (method, stopwords)]
                    n = len(step.keys[_FIELD[method]][0])
                    starts = np.array(postings.starts)
                    first, last = postings.positions[starts[:-1]], postings.positions[starts[1:] - 1]
                    seen["postings past the cut"] += bool(np.any((first < n) & (n <= last)))
                longest = max(len(r.file_path) for r in step)
                if longest + 1 < step.features[REVFINDER].rows.shape[2]:
                    seen["query between widths"] += 1
                    queries = queries + [make_record(change_id="q", file_path="a" * (longest + 1))]
                for query in queries:
                    for method in MethodId:
                        got = step.scores(query, method, table, stopwords).tolist()
                        want = fresh.scores(query, method, table, stopwords).tolist()
                        assert [x.hex() for x in got] == [x.hex() for x in want], (method, query)
        assert all(seen.values()), seen


    def test_features_a_prefix_builds_score_every_query_like_a_fresh_history(self):
        # A prefix that builds a feature itself holds rows, and RC_CS's
        # comment lookup, for its own keys only; a query whose comment is a
        # later key of the whole is scored from its own vector.
        rng = random.Random(157)
        hist = repeated_key_history(rng)
        table = float_table(rng, 7)
        whole = History(hist)
        for m in (1, len(hist) // 2, len(hist)):
            part, fresh = whole.prefix(m), History(hist[:m])
            for query in hist:
                for method in MethodId:
                    got = part.scores(query, method, table).tolist()
                    want = fresh.scores(query, method, table).tolist()
                    assert [x.hex() for x in got] == [x.hex() for x in want], (m, method, query)


    def test_prefix_of_a_prefix_equals_a_fresh_history(self):
        # Features built on the whole, on the middle prefix and on the last
        # one in turn: each is cut again or built anew, and every score is
        # a fresh History's.
        rng = random.Random(163)
        for trial in range(6):
            hist = repeated_key_history(rng)
            table = float_table(rng, rng.randint(1, 9))
            whole = History(hist)
            if trial % 2:
                recommend(hist[0], whole, frozenset(MethodId), table)
                revfinder_recommend(hist[0], whole)
            m = rng.randint(2, len(hist))
            middle = whole.prefix(m)
            if trial % 3 == 0:
                recommend(hist[-1], middle, frozenset(MethodId), table)
            k = rng.randint(1, m)
            part, fresh = middle.prefix(k), History(hist[:k])
            assert part.keys == fresh.keys and part.groups == fresh.groups
            for field in ("file_path", "comment"):
                assert part.positions[field].tolist() == fresh.positions[field].tolist()
            for query in rng.sample(hist, 6) + random_records(rng, 2):
                for method in MethodId:
                    got = part.scores(query, method, table).tolist()
                    want = fresh.scores(query, method, table).tolist()
                    assert [x.hex() for x in got] == [x.hex() for x in want], (k, method, query)
                assert revfinder_recommend(query, part) == revfinder_recommend(query, fresh)

    def test_empty_path_after_the_cut(self):
        # REVFINDER's packed paths are built on the whole, which holds an
        # empty path after the cut; the prefix reads them for FP_HD.
        rng = random.Random(167)
        hist = random_records(rng, 12)
        hist.insert(9, make_record(change_id="e", file_path="", comment="api layer"))
        whole = History(hist)
        query = hist[2]
        assert revfinder_recommend(query, whole).reviewers()
        built = whole.features[REVFINDER]
        part, fresh = whole.prefix(9), History(hist[:9])
        assert part.features[REVFINDER] is built
        for other in hist[:9] + random_records(rng, 3):
            got = part.scores(other, MethodId.FP_HD).tolist()
            want = fresh.scores(other, MethodId.FP_HD).tolist()
            assert [x.hex() for x in got] == [x.hex() for x in want], other
        with pytest.raises(ValidationError) as want:
            method_score(query, hist[9], MethodId.FP_HD)
        with pytest.raises(ValidationError) as got:
            recommend(query, whole, frozenset({MethodId.FP_HD}))
        assert str(got.value) == str(want.value)
        assert revfinder_recommend(query, whole).reviewers()


class TestCommentVectorCache:
    def test_tables_never_share_an_entry(self):
        # Same words, different vectors: a cache keyed on the comment
        # alone would give the second table the first one's vectors.
        first = EmbeddingTable(2, {"api": np.array([1.0, 0.0]), "broken": np.array([0.0, 1.0])})
        second = EmbeddingTable(2, {"api": np.array([1.0, 0.0]), "broken": np.array([1.0, 0.0])})
        q = make_record(comment="api")
        p = make_record(comment="broken")
        assert method_score(q, p, MethodId.RC_CS, table=first) == 0.0
        assert method_score(q, p, MethodId.RC_CS, table=second) == 1.0
        assert method_score(q, p, MethodId.RC_CS, table=first) == 0.0

    def test_stopwords_are_part_of_the_key(self, tiny_table):
        q = make_record(comment="api broken")
        p = make_record(comment="broken")
        assert method_score(q, p, MethodId.RC_CS, tiny_table) < 1.0
        assert method_score(q, p, MethodId.RC_CS, tiny_table, frozenset({"api"})) == 1.0


class TestRankSelection:
    def test_union_columns_rank_every_subset_like_recommend(self):
        # recommend's columns hold one score per distinct key; expanded to
        # one per record through History.positions, they rank every
        # sub-selection as recommend ranks it alone.
        rng = random.Random(61)
        for trial in range(10):
            hist = repeated_key_history(random.Random(300 + trial))
            history = History(hist)
            table = random_table(rng)
            query = random_records(rng, 1)[0]
            union = recommend(query, history, frozenset(MethodId), table=table)
            assert list(union.columns) == list(MethodId)
            per_record = {}
            for method, column in union.columns.items():
                assert len(column) == len(history.keys[_FIELD[method]][0]) < len(hist)
                per_record[method] = column[history.positions[_FIELD[method]]].tolist()
            for selection in ALL_SELECTIONS:
                ranked = rank_selection(history.groups, per_record, selection, union.query_ref)
                assert ranked.entries == recommend(query, hist, selection, table=table).entries
                assert ranked.columns is per_record

    def test_group_sums_equal_per_record_fsum_means(self):
        # Columns on a coarse grid tie often; the reference takes the mean
        # of every record with math.fsum, whatever the number of columns,
        # and so do rank_selection and recommender._fsums.
        rng = random.Random(83)
        for trial in range(40):
            n = rng.randint(1, 40)
            reviewers = [f"r{rng.randint(0, 6)}" for _ in range(n)]
            grid = rng.choice([None, 4, 7])
            columns = {
                m: [rng.randint(0, grid) / grid if grid else rng.random() for _ in range(n)]
                for m in MethodId
            }
            groups: dict[str, list[int]] = {}
            for idx, reviewer in enumerate(reviewers):
                groups.setdefault(reviewer, []).append(idx)
            for selection in ALL_SELECTIONS:
                selected = [columns[m] for m in MethodId if m in selection]
                means = [math.fsum([c[i] for c in selected]) / len(selected) for i in range(n)]
                totals = {r: math.fsum([means[i] for i in ix]) for r, ix in groups.items()}
                want = tuple(sorted(totals.items(), key=lambda item: (-item[1], item[0])))
                got = rank_selection(tuple(groups.items()), columns, selection, ("q", "p"))
                assert got.entries == want
                assert revrec.recommender._fsums(tuple(groups.items()), selected) == list(totals.values())

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

    @pytest.mark.parametrize("alphabet", ["ab/", "ab/cd._-", "é/😀ßx"])
    def test_overlap_kernels_match_oracle(self, alphabet):
        # Lengths reach past 64 so that a fixed-width bit-vector port
        # fails here; "ab/" gives long repeated runs.
        rng = random.Random(f"kernels/{alphabet}")

        def path(longest=70):
            return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, longest)))

        for _ in range(400):
            p, q = path(), path()
            got = PathOverlaps([q]).overlaps(p, 1)[:, 0].tolist()
            dps = [oracle.lcp_len(p, q), oracle.lcsuffix_len(p, q),
                   oracle.lcsubstr_len(p, q), oracle.lcsubseq_len(p, q)]
            longer = max(len(p), len(q), 1)
            assert [x.hex() for x in got] == [(x / longer).hex() for x in dps], (p, q)
        # The multi-target form: each query against the first n paths of
        # one packed PathOverlaps, as the same doubles as one pair at a time.
        # A path whose common prefix or suffix with the query spans the
        # shorter of the two skips the substring levels, so each such
        # relation, duplicates and the empty path must occur.
        seen = dict.fromkeys(["one path", "strict cut", "longer than 64", "query equals a path",
                              "query starts a path", "query ends a path", "path starts the query",
                              "path ends the query", "duplicate paths", "empty path",
                              "all paths empty"], 0)
        for trial in range(40):
            paths = [path(90) for _ in range(1 if trial % 5 == 0 else rng.randint(2, 7))]
            if trial == 0:
                paths = [""]
            if trial % 3 == 1:
                paths.insert(rng.randrange(len(paths) + 1), rng.choice(paths))
            if trial % 4 == 2:
                paths.insert(rng.randrange(len(paths) + 1), "")
            overlaps = PathOverlaps(paths)
            base = rng.choice([p for p in paths if p] or ["ab"])
            cut = rng.randint(1, max(1, len(base) - 1))
            queries = [rng.choice(paths), path(90), "QZ#" * rng.randint(1, 30), "",
                       base[:cut], base[cut:], base + path(8), path(8) + base]
            for query in queries:
                n = rng.randint(1, len(paths))
                got = overlaps.overlaps(query, n)
                assert got.shape == (4, n)
                for past, column in zip(paths, got.T.tolist()):
                    if query and past:
                        seen["query equals a path"] += query == past
                        seen["query starts a path"] += past.startswith(query) and query != past
                        seen["query ends a path"] += past.endswith(query) and query != past
                        seen["path starts the query"] += query.startswith(past) and query != past
                        seen["path ends the query"] += query.endswith(past) and query != past
                    seen["duplicate paths"] += paths[:n].count(past) > 1
                    seen["empty path"] += not past
                    longer = max(len(query), len(past), 1)
                    dps = [oracle.lcp_len(query, past), oracle.lcsuffix_len(query, past),
                           oracle.lcsubstr_len(query, past), oracle.lcsubseq_len(query, past)]
                    want = [x.hex() for x in _path_overlap_scores(query, past)]
                    assert [x.hex() for x in column] == want == [(x / longer).hex() for x in dps]
                seen["one path"] += len(paths) == 1
                seen["strict cut"] += n < len(paths)
                seen["longer than 64"] += max(map(len, [query, *paths[:n]])) > 64
                seen["all paths empty"] += not any(paths)
        assert all(seen.values()), seen

    def test_six_record_borda_oracle(self):
        rng = random.Random(71)
        for trial in range(10):
            hist = random_records(random.Random(100 + trial), 6)
            q = make_record(change_id="q", file_path="core/db/ioa.py", project="synth")
            want = oracle.revfinder(q, hist)
            assert list(revfinder_recommend(q, hist).entries) == want
            assert list(revfinder_recommend(q, History(hist)).entries) == want

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


    def test_tie_heavy_corpora_match_oracle(self):
        # Most reviewers hold the same multiset of paths, so their component
        # sums tie exactly, and so do their Borda points.
        rng = random.Random(139)
        pool = ["nova/api/a.py", "nova/api/b.py", "nova/db/api.py", "db/a.py", "a.py", "nova/api"]
        seen = {"shared multisets": 0, "Borda ties": 0}
        for trial in range(30):
            shared = rng.choices(pool, k=rng.randint(1, 4))
            hist = []
            for r in range(rng.randint(2, 14)):
                held = shared if rng.random() < 0.7 else rng.choices(pool, k=rng.randint(1, 4))
                hist += [make_record(change_id=f"c{r}.{i}", file_path=path, reviewer_id=f"rev{r:02d}")
                         for i, path in enumerate(rng.sample(held, len(held)))]
            rng.shuffle(hist)
            query = make_record(change_id="q", file_path=rng.choice(pool + ["ui/x.py"]))
            got = list(revfinder_recommend(query, hist).entries)
            assert got == oracle.revfinder(query, hist)
            by_reviewer: dict[str, list[str]] = {}
            for record in hist:
                by_reviewer.setdefault(record.reviewer_id, []).append(record.file_path)
            multisets = [tuple(sorted(paths)) for paths in by_reviewer.values()]
            seen["shared multisets"] += len(multisets) - len(set(multisets))
            seen["Borda ties"] += sum(a[1] == b[1] for a, b in zip(got, got[1:]))
        assert seen["shared multisets"] > 100 and seen["Borda ties"], seen


def grouped_history(rng, sizes, paths):
    """Reviewer i holds sizes[i] records, each on a random one of paths."""
    records = [make_record(change_id=f"c{i}.{j}", file_path=rng.choice(paths), reviewer_id=f"rev{i:02d}")
               for i, size in enumerate(sizes) for j in range(size)]
    rng.shuffle(records)
    return History(records)


def last_bit_apart(rng):
    """Values a / n, b / n and (a + b) / n whose first two sum, exactly
    rounded, to one ulp from the third."""
    while True:
        n = rng.randint(3, 60)
        a = rng.randint(1, n - 2)
        b = rng.randint(1, n - 1 - a)
        pair = math.fsum([a / n, b / n])
        if (a + b) / n in (math.nextafter(pair, 0.0), math.nextafter(pair, 2.0)):
            return a / n, b / n, (a + b) / n


class TestReviewerSums:
    @pytest.fixture
    def fallbacks(self, monkeypatch):
        """The per-record values that _reviewer_sums sent to the per-record
        fallback (``_fsums``), one list per component of each row."""
        calls = []
        inner = revrec.recommender._fsums

        def counting(groups, columns):
            calls.extend(columns)
            return inner(groups, columns)

        monkeypatch.setattr(revrec.recommender, "_fsums", counting)
        return calls

    @staticmethod
    def check(history, values):
        """Assert that each reviewer's sum in each row and component of
        ``values`` is the math.fsum of its records' values, by .hex();
        return the reference sums, one list per row and component."""
        got = _reviewer_sums(history, "file_path", values)
        assert got.shape == values.shape[:2] + (len(history.groups),)
        want = [[math.fsum(row[list(ix)].tolist()) for _, ix in history.groups]
                for row in values.reshape(-1, values.shape[-1])[:, history.positions["file_path"]]]
        assert [x.hex() for x in got.ravel().tolist()] == [x.hex() for row in want for x in row]
        return want

    def test_sums_equal_fsum_over_each_reviewers_records(self, fallbacks):
        # Overlap-like values k / L over a few lengths L: sums of different
        # records often meet in the reals and part in the last bit
        # (0.1 + 0.2 against 0.3), which the exact sums must keep.
        rng = random.Random(137)
        seen = dict.fromkeys(["group of 1", "group of 10,000", "last-bit apart", "equal"], 0)
        for trial in range(12):
            sizes = [1, 10_000 if trial % 3 == 0 else rng.randint(2, 300)]
            sizes += [rng.randint(1, 40) for _ in range(rng.randint(2, 20))]
            paths = [f"p{k}.py" for k in range(rng.randint(1, 40))]
            # revx holds x1 and x2 and revy holds y, whose values make
            # revx's sum one ulp away from revy's in every row.
            extra = [make_record(change_id=f"e{i}", file_path=path, reviewer_id=reviewer)
                     for i, (path, reviewer) in enumerate([("x1", "revx"), ("x2", "revx"), ("y", "revy")])]
            history = History(list(grouped_history(rng, sizes, paths)) + extra)
            lengths = rng.sample([3, 5, 7, 10, 12, 20, 30, 60], 3)

            def overlap():
                length = rng.choice(lengths)
                return rng.randint(0, length) / length

            # A block of rows, each with its own grid.
            values = np.array([[[overlap() for _ in history.keys["file_path"][0]] for _ in range(4)]
                               for _ in range(rng.randint(1, 3))])
            where = [r.file_path for r in history.keys["file_path"][0]]
            for row in values.reshape(-1, values.shape[-1]):
                row[[where.index("x1"), where.index("x2"), where.index("y")]] = last_bit_apart(rng)
            for row in self.check(history, values):
                ordered = sorted(set(row))
                seen["last-bit apart"] += sum(math.nextafter(a, 2.0) == b for a, b in zip(ordered, ordered[1:]))
                seen["equal"] += len(row) - len(ordered)
            seen["group of 1"] += 1 in map(len, (ix for _, ix in history.groups))
            seen["group of 10,000"] += 10_000 in map(len, (ix for _, ix in history.groups))
        assert all(seen.values()), seen
        assert not fallbacks

    @staticmethod
    def grid_fails(history, row):
        """Whether ``_reviewer_sums``' grid bound fails for one row: its
        non-zero values' binary exponents span more than 53 - 27 bits less
        those of the largest reviewer group's size."""
        exponents = [math.frexp(v)[1] for v in row.ravel().tolist() if v > 0]
        largest = max(len(ix) for _, ix in history.groups)
        return bool(exponents) and 27 + max(exponents) - min(exponents) + largest.bit_length() > 53

    def test_long_paths_fall_back_to_per_record_fsum(self, fallbacks):
        # A query equal to a path of 5,000 characters scores 1.0 against it
        # and 1/5,000 (binary exponent -12) against "a", so with a group of
        # 10,000 records (14 bits) the grid bound 27 + 13 + 14 > 53 fails,
        # and the query is summed record by record; so is one equal to a
        # path of 4,000 characters with a group of 20,000. Each block holds
        # that query, a random history path, "b" * longest and two short
        # queries, and exactly the rows whose bound fails fall back.
        rng = random.Random(149)
        seen = dict.fromkeys(["grid row beside a fallback", "several fallback rows"], 0)
        for longest, big in ((5_000, 10_000), (4_000, 20_000)):
            long_path = "".join(rng.choices("ab/", k=longest))
            paths = ["".join(rng.choices("ab/", k=rng.randint(1, longest))) for _ in range(5)]
            paths += [long_path, long_path[:-1], "a"]
            history = grouped_history(rng, [big, 1, rng.randint(2, 50), rng.randint(2, 50)], paths)
            keys = [r.file_path for r in history.keys["file_path"][0]]
            overlaps = PathOverlaps(keys)
            queries = (long_path, rng.choice(paths), "b" * longest, "ab", "b/a")
            rows = np.array([overlaps.overlaps(query, len(keys)) for query in queries])
            self.check(history, rows)
            failing = [row for row in rows if self.grid_fails(history, row)]
            assert self.grid_fails(history, rows[0])
            positions = history.positions["file_path"]
            assert fallbacks == [component[positions].tolist() for row in failing for component in row]
            seen["grid row beside a fallback"] += len(failing) < len(rows)
            seen["several fallback rows"] += len(failing) > 1
            fallbacks.clear()
        assert all(seen.values()), seen
        # The same paths under a 10-record group fit the grid.
        history = grouped_history(rng, [10, 1, 3], paths)
        keys = [r.file_path for r in history.keys["file_path"][0]]
        self.check(history, PathOverlaps(keys).overlaps(long_path, len(keys))[None])
        assert not fallbacks


class TestRecommendationList:
    def test_top_truncates(self):
        hist = [make_record(change_id=f"c{i}", reviewer_id=f"r{i}", minute=i)
                for i in range(5)]
        result = revfinder_recommend(make_record(change_id="q"), hist)
        assert len(result.top(3)) == 3
        assert result.top(99) == result.entries
