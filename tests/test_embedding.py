"""Word-vector file parsing and comment vector aggregation."""

import random
import re
import string
import warnings
from fractions import Fraction

import numpy as np
import pytest

import revrec.embedding
from conftest import make_record, random_table
from revrec.embedding import (
    CommentVector,
    EmbeddingTable,
    comment_vector,
    comment_vectors,
    load_embedding_table,
    save_embedding_table,
)
from revrec.errors import EmbeddingFormatError
from revrec.recommender import History, MethodId
from revrec.textprep import preprocess_comment


def _write(tmp_path, text):
    path = tmp_path / "vecs.txt"
    path.write_text(text, encoding="utf-8")
    return path


def _random_char(rng):
    """Any code point but a surrogate, ASCII half of the time."""
    while True:
        code = rng.randrange(0x80) if rng.random() < 0.5 else rng.randrange(0x110000)
        if not 0xD800 <= code < 0xE000:
            return chr(code)


class TestLoadEmbeddingTable:
    def test_basic_parse(self, tmp_path):
        table = load_embedding_table(_write(tmp_path, "2 3\napi 1 0 0\nbug 0 1 0\n"))
        assert table.dimension == 3
        assert len(table) == 2
        assert "api" in table and "missing" not in table
        np.testing.assert_array_equal(table.entries["bug"], [0.0, 1.0, 0.0])

    def test_dimension_mismatch_cites_line(self, tmp_path):
        with pytest.raises(EmbeddingFormatError) as exc:
            load_embedding_table(_write(tmp_path, "2 3\napi 1 0 0\nbug 0 1\n"))
        assert exc.value.line_no == 3

    def test_empty_file(self, tmp_path):
        with pytest.raises(EmbeddingFormatError):
            load_embedding_table(_write(tmp_path, ""))

    def test_bad_header(self, tmp_path):
        with pytest.raises(EmbeddingFormatError):
            load_embedding_table(_write(tmp_path, "three 3\napi 1 0 0\n"))
        with pytest.raises(EmbeddingFormatError):
            load_embedding_table(_write(tmp_path, "1\napi 1 0 0\n"))

    def test_non_numeric_component(self, tmp_path):
        with pytest.raises(EmbeddingFormatError) as exc:
            load_embedding_table(_write(tmp_path, "1 2\napi one 0\n"))
        assert exc.value.line_no == 2

    def test_non_finite_component(self, tmp_path):
        with pytest.raises(EmbeddingFormatError):
            load_embedding_table(_write(tmp_path, "1 2\napi nan 0\n"))

    def test_duplicate_word_keeps_first(self, tmp_path):
        with pytest.warns(UserWarning, match="duplicate"):
            table = load_embedding_table(_write(tmp_path, "2 2\napi 1 0\napi 0 1\n"))
        np.testing.assert_array_equal(table.entries["api"], [1.0, 0.0])

    def test_duplicate_counted_by_header_warns_once(self, tmp_path):
        # The header counts rows, so a duplicate row is counted too.
        path = _write(tmp_path, "2 2\napi 1 0\napi 0 1\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            load_embedding_table(path)
        assert [str(w.message) for w in caught] == [f"{path}: line 3: duplicate word 'api' ignored"]

    def test_count_mismatch_warns(self, tmp_path):
        with pytest.warns(UserWarning, match="header count"):
            table = load_embedding_table(_write(tmp_path, "5 2\napi 1 0\n"))
        assert len(table) == 1

    def test_line_numbers_follow_file_lines(self, tmp_path):
        # U+2028 is whitespace inside a row, not a line end
        with pytest.raises(EmbeddingFormatError) as exc:
            load_embedding_table(_write(tmp_path, "2 2\napi 1 0\u2028\nbug 1\n"))
        assert exc.value.line_no == 3

    def test_scientific_notation_and_negatives(self, tmp_path):
        table = load_embedding_table(_write(tmp_path, "1 2\napi -1.5e-3 2E2\n"))
        np.testing.assert_array_equal(table.entries["api"], [-0.0015, 200.0])


def _reference_read(path, text):
    """The loader one row at a time, with Python's ``float`` per component
    and a finiteness check per row: ``(entries, error, warnings)``, where
    ``error`` is ``(type, message, line_no)`` or None."""
    caught = []
    lines = text.split("\n")  # the test files hold no other line end
    count, dimension = map(int, lines[0].split())
    entries, rows = {}, 0
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        rows += 1
        parts = line.split()
        where = f"{path}: line {line_no}:"
        if len(parts) - 1 != dimension:
            error = f"{where} expected {dimension} components, got {len(parts) - 1}"
            return None, (EmbeddingFormatError, error, line_no), caught
        try:
            vector = np.array([float(x) for x in parts[1:]], dtype=float)
        except ValueError:
            return None, (EmbeddingFormatError, f"{where} non-numeric component", line_no), caught
        if not np.all(np.isfinite(vector)):
            return None, (EmbeddingFormatError, f"{where} non-finite component", line_no), caught
        if parts[0] in entries:
            caught.append(f"{where} duplicate word {parts[0]!r} ignored")
            continue
        entries[parts[0]] = vector
    if not entries:
        return None, (EmbeddingFormatError, f"{path}: no vector rows", 1), caught
    if rows != count:
        caught.append(f"{path}: header count {count} != {rows} parsed rows")
    return entries, None, caught


def _load_outcome(path):
    """``load_embedding_table(path)`` as ``(entries, error, warnings)``."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            entries, error = load_embedding_table(path).entries, None
        except EmbeddingFormatError as exc:
            entries, error = None, (type(exc), str(exc), exc.line_no)
    assert all(w.category is UserWarning for w in caught)
    return entries, error, [str(w.message) for w in caught]


def _component(rng):
    x = rng.gauss(0, 1) * 10.0 ** rng.randint(-310, 308)
    return rng.choice([repr, "%.17g".__mod__, "%.6f".__mod__, "%.3e".__mod__])(x)


# Each fault replaces one row (or adds a line) of a generated table.
FAULTS = {
    "missing component": lambda rng, word, parts: " ".join([word, *parts[:-1]]),
    "extra component": lambda rng, word, parts: " ".join([word, *parts, "1"]),
    "non-numeric": lambda rng, word, parts: " ".join(
        [word, *parts[:-1], rng.choice(["one", "1.2.3", "0x10", "1__0", "1e", "--1", "1\x00"])]),
    "non-finite": lambda rng, word, parts: " ".join(
        [word, rng.choice(["nan", "inf", "-inf", "1e400", "-Infinity"]), *parts[1:]]),
    "duplicate": None,
    "blank": lambda rng, word, parts: rng.choice(["", "   ", "\t", " \u2028 ", "\x0c"]),
    "U+2028 inside": lambda rng, word, parts: word + "\u2028" + " ".join(parts),
}


class TestLoaderAgainstReference:
    # The loader converts a row in one numpy call and checks finiteness once
    # per block of rows; the reference converts and checks each row alone.
    # Both must give the same entries, errors and warnings in file order,
    # whether the blocks hold one row, a few rows or the whole table.
    @pytest.mark.parametrize("cells", [1, 7, revrec.embedding._FINITE_BLOCK_CELLS])
    def test_random_faulty_tables(self, tmp_path, monkeypatch, cells):
        monkeypatch.setattr(revrec.embedding, "_FINITE_BLOCK_CELLS", cells)
        rng = random.Random(173)
        # With the default bound each table is one block.
        mid_file = ["error after a block check"] if cells < 100 else []
        seen = dict.fromkeys([*FAULTS, "loaded", "raised", *mid_file], 0)
        for trial in range(300):
            dimension = rng.randint(1, 6)
            words = [f"w{i}" for i in range(rng.randint(1, 40))]
            rows = [(word, [_component(rng) for _ in range(dimension)]) for word in words]
            lines = [f"{word} {' '.join(parts)}" for word, parts in rows]
            for fault in rng.sample(list(FAULTS), rng.choice([0, 0, 1, 1, 2, 3])):
                at = rng.randrange(len(lines) + 1)
                word, parts = rng.choice(rows)
                if fault == "duplicate":
                    lines.insert(at, f"{word} {' '.join(_component(rng) for _ in parts)}")
                else:
                    lines.insert(at, FAULTS[fault](rng, word, parts))
                seen[fault] += 1
            count = rng.choice([len(lines), len(words)])
            text = f"{count} {dimension}\n" + "\n".join(lines) + "\n"
            path = tmp_path / f"t{trial}.txt"
            path.write_text(text, encoding="utf-8")
            want_entries, want_error, want_warnings = _reference_read(path, text)
            entries, error, caught = _load_outcome(path)
            assert error == want_error and caught == want_warnings, text
            if error is None:
                assert list(entries) == list(want_entries)
                assert all(entries[w].tobytes() == want_entries[w].tobytes() for w in entries)
                seen["loaded"] += 1
            else:
                seen["raised"] += 1
                if mid_file:
                    seen["error after a block check"] += error[2] - 1 > max(1, cells // dimension)
        assert all(seen.values()), seen

    @pytest.mark.parametrize("cells", [1, 7, revrec.embedding._FINITE_BLOCK_CELLS])
    @pytest.mark.parametrize("text, line_no, message", [
        ("3 2\napi nan 0\nbug 1\n", 2, "non-finite component"),
        ("3 2\napi 1 0\nbug inf 0\ncat x 0\n", 3, "non-finite component"),
        ("3 2\napi 1\nbug nan 0\n", 2, "expected 2 components, got 1"),
        ("3 2\napi 1 one\nbug nan 0\n", 2, "non-numeric component"),
        ("2 2\napi 1 0\napi inf 0\n", 3, "non-finite component"),
    ], ids=["non-finite-then-count", "non-finite-then-non-numeric", "count-then-non-finite",
            "non-numeric-then-non-finite", "non-finite-duplicate"])
    def test_first_fault_in_file_order_raises(self, tmp_path, monkeypatch, cells, text, line_no, message):
        monkeypatch.setattr(revrec.embedding, "_FINITE_BLOCK_CELLS", cells)
        path = _write(tmp_path, text)
        entries, error, caught = _load_outcome(path)
        assert error == (EmbeddingFormatError, f"{path}: line {line_no}: {message}", line_no)
        assert caught == []  # a non-finite duplicate raises before its warning
        assert (entries, error, caught) == _reference_read(path, text)

    def test_finiteness_check_holds_one_block(self, tmp_path, monkeypatch):
        # The check's stacked copy never exceeds the block bound in cells.
        monkeypatch.setattr(revrec.embedding, "_FINITE_BLOCK_CELLS", 12)
        shapes = []
        isfinite = np.isfinite

        def recording(x, *args, **kwargs):
            shapes.append(np.shape(x))
            return isfinite(x, *args, **kwargs)

        monkeypatch.setattr(revrec.embedding.np, "isfinite", recording)
        rows = "".join(f"w{i} {i} 0 1\n" for i in range(10))
        table = load_embedding_table(_write(tmp_path, "10 3\n" + rows))
        monkeypatch.undo()
        assert len(table) == 10
        assert shapes == [(4, 3), (4, 3), (2, 3)]


class TestNumpyStringConversion:
    # The loader converts a row's strings with np.array(strs, dtype=float)
    # and relies on numpy converting each str with Python's float: the same
    # double, bit for bit, and a ValueError on the same strings. A numpy
    # that parses strings itself (its str-to-float cast accepts "1\x00")
    # must fail here.
    def test_np_array_of_strings_is_float_per_string(self):
        rng = random.Random(181)
        values = [rng.gauss(0, 1) * 10.0 ** rng.randint(-320, 308) for _ in range(4000)]
        values += [5e-324, -2.5e-320, 2.2250738585072014e-308, 1.7976931348623157e308, -0.0, 0.0]
        forms = [repr, "%.17g".__mod__, "%.6f".__mod__, "%.3e".__mod__, "%r".__mod__]
        strings = [form(x) for x in values for form in forms]
        strings += ["1_0", "1_000.5", "\u0663\u0664", "\u0661.\u0665e\u0662", "-0.0", "+0", "1e400",
                    "-1e400", "nan", "-NaN", "inf", "Infinity", "1E5", ".5", "5.", "\uff11\uff12"]
        got = np.array(strings, dtype=float)
        assert got.tobytes() == np.array([float(s) for s in strings]).tobytes()
        for _ in range(3000):
            s = "".join(rng.choices("0123456789.eE+-_ \x00\u0663nafity", k=rng.randint(0, 6)))
            try:
                want = np.array([float(s)]).tobytes()
            except ValueError:
                with pytest.raises(ValueError):
                    np.array([s], dtype=float)
            else:
                assert np.array([s], dtype=float).tobytes() == want, repr(s)
        for bad in ["", "1\x00", "0x10", "1__0", "_1", "1e", "--1", "one", "1.2.3", "\u2167"]:
            with pytest.raises(ValueError):
                float(bad)
            with pytest.raises(ValueError):
                np.array(["1", bad], dtype=float)


class TestRoundTrip:
    def test_thousand_word_round_trip(self, tmp_path):
        rng = random.Random(41)
        words = set()
        while len(words) < 1000:
            words.add("".join(rng.choices(string.ascii_lowercase, k=rng.randint(3, 10))))
        entries = {
            w: np.array([rng.uniform(-5, 5) for _ in range(8)]) for w in sorted(words)
        }
        table = EmbeddingTable(dimension=8, entries=entries)
        path = tmp_path / "big.txt"
        save_embedding_table(table, path)
        again = load_embedding_table(path)
        assert again.dimension == table.dimension
        assert set(again.entries) == set(table.entries)
        for word in table.entries:
            np.testing.assert_array_equal(again.entries[word], table.entries[word])

    @pytest.mark.parametrize("word", ["", "a b", "x\ty", "x\u2028y", "x\x85y"],
                             ids=["empty", "space", "tab", "U+2028", "U+0085"])
    def test_word_that_cannot_load_back_is_rejected(self, tmp_path, word):
        table = EmbeddingTable(dimension=2, entries={
            "api": np.array([1.0, 0.0]), word: np.array([0.0, 1.0])})
        path = tmp_path / "vecs.txt"
        with pytest.raises(EmbeddingFormatError, match=re.escape(repr(word))):
            save_embedding_table(table, path)
        assert not path.exists()

    def test_lone_surrogate_word_leaves_target_unchanged(self, tmp_path):
        path = tmp_path / "vecs.txt"
        save_embedding_table(EmbeddingTable(dimension=2, entries={"ok": np.array([1.0, 2.0])}), path)
        before = path.read_bytes()
        table = EmbeddingTable(dimension=2, entries={
            "ok": np.array([1.0, 2.0]), "a\ud800b": np.array([0.0, 1.0])})
        with pytest.raises(EmbeddingFormatError, match="surrogate"):
            save_embedding_table(table, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["vecs.txt"]

    @pytest.mark.parametrize("dimension, entries, message", [
        (2, {"ok": np.array([1.0, 2.0]), "far": np.array([np.inf, 0.0])}, "'far' needs 2 finite"),
        (2, {"ok": np.array([1.0, 2.0]), "short": np.array([1.0])}, "'short' needs 2 finite"),
        (2, {}, "no words"),
        (0, {"none": np.array([])}, "dimension must be positive"),
    ], ids=["inf", "length", "empty", "dimension-0"])
    def test_table_that_cannot_load_back_leaves_target_unchanged(self, tmp_path, dimension, entries, message):
        path = tmp_path / "vecs.txt"
        save_embedding_table(EmbeddingTable(dimension=2, entries={"ok": np.array([1.0, 2.0])}), path)
        before = path.read_bytes()
        with pytest.raises(EmbeddingFormatError, match=message):
            save_embedding_table(EmbeddingTable(dimension=dimension, entries=entries), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["vecs.txt"]

    def test_random_unicode_words_round_trip(self, tmp_path):
        rng = random.Random(43)
        entries = {}
        while len(entries) < 500:
            word = "".join(_random_char(rng) for _ in range(rng.randint(1, 6)))
            if rng.random() < 0.3:
                word += rng.choice(" \t\r\n\x0b\x0c\x1c\x85\u2028\u2029")
            if word.split() == [word]:
                entries[word] = np.array(
                    [rng.uniform(-1, 1) * 10.0 ** rng.randint(-300, 300) for _ in range(3)])
        path = tmp_path / "unicode.txt"
        save_embedding_table(EmbeddingTable(dimension=3, entries=entries), path)
        again = load_embedding_table(path)
        assert list(again.entries) == list(entries)
        for word, vector in entries.items():
            np.testing.assert_array_equal(again.entries[word], vector)


class TestCommentVector:
    def test_single_token(self, tiny_table):
        result = comment_vector(["api"], tiny_table)
        np.testing.assert_array_equal(result.values, [1.0, 0.0, 0.0])
        assert result.token_coverage == 1.0

    def test_empty_tokens(self, tiny_table):
        result = comment_vector([], tiny_table)
        np.testing.assert_array_equal(result.values, [0.0, 0.0, 0.0])
        assert result.token_coverage == 0.0

    def test_two_token_mean(self, tiny_table):
        result = comment_vector(["api", "broken"], tiny_table)
        np.testing.assert_array_equal(result.values, [0.5, 0.5, 0.0])
        assert result.token_coverage == 1.0

    def test_oov_tokens_skipped(self, tiny_table):
        result = comment_vector(["api", "zzz"], tiny_table)
        np.testing.assert_array_equal(result.values, [1.0, 0.0, 0.0])
        assert result.token_coverage == 0.5

    def test_all_oov_is_zero_vector(self, tiny_table):
        result = comment_vector(["xx", "yy"], tiny_table)
        assert not result.values.any()
        assert result.token_coverage == 0.0

    def test_duplicates_weight_the_mean(self, tiny_table):
        result = comment_vector(["api", "api", "broken"], tiny_table)
        np.testing.assert_allclose(result.values, [2 / 3, 1 / 3, 0.0])
        assert result.token_coverage == 1.0
        assert comment_vector(["api", "api", "zzz"], tiny_table).token_coverage == 2 / 3

    def test_zero_coverage_iff_zero_vector(self):
        rng = random.Random(43)
        for _ in range(100):
            table = random_table(rng)
            tokens = rng.choices(
                list(table.entries) + ["oov1", "oov2"], k=rng.randint(0, 6)
            )
            result = comment_vector(tokens, table)
            assert isinstance(result, CommentVector)
            assert (result.token_coverage == 0.0) == (not result.values.any())
            assert 0.0 <= result.token_coverage <= 1.0
            lo = min((min(v) for v in table.entries.values()), default=0.0)
            hi = max((max(v) for v in table.entries.values()), default=0.0)
            assert all(min(lo, 0.0) <= c <= max(hi, 0.0) for c in result.values)


class TestCommentVectors:
    def test_rows_equal_comment_vector_bit_for_bit(self):
        # RC_CS's VectorRows are built in one pass, one np.mean per number
        # of in-vocabulary tokens; each row must be the np.mean of the
        # comment's own in-vocabulary vectors, and its comment_vector. A
        # running sum, or np.add.reduceat, differs in the last bit on many
        # of these draws, which ``seen`` counts.
        rng = random.Random(151)
        seen = dict.fromkeys(["dimension 1, 8+ tokens", "running sum differs", "reduceat differs",
                              "-0.0 component", "duplicate tokens", "no token in vocabulary",
                              "empty comment"], 0)
        for trial in range(40):
            dimension = [1, 2, 50, 300][trial % 4]
            words = [f"w{i}" for i in range(12)]
            table = EmbeddingTable(dimension, {word: np.array(
                [rng.choice([-0.0, 0.0]) if rng.random() < 0.1 else rng.gauss(0, 1) * 10.0 ** rng.uniform(-5, 5)
                 for _ in range(dimension)]) for word in words[:9]})
            stopwords = rng.choice([None, frozenset({"w1", "the"})])
            word = rng.choice(words[:9])
            comments = ["", "42 !!", "zzq the zzr", word, f"{word} zzq {word}"] + [
                " ".join(rng.choices(words + ["the", "7", "zzq", "w0."], k=rng.randint(0, 20)))
                for _ in range(30)]
            history = History([make_record(change_id=f"c{i}", comment=c) for i, c in enumerate(comments)])
            rows = history.feature(MethodId.RC_CS, table, stopwords).rows
            found = []
            for record, row in zip(history.keys["comment"][0], rows.tolist()):
                tokens = preprocess_comment(record.comment, stopwords)
                vectors = [table.entries[t] for t in tokens if t in table]
                want = np.mean(vectors, axis=0) if vectors else np.zeros(dimension)
                assert [x.hex() for x in row] == [x.hex() for x in want.tolist()], record.comment
                assert [x.hex() for x in comment_vector(tokens, table).values.tolist()] == [x.hex() for x in want.tolist()]
                found.append(vectors)
                seen["duplicate tokens"] += len(set(tokens)) < len(tokens)
                seen["no token in vocabulary"] += bool(tokens) and not vectors
                seen["empty comment"] += not tokens
                if vectors:
                    # np.mean sums from +0.0, so a component that is -0.0 in
                    # every vector averages to +0.0, not to a copy's -0.0.
                    stack = np.array(vectors)
                    seen["-0.0 component"] += bool(np.all(np.signbit(stack) & (stack == 0), axis=0).any())
                    running = vectors[0].copy()
                    for vector in vectors[1:]:
                        running += vector
                    seen["running sum differs"] += not np.array_equal(running / len(vectors), want)
                    seen["dimension 1, 8+ tokens"] += dimension == 1 and len(vectors) >= 8
            kept = [vectors for vectors in found if vectors]
            starts = np.cumsum([0] + [len(vectors) for vectors in kept[:-1]])
            sums = np.add.reduceat(np.concatenate(kept), starts, axis=0)
            means = [row for row, vectors in zip(rows, found) if vectors]
            seen["reduceat differs"] += sum(not np.array_equal(total / len(vectors), mean)
                                            for total, vectors, mean in zip(sums, kept, means))
        assert all(seen.values()), seen

    def test_mean_whose_token_sum_overflows_is_kept(self):
        # The mean is finite though the sum is not; only a non-finite entry,
        # which a loaded table cannot hold, raises.
        table = EmbeddingTable(2, {"big": np.array([1e308, 1e308]), "ok": np.array([1.0, 2.0]),
                                   "huge": np.array([-1.7e308, 1.7e308]), "inf": np.array([np.inf, 1.0])})
        assert comment_vector(["big", "big"], table).values.tolist() == [1e308, 1e308]
        rows = comment_vectors([["ok"], ["big", "big"], ["huge", "ok", "huge", "huge"]], table)
        assert rows[:2].tolist() == [[1.0, 2.0], [1e308, 1e308]]
        exact = [(3 * Fraction(big) + Fraction(small)) / 4 for big, small in ((-1.7e308, 1.0), (1.7e308, 2.0))]
        assert rows[2].tolist() == pytest.approx([float(x) for x in exact], rel=1e-15)
        with pytest.raises(EmbeddingFormatError) as want:
            comment_vector(["inf", "ok"], table)
        with pytest.raises(EmbeddingFormatError) as got:
            comment_vectors([["ok"], ["inf"]], table)
        assert str(got.value) == str(want.value)
        np.testing.assert_array_equal(comment_vectors([["ok"], []], table), [[1.0, 2.0], [0.0, 0.0]])

    def test_finite_mean_whose_components_sum_past_the_largest_double_is_kept(self):
        # The guard tests each component, not a row's sum.
        table = EmbeddingTable(2, {"big": np.array([1e308, 1e308])})
        np.testing.assert_array_equal(comment_vectors([["big"]], table), [[1e308, 1e308]])
