"""Word-vector file parsing and comment vector aggregation."""

import random
import re
import string

import numpy as np
import pytest

from conftest import random_table
from revrec.embedding import (
    CommentVector,
    EmbeddingTable,
    comment_vector,
    load_embedding_table,
    save_embedding_table,
)
from revrec.errors import EmbeddingFormatError


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
