"""Comment preprocessing and path tokenization."""

import random
import string

import pytest

import oracle
from revrec.errors import ValidationError
from revrec.textprep import (
    default_stopwords,
    load_stopwords,
    preprocess_comment,
    tokenize_path,
)


class TestPreprocessComment:
    def test_noise_and_stopwords_dropped(self):
        assert preprocess_comment("The API is broken \\ * 42") == ["api", "broken"]

    def test_empty(self):
        assert preprocess_comment("") == []

    def test_golden_mixed_comment(self):
        # frozen output of the finalized tokenizer + bundled stop-word list
        assert preprocess_comment("Layering violation: db-layer calls REST handler") == [
            "layering", "violation", "db", "layer", "calls", "rest", "handler",
        ]

    def test_order_preserved_duplicates_kept(self):
        assert preprocess_comment("bug bug BUG fix") == ["bug", "bug", "bug", "fix"]

    def test_pure_digits_dropped_mixed_kept(self):
        assert preprocess_comment("v2 100 utf8") == ["v2", "utf8"]

    def test_punctuation_splits_tokens(self):
        assert preprocess_comment("foo.bar(baz)->qux") == ["foo", "bar", "baz", "qux"]

    def test_case_insensitive_stopwords(self):
        assert preprocess_comment("THE api") == ["api"]

    def test_idempotent(self):
        rng = random.Random(23)
        words = ["api", "The", "42", "db-layer", "REST", "is", "retry", "io"]
        for _ in range(100):
            text = " ".join(rng.choices(words, k=rng.randint(0, 8)))
            once = preprocess_comment(text)
            assert preprocess_comment(" ".join(once)) == once

    def test_matches_oracle_on_random_text(self):
        rng = random.Random(29)
        alphabet = string.ascii_letters + string.digits + " .,:;()[]{}/\\*-_!"
        for _ in range(200):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 60)))
            assert preprocess_comment(text) == oracle.comment_tokens(text, default_stopwords())

    def test_custom_stopwords(self):
        custom = frozenset({"api"})
        assert preprocess_comment("the api is broken", custom) == ["the", "is", "broken"]


class TestStopwords:
    def test_bundled_list_size_and_shape(self):
        words = default_stopwords()
        assert len(words) == 175
        assert all(w == w.lower() and w.isalpha() for w in words)

    def test_default_list_is_loaded_once(self):
        assert default_stopwords() is default_stopwords()

    def test_common_words_present_domain_words_absent(self):
        words = default_stopwords()
        assert {"the", "is", "are", "and"} <= words
        for token in ("api", "broken", "layering", "violation", "db", "layer",
                      "calls", "rest", "handler"):
            assert token not in words

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("Foo\n\n  bar \n", encoding="utf-8")
        assert load_stopwords(str(path)) == frozenset({"foo", "bar"})


class TestTokenizePath:
    def test_basic(self):
        assert tokenize_path("nova/db/api.py") == frozenset({"nova", "db", "api", "py"})

    def test_deduplication(self):
        assert tokenize_path("a/a/a") == frozenset({"a"})

    def test_all_separators(self):
        assert tokenize_path("src/libs/utils/file_utils.cpp") == frozenset(
            {"src", "libs", "utils", "file", "cpp"}
        )

    def test_lowercasing(self):
        assert tokenize_path("Src/Main.CPP") == frozenset({"src", "main", "cpp"})

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            tokenize_path("")
        with pytest.raises(ValidationError):
            tokenize_path("/._-")

    def test_matches_oracle_on_random_paths(self):
        rng = random.Random(31)
        pieces = ["src", "Lib", "a", "db9", "x_y", "file-name", "mod.test"]
        for _ in range(200):
            path = "/".join(rng.choices(pieces, k=rng.randint(1, 5)))
            assert tokenize_path(path) == frozenset(oracle.path_tokens(path))
