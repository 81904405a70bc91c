"""Text preprocessing: comment token pipeline and file-path tokenization.

Comments go through four steps, in order: tokenization on non-alphanumeric
boundaries, noise removal (punctuation, pure-number tokens, special
characters), stop-word removal, and lowercasing. File paths are split on
separators into a token set. Both functions are pure; results are cached.
"""

from __future__ import annotations

import re
from functools import cache, lru_cache
from importlib import resources

from .errors import ValidationError

# A token candidate is a maximal run of ASCII alphanumerics; mixed tokens
# like "utf8" survive, pure-digit tokens are dropped later as noise.
_TOKEN_RE = re.compile(r"[0-9A-Za-z]+")
_PATH_SPLIT_RE = re.compile(r"[/._-]+")


def load_stopwords(path: str | None = None) -> frozenset[str]:
    """Read a stop-word list (one lowercase word per line, blanks ignored).

    With no path, returns the list bundled with the package.
    """
    if path is None:
        text = resources.files("revrec.data").joinpath("stopwords.txt").read_text("utf-8")
    else:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    return frozenset(word.strip().lower() for word in text.splitlines() if word.strip())


@cache
def default_stopwords() -> frozenset[str]:
    return load_stopwords()


def preprocess_comment(text: str, stopwords: frozenset[str] | None = None) -> list[str]:
    """Turn raw comment text into the ordered list of surviving tokens.

    Empty or all-noise input yields an empty list; callers decide how to
    handle that (similarity kernels treat empty token sets explicitly).
    """
    if stopwords is None:
        stopwords = default_stopwords()
    return list(_preprocess_cached(text, stopwords))


@lru_cache(maxsize=65536)
def _preprocess_cached(text: str, stopwords: frozenset[str]) -> tuple[str, ...]:
    kept = []
    for token in _TOKEN_RE.findall(text):
        if token.isdigit():
            continue
        lowered = token.lower()
        if lowered in stopwords:
            continue
        kept.append(lowered)
    return tuple(kept)


@lru_cache(maxsize=65536)
def tokenize_path(path: str) -> frozenset[str]:
    """Split a file path on '/', '.', '_', '-' into a lowercase token set."""
    if not path:
        raise ValidationError("file path must be non-empty", field="file_path")
    tokens = frozenset(part.lower() for part in _PATH_SPLIT_RE.split(path) if part)
    if not tokens:
        raise ValidationError(f"file path {path!r} contains no tokens", field="file_path")
    return tokens
