"""Similarity kernels: Jaccard coefficient, adapted Hamming path similarity,
and cosine similarity, and REVFINDER's four path overlaps.

All kernels are symmetric and return a float in [0, 1]. Each also has a
batched form that scores one query against many keys in one array pass:
``TokenPostings.jaccard``, ``PathCodes.adapted_hamming`` and
``VectorRows.cosine``. A batched score is the same double as the scalar
kernel's on that pair: the integer counts are exact, int64 / int64
divides like Python's int / int, and ``cosine`` sums with ``np.sum``,
whose pairwise sum of a row alone equals that row's sum in an axis-1
reduction. ``PathOverlaps.overlaps`` gives REVFINDER's common prefix,
suffix, substring and subsequence of one query path and many paths in
one pass, from one bit-vector of all the paths (the scalar reference is
``recommender._path_overlap_scores``). It takes the prefix and suffix
first: a path whose prefix or suffix with the query spans the shorter of
the two has that length as its longest common substring, so the
substring levels skip it, and the run lengths of the rest are read from
a few bit-planes of the levels. Given ``n``, a batched form scores only
its first ``n`` keys, as the same doubles as an index of those keys
alone would.
"""

from __future__ import annotations

import math
from collections.abc import Collection, Iterable, Sequence
from functools import reduce
from operator import xor

import numpy as np

from .errors import ValidationError


def jaccard(x: Collection[str], y: Collection[str]) -> float:
    """|x ∩ y| / |x ∪ y|. Two empty sets count as identical (1.0)."""
    xs, ys = set(x), set(y)
    if not xs and not ys:
        return 1.0
    union = len(xs | ys)
    return len(xs & ys) / union


class TokenPostings:
    """Many token sets, indexed by token for Jaccard against one query set:
    one array ``positions`` of the positions of the sets holding each
    token, grouped by token and ascending within a token. ``ids`` numbers
    the tokens, and token ``t``'s positions are
    ``positions[starts[t]:starts[t + 1]]``."""

    def __init__(self, token_sets: Iterable[Collection[str]]):
        self.ids: dict[str, int] = {}
        token_ids, positions, sizes = [], [], []
        for position, tokens in enumerate(token_sets):
            tokens = set(tokens)
            sizes.append(len(tokens))
            token_ids += [self.ids.setdefault(token, len(self.ids)) for token in tokens]
            positions += [position] * len(tokens)
        token_ids = np.array(token_ids, dtype=np.intp)
        # A stable sort keeps each token's positions in ascending order.
        self.positions = np.array(positions, dtype=np.intp)[np.argsort(token_ids, kind="stable")]
        self.starts = [0, *np.cumsum(np.bincount(token_ids, minlength=len(self.ids))).tolist()]
        self.sizes = np.array(sizes, dtype=np.int64)

    def jaccard(self, query: Collection[str], n: int) -> np.ndarray:
        """``jaccard(query, s)`` for each of the first ``n`` indexed sets ``s``."""
        sizes = self.sizes[:n]
        tokens = set(query)
        if not tokens:
            # Two empty sets score 1.0, as in ``jaccard``.
            return np.where(sizes == 0, 1.0, 0.0)
        n = len(sizes)
        ids = [self.ids[token] for token in tokens if token in self.ids]
        if ids:
            starts = self.starts
            hits = np.concatenate([self.positions[starts[t]:starts[t + 1]] for t in ids])
            inter = np.bincount(hits[hits < n], minlength=n)
        else:
            inter = np.zeros(n, np.int64)
        return inter / (sizes + len(tokens) - inter)


def _require_paths(*paths: str) -> None:
    if not all(paths):
        raise ValidationError("paths must be non-empty", field="file_path")


def adapted_hamming_similarity(p: str, q: str) -> float:
    """Path similarity from character mismatches plus length difference.

    Identical paths score 1. Otherwise d = (# mismatched character
    positions over the shorter length) + |len(p) - len(q)| and the score
    is 1/d. Note d = 1 also yields 1.0 for some non-identical pairs
    (e.g. one substitution, equal lengths); that collision is inherent
    to the formula and kept as-is.
    """
    _require_paths(p, q)
    if p == q:
        return 1.0
    mismatches = sum(a != b for a, b in zip(p, q))
    d = mismatches + abs(len(p) - len(q))
    return 1.0 / d


def _code_points(path: str) -> np.ndarray:
    return np.fromiter(map(ord, path), dtype=np.int32, count=len(path))


class PathCodes:
    """Many paths as rows of code points padded with -1, for adapted
    Hamming against one query path."""

    def __init__(self, paths: Sequence[str]):
        _require_paths(*paths)
        self.codes = np.full((len(paths), max(map(len, paths))), -1, dtype=np.int32)
        for row, path in zip(self.codes, paths):
            row[:len(path)] = _code_points(path)

    def adapted_hamming(self, path: str, n: int) -> np.ndarray:
        """``adapted_hamming_similarity(path, p)`` for each of the first ``n`` paths ``p``."""
        _require_paths(path)
        codes = self.codes[:n]
        width = codes.shape[1]
        query = np.full(width, -1, dtype=np.int32)
        query[:len(path)] = _code_points(path[:width])
        # Padding never equals a code point, so two padded rows differ at
        # the mismatches over the shorter length and at every position of
        # the longer path past it; query characters past ``width`` differ
        # from every row.
        d = np.count_nonzero(codes != query, axis=1) + max(len(path) - width, 0)
        # d is 0 exactly for identical paths, which score 1.0.
        return 1.0 / np.maximum(d, 1)


def _pack(bits: np.ndarray) -> int:
    """A 0/1 array as the bits of an int, lowest first."""
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def _bits(values: Sequence[int], width: int) -> np.ndarray:
    """The low ``width`` bits of each value as one 0/1 row, lowest first."""
    size = (width + 7) // 8
    raw = np.frombuffer(b"".join(v.to_bytes(size, "little") for v in values), dtype=np.uint8)
    return np.unpackbits(raw.reshape(len(values), size), axis=1, count=width, bitorder="little")


def _first_mismatch(rows: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Per row padded with -1, the length of its common prefix with
    ``codes``: the query is padded with -2, so a row and the query differ
    where either ends, and agree throughout only if the row fills the width."""
    width = rows.shape[1]
    query = np.full(width, -2, dtype=np.int32)
    query[:min(len(codes), width)] = codes[:width]
    differ = rows != query
    return np.where(differ.any(axis=1), differ.argmax(axis=1), width)


class PathOverlaps:
    """Many paths, for REVFINDER's four overlaps against one query path:
    common prefix, common suffix, longest common substring and longest
    common subsequence, each over the longer path's length.

    Path k holds bits ``starts[k]`` to ``starts[k] + len(k) - 1`` of one
    bit-vector (a Python int), and the bit above them is a guard that no
    character's mask sets, so the first ``n`` paths are its low
    ``starts[n]`` bits and a carry or shift out of a path stops in its
    guard (the packing of Hyyrö, Fredriksson & Navarro, JEA 2006). The
    prefix and suffix come from rows of forward and reversed code points
    padded with -1. Paths may be empty."""

    def __init__(self, paths: Sequence[str]):
        self.lengths = np.array([len(path) for path in paths], dtype=np.int64)
        self.starts = np.concatenate(([0], np.cumsum(self.lengths + 1)))
        codes = _code_points("\0".join(paths) + "\0")
        codes[self.starts[1:] - 1] = -1
        self.masks = {c: _pack(codes == ord(c)) for c in set().union(*paths)}
        self.full = _pack(codes >= 0)
        width = max(int(self.lengths.max()), 1)  # one padded column if all are empty
        self.rows = np.full((2, len(paths), width), -1, dtype=np.int32)
        for k, path in enumerate(paths):
            self.rows[0, k, :len(path)] = _code_points(path)
            self.rows[1, k, :len(path)] = _code_points(path[::-1])

    def overlaps(self, path: str, n: int) -> np.ndarray:
        """A 4 × ``n`` array: for each of the first ``n`` paths ``p``, the
        common prefix, common suffix, longest common substring and longest
        common subsequence of ``path`` and ``p`` over ``max(len(path),
        len(p))``, or 0.0 where both are empty."""
        lengths, starts = self.lengths[:n], self.starts[:n]
        top = int(self.starts[n])
        full = self.full & ((1 << top) - 1)
        masks = [self.masks.get(a, 0) for a in path]
        # Longest common subsequence (Hyyrö 2004): after a query prefix,
        # the clear bits of path k's segment of ``v`` count its LCS with
        # that prefix. ``u`` is a subset of ``v``, so ``v - u`` never
        # borrows, and the carry of ``v + u`` stops in a guard bit.
        v = full
        for mask in masks:
            u = v & mask
            v = ((v + u) | (v - u)) & full
        subsequence = lengths - np.add.reduceat(_bits([v], top)[0], starts, dtype=np.int64)
        codes = _code_points(path)
        prefix = _first_mismatch(self.rows[0, :n], codes)
        suffix = _first_mismatch(self.rows[1, :n], codes[::-1])
        # A path whose common prefix or suffix with the query is as long as
        # the shorter of the two has that length as its longest common
        # substring: equal paths, a path that starts or ends the other, and
        # empty paths. The substring levels skip their segments: few paths
        # are decided, but a query's own path would reach the deepest level.
        shorter = np.minimum(lengths, len(path))
        decided = np.maximum(prefix, suffix) == shorter
        keep = _pack(np.repeat(~decided, lengths + 1))
        # Longest common substring: after query character i, bit j of
        # levels[L - 1] is set where a common substring of length at least
        # L ends at i and j, and hits[L - 1] is the union of that level over
        # all i. Each level lies within the one below, so the number of
        # hits that hold bit j is the longest common substring ending at j.
        levels, hits = [], [0] * len(path)
        for mask in masks:
            mask &= keep
            grown, level = [], mask
            for below in (*levels, 0):  # one level above the last can grow, none above it
                if not level:
                    break
                hits[len(grown)] |= level
                grown.append(level)
                level = (below << 1) & mask
            levels = grown
        # Bit b of a run length c is the parity of the number of multiples t
        # of 2**b with c >= t, that is, of the hits[t - 1] that hold the bit.
        depth = sum(map(bool, hits))  # the non-empty hits come first
        planes = [reduce(xor, hits[(1 << b) - 1:depth:1 << b]) for b in range(depth.bit_length())]
        runs = (1 << np.arange(len(planes))) @ _bits(planes, top)
        substring = np.where(decided, shorter, np.maximum.reduceat(runs, starts))
        longer = np.maximum(np.maximum(lengths, len(path)), 1)  # all four are 0 where 0
        return np.array([prefix, suffix, substring, subsequence]) / longer


def cosine(u: Sequence[float] | np.ndarray, v: Sequence[float] | np.ndarray) -> float:
    """Cosine of the angle between u and v, clamped to [0, 1].

    Zero-norm input (e.g. the zero vector of an all-out-of-vocabulary
    comment) scores 0 against anything.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise ValidationError(f"vector length mismatch: {u.shape} vs {v.shape}")
    # np.sum, not u.dot: ``VectorRows.cosine`` reduces along rows with
    # np.sum, and the two forms differ in the last bit.
    nu = math.sqrt(float(np.sum(u * u)))
    nv = math.sqrt(float(np.sum(v * v)))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    if np.array_equal(u, v):
        # identity must score exactly 1; dot/norm rounding can land below
        return 1.0
    value = float(np.sum(u * v)) / (nu * nv)
    return min(1.0, max(0.0, value))


class VectorRows:
    """Many vectors stacked as the rows of one matrix, with their norms,
    for cosine against one query vector."""

    def __init__(self, vectors: Sequence[np.ndarray]):
        self.rows = np.array(vectors, dtype=float)
        self.norms = np.sqrt(np.sum(self.rows * self.rows, axis=1))

    def cosine(self, u: np.ndarray, n: int) -> np.ndarray:
        """``cosine(u, row)`` for each of the first ``n`` rows, with the same
        rules in the same order: a zero norm scores 0, a row equal to u
        scores 1.0, and any other value is clamped to [0, 1]."""
        rows, norms = self.rows[:n], self.norms[:n]
        u = np.asarray(u, dtype=float)
        nu = math.sqrt(float(np.sum(u * u)))
        if nu == 0.0:
            return np.zeros(len(rows))
        with np.errstate(divide="ignore", invalid="ignore"):
            value = np.sum(rows * u, axis=1) / (nu * norms)
        # min(1.0, max(0.0, value)), NaN included
        scores = np.where(value > 0.0, np.minimum(value, 1.0), 0.0)
        scores[np.all(rows == u, axis=1)] = 1.0
        scores[norms == 0.0] = 0.0
        return scores
