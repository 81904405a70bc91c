"""Similarity kernels: Jaccard coefficient, adapted Hamming path similarity,
and cosine similarity.

All kernels are symmetric and return a float in [0, 1].
"""

from __future__ import annotations

import math
from collections.abc import Collection, Sequence

import numpy as np

from .errors import ValidationError


def jaccard(x: Collection[str], y: Collection[str]) -> float:
    """|x ∩ y| / |x ∪ y|. Two empty sets count as identical (1.0)."""
    xs, ys = set(x), set(y)
    if not xs and not ys:
        return 1.0
    union = len(xs | ys)
    return len(xs & ys) / union


def adapted_hamming_similarity(p: str, q: str) -> float:
    """Path similarity from character mismatches plus length difference.

    Identical paths score 1. Otherwise d = (# mismatched character
    positions over the shorter length) + |len(p) - len(q)| and the score
    is 1/d. Note d = 1 also yields 1.0 for some non-identical pairs
    (e.g. one substitution, equal lengths); that collision is inherent
    to the formula and kept as-is.
    """
    if not p or not q:
        raise ValidationError("paths must be non-empty", field="file_path")
    if p == q:
        return 1.0
    mismatches = sum(a != b for a, b in zip(p, q))
    d = mismatches + abs(len(p) - len(q))
    return 1.0 / d


def cosine(u: Sequence[float] | np.ndarray, v: Sequence[float] | np.ndarray) -> float:
    """Cosine of the angle between u and v, clamped to [0, 1].

    Zero-norm input (e.g. the zero vector of an all-out-of-vocabulary
    comment) scores 0 against anything.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise ValidationError(f"vector length mismatch: {u.shape} vs {v.shape}")
    # np.linalg.norm of a 1-D float array is sqrt(x.dot(x)); spelling it
    # out gives the same double without its dispatch.
    nu = math.sqrt(float(u.dot(u)))
    nv = math.sqrt(float(v.dot(v)))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    if np.array_equal(u, v):
        # identity must score exactly 1; dot/norm rounding can land below
        return 1.0
    value = float(np.dot(u, v)) / (nu * nv)
    return min(1.0, max(0.0, value))
