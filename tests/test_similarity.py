"""Similarity kernels: frozen examples plus randomized properties."""

import math
import random
import string

import numpy as np
import pytest

import oracle
from revrec.errors import ValidationError
from revrec.similarity import adapted_hamming_similarity, cosine, jaccard


class TestJaccard:
    def test_identity(self):
        assert jaccard({"a", "b"}, {"a", "b"}) == 1.0

    def test_disjoint(self):
        assert jaccard({"a"}, {"b"}) == 0.0

    def test_partial_overlap(self):
        # 2 common tokens over a 4-token union
        assert jaccard({"a", "b", "c"}, {"b", "c", "d"}) == 0.5

    def test_both_empty(self):
        assert jaccard(set(), set()) == 1.0

    def test_one_empty(self):
        assert jaccard(set(), {"a"}) == 0.0
        assert jaccard({"a"}, set()) == 0.0

    def test_accepts_any_collection(self):
        assert jaccard(["a", "b", "b"], ("b", "c")) == jaccard({"a", "b"}, {"b", "c"})

    def test_random_properties(self):
        rng = random.Random(11)
        pool = list(string.ascii_lowercase)
        for _ in range(300):
            x = set(rng.sample(pool, rng.randint(0, 8)))
            y = set(rng.sample(pool, rng.randint(0, 8)))
            s = jaccard(x, y)
            assert 0.0 <= s <= 1.0
            assert s == jaccard(y, x)
            assert s == oracle.jaccard(x, y)
            if x == y:
                assert s == 1.0

    def test_superset_monotonicity(self):
        # growing the overlap while holding the union grows the score
        x = {"a", "b", "c", "d"}
        scores = [jaccard(x, set(list(x)[:i]) | {"zz"}) for i in range(1, 5)]
        assert scores == sorted(scores)


class TestAdaptedHamming:
    def test_identical_paths(self):
        assert adapted_hamming_similarity("a/b.py", "a/b.py") == 1.0

    def test_pure_length_difference(self):
        # no mismatches over the common prefix, length gap 2 -> 1/2
        assert adapted_hamming_similarity("ab", "abcd") == 0.5

    def test_equal_length_mismatches(self):
        # positions 1 and 4 differ -> 1/2
        assert adapted_hamming_similarity("ax/by", "az/bz") == 0.5

    def test_empty_path_rejected(self):
        with pytest.raises(ValidationError):
            adapted_hamming_similarity("", "a")
        with pytest.raises(ValidationError):
            adapted_hamming_similarity("a", "")

    def test_random_properties(self):
        rng = random.Random(13)
        alphabet = "ab/"
        for _ in range(400):
            p = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 10)))
            q = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 10)))
            s = adapted_hamming_similarity(p, q)
            assert 0.0 < s <= 1.0
            assert s == adapted_hamming_similarity(q, p)
            assert s == oracle.hamming_similarity(p, q)
            assert adapted_hamming_similarity(p, p) == 1.0
            if s == 1.0 and len(p) == len(q):
                # a perfect score between equal-length paths means equality
                assert p == q or sum(a != b for a, b in zip(p, q)) == 1


class TestCosine:
    def test_identical_direction(self):
        assert cosine([1.0, 0.0], [1.0, 0.0]) == 1.0

    def test_orthogonal(self):
        assert cosine([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_halfway(self):
        assert cosine([1.0, 0.0], [1.0, 1.0]) == pytest.approx(1 / math.sqrt(2), abs=1e-6)

    def test_zero_vector(self):
        assert cosine([0.0, 0.0], [1.0, 2.0]) == 0.0
        assert cosine([0.0, 0.0], [0.0, 0.0]) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            cosine([1.0], [1.0, 2.0])

    def test_negative_direction_clamps_to_zero(self):
        assert cosine([1.0, 0.0], [-1.0, 0.0]) == 0.0

    def test_random_properties(self):
        rng = random.Random(17)
        for _ in range(300):
            dim = rng.randint(1, 6)
            u = np.array([rng.uniform(-3, 3) for _ in range(dim)])
            v = np.array([rng.uniform(-3, 3) for _ in range(dim)])
            s = cosine(u, v)
            assert 0.0 <= s <= 1.0
            assert s == cosine(v, u)
            assert abs(s - oracle.cosine(u, v)) < 1e-12
            assert cosine(u, u) in (0.0, pytest.approx(1.0, abs=1e-12))
            scale = rng.uniform(0.1, 50.0)
            assert cosine(u * scale, v) == pytest.approx(s, abs=1e-9)

    def test_sums_are_np_sums_of_products(self):
        # cosine takes its dot and norms as np.sum of elementwise products,
        # the form VectorRows.cosine reduces row by row; ties between
        # reviewers depend on the last bit, so a numpy that changes that
        # form (u.dot differs from it) must fail here.
        rng = np.random.default_rng(23)
        for _ in range(2000):
            dim = int(rng.integers(3, 301))
            scale = 10.0 ** rng.uniform(-5, 5)
            u = rng.normal(size=dim) * scale
            v = rng.normal(size=dim) * scale
            norms = math.sqrt(float(np.sum(u * u))) * math.sqrt(float(np.sum(v * v)))
            assert cosine(u, v) == min(1.0, max(0.0, float(np.sum(u * v)) / norms))

    def test_axis_sum_equals_row_sum(self):
        # VectorRows.cosine sums all rows in one axis-1 reduction and cosine
        # sums one row alone; both must give the same double, so a numpy
        # that changes either reduction must fail here.
        rng = np.random.default_rng(29)
        for dim in range(1, 401):
            scale = 10.0 ** rng.uniform(-5, 5, size=(8, 1))
            rows = rng.normal(size=(8, dim)) * scale
            u = rng.normal(size=dim) * 10.0 ** rng.uniform(-5, 5)
            for matrix in (rows * u, rows * rows):
                assert np.sum(matrix, axis=1).tolist() == [float(np.sum(row)) for row in matrix]
