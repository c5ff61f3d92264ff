"""Unit tests for the shared deterministic hashing layer."""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hashing import (
    bucket, derive, edge_key, mix_seeds, rept_groups, splitmix64, uniform01,
    uniform01_threshold,
)

MASK = 2**64 - 1


def _unsplitmix64(z: int) -> int:
    """The inverse of ``splitmix64`` on one python int: each xorshift is
    undone by iterating it, each multiply by the modular inverse."""

    def unshift(y: int, s: int) -> int:
        x = y
        for _ in range(64 // s + 1):
            x = y ^ (x >> s)
        return x

    z = unshift(z, 31)
    z = z * pow(0x94D049BB133111EB, -1, 2**64) & MASK
    z = unshift(z, 27)
    z = z * pow(0xBF58476D1CE4E5B9, -1, 2**64) & MASK
    z = unshift(z, 30)
    return (z - 0x9E3779B97F4A7C15) & MASK


class TestSplitmix:
    def test_deterministic(self):
        a = splitmix64([1, 2, 3, 2**63, 2**64 - 1])
        b = splitmix64([1, 2, 3, 2**63, 2**64 - 1])
        assert (a == b).all()

    def test_distinct_inputs_distinct_outputs(self):
        out = splitmix64(np.arange(100_000))
        assert len(np.unique(out)) == 100_000

    def test_dtype(self):
        assert splitmix64([1]).dtype == np.uint64

    def test_scalar_and_array_agree(self):
        arr = splitmix64(np.array([42, 43]))
        assert splitmix64(42)[()] == arr[0]

    @pytest.mark.parametrize(
        "fn", [splitmix64, lambda x: derive(x, 5)], ids=["splitmix64", "derive"]
    )
    def test_list_and_uint64_array_agree(self, fn):
        # A list of ints >= 2^63 must not go through float64.
        x = [0, 2**63 - 1, 2**63, 2**64 - 1]
        assert fn(x).tolist() == fn(np.array(x, dtype=np.uint64)).tolist()

    def test_avalanche_bitflip(self):
        # Flipping one input bit flips ~half the output bits on average.
        x = np.arange(2000, dtype=np.uint64)
        d = splitmix64(x) ^ splitmix64(x ^ np.uint64(1))
        popcount = np.array([bin(int(v)).count("1") for v in d])
        assert 28 < popcount.mean() < 36


class TestEdgeKey:
    def test_symmetric(self):
        u = np.array([1, 7, 100, 5])
        v = np.array([9, 2, 100_000, 5_000_000])
        assert (edge_key(u, v) == edge_key(v, u)).all()

    def test_injective_on_canonical_pairs(self):
        lo, hi = np.triu_indices(300, 1)
        keys = edge_key(lo, hi)
        assert len(np.unique(keys)) == len(keys)

    def test_distinct_edges_distinct_keys(self):
        assert edge_key(1, 2)[()] != edge_key(1, 3)[()]
        assert edge_key(1, 2)[()] != edge_key(2, 3)[()]

    @given(st.integers(0, 2**31 - 1), st.integers(0, 2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_symmetry_property(self, a, b):
        assert edge_key(a, b)[()] == edge_key(b, a)[()]


class TestBucket:
    @pytest.mark.parametrize("m", [2, 3, 10, 100, 997])
    def test_range(self, m):
        b = bucket(splitmix64(np.arange(5000)), seed=3, m=m)
        assert b.min() >= 0 and b.max() < m

    @pytest.mark.parametrize("m", [2, 10, 100])
    def test_uniform_chi2(self, m):
        n = 100_000
        b = bucket(splitmix64(np.arange(n)), seed=11, m=m)
        counts = np.bincount(b, minlength=m)
        expected = n / m
        chi2 = ((counts - expected) ** 2 / expected).sum()
        # P(chi2 > 2(m-1) + 6*sqrt(2(m-1))) is tiny; generous fixed-seed bound.
        assert chi2 < (m - 1) + 6 * np.sqrt(2 * (m - 1)) + 10

    def test_seeds_independent(self):
        keys = splitmix64(np.arange(50_000))
        b1 = bucket(keys, seed=1, m=2)
        b2 = bucket(keys, seed=2, m=2)
        agree = (b1 == b2).mean()
        assert 0.48 < agree < 0.52

    def test_deterministic_across_calls(self):
        keys = splitmix64(np.arange(100))
        assert (bucket(keys, 5, 7) == bucket(keys, 5, 7)).all()

    @pytest.mark.parametrize(
        "m, dtype", [(1, np.uint8), (256, np.uint8), (257, np.uint16), (65537, np.uint32)]
    )
    def test_narrowest_dtype(self, m, dtype):
        b = bucket(splitmix64(np.arange(100)), 3, m)
        assert b.dtype == dtype
        assert b.tolist() == (derive(splitmix64(np.arange(100)), 3) % np.uint64(m)).tolist()


class TestUniform01:
    def test_range(self):
        u = uniform01(splitmix64(np.arange(10_000)), seed=1)
        assert u.min() >= 0.0 and u.max() < 1.0

    def test_mean_and_spread(self):
        u = uniform01(splitmix64(np.arange(100_000)), seed=9)
        assert abs(u.mean() - 0.5) < 0.01
        assert abs(np.quantile(u, 0.25) - 0.25) < 0.01

    @pytest.mark.parametrize("p", [0.01, 0.1, 0.5])
    def test_bernoulli_rate(self, p):
        u = uniform01(splitmix64(np.arange(200_000)), seed=4)
        rate = (u < p).mean()
        assert abs(rate - p) < 5 * np.sqrt(p * (1 - p) / 200_000) + 1e-4


@pytest.mark.parametrize("p", [1.0, 1 / 2, 1 / 3, 1 / 10, 1 / 100, 1 / 320])
def test_uniform01_threshold_is_the_float_test(p):
    """Hashes T(p) − 1, T(p) and T(p) + 1, made by inverting splitmix64:
    only the first passes uniform01's test ``< p``."""
    cut, seed = uniform01_threshold(p), 5
    want = [cut - 1, cut, cut + 1]
    seed_mix = int(splitmix64(seed))
    keys = [_unsplitmix64(x) ^ seed_mix for x in want]
    assert derive(keys, seed).tolist() == want
    assert (uniform01(keys, seed) < p).tolist() == [True, False, False]


class TestScalarMix:
    """``mix_seeds`` and ``derive``'s seed mix run splitmix64 on python
    ints; the numpy ``splitmix64`` is the reference."""

    EDGES = [0, 1, 2**63, MASK, -1, -(2**63)]

    @staticmethod
    def _numpy_mix_seeds(*parts: int) -> int:
        acc = np.uint64(0)
        for p in parts:
            acc = splitmix64(np.array([int(acc) ^ (p & MASK)], dtype=np.uint64))[0]
        return int(acc)

    @given(st.lists(st.integers(-(2**63), MASK) | st.sampled_from(EDGES), min_size=1, max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_mix_seeds_matches_numpy(self, parts):
        assert mix_seeds(*parts) == self._numpy_mix_seeds(*parts)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_mix_seeds_edge_values(self, n):
        for parts in itertools.product(self.EDGES, repeat=n):
            assert mix_seeds(*parts) == self._numpy_mix_seeds(*parts)

    @given(st.integers(-(2**63), MASK) | st.sampled_from(EDGES))
    @settings(max_examples=300, deadline=None)
    def test_derive_seed_mix_matches_numpy(self, seed):
        keys = splitmix64(np.arange(8))
        seed_mix = splitmix64(np.array([seed & MASK], dtype=np.uint64))[0]
        assert derive(keys, seed).tolist() == splitmix64(keys ^ seed_mix).tolist()


class TestDeriveAndMix:
    def test_derive_changes_with_seed(self):
        keys = splitmix64(np.arange(1000))
        assert (derive(keys, 1) != derive(keys, 2)).mean() > 0.99

    def test_mix_seeds_deterministic(self):
        assert mix_seeds(1, 2, 3) == mix_seeds(1, 2, 3)

    def test_mix_seeds_order_sensitive(self):
        assert mix_seeds(1, 2) != mix_seeds(2, 1)

    def test_mix_seeds_distinct(self):
        outs = {mix_seeds(1, i) for i in range(1000)}
        assert len(outs) == 1000

    def test_mix_seeds_range(self):
        s = mix_seeds(123, 456)
        assert 0 <= s < 2**64


class TestReptGroups:
    @pytest.mark.parametrize("m,c", [(1, 1), (3, 1), (3, 2), (3, 3), (10, 4)])
    def test_algorithm1_is_one_group_under_the_run_seed(self, m, c):
        assert rept_groups(m, c, 7) == [(7, c)]

    def test_algorithm2_seeds_are_pinned(self):
        # Literals of the per-group seeds every committed Algorithm 2
        # result was computed with: a plan change must not move them.
        g = [12294501584986701981, 17908237141880928156, 13696218653876192031]
        assert rept_groups(3, 7, 7) == [(g[0], 3), (g[1], 3), (g[2], 1)]
        assert rept_groups(3, 6, 7) == [(g[0], 3), (g[1], 3)]
        assert rept_groups(2, 5, 2**64 - 1) == [
            (8986781451786984705, 2), (14666076619991609253, 2), (455839091748387030, 1)
        ]

    @pytest.mark.parametrize(
        "m,c", [(0, 1), (3, 0), (3, -1), (-1, 4), (2.5, 3), (3, 2.5), (True, 3), (3, True)]
    )
    def test_rejects_bad_m_c(self, m, c):
        with pytest.raises(ValueError, match="need m >= 1 and c >= 1"):
            rept_groups(m, c, 7)

    @pytest.mark.parametrize("seed", [1.5, -1, 2**64, True, None])
    @pytest.mark.parametrize("m,c", [(3, 2), (3, 7)])
    def test_rejects_bad_seed(self, m, c, seed):
        with pytest.raises(ValueError, match="seed"):
            rept_groups(m, c, seed)
