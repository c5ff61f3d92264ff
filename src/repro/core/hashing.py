"""Deterministic 64-bit hashing shared by every engine.

A single numpy implementation (splitmix64 finalizer) is used by the
closed-form evaluator, the streaming simulators, and the Structured
Streaming job, so "the same hash seed" means the same
sampled edge sets everywhere — the property every exact cross-check in
``tests/test_stream_rept.py`` relies on.

All functions are vectorized over numpy ``uint64`` arrays and accept
python ints for convenience.
"""
from __future__ import annotations

import numpy as np

_U = np.uint64
_GOLDEN = _U(0x9E3779B97F4A7C15)
_MIX1 = _U(0xBF58476D1CE4E5B9)
_MIX2 = _U(0x94D049BB133111EB)


def splitmix64(x) -> np.ndarray:
    """SplitMix64 finalizer: a high-quality 64-bit mix of ``x``.

    Vectorized; integer overflow wraps (mod 2^64) by construction.
    """
    z = np.asarray(x).astype(np.uint64, copy=True)
    with np.errstate(over="ignore"):
        z += _GOLDEN
        z = (z ^ (z >> _U(30))) * _MIX1
        z = (z ^ (z >> _U(27))) * _MIX2
        return z ^ (z >> _U(31))


def edge_key(u, v) -> np.ndarray:
    """Canonical 64-bit key of an undirected edge, order-independent.

    Node ids must fit in 32 bits (all our generators use ids < 2^31), so
    ``(min << 32) | max`` is injective and the final mix is collision-free
    by construction, not merely with high probability.
    """
    u = np.asarray(u).astype(np.uint64)
    v = np.asarray(v).astype(np.uint64)
    lo = np.minimum(u, v)
    hi = np.maximum(u, v)
    return splitmix64((lo << _U(32)) | hi)


def mix_seeds(*parts: int) -> int:
    """Fold integers into one 64-bit seed (for deriving per-group seeds)."""
    acc = _U(0)
    for p in parts:
        acc = splitmix64(acc ^ _U(int(p) & 0xFFFFFFFFFFFFFFFF))[()]
    return int(acc)


#: salt of the per-group hash seeds of Algorithm 2.
_GROUP_SALT = 0xA11CE


def group_seed(seed: int, g: int) -> int:
    """Hash seed of processor group ``g`` in an Algorithm 2 run (c > m):
    each group of m processors partitions the stream independently."""
    return mix_seeds(seed, g, _GROUP_SALT)


def derive(key, seed: int) -> np.ndarray:
    """Re-randomize precomputed edge keys under a run seed."""
    return splitmix64(np.asarray(key).astype(np.uint64) ^ splitmix64(_U(int(seed)))[()])


def bucket(key, seed: int, m: int) -> np.ndarray:
    """Uniform bucket in ``{0, …, m−1}`` for each edge key under ``seed``.

    This is the paper's hash ``h(u, v)`` (0-indexed). Modulo bias is
    < m/2^64, irrelevant for m ≤ a few thousand.
    """
    return (derive(key, seed) % _U(int(m))).astype(np.int64)


def uniform01(key, seed: int) -> np.ndarray:
    """Deterministic Uniform(0,1) per edge key under ``seed``."""
    return derive(key, seed).astype(np.float64) / 18446744073709551616.0
