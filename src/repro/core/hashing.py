"""Deterministic 64-bit hashing shared by every engine.

A single numpy implementation (splitmix64 finalizer) is used by the
closed-form evaluator, the streaming simulators, and the Structured
Streaming job, so "the same hash seed" means the same
sampled edge sets everywhere — the property every exact cross-check in
``tests/test_stream_rept.py`` relies on.

The array functions are vectorized over numpy ``uint64`` arrays and
accept python ints for convenience; the scalar seed mixes
(:func:`mix_seeds`, the seed half of :func:`derive`) run the same
finalizer on python ints mod 2^64.

The run-parameter rules live here too: the ``check_*`` functions, and
the group plan :func:`rept_groups`, which checks (m, c, seed).
``derive`` and ``bucket`` take any seed mod 2^64, so every entry point
applies the rules before it hashes (DESIGN.md §3).
"""
from __future__ import annotations

import numbers

import numpy as np

_U = np.uint64
#: SplitMix64's increment and multipliers, and the 64-bit mask.
_GOLDEN, _MIX1, _MIX2 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_MASK = 0xFFFF_FFFF_FFFF_FFFF


def splitmix64(x) -> np.ndarray:
    """SplitMix64 finalizer: a high-quality 64-bit mix of ``x``.

    Vectorized; integer overflow wraps (mod 2^64) by construction.
    """
    return _finalize(np.array(x, dtype=np.uint64))


def _finalize(z: np.ndarray) -> np.ndarray:
    """The SplitMix64 finalizer of the ``uint64`` array ``z``, computed in
    place in ``z``. Array arithmetic wraps mod 2^64 without a warning,
    unlike numpy scalar arithmetic."""
    z += _U(_GOLDEN)
    z ^= z >> _U(30)
    z *= _U(_MIX1)
    z ^= z >> _U(27)
    z *= _U(_MIX2)
    return z ^ (z >> _U(31))


def edge_key(u, v) -> np.ndarray:
    """Canonical 64-bit key of an undirected edge, order-independent.

    Node ids must fit in 32 bits (all our generators use ids < 2^31), so
    ``(min << 32) | max`` is injective and the final mix is collision-free
    by construction, not merely with high probability.
    """
    u = np.array(u, dtype=np.uint64)
    v = np.array(v, dtype=np.uint64)
    lo = np.minimum(u, v)
    hi = np.maximum(u, v)
    return splitmix64((lo << _U(32)) | hi)


def is_int(x) -> bool:
    """True for a python or numpy integer that is not a ``bool``."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def check_seed(seed) -> None:
    """Raise ``ValueError`` unless ``seed`` is an integer in [0, 2^64)."""
    if not (is_int(seed) and 0 <= seed <= _MASK):
        raise ValueError(f"a seed must be an integer in [0, 2^64), got {seed!r}")


def check_p(p) -> None:
    """Raise ``ValueError`` unless ``p`` is a real number in (0, 1] and
    not a ``bool``."""
    if not (isinstance(p, numbers.Real) and not isinstance(p, bool) and 0 < p <= 1):
        raise ValueError(f"need p in (0, 1], got p={p!r}")


def check_scale(scale) -> None:
    """Raise ``ValueError`` unless ``scale``, a dataset's size factor, is
    a finite real number > 0 and not a ``bool``."""
    if not (isinstance(scale, numbers.Real) and not isinstance(scale, bool)
            and 0 < scale < float("inf")):
        raise ValueError(f"need a finite scale > 0 as a real number, got {scale!r}")


def check_mascot(p, seed) -> None:
    """Raise ``ValueError`` unless ``p`` and ``seed`` pass
    :func:`check_p` and :func:`check_seed` (one MASCOT trial)."""
    check_p(p)
    check_seed(seed)


def check_budget(budget, seed) -> None:
    """Raise ``ValueError`` unless ``budget`` is an integer of at least 2
    edges and ``seed`` passes :func:`check_seed` (Trièst and GPS)."""
    if not (is_int(budget) and budget >= 2):
        raise ValueError(f"need an integer budget of at least 2 edges, got {budget!r}")
    check_seed(seed)


def check_rept(m, proc, seed) -> None:
    """Raise ``ValueError`` unless m and proc are integers with
    ``0 <= proc < m`` and ``seed`` passes :func:`check_seed` (one REPT
    processor)."""
    if not (is_int(m) and is_int(proc) and 0 <= proc < m):
        raise ValueError(f"rept needs integers 0 <= proc < m, got proc={proc!r}, m={m!r}")
    check_seed(seed)


def _splitmix64_int(x: int) -> int:
    """:func:`splitmix64` of one python int in ``[0, 2^64)``, in python
    int arithmetic (no numpy scalar round trip)."""
    z = (x + _GOLDEN) & _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def mix_seeds(*parts: int) -> int:
    """Fold integers into one 64-bit seed (for deriving per-group seeds)."""
    acc = 0
    for p in parts:
        acc = _splitmix64_int(acc ^ (int(p) & _MASK))
    return acc


#: salt of the per-group hash seeds of Algorithm 2.
_GROUP_SALT = 0xA11CE


def rept_groups(m: int, c: int, seed: int) -> list[tuple[int, int]]:
    """The processor groups of a REPT(1/m, c) run, ``[(hash seed,
    processors), …]``; a group's processors hold buckets 0, 1, … of its
    seed. Algorithm 1 (c ≤ m) is ``[(seed, c)]``; Algorithm 2 (c > m) has
    ⌊c/m⌋ groups of m, then one of c mod m if nonzero, each under its own
    seed. Raises ``ValueError`` unless m and c are integers ≥ 1 and
    ``seed`` passes :func:`check_seed`."""
    if not (is_int(m) and is_int(c) and m >= 1 and c >= 1):
        raise ValueError(f"need m >= 1 and c >= 1 as integers, got m={m!r}, c={c!r}")
    check_seed(seed)
    if c <= m:
        return [(seed, c)]
    c1, c2 = divmod(c, m)
    return [(mix_seeds(seed, g, _GROUP_SALT), m if g < c1 else c2)
            for g in range(c1 + (c2 > 0))]


def derive(key, seed: int) -> np.ndarray:
    """Re-randomize precomputed edge keys under a run seed."""
    z = np.array(key, dtype=np.uint64)
    z ^= _U(_splitmix64_int(int(seed) & _MASK))
    return _finalize(z)


def bucket(key, seed: int, m: int) -> np.ndarray:
    """Uniform bucket in ``{0, …, m−1}`` for each edge key under ``seed``,
    in the narrowest unsigned dtype that holds m − 1 (``uint8`` for
    m ≤ 256).

    This is the paper's hash ``h(u, v)`` (0-indexed). Modulo bias is
    < m/2^64, irrelevant for m ≤ a few thousand.
    """
    return (derive(key, seed) % _U(int(m))).astype(np.min_scalar_type(int(m) - 1))


def uniform01(key, seed: int) -> np.ndarray:
    """Deterministic Uniform(0,1) per edge key under ``seed``."""
    return derive(key, seed).astype(np.float64) / 18446744073709551616.0


def uniform01_threshold(p: float) -> int:
    """T(p), the smallest 64-bit x with ``float64(x) / 2^64 >= p``, for
    0 < p ≤ 1: ``uniform01(key, seed) < p`` exactly when
    ``derive(key, seed) < T(p)``, because the conversion to float64 is
    monotone (DESIGN.md §2). Python's int-to-float conversion rounds to
    nearest even, as numpy's ``uint64`` cast does."""
    target = p * 18446744073709551616.0
    lo, hi = 0, _MASK  # float(2^64 − 1) rounds up to 2^64 ≥ target
    while lo < hi:
        mid = (lo + hi) // 2
        if float(mid) >= target:
            hi = mid
        else:
            lo = mid + 1
    return lo
