"""Sequential MASCOT processor (improved variant, Lim & Kang KDD'15).

For every arriving edge it first counts the semi-triangles closed
against the current Bernoulli(p) sample (adding 1/p² to the global and
incident local counters), then samples the edge with probability p.
Sampling randomness is the deterministic per-edge ``uniform01`` hash,
so one trial is bit-reproducible and matches the closed-form evaluator
(:mod:`repro.core.closed_form`) at the same seed.
"""
from __future__ import annotations

import time

from repro.core.hashing import uniform01
from repro.graphs.datasets import Stream


def mascot_processor(
    stream: Stream, p: float, seed: int, track_local: bool = False
) -> dict:
    """One MASCOT trial. Returns the raw semi-triangle count ``cnt``,
    the estimate ``tau_hat = cnt/p²``, sparse local estimates, sample
    size and loop wall time."""
    sampled = uniform01(stream.k, seed) < p
    adj: dict[int, set[int]] = {}
    cnt = 0
    cnt_v: dict[int, int] = {}
    t0 = time.perf_counter()
    for a, b, keep in zip(stream.u.tolist(), stream.v.tolist(), sampled.tolist()):
        na = adj.get(a)
        nb = adj.get(b)
        if na and nb:
            common = na & nb if len(na) <= len(nb) else nb & na
            n_common = len(common)
            if n_common:
                cnt += n_common
                if track_local:
                    cnt_v[a] = cnt_v.get(a, 0) + n_common
                    cnt_v[b] = cnt_v.get(b, 0) + n_common
                    for w in common:
                        cnt_v[w] = cnt_v.get(w, 0) + 1
        if keep:
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
    elapsed = time.perf_counter() - t0
    inv = 1.0 / (p * p)
    return {
        "cnt": cnt,
        "tau_hat": cnt * inv,
        "tau_v_hat": {v: x * inv for v, x in cnt_v.items()},
        "n_sampled": sum(len(s) for s in adj.values()) // 2,
        "elapsed": elapsed,
    }
