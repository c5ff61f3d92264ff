"""Sequential Trièst-IMPR processor (De Stefani et al. KDD'16).

Reservoir sampling with a fixed edge budget M. For the t-th arriving
edge, semi-triangles closed against the reservoir are counted with the
unbiasing weight ``max(1, (t−1)(t−2) / (M(M−1)))`` *before* the
reservoir decision (IMPR counts first, never decrements). Insert-only
streams, matching the paper's experiments. Counters are the estimates.
"""
from __future__ import annotations

import time

import numpy as np

from repro.core.hashing import check_budget
from repro.graphs.datasets import Stream


def triest_processor(
    stream: Stream, budget: int, seed: int, track_local: bool = False
) -> dict:
    """One Trièst-IMPR trial with reservoir size ``budget``.

    Edge t enters the reservoir when ``coin_t < M/t``, which always holds
    while t ≤ M; the test is decided for every edge in one numpy
    comparison before the loop (DESIGN.md §6)."""
    check_budget(budget, seed)
    rng = np.random.default_rng(seed)
    n = stream.n_edges
    # Pre-draw reservoir randomness in bulk (cheaper than per-step calls).
    coins = rng.random(n)
    slots = rng.integers(0, budget, n)
    adj: dict[int, set[int]] = {}
    res_a: list[int] = []  # the reservoir's edges (res_a[i], res_b[i])
    res_b: list[int] = []
    tau = 0.0
    tau_v: dict[int, float] = {}
    mm1 = budget * (budget - 1)
    t0 = time.perf_counter()
    enters = (coins < budget / np.arange(1, n + 1)).tolist()
    edges = zip(stream.u.tolist(), stream.v.tolist(), enters, slots.tolist())
    for t, (a, b, enter, slot) in enumerate(edges, start=1):
        na = adj.get(a)
        nb = adj.get(b)
        if na and nb:
            common = na & nb if len(na) <= len(nb) else nb & na
            if common:
                weight = max(1.0, (t - 1) * (t - 2) / mm1)
                n_common = len(common)
                tau += weight * n_common
                if track_local:
                    tau_v[a] = tau_v.get(a, 0.0) + weight * n_common
                    tau_v[b] = tau_v.get(b, 0.0) + weight * n_common
                    for w in common:
                        tau_v[w] = tau_v.get(w, 0.0) + weight
        if not enter:
            continue
        if t > budget:
            out_a, out_b = res_a[slot], res_b[slot]
            adj[out_a].discard(out_b)
            adj[out_b].discard(out_a)
            res_a[slot], res_b[slot] = a, b
        else:
            res_a.append(a)
            res_b.append(b)
        if na is None:
            na = adj[a] = set()
        if nb is None:
            nb = adj[b] = set()
        na.add(b)
        nb.add(a)
    elapsed = time.perf_counter() - t0
    return {
        "tau_hat": tau,
        "tau_v_hat": dict(tau_v),
        "n_sampled": len(res_a),
        "elapsed": elapsed,
    }
