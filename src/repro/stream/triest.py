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

from repro.graphs.datasets import Stream


def check_triest(budget: int) -> None:
    """Raise ``ValueError`` for a sample of fewer than 2 edges."""
    if budget < 2:
        raise ValueError(f"Trièst needs a budget of at least 2 edges, got {budget}")


def triest_processor(
    stream: Stream, budget: int, seed: int, track_local: bool = False
) -> dict:
    """One Trièst-IMPR trial with reservoir size ``budget``."""
    check_triest(budget)
    rng = np.random.default_rng(seed)
    n = stream.n_edges
    # Pre-draw reservoir randomness in bulk (cheaper than per-step calls).
    coins = rng.random(n)
    slots = rng.integers(0, budget, n)
    adj: dict[int, set[int]] = {}
    reservoir: list[tuple[int, int]] = []
    tau = 0.0
    tau_v: dict[int, float] = {}
    mm1 = budget * (budget - 1)
    t0 = time.perf_counter()
    edges = zip(stream.u.tolist(), stream.v.tolist(), coins.tolist(), slots.tolist())
    for t, (a, b, coin, slot) in enumerate(edges, start=1):
        weight = max(1.0, (t - 1) * (t - 2) / mm1)
        na = adj.get(a)
        nb = adj.get(b)
        if na and nb:
            common = na & nb if len(na) <= len(nb) else nb & na
            n_common = len(common)
            if n_common:
                tau += weight * n_common
                if track_local:
                    tau_v[a] = tau_v.get(a, 0.0) + weight * n_common
                    tau_v[b] = tau_v.get(b, 0.0) + weight * n_common
                    for w in common:
                        tau_v[w] = tau_v.get(w, 0.0) + weight
        if len(reservoir) < budget:
            reservoir.append((a, b))
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
        elif coin < budget / t:
            out_a, out_b = reservoir[slot]
            adj[out_a].discard(out_b)
            adj[out_b].discard(out_a)
            reservoir[slot] = (a, b)
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
    elapsed = time.perf_counter() - t0
    return {
        "tau_hat": tau,
        "tau_v_hat": dict(tau_v),
        "n_sampled": len(reservoir),
        "elapsed": elapsed,
    }
