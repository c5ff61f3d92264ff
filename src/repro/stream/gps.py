"""Sequential GPS-lite processor (graph priority sampling, In-Stream).

A documented-core implementation of Ahmed et al.'s GPS (VLDB'17), see
DESIGN.md §6: each arriving edge gets weight ``w(e) = 1 + 9·(#sample
triangles it closes)`` and priority rank ``r(e) = w(e)/u(e)`` with a
deterministic per-edge uniform; the sample keeps the top-``budget``
ranks (min-heap), and the running threshold z* is the largest discarded
rank. In-stream estimation: when edge e closes a triangle with sampled
edges e₁, e₂, the Horvitz–Thompson increment ``1/(q(e₁)q(e₂))`` with
``q(e) = min(1, w(e)/z*)`` is added before the sampling decision.
Following the paper's memory accounting, callers give GPS **half** the
edge budget of the other methods (weights cost the other half).
"""
from __future__ import annotations

import heapq
import time

import numpy as np

from repro.core.hashing import check_budget, uniform01
from repro.graphs.datasets import Stream


def gps_processor(
    stream: Stream,
    budget: int,
    seed: int,
    track_local: bool = False,
) -> dict:
    """One GPS-lite trial with sample-size ``budget``."""
    check_budget(budget, seed)
    u01 = uniform01(stream.k, seed)
    adj: dict[int, set[int]] = {}
    wt: dict[int, dict[int, float]] = {}  # wt[a][b] = wt[b][a] = w((a, b))
    heap: list[tuple[float, int, int]] = []  # (rank, a, b)
    zstar = 0.0
    tau = 0.0
    tau_v: dict[int, float] = {}
    t0 = time.perf_counter()
    den = np.maximum(u01, 1e-300)
    # ``rank`` starts as that of an edge closing nothing, w(e) = 1.
    edges = zip(stream.u.tolist(), stream.v.tolist(), den.tolist(), (1.0 / den).tolist())
    for a, b, dj, rank in edges:
        wgt = 1.0
        na = adj.get(a)
        nb = adj.get(b)
        if na and nb:
            common = na & nb  # CPython walks the smaller set
            if common:
                wa, wb = wt[a], wt[b]
                for w in common:
                    inc = 1.0
                    if zstar > 0:  # inc = 1/(q(e1) q(e2)), q(e) = min(1, w(e)/z*)
                        qa = wa[w] / zstar
                        qb = wb[w] / zstar
                        inc = 1.0 / ((qa if qa < 1.0 else 1.0) * (qb if qb < 1.0 else 1.0))
                    tau += inc
                    if track_local:
                        tau_v[a] = tau_v.get(a, 0.0) + inc
                        tau_v[b] = tau_v.get(b, 0.0) + inc
                        tau_v[w] = tau_v.get(w, 0.0) + inc
                wgt = 1.0 + 9.0 * len(common)
                rank = wgt / dj
        if len(heap) < budget:
            heapq.heappush(heap, (rank, a, b))
        elif rank > heap[0][0]:
            out_rank, oa, ob = heapq.heapreplace(heap, (rank, a, b))
            if out_rank > zstar:
                zstar = out_rank
            adj[oa].discard(ob)
            adj[ob].discard(oa)
            del wt[oa][ob], wt[ob][oa]
        else:
            if rank > zstar:
                zstar = rank
            continue
        if na is None:
            na = adj[a] = set()
            wt[a] = {}
        if nb is None:
            nb = adj[b] = set()
            wt[b] = {}
        na.add(b)
        nb.add(a)
        wt[a][b] = wt[b][a] = wgt
    elapsed = time.perf_counter() - t0
    return {
        "tau_hat": tau,
        "tau_v_hat": dict(tau_v),
        "n_sampled": len(heap),
        "elapsed": elapsed,
    }
