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

from repro.core.hashing import uniform01
from repro.graphs.datasets import Stream


def check_gps(budget: int) -> None:
    """Raise ``ValueError`` for a sample of fewer than 2 edges."""
    if budget < 2:
        raise ValueError(f"GPS needs a budget of at least 2 edges, got {budget}")


def gps_processor(
    stream: Stream,
    budget: int,
    seed: int,
    track_local: bool = False,
) -> dict:
    """One GPS-lite trial with sample-size ``budget``."""
    check_gps(budget)
    u01 = uniform01(stream.k, seed)
    adj: dict[int, set[int]] = {}
    weight: dict[tuple[int, int], float] = {}
    heap: list[tuple[float, int, int]] = []  # (rank, a, b)
    zstar = 0.0
    tau = 0.0
    tau_v: dict[int, float] = {}
    t0 = time.perf_counter()
    for a, b, uj in zip(stream.u.tolist(), stream.v.tolist(), u01.tolist()):
        ka = (a, b) if a < b else (b, a)
        na = adj.get(a)
        nb = adj.get(b)
        n_common = 0
        if na and nb:
            common = na & nb if len(na) <= len(nb) else nb & na
            n_common = len(common)
            for w in common:
                kaw = (a, w) if a < w else (w, a)
                kbw = (b, w) if b < w else (w, b)
                if zstar > 0:
                    qa = min(1.0, weight[kaw] / zstar)
                    qb = min(1.0, weight[kbw] / zstar)
                    inc = 1.0 / (qa * qb)
                else:
                    inc = 1.0
                tau += inc
                if track_local:
                    tau_v[a] = tau_v.get(a, 0.0) + inc
                    tau_v[b] = tau_v.get(b, 0.0) + inc
                    tau_v[w] = tau_v.get(w, 0.0) + inc
        wgt = 1.0 + 9.0 * n_common
        rank = wgt / max(uj, 1e-300)
        if len(heap) < budget:
            heapq.heappush(heap, (rank, a, b))
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
            weight[ka] = wgt
        elif rank > heap[0][0]:
            out_rank, oa, ob = heapq.heapreplace(heap, (rank, a, b))
            zstar = max(zstar, out_rank)
            adj[oa].discard(ob)
            adj[ob].discard(oa)
            del weight[(oa, ob) if oa < ob else (ob, oa)]
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
            weight[ka] = wgt
        else:
            zstar = max(zstar, rank)
    elapsed = time.perf_counter() - t0
    return {
        "tau_hat": tau,
        "tau_v_hat": dict(tau_v),
        "n_sampled": len(heap),
        "elapsed": elapsed,
    }
