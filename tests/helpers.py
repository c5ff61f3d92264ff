"""Shared test utilities: brute-force graph references and small-scale
dataset access (cached across test modules via the experiments cache).
"""
from __future__ import annotations

import dataclasses
from collections import defaultdict

import numpy as np

from repro.core.hashing import edge_key
from repro.graphs.datasets import Stream

#: (dataset, scale) pairs small enough for exhaustive checks.
SMALL_SCALE = 0.15
SMALL_DATASETS = ["Twitter", "LiveJournal", "Flickr", "Wiki-Talk", "YouTube"]


def tiny_stream(n_nodes: int = 40, n_edges: int = 160, seed: int = 0) -> Stream:
    """A small dense-ish random stream for property tests."""
    g = np.random.default_rng(seed)
    u = g.integers(0, n_nodes, n_edges * 2)
    v = g.integers(0, n_nodes, n_edges * 2)
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    keep = lo != hi
    lo, hi = lo[keep], hi[keep]
    _, idx = np.unique(lo * n_nodes + hi, return_index=True)
    idx.sort()
    lo, hi = lo[idx][:n_edges], hi[idx][:n_edges]
    perm = g.permutation(len(lo))
    lo, hi = lo[perm], hi[perm]
    return Stream("tiny", lo.astype(np.int64), hi.astype(np.int64), edge_key(lo, hi))


def _repeated_edge(s):
    """The first edge arrives again at the end."""
    return dataclasses.replace(s, **{f: np.append(getattr(s, f), getattr(s, f)[0]) for f in "uvk"})


def _wrong_key(s):
    k = s.k.copy()
    k[0] += np.uint64(1)
    return dataclasses.replace(s, k=k)


def _not_canonical(s):
    """The first edge as (v, u); its key is unchanged (edge_key is
    symmetric)."""
    u, v = s.u.copy(), s.v.copy()
    u[0], v[0] = v[0], u[0]
    return dataclasses.replace(s, u=u, v=v)


def _shifted(s, by):
    """Every node id moved by ``by``, keys recomputed."""
    u, v = s.u + by, s.v + by
    return dataclasses.replace(s, u=u, v=v, k=edge_key(u, v))


#: name → the bad stream made from a good one; each breaks one invariant.
BAD_STREAMS = {
    "repeated_edge": _repeated_edge,
    "wrong_key": _wrong_key,
    "u>=v": _not_canonical,
    "negative_id": lambda s: _shifted(s, -int(s.u.min()) - 1),
    "id>=2^32": lambda s: _shifted(s, 2**32 - int(s.v.max())),
    "length_mismatch": lambda s: dataclasses.replace(s, k=s.k[:-1]),
}


def brute_force(stream: Stream) -> dict:
    """Exhaustive τ, τ_v, η and per-edge structures of a stream.

    Definitions follow the paper exactly: η counts unordered pairs of
    distinct triangles sharing an edge g with g not the last stream
    edge of either.
    """
    tpos: dict[tuple[int, int], int] = {}
    adj: dict[int, set[int]] = defaultdict(set)
    for t, a, b in zip(stream.t.tolist(), stream.u.tolist(), stream.v.tolist()):
        adj[a].add(b)
        adj[b].add(a)
        tpos[(min(a, b), max(a, b))] = t

    tris = []  # (nodes asc, edges sorted by arrival)
    for (a, b) in tpos:
        for w in adj[a] & adj[b]:
            if w > b:
                e_ab = (a, b)
                e_aw = (min(a, w), max(a, w))
                e_bw = (min(b, w), max(b, w))
                by_time = sorted([(tpos[e], e) for e in (e_ab, e_aw, e_bw)])
                tris.append(((a, b, w), [e for _, e in by_time]))

    tau = len(tris)
    tau_v: dict[int, int] = defaultdict(int)
    nlast: dict[tuple[int, int], int] = defaultdict(int)
    for nodes, edges in tris:
        for v in nodes:
            tau_v[v] += 1
        nlast[edges[0]] += 1
        nlast[edges[1]] += 1
    eta = sum(n * (n - 1) // 2 for n in nlast.values())
    return {
        "tau": tau,
        "tau_v": dict(tau_v),
        "eta": eta,
        "nlast": dict(nlast),
        "triangles": tris,
    }


def variance_se(x: np.ndarray) -> float:
    """Standard error of the sample variance s² of the i.i.d. draws ``x``,
    from their sample kurtosis κ = m4 / m2²:
    Var(s²) = σ⁴ (κ − (n − 3)/(n − 1)) / n."""
    n = len(x)
    d = x - x.mean()
    m2 = (d * d).mean()
    kurtosis = (d ** 4).mean() / (m2 * m2)
    return x.var(ddof=1) * np.sqrt((kurtosis - (n - 3) / (n - 1)) / n)
