"""Synthetic undirected graph-stream generators.

The paper evaluates on eight real graphs (Table II). Those are not
available offline, so :mod:`repro.graphs.datasets` maps each to a
synthetic analog built from the models here. What the accuracy results
depend on is the pair (τ, η) — these models span a wide η/τ range:

* :func:`holme_kim` — preferential attachment with triad closure
  (power-law degrees, tunable clustering → tunable η/τ).
* :func:`planted_cliques` — overlaid cliques on sparse noise (extreme
  triangle density, Flickr-like).
* :func:`hub_graph` — Chung–Lu style hub-heavy endpoints with low
  clustering (Wiki-Talk-like).
* :func:`erdos_renyi` — uniform random (low η/τ baseline).

All generators return canonical, duplicate-free edge arrays
``(u, v)`` with ``u < v``; :func:`to_stream` assigns a random arrival
order. Everything is deterministic in ``seed``.
"""
from __future__ import annotations

import numpy as np


def _dedup_canonical(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Drop self-loops and duplicate undirected edges; enforce u < v."""
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    lo = np.minimum(u, v)
    hi = np.maximum(u, v)
    keep = lo != hi
    lo, hi = lo[keep], hi[keep]
    key = lo * np.int64(1) * (hi.max() + 1 if hi.size else 1) + hi
    _, idx = np.unique(key, return_index=True)
    idx.sort()
    return lo[idx], hi[idx]


def erdos_renyi(n: int, n_edges: int, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """~``n_edges`` uniform random edges over ``n`` nodes (post-dedup)."""
    g = np.random.default_rng(seed)
    # Oversample 15% to survive dedup, then trim.
    m = int(n_edges * 1.15) + 8
    u = g.integers(0, n, m)
    v = g.integers(0, n, m)
    lo, hi = _dedup_canonical(u, v)
    return lo[:n_edges], hi[:n_edges]


def hub_graph(
    n: int, n_edges: int, alpha: float = 1.5, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Hub-heavy Chung–Lu-style graph: endpoints drawn from a Zipf(alpha)
    distribution over nodes. Low clustering, a few very high-degree hubs —
    the Wiki-Talk shape (triangles concentrated on hubs, large η/τ).
    """
    g = np.random.default_rng(seed)
    ranks = np.arange(1, n + 1)
    w = 1.0 / ranks**alpha
    w /= w.sum()
    m = int(n_edges * 1.35) + 8
    u = g.choice(ranks, size=m, p=w) - 1
    v = g.choice(ranks, size=m, p=w) - 1
    lo, hi = _dedup_canonical(u, v)
    return lo[:n_edges], hi[:n_edges]


def holme_kim(
    n: int, m: int, p_triad: float, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Holme–Kim powerlaw-cluster graph: BA preferential attachment where
    each of the ``m`` edges of a new node is, with probability
    ``p_triad``, a *triad-formation* edge to a neighbor of the previous
    target. High ``p_triad`` → high clustering → large τ and η.
    """
    if m < 1 or n <= m:
        raise ValueError("need n > m >= 1")
    rng = np.random.default_rng(seed)
    adj: list[list[int]] = [[] for _ in range(n)]
    repeated: list[int] = []  # node repeated once per degree (PA sampling)
    us: list[int] = []
    vs: list[int] = []

    def add_edge(a: int, b: int) -> None:
        adj[a].append(b)
        adj[b].append(a)
        repeated.append(a)
        repeated.append(b)
        us.append(a)
        vs.append(b)

    # Seed: clique on the first m+1 nodes so PA and triad steps always
    # have triangle-capable targets.
    for a in range(m + 1):
        for b in range(a + 1, m + 1):
            add_edge(a, b)

    # Draw all per-step randomness in bulk for speed.
    coin = rng.random(n * m)
    ci = 0
    for src in range(m + 1, n):
        targets: set[int] = set()
        prev = -1
        while len(targets) < m:
            do_triad = prev >= 0 and coin[ci % coin.size] < p_triad
            ci += 1
            if do_triad:
                nbrs = adj[prev]
                cand = nbrs[rng.integers(0, len(nbrs))]
                if cand == src or cand in targets:
                    # fall back to preferential attachment
                    cand = repeated[rng.integers(0, len(repeated))]
            else:
                cand = repeated[rng.integers(0, len(repeated))]
            if cand != src and cand not in targets:
                targets.add(cand)
                prev = cand
        for t in targets:
            add_edge(src, t)
    return _dedup_canonical(np.array(us), np.array(vs))


def planted_cliques(
    n_cliques: int,
    k: int,
    noise_nodes: int,
    noise_edges: int,
    seed: int = 0,
    overlap: int = 2,
) -> tuple[np.ndarray, np.ndarray]:
    """``n_cliques`` cliques of size ``k`` (adjacent cliques share
    ``overlap`` nodes) plus an Erdős–Rényi noise layer. Extremely
    triangle-dense with large η — the Flickr analog (small node count,
    huge triangle count).
    """
    g = np.random.default_rng(seed)
    us: list[np.ndarray] = []
    vs: list[np.ndarray] = []
    step = k - overlap
    n_clique_nodes = n_cliques * step + overlap
    iu, iv = np.triu_indices(k, 1)
    for q in range(n_cliques):
        base = q * step
        members = np.arange(base, base + k)
        us.append(members[iu])
        vs.append(members[iv])
    n_total = n_clique_nodes + noise_nodes
    if noise_edges > 0:
        nu = g.integers(0, n_total, int(noise_edges * 1.2) + 8)
        nv = g.integers(0, n_total, int(noise_edges * 1.2) + 8)
        us.append(nu)
        vs.append(nv)
    return _dedup_canonical(np.concatenate(us), np.concatenate(vs))


def to_stream(u: np.ndarray, v: np.ndarray, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """A uniformly random arrival order: ``(u, v)`` permuted, so an edge's
    index is its arrival position."""
    perm = np.random.default_rng(seed).permutation(len(u))
    return u[perm], v[perm]
