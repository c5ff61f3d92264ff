"""End-of-stream REPT and MASCOT outputs in closed form (DESIGN.md §2).

Every output is a deterministic function of one hash per edge, evaluated
with numpy gathers and ``np.bincount`` over the triangle arrays of
:class:`repro.graphs.exact.TriangleIndex` on the driver, reproducing
exactly what the sequential simulators in :mod:`repro.stream` output.
REPT: :func:`processor_counts` evaluates one group of the run's plan
(:func:`repro.core.hashing.rept_groups`) under its seed; Algorithm 1
reads τ only, so it skips the η counters.
MASCOT: a trial is the one processor that holds the edges passing its
Bernoulli(p) test. Trials are packed 64 to a ``uint64`` word per edge,
so one gather over the triangle arrays serves 64 trials; a pool of N
trials yields ``⌊N/c⌋`` parallel-c estimates by chunking.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.core.estimators import rept_estimate
from repro.core.hashing import bucket, rept_groups, uniform01
from repro.graphs.exact import TriangleIndex, TriangleTables


def _tau_counts(tri: TriangleIndex, buckets: np.ndarray, lim: int, local: bool):
    """τ^(i) (and, when ``local``, τ_v^(i)) of processors ``0 … lim−1``,
    with the semi-triangle mask and processor ids they are counted from."""
    t1, t2, _ = tri.pos
    b1 = buckets[t1]
    semi = (b1 == buckets[t2]) & (b1 < lim)
    proc = b1[semi]
    out = {"tau": np.bincount(proc, minlength=lim)}
    if local:
        n = len(tri.nodes)
        cells = (proc * n + tri.verts[:, semi]).ravel()
        out["tau_v"] = np.bincount(cells, minlength=lim * n).reshape(lim, n)
    return out, semi, proc


def processor_counts(
    tri: TriangleIndex, buckets: np.ndarray, lim: int, local: bool = False
) -> dict:
    """End-of-stream counts of processors ``0 … lim−1``, where processor
    i holds the stream edges whose entry in ``buckets`` is i.

    Returns τ^(i) and η^(i) as int arrays of length ``lim`` and, when
    ``local``, τ_v^(i) and η_v^(i) as ``lim × len(tri.nodes)`` int arrays.
    """
    out, semi, proc = _tau_counts(tri, buckets, lim, local)
    t1, t2, t3 = tri.pos
    last = t3[semi]
    n_e = len(buckets)
    # x_g: semi-triangles with g among their first two edges; y_g: those
    # with g last whose first two edges share g's bucket (the pseudocode's
    # τ_(u,v) ← |N_uv| initialization, DESIGN.md §1).
    x = np.bincount(t1[semi], minlength=n_e) + np.bincount(t2[semi], minlength=n_e)
    y = np.bincount(last[buckets[last] == proc], minlength=n_e)
    eta_g = x * (x - 1) // 2 + x * y
    # η_g is nonzero only where x_g > 0, so on an edge of a bucket < lim.
    out["eta"] = np.bincount(buckets, weights=eta_g, minlength=lim)[:lim].astype(np.int64)
    if local:
        n = len(tri.nodes)
        g = np.flatnonzero(eta_g)
        cells = (buckets[g] * n + tri.ends[:, g]).ravel()
        eta_v = np.bincount(cells, weights=np.tile(eta_g[g], 2), minlength=lim * n)
        out["eta_v"] = eta_v.reshape(lim, n).astype(np.int64)
    return out


def _check(seeds: list[int], p: float = 1.0) -> None:
    """Reject run parameters the closed forms are undefined for."""
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must be in (0, 1], got {p}")
    if len(seeds) == 0:
        raise ValueError("need at least one seed")


def _rept_counts(tables: TriangleTables, m: int, c: int, seed: int, local: bool):
    """τ^(i) of one REPT run's c processors in plan order, stacked on axis
    0, and Σ η^(i) over them (0 for c ≤ m); τ_v^(i) and Σ η_v^(i) when
    ``local``."""
    tau, eta = ("tau_v", "eta_v") if local else ("tau", "eta")
    taus, eta_sum = [], 0
    for group_seed, lim in rept_groups(m, c, seed):
        buckets = bucket(tables.stream.k, group_seed, m)
        if c > m:
            r = processor_counts(tables.index, buckets, lim, local)
            eta_sum = eta_sum + r[eta].sum(axis=0)
        else:  # Algorithm 1 reads no η: count τ only.
            r, _, _ = _tau_counts(tables.index, buckets, lim, local)
        taus.append(r[tau])
    return np.concatenate(taus), eta_sum


def rept_global_runs(
    spark: SparkSession, tables: TriangleTables, m: int, c: int, seeds: list[int]
) -> pd.DataFrame:
    """Global REPT estimates τ̂ for each run seed.

    Returns pandas ``(run, tau_hat)`` plus diagnostics (``tau1``,
    ``tau2``, ``eta_hat`` for the c > m, c2 ≠ 0 case).
    """
    _check(seeds)
    counts = [_rept_counts(tables, m, c, s, local=False) for s in seeds]
    tau = np.stack([t for t, _ in counts], axis=1)
    eta_sum = np.array([e for _, e in counts])
    return pd.DataFrame({"run": range(len(seeds)), **rept_estimate(tau, eta_sum, m, c)})


def rept_local_runs(
    spark: SparkSession, tables: TriangleTables, m: int, c: int, seeds: list[int]
) -> np.ndarray:
    """Local REPT estimates τ̂_v as a float array of runs (one per seed)
    × ``tables.index.nodes``: 0 where a run has no semi-triangle. The
    runs are counted one at a time, so only one run's τ_v^(i) is held."""
    _check(seeds)
    return np.stack([
        rept_estimate(*_rept_counts(tables, m, c, seed, local=True), m, c)["tau_hat"]
        for seed in seeds
    ])


#: ``_BITS[b, i]`` is bit i of the byte value b.
_BITS = (np.arange(256)[:, None] >> np.arange(8) & 1).astype(np.int64)


def _held_words(tables: TriangleTables, p: float, seeds: list[int]):
    """MASCOT trials packed 64 to a word, one chunk of up to 64 seeds at a
    time: yields ``(start, n, semi, pos)`` where bit j of ``semi`` is set
    when trial ``start + j`` holds both first edges of the triangle at
    ``pos`` (the triangles whose word is nonzero)."""
    t1, t2, _ = tables.index.pos
    # Only the first two edges of a triangle decide whether it is counted,
    # so only they are tested: ``at`` maps stream positions to their rows.
    first = np.zeros(tables.stream.n_edges, dtype=bool)
    first[t1] = True
    first[t2] = True
    key = tables.stream.k[first]
    at = np.cumsum(first) - 1
    a1, a2 = at[t1], at[t2]
    for start in range(0, len(seeds), 64):
        chunk = seeds[start:start + 64]
        w = np.zeros(len(key), dtype=np.uint64)
        for j, seed in enumerate(chunk):
            # The held test of mascot_processor, for trial start + j.
            w |= (uniform01(key, seed) < p).astype(np.uint64) << np.uint64(j)
        semi = w[a1] & w[a2]
        pos = np.flatnonzero(semi)
        yield start, len(chunk), semi[pos], pos


def mascot_trial_estimates(
    spark: SparkSession, tables: TriangleTables, p: float, seeds: list[int]
) -> np.ndarray:
    """Global single-processor MASCOT estimates τ̃ (one per trial seed)."""
    _check(seeds, p=p)
    cnt = np.zeros(len(seeds), dtype=np.int64)
    for start, n, semi, _ in _held_words(tables, p, seeds):
        # Row b of the byte histograms times _BITS counts bits 8b … 8b+7.
        octets = semi.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8)
        hist = np.stack([np.bincount(octets[:, b], minlength=256) for b in range(8)])
        cnt[start:start + n] = (hist @ _BITS).ravel()[:n]
    return cnt / (p * p)


def mascot_local_trial_counts(
    spark: SparkSession, tables: TriangleTables, p: float, seeds: list[int]
) -> pd.DataFrame:
    """Sparse per-(trial, v) semi-triangle counts (pandas ``trial, v, cnt``)."""
    _check(seeds, p=p)
    n_nodes = len(tables.index.nodes)
    trial, v, cnt = [], [], []
    for start, n, semi, pos in _held_words(tables, p, seeds):
        verts = tables.index.verts[:, pos]
        for j in range(n):
            held = (semi & np.uint64(1 << j)) != 0
            per_node = np.bincount(verts[:, held].ravel(), minlength=n_nodes)
            hit = np.flatnonzero(per_node)
            trial.append(np.full(len(hit), start + j, dtype=np.int64))
            v.append(tables.index.nodes[hit])
            cnt.append(per_node[hit])
    return pd.DataFrame(
        {"trial": np.concatenate(trial), "v": np.concatenate(v), "cnt": np.concatenate(cnt)}
    )
