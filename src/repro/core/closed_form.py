"""End-of-stream REPT and MASCOT outputs in closed form (DESIGN.md §2).

Every output is a deterministic function of one hash per edge, evaluated
with numpy gathers and ``np.bincount`` over the triangle arrays of
:class:`repro.graphs.exact.TriangleIndex` on the driver, reproducing
exactly what the sequential simulators in :mod:`repro.stream` output.
REPT: each group of the run's plan
(:func:`repro.core.hashing.rept_groups`) is counted by
:func:`processor_counts` from one semi-triangle index under its seed; a
one-group plan (Algorithm 1) reads τ only, so it skips the η counters.
MASCOT: a trial is the one processor that holds the edges passing its
Bernoulli(p) test, evaluated as ``derive(k, seed) < T(p)``
(:func:`repro.core.hashing.uniform01_threshold`) on the open edges
only. Trials are packed 64 to a ``uint64`` word per open edge, so one
gather over the triangle arrays serves 64 trials; a pool of N trials
yields ``⌊N/c⌋`` parallel-c estimates by chunking.

The independent work runs on one process-wide thread pool, one thread
per core this process may use, started on first use (numpy drops the GIL
in the gathers, compares and ``flatnonzero`` that dominate): one REPT
run per task, and each 64-trial word's triangle scan for the global
MASCOT counts, split into contiguous slices. Work too small to pay for
the threads' GIL hand-offs (``_MIN_TASK``) stays on the calling thread,
as do the MASCOT hashes. Results are gathered in seed order and summed
as integers, so every output is ``==`` the one-seed-at-a-time
evaluation (DESIGN.md §2).
"""
from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.core.estimators import rept_estimate
from repro.core.hashing import bucket, check_p, check_seed, derive, rept_groups, uniform01_threshold
from repro.graphs.exact import TriangleIndex, TriangleTables


#: the pool's threads, and the most slices of a MASCOT word's scan.
_WORKERS = len(os.sched_getaffinity(0))
#: the fewest array elements a pool task scans. Below about this many,
#: the GIL hand-offs between the pool's threads around each numpy call
#: cost more than the threads save, and the work runs faster on the
#: calling thread (DESIGN.md §2).
_MIN_TASK = 1 << 16
_POOL: ThreadPoolExecutor | None = None
_POOL_LOCK = threading.Lock()


def _pool() -> ThreadPoolExecutor:
    """The closed form's thread pool, created on first use so that
    importing this module starts no thread."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            _POOL = ThreadPoolExecutor(_WORKERS, thread_name_prefix="closed-form")
        return _POOL


def _semi(tri: TriangleIndex, buckets: np.ndarray, lim: int):
    """The semi-triangles of processors ``0 … lim−1`` under ``buckets``:
    their indices into the triangle arrays, and their processor ids."""
    t1, t2, _ = tri.pos
    b1 = buckets[t1]
    semi = np.flatnonzero((b1 == buckets[t2]) & (b1 < lim))
    return semi, b1[semi]


def _tau(tri: TriangleIndex, semi, proc, lim: int, local: bool) -> np.ndarray:
    """τ^(i) of processors ``0 … lim−1`` from their semi-triangles, or,
    when ``local``, τ_v^(i) as a ``lim × len(tri.nodes)`` array."""
    if not local:
        return np.bincount(proc, minlength=lim)
    n = len(tri.nodes)
    # int64 first: a narrow processor id times n would wrap.
    cells = (proc.astype(np.int64) * n + tri.verts[:, semi]).ravel()
    return np.bincount(cells, minlength=lim * n).reshape(lim, n)


def _eta_g(tri: TriangleIndex, buckets, semi, proc) -> np.ndarray:
    """η_g = C(x_g, 2) + x_g·y_g per stream edge g. x_g: semi-triangles
    with g among their first two edges; y_g: those with g last whose
    first two edges share g's bucket (the pseudocode's τ_(u,v) ← |N_uv|
    initialization, DESIGN.md §1)."""
    t1, t2, t3 = tri.pos
    n_e = len(buckets)
    x = np.bincount(t1[semi], minlength=n_e) + np.bincount(t2[semi], minlength=n_e)
    last = t3[semi]
    y = np.bincount(last[buckets[last] == proc], minlength=n_e)
    return x * (x - 1) // 2 + x * y


def processor_counts(
    tri: TriangleIndex, buckets: np.ndarray, lim: int, local: bool = False, eta: bool = True
) -> dict:
    """End-of-stream counts of processors ``0 … lim−1``, where processor
    i holds the stream edges whose entry in ``buckets`` is i.

    Returns τ^(i) and, when ``eta``, η^(i) as int arrays of length
    ``lim``; when ``local``, also τ_v^(i) and (with ``eta``) η_v^(i) as
    ``lim × len(tri.nodes)`` int arrays.
    """
    semi, proc = _semi(tri, buckets, lim)
    out = {"tau": _tau(tri, semi, proc, lim, False)}
    if local:
        out["tau_v"] = _tau(tri, semi, proc, lim, True)
    if not eta:
        return out
    eta_g = _eta_g(tri, buckets, semi, proc)
    # η_g is nonzero only where x_g > 0, so on an edge of a bucket < lim.
    out["eta"] = np.bincount(buckets, weights=eta_g, minlength=lim)[:lim].astype(np.int64)
    if local:
        n = len(tri.nodes)
        g = np.flatnonzero(eta_g)
        cells = (buckets[g].astype(np.int64) * n + tri.ends[:, g]).ravel()
        eta_v = np.bincount(cells, weights=np.tile(eta_g[g], 2), minlength=lim * n)
        out["eta_v"] = eta_v.reshape(lim, n).astype(np.int64)
    return out


def _check(seeds: list[int], p: float = 1.0) -> None:
    """Reject run parameters the closed forms are undefined for; (m, c)
    are checked by :func:`rept_groups`."""
    check_p(p)
    if len(seeds) == 0:
        raise ValueError("need at least one seed")
    for seed in seeds:
        check_seed(seed)


def _rept_counts(tables: TriangleTables, m: int, c: int, seed: int, local: bool):
    """τ^(i) of one REPT run's c processors in plan order, stacked on axis
    0, and Σ η^(i) over them (0 for c ≤ m); τ_v^(i) and Σ η_v^(i) when
    ``local``. Each group is counted by :func:`processor_counts`, with η
    only when the plan has more than one group (Algorithm 2)."""
    plan = rept_groups(m, c, seed)  # checks (m, c) before the tables are read
    tau, eta = ("tau_v", "eta_v") if local else ("tau", "eta")
    track_eta = len(plan) > 1
    taus, eta_sum = [], 0
    for group_seed, lim in plan:
        counts = processor_counts(tables.index, bucket(tables.stream.k, group_seed, m), lim,
                                  local, track_eta)
        taus.append(counts[tau])
        if track_eta:
            eta_sum = eta_sum + counts[eta].sum(axis=0)
    return np.concatenate(taus), eta_sum


def _rept_runs(tables: TriangleTables, run, m: int, c: int, seeds: list[int]) -> list:
    """``run(seed)`` for each seed, in seed order: one pool task per seed
    when a run's group scans at least ``_MIN_TASK`` edges and triangles,
    else on the calling thread. A bad (m, c) or seed raises
    ``ValueError`` before any task starts."""
    _check(seeds)
    rept_groups(m, c, seeds[0])  # checks (m, c)
    pooled = tables.stream.n_edges + tables.tau >= _MIN_TASK
    return list((_pool().map if pooled else map)(run, seeds))


def rept_global_runs(
    spark: SparkSession, tables: TriangleTables, m: int, c: int, seeds: list[int]
) -> pd.DataFrame:
    """Global REPT estimates τ̂ for each run seed.

    Returns pandas ``(run, tau_hat)`` plus diagnostics (``tau1``,
    ``tau2``, ``eta_hat`` for the c > m, c2 ≠ 0 case).
    """
    counts = _rept_runs(tables, lambda s: _rept_counts(tables, m, c, s, local=False), m, c, seeds)
    tau = np.stack([t for t, _ in counts], axis=1)
    eta_sum = np.array([e for _, e in counts])
    return pd.DataFrame({"run": range(len(seeds)), **rept_estimate(tau, eta_sum, m, c)})


def rept_local_runs(
    spark: SparkSession, tables: TriangleTables, m: int, c: int, seeds: list[int]
) -> np.ndarray:
    """Local REPT estimates τ̂_v as a float array of runs (one per seed)
    × ``tables.index.nodes``: 0 where a run has no semi-triangle. Each
    worker counts one run at a time and keeps only its τ̂_v, so at most
    one run's τ_v^(i) per pool worker is held."""
    return np.stack(_rept_runs(
        tables,
        lambda s: rept_estimate(*_rept_counts(tables, m, c, s, local=True), m, c)["tau_hat"],
        m, c, seeds,
    ))


#: ``_BITS[b, i]`` is bit i of the byte value b.
_BITS = (np.arange(256)[:, None] >> np.arange(8) & 1).astype(np.int64)


def _words(tables: TriangleTables, p: float, seeds: list[int]):
    """MASCOT trials packed 64 to a word, one chunk of up to 64 seeds at a
    time: yields ``(start, n, w)`` where bit j of ``w[e]`` is set when
    trial ``start + j`` holds open edge e (row e of ``open_keys``)."""
    # Only the first two edges of a triangle decide whether it is counted,
    # so only the open edges are tested.
    key = tables.index.open_keys
    cut = np.uint64(uniform01_threshold(p))
    for start in range(0, len(seeds), 64):
        chunk = seeds[start:start + 64]
        w = np.zeros(len(key), dtype=np.uint64)
        for j, seed in enumerate(chunk):
            # mascot_processor's held test uniform01(key, seed) < p.
            w |= (derive(key, seed) < cut).astype(np.uint64) << np.uint64(j)
        yield start, len(chunk), w


def _held(w: np.ndarray, a1: np.ndarray, a2: np.ndarray):
    """The nonzero words ``semi`` of ``w[a1] & w[a2]`` and their positions
    ``pos`` in ``a1``: bit j of ``semi`` is set when trial j holds both
    first edges of the triangle at ``pos``."""
    semi = w[a1] & w[a2]
    pos = np.flatnonzero(semi)
    return semi[pos], pos


def _word_counts(w: np.ndarray, a1: np.ndarray, a2: np.ndarray, n: int, k: int) -> np.ndarray:
    """The global counts of trials 0 … n−1 of word ``w``: the triangles
    whose word ``w[a1] & w[a2]`` has bit j set. The scan runs over k
    contiguous slices of the triangles, on the pool when k > 1."""
    cuts = [len(a1) * i // k for i in range(k + 1)]
    n_bytes = -(-n // 8)

    def scan(lo: int, hi: int) -> np.ndarray:
        """Row b: the histogram of byte b of the slice's held words."""
        semi, _ = _held(w, a1[lo:hi], a2[lo:hi])
        # Each column is cast to int64 first: bincount's own cast of a
        # strided uint8 column is slower.
        octets = semi.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8)
        return np.stack([np.bincount(octets[:, b].astype(np.int64), minlength=256)
                         for b in range(n_bytes)])

    hists = _pool().map(scan, cuts[:-1], cuts[1:]) if k > 1 else [scan(0, len(a1))]
    # Row b of the byte histograms times _BITS counts bits 8b … 8b+7;
    # bytes past trial n − 1 are all zero and skipped. The slices'
    # histograms are integers, so their sum is exact in any order.
    return (sum(hists) @ _BITS).ravel()[:n]


def mascot_trial_estimates(
    spark: SparkSession, tables: TriangleTables, p: float, seeds: list[int]
) -> np.ndarray:
    """Global single-processor MASCOT estimates τ̃ (one per trial seed)."""
    _check(seeds, p=p)
    a1, a2 = tables.index.open_rows
    k = max(1, min(_WORKERS, len(a1) // _MIN_TASK))
    cnt = np.zeros(len(seeds), dtype=np.int64)
    for start, n, w in _words(tables, p, seeds):
        cnt[start:start + n] = _word_counts(w, a1, a2, n, k)
    return cnt / (p * p)


def mascot_local_trial_counts(
    spark: SparkSession, tables: TriangleTables, p: float, seeds: list[int]
) -> pd.DataFrame:
    """Sparse per-(trial, v) semi-triangle counts (pandas ``trial, v, cnt``)."""
    _check(seeds, p=p)
    n_nodes = len(tables.index.nodes)
    trial, v, cnt = [], [], []
    a1, a2 = tables.index.open_rows
    for start, n, w in _words(tables, p, seeds):
        semi, pos = _held(w, a1, a2)
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
