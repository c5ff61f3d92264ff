"""Sequential per-processor REPT (paper Algorithms 1 and 2).

:func:`semi_triangle_pass` is the paper's ``foreach (u,v) ∈ Π`` loop for
one processor, shared by REPT, the MASCOT baseline
(:mod:`repro.stream.mascot`) and the Structured Streaming sink
(:mod:`repro.core.structured`); it resumes from a :class:`ProcessorState`,
so a stream may be fed in pieces. ``rept_run`` assembles a full REPT
estimate (either algorithm) from c sequential processors — the oracle
that tests and the benchmark check against; the NRMSE sweeps use the
closed-form evaluator (:mod:`repro.core.closed_form`) instead.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.estimators import combine_alg2
from repro.core.hashing import bucket, group_seed
from repro.graphs.datasets import Stream


@dataclass
class ProcessorState:
    """One processor's sample E^(i) as adjacency sets, its counters, and
    τ^(i)_(u,v) per sampled edge (u < v) when η is tracked."""

    adj: dict[int, set[int]] = field(default_factory=dict)
    tau: int = 0
    eta: int = 0
    tau_v: dict[int, int] = field(default_factory=dict)
    eta_v: dict[int, int] = field(default_factory=dict)
    tau_edge: dict[tuple[int, int], int] = field(default_factory=dict)

    def n_sampled(self) -> int:
        return sum(len(s) for s in self.adj.values()) // 2


def semi_triangle_pass(
    state: ProcessorState, u: list[int], v: list[int], held: list[bool],
    track_eta: bool = False, track_local: bool = False,
) -> None:
    """Feed the edges ``(u[j], v[j])`` in order to ``state``. Each adds
    the semi-triangles it closes against the sample (τ, and τ_v when
    ``track_local``) and, when ``track_eta``, the triangle-pair counters
    η (η_v) of Algorithm 2; then it is inserted where ``held[j]``, with
    ``τ_(u,v) ← |N_uv|`` (DESIGN.md §1). The common neighbours are
    walked only when η or τ_v is tracked. Pass the same flags on every
    call for one state."""
    adj = state.adj
    tau, eta = state.tau, state.eta
    tau_v, eta_v, tau_edge = state.tau_v, state.eta_v, state.tau_edge
    for a, b, mine in zip(u, v, held):
        na = adj.get(a)
        nb = adj.get(b)
        n_common = 0
        if na and nb:
            common = na & nb if len(na) <= len(nb) else nb & na
            n_common = len(common)
            tau += n_common
            if n_common and track_local:
                tau_v[a] = tau_v.get(a, 0) + n_common
                tau_v[b] = tau_v.get(b, 0) + n_common
                for w in common:
                    tau_v[w] = tau_v.get(w, 0) + 1
            if n_common and track_eta:
                for w in common:
                    kaw = (a, w) if a < w else (w, a)
                    kbw = (b, w) if b < w else (w, b)
                    tuw = tau_edge[kaw]
                    tvw = tau_edge[kbw]
                    eta += tuw + tvw
                    if track_local:
                        eta_v[w] = eta_v.get(w, 0) + tuw + tvw
                        eta_v[a] = eta_v.get(a, 0) + tuw
                        eta_v[b] = eta_v.get(b, 0) + tvw
                    tau_edge[kaw] = tuw + 1
                    tau_edge[kbw] = tvw + 1
        if mine:
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
            if track_eta:
                tau_edge[(a, b) if a < b else (b, a)] = n_common
    state.tau, state.eta = tau, eta


def check_rept(m: int, proc: int) -> None:
    """Raise ``ValueError`` unless ``0 <= proc < m``."""
    if not 0 <= proc < m:
        raise ValueError(f"rept needs 0 <= proc < m, got proc={proc}, m={m}")


def rept_processor(
    stream: Stream,
    m: int,
    proc: int,
    seed: int,
    track_eta: bool = False,
    track_local: bool = False,
) -> dict:
    """Run one REPT processor over the whole stream.

    Returns ``tau`` (τ^(i)), ``eta`` (η^(i)), sparse dicts ``tau_v`` /
    ``eta_v``, the number of stored edges, and the loop wall time.
    """
    check_rept(m, proc)
    buckets = bucket(stream.k, seed, m)
    state = ProcessorState()
    t0 = time.perf_counter()
    semi_triangle_pass(
        state, stream.u.tolist(), stream.v.tolist(), (buckets == proc).tolist(),
        track_eta, track_local,
    )
    elapsed = time.perf_counter() - t0
    return {
        "tau": state.tau,
        "eta": state.eta,
        "tau_v": state.tau_v,
        "eta_v": state.eta_v,
        "n_sampled": state.n_sampled(),
        "elapsed": elapsed,
    }


def rept_run(
    stream: Stream, m: int, c: int, seed: int, track_local: bool = False
) -> dict:
    """Full REPT estimate from c sequential processors (driver-side).

    Mirrors Algorithm 1 (c ≤ m) / Algorithm 2 (c > m) including the
    Graybill–Deal combination; local estimates are sparse dicts.
    """
    if m < 1 or c < 1:
        raise ValueError(f"need m >= 1 and c >= 1, got m={m}, c={c}")
    if c <= m:
        procs = [
            rept_processor(stream, m, i, seed, track_eta=False, track_local=track_local)
            for i in range(c)
        ]
        tau_hat = (m * m / c) * sum(p["tau"] for p in procs)
        locals_ = {v: t * (m * m / c) for v, t in _sum_local(procs, "tau_v").items()}
        return {"tau_hat": tau_hat, "tau_v_hat": locals_, "procs": procs}

    c1, c2 = divmod(c, m)
    procs = [
        rept_processor(
            stream, m, i, group_seed(seed, g), track_eta=True, track_local=track_local
        )
        for g in range(c1 + (1 if c2 else 0))
        for i in range(m if g < c1 else c2)
    ]
    full, part = procs[: c1 * m], procs[c1 * m :]
    out = combine_alg2(
        sum(p["tau"] for p in full),
        sum(p["tau"] for p in part),
        sum(p["eta"] for p in procs),
        m,
        c,
    )
    out = {k: float(x) for k, x in out.items()}

    locals_: dict[int, float] = {}
    if track_local:
        t1 = _sum_local(full, "tau_v")
        t2 = _sum_local(part, "tau_v")
        ev = _sum_local(procs, "eta_v")
        nodes = sorted(set(t1) | set(t2) | set(ev))
        est = combine_alg2(
            np.array([t1.get(v, 0) for v in nodes]),
            np.array([t2.get(v, 0) for v in nodes]),
            np.array([ev.get(v, 0) for v in nodes]),
            m,
            c,
        )["tau_hat"]
        locals_ = dict(zip(nodes, est.tolist()))
    return {**out, "tau_v_hat": locals_, "procs": procs}


def _sum_local(procs: list[dict], key: str) -> dict[int, int]:
    """Per-node sum of the sparse counters ``key`` over processors."""
    total: dict[int, int] = {}
    for p in procs:
        for v, x in p[key].items():
            total[v] = total.get(v, 0) + x
    return total
