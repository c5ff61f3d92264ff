"""Sequential per-processor REPT (paper Algorithms 1 and 2).

:func:`semi_triangle_pass` is the paper's ``foreach (u,v) ∈ Π`` loop for
one processor, shared by REPT and the MASCOT and Trièst baselines; it
resumes from a :class:`ProcessorState`, so a stream may be fed in pieces.
:func:`feed_plan` runs it for every processor of a REPT group plan, for
``rept_run`` — the oracle that tests and the benchmark check against —
and for the Structured Streaming sink (:mod:`repro.core.structured`), one
micro-batch at a time. The NRMSE sweeps use the closed-form evaluator
(:mod:`repro.core.closed_form`).
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from repro.core.estimators import rept_estimate
from repro.core.hashing import bucket, check_rept, rept_groups
from repro.graphs.datasets import Stream, check_stream


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
    weights: list[float] | None = None, slots: list[int] | None = None,
) -> None:
    """Feed the edges ``(u[j], v[j])`` in order to ``state``. Each adds
    the semi-triangles it closes against the sample (τ, and τ_v when
    ``track_local``) and, when ``track_eta``, the triangle-pair counters
    η (η_v) of Algorithm 2; then it is inserted where ``held[j]``, with
    ``τ_(u,v) ← |N_uv|`` (DESIGN.md §1). The common neighbours are
    walked only when η or τ_v is tracked. Pass the same flags on every
    call for one state. Trièst-IMPR also passes each edge's semi-triangle
    ``weights`` (REPT and MASCOT count 1, in integers) and ``slots``, the
    reservoir slot of each insertion in turn, for a state fed in one
    call: an insertion into an occupied slot first evicts its edge."""
    adj = state.adj
    get = adj.get
    tau, eta = state.tau, state.eta
    tau_v, eta_v, tau_edge = state.tau_v, state.eta_v, state.tau_edge
    if slots is not None:
        # the reservoir: slot i holds the edge (res_a[i], res_b[i]), or None
        res_a = [None] * (max(slots, default=-1) + 1)
        res_b = res_a.copy()
        slots = iter(slots)
    for a, b, mine, weight in zip(u, v, held, repeat(1) if weights is None else weights):
        na = get(a)
        nb = get(b)
        n_common = 0
        if na and nb:
            common = na & nb
            n_common = len(common)
            if n_common:
                tau += weight * n_common
            if n_common and track_local:
                tau_v[a] = tau_v.get(a, 0) + weight * n_common
                tau_v[b] = tau_v.get(b, 0) + weight * n_common
                for w in common:
                    tau_v[w] = tau_v.get(w, 0) + weight
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
            if slots is not None:
                slot = next(slots)
                if res_a[slot] is not None:
                    adj[res_a[slot]].discard(res_b[slot])
                    adj[res_b[slot]].discard(res_a[slot])
                res_a[slot], res_b[slot] = a, b
            if na is None:
                na = adj[a] = set()
            if nb is None:
                nb = adj[b] = set()
            na.add(b)
            nb.add(a)
            if track_eta:
                tau_edge[(a, b) if a < b else (b, a)] = n_common
    state.tau, state.eta = tau, eta


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
    check_rept(m, proc, seed)
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


def feed_plan(
    states: list[ProcessorState], u: list[int], v: list[int], k: np.ndarray, m: int,
    plan: list[tuple[int, int]], track_local: bool = False,
) -> None:
    """Feed the edges ``(u[j], v[j])`` with keys ``k``, in order, to the
    processors of every group of ``plan`` (:func:`rept_groups`), whose
    ``states`` are listed in plan order: one bucket per group under its
    seed, and one :func:`semi_triangle_pass` per processor. η is tracked
    when the plan has more than one group (Algorithm 2)."""
    track_eta = len(plan) > 1
    states = iter(states)
    for group_seed, n in plan:
        buckets = bucket(k, group_seed, m)
        for proc in range(n):
            semi_triangle_pass(next(states), u, v, (buckets == proc).tolist(),
                               track_eta, track_local)


def rept_run(
    stream: Stream, m: int, c: int, seed: int, track_local: bool = False
) -> dict:
    """Full REPT estimate from c sequential processors (driver-side).

    Feeds the stream to the processors of :func:`rept_groups` through
    :func:`feed_plan` and combines them with :func:`rept_estimate`
    (Algorithm 1 or 2, Graybill–Deal included); local estimates are
    sparse dicts. ``procs`` holds the c :class:`ProcessorState`s in plan
    order. Raises ``ValueError`` for a bad (m, c, seed) or stream."""
    plan = rept_groups(m, c, seed)
    check_stream(stream)
    procs = [ProcessorState() for _ in range(c)]
    feed_plan(procs, stream.u.tolist(), stream.v.tolist(), stream.k, m, plan, track_local)
    out = rept_estimate([p.tau for p in procs], sum(p.eta for p in procs), m, c)
    out = {k: float(x) for k, x in out.items()}

    locals_: dict[int, float] = {}
    if track_local:
        nodes = sorted(set().union(*(p.tau_v for p in procs), *(p.eta_v for p in procs)))
        est = rept_estimate(
            np.array([[p.tau_v.get(v, 0) for v in nodes] for p in procs]),
            np.array([sum(p.eta_v.get(v, 0) for p in procs) for v in nodes]), m, c,
        )["tau_hat"]
        locals_ = dict(zip(nodes, est.tolist()))
    return {**out, "tau_v_hat": locals_, "procs": procs}
