"""Sequential MASCOT processor (improved variant, Lim & Kang KDD'15).

A trial is one processor of :func:`repro.stream.rept.semi_triangle_pass`
whose own edges pass a Bernoulli(p) test: each edge's semi-triangles are
counted before it is sampled, then scaled by 1/p². The test is the
deterministic per-edge ``uniform01`` hash, so a trial is bit-reproducible
and matches the closed-form evaluator (:mod:`repro.core.closed_form`).
"""
from __future__ import annotations

import time

from repro.core.hashing import check_mascot, uniform01
from repro.graphs.datasets import Stream
from repro.stream.rept import ProcessorState, semi_triangle_pass


def mascot_processor(
    stream: Stream, p: float, seed: int, track_local: bool = False
) -> dict:
    """One MASCOT trial. Returns the raw semi-triangle count ``cnt``,
    the estimate ``tau_hat = cnt/p²``, sparse local estimates, sample
    size and loop wall time."""
    check_mascot(p, seed)
    sampled = uniform01(stream.k, seed) < p
    state = ProcessorState()
    t0 = time.perf_counter()
    semi_triangle_pass(
        state, stream.u.tolist(), stream.v.tolist(), sampled.tolist(), track_local=track_local
    )
    elapsed = time.perf_counter() - t0
    inv = 1.0 / (p * p)
    return {
        "cnt": state.tau,
        "tau_hat": state.tau * inv,
        "tau_v_hat": {v: x * inv for v, x in state.tau_v.items()},
        "n_sampled": state.n_sampled(),
        "elapsed": elapsed,
    }
