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

from repro.core.hashing import check_budget
from repro.graphs.datasets import Stream
from repro.stream.rept import ProcessorState, semi_triangle_pass


def impr_weights(t: np.ndarray, budget: int) -> np.ndarray:
    """IMPR's weight of each 1-based position ``t`` at M = ``budget``:
    the float Python's int arithmetic gives while (t−1)(t−2) < 2^53, as
    both divide two exactly held integers with one correct rounding."""
    return np.maximum(1.0, (t - 1) * (t - 2) / (budget * (budget - 1)))


def triest_processor(
    stream: Stream, budget: int, seed: int, track_local: bool = False
) -> dict:
    """One Trièst-IMPR trial with reservoir size ``budget``: one
    :func:`~repro.stream.rept.semi_triangle_pass`.

    Edge t enters the reservoir when ``coin_t < M/t``, which always holds
    while t ≤ M, into slot t − 1 while t ≤ M and slot ``slots_t`` after.
    The entry mask, the weights and the slot schedule are numpy
    expressions inside the timed window (DESIGN.md §6)."""
    check_budget(budget, seed)
    rng = np.random.default_rng(seed)
    n = stream.n_edges
    # Pre-draw reservoir randomness in bulk (cheaper than per-step calls).
    coins = rng.random(n)
    slots = rng.integers(0, budget, n)
    state = ProcessorState()
    t0 = time.perf_counter()
    t = np.arange(1, n + 1)
    enters = coins < budget / t
    semi_triangle_pass(
        state, stream.u.tolist(), stream.v.tolist(), enters.tolist(),
        track_local=track_local, weights=impr_weights(t, budget).tolist(),
        slots=np.where(t <= budget, t - 1, slots)[enters].tolist(),
    )
    elapsed = time.perf_counter() - t0
    return {
        "tau_hat": float(state.tau),
        "tau_v_hat": state.tau_v,
        "n_sampled": state.n_sampled(),
        "elapsed": elapsed,
    }
