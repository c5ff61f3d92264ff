"""Property-based cross-checks (hypothesis) on random tiny graphs.

These never touch Spark — they pin the sequential simulators to the
closed-form evaluator, fed triangle arrays built by brute force, over a
randomized family of graphs, stream orders, m, c and seeds, which is
where subtle semi-triangle accounting bugs would hide.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.closed_form import processor_counts
from repro.core.hashing import bucket, uniform01
from repro.graphs.exact import TriangleIndex
from repro.stream.mascot import mascot_processor
from repro.stream.rept import rept_processor
from tests.helpers import brute_force, tiny_stream


def _triangle_index(stream) -> TriangleIndex:
    """The evaluator's input, from the brute-force triangle list."""
    pos = {(a, b): t for t, a, b in zip(stream.t.tolist(), stream.u.tolist(), stream.v.tolist())}
    tris = brute_force(stream)["triangles"]
    return TriangleIndex.of(
        stream,
        [[pos[e] for e in edges] for _, edges in tris],
        [nodes for nodes, _ in tris],
    )


def _sparse(dense: np.ndarray, nodes: np.ndarray, i: int) -> dict:
    """Row i of a processor × node count array as ``{v: count}``."""
    return {int(nodes[j]): int(dense[i, j]) for j in np.flatnonzero(dense[i])}


@given(
    seed=st.integers(0, 10_000),
    m=st.integers(1, 6),
    hash_seed=st.integers(0, 2**32),
)
@settings(max_examples=25, deadline=None)
def test_rept_stream_equals_reference(seed, m, hash_seed):
    stream = tiny_stream(n_nodes=18, n_edges=60, seed=seed)
    tri = _triangle_index(stream)
    c = min(m, 3)
    ref = processor_counts(tri, bucket(stream.k, hash_seed, m), c, local=True)
    for i in range(c):
        r = rept_processor(stream, m, i, hash_seed, track_eta=True, track_local=True)
        assert r["tau"] == ref["tau"][i]
        assert r["eta"] == ref["eta"][i]
        assert r["tau_v"] == _sparse(ref["tau_v"], tri.nodes, i)
        eta_v = {v: x for v, x in r["eta_v"].items() if x}  # the loop also adds zeros
        assert eta_v == _sparse(ref["eta_v"], tri.nodes, i)


@given(seed=st.integers(0, 10_000), hash_seed=st.integers(0, 2**32))
@settings(max_examples=25, deadline=None)
def test_mascot_stream_equals_reference(seed, hash_seed):
    stream = tiny_stream(n_nodes=18, n_edges=60, seed=seed)
    p = 0.5
    held = uniform01(stream.k, hash_seed) < p
    tri = _triangle_index(stream)
    ref = processor_counts(tri, (~held).astype(np.int64), 1, local=True)
    got = mascot_processor(stream, p, hash_seed, track_local=True)
    assert got["cnt"] == ref["tau"][0]
    # 1/p² = 4 at p = 0.5, so the scaled local estimates scale back exactly.
    assert {v: x * p * p for v, x in got["tau_v_hat"].items()} == _sparse(ref["tau_v"], tri.nodes, 0)
    assert got["n_sampled"] == held.sum()


@given(seed=st.integers(0, 10_000))
@settings(max_examples=15, deadline=None)
def test_semi_triangle_totals_bounded_by_tau(seed):
    stream = tiny_stream(n_nodes=18, n_edges=60, seed=seed)
    bf = brute_force(stream)
    m = 3
    total = sum(rept_processor(stream, m, i, 1)["tau"] for i in range(m))
    assert total <= bf["tau"]
