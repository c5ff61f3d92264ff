"""Exact (non-sampled) triangle analytics over an edge stream.

These are the ground truths every estimator is judged against, and the
source of the edge-indexed triangle arrays (:class:`TriangleIndex`) that
the closed-form REPT/MASCOT evaluator consumes:

* :func:`enumerate_triangles` lists each triangle once, in numpy on the
  driver, with the stream positions of its three edges **in arrival
  order** (t1 < t2 < t3) — the order that defines the paper's
  "semi-triangle" (first two edges sampled). :func:`build_tables` builds
  the index and the exact τ, η from it, and :func:`local_counts` the
  exact τ_v, without starting a Spark job.
* :func:`triangle_df` enumerates the same triangles as a Spark SQL
  self-join; :func:`open_edge_df` / :func:`last_edge_df` expose, per
  triangle, the edges that are / are not its last stream edge. No
  harness reads them: they are kept only as the views that
  ``perfbench``'s traced ``sweep`` sizes its counters with.

Both paths are checked in tests against a brute-force python reference.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.graphs.datasets import Stream, check_stream, edge_stream_df


def triangle_df(edges: DataFrame) -> DataFrame:
    """Enumerate triangles of canonical edges ``(t, a, b, k)`` (a < b).

    Output, one row per triangle ``x < y < z``::

        x, y, z,
        t1, k1, e1p, e1q,   # earliest edge: arrival, key, endpoints
        t2, k2, e2p, e2q,   # middle edge
        t3, k3, e3p, e3q    # last edge

    The time-sort is done with ``array_sort`` over structs whose first
    field is the arrival position (unique per edge), so the lexicographic
    struct ordering is exactly arrival ordering.
    """
    e1 = edges.select(
        F.col("a").alias("x"), F.col("b").alias("y"),
        F.col("t").alias("t_xy"), F.col("k").alias("k_xy"),
    )
    e2 = edges.select(
        F.col("a").alias("y"), F.col("b").alias("z"),
        F.col("t").alias("t_yz"), F.col("k").alias("k_yz"),
    )
    e3 = edges.select(
        F.col("a").alias("x"), F.col("b").alias("z"),
        F.col("t").alias("t_xz"), F.col("k").alias("k_xz"),
    )
    tri = e1.join(e2, "y").join(e3, ["x", "z"])

    def _edge_struct(t: str, k: str, p: str, q: str):
        return F.struct(
            F.col(t).alias("t"), F.col(k).alias("k"),
            F.col(p).alias("p"), F.col(q).alias("q"),
        )

    arr = F.array_sort(
        F.array(
            _edge_struct("t_xy", "k_xy", "x", "y"),
            _edge_struct("t_yz", "k_yz", "y", "z"),
            _edge_struct("t_xz", "k_xz", "x", "z"),
        )
    )
    sel = [F.col("x"), F.col("y"), F.col("z")]
    for i in (1, 2, 3):
        e = arr[i - 1]
        sel += [
            e["t"].alias(f"t{i}"), e["k"].alias(f"k{i}"),
            e["p"].alias(f"e{i}p"), e["q"].alias(f"e{i}q"),
        ]
    return tri.select(*sel)


def open_edge_df(triangles: DataFrame) -> DataFrame:
    """Two rows per triangle — one per *non-last* edge g ∈ {e1, e2}:
    ``(gk, gp, gq, pk)`` where ``pk`` is the key of the triangle's other
    non-last edge. ``count() by gk`` gives n_g, the number of triangles
    in which g is not the last edge."""
    a = triangles.select(
        F.col("k1").alias("gk"), F.col("e1p").alias("gp"),
        F.col("e1q").alias("gq"), F.col("k2").alias("pk"),
    )
    b = triangles.select(
        F.col("k2").alias("gk"), F.col("e2p").alias("gp"),
        F.col("e2q").alias("gq"), F.col("k1").alias("pk"),
    )
    return a.unionAll(b)


def last_edge_df(triangles: DataFrame) -> DataFrame:
    """One row per triangle for its last stream edge:
    ``(gk, gp, gq, p1, p2)`` with p1, p2 the first-two edge keys."""
    return triangles.select(
        F.col("k3").alias("gk"), F.col("e3p").alias("gp"),
        F.col("e3q").alias("gq"), F.col("k1").alias("p1"),
        F.col("k2").alias("p2"),
    )


@dataclass(frozen=True)
class TriangleIndex:
    """One stream's triangles as int arrays: the input of the closed-form
    evaluator :mod:`repro.core.closed_form`.

    ``pos`` (3 × τ): rows t1, t2, t3 hold the stream positions (indices
    into the stream arrays) of each triangle's first, middle and last
    edge. ``verts`` (3 × τ): its three vertices, and ``ends`` (2 × |E|):
    each stream edge's endpoints, both as indices into the sorted node
    ids ``nodes``. ``open_keys``: the keys, in stream order, of the open
    edges (those that are some triangle's first or middle edge), and
    ``open_rows`` (2 × τ): rows t1, t2 as indices into ``open_keys``.
    Every index array is ``int64``: numpy gathers and counts with any
    other index dtype cast it to ``int64`` first.
    """

    pos: np.ndarray
    verts: np.ndarray
    ends: np.ndarray
    nodes: np.ndarray
    open_keys: np.ndarray
    open_rows: np.ndarray

    @classmethod
    def of(cls, stream: Stream, pos, verts) -> "TriangleIndex":
        """Index triangles given as (τ × 3) arrival-ordered edge positions
        and (τ × 3) vertex ids of ``stream``."""
        nodes = np.unique(np.concatenate([stream.u, stream.v]))
        pos = np.asarray(pos, dtype=np.int64).reshape(-1, 3).T.copy()
        is_open = np.zeros(stream.n_edges, dtype=bool)
        is_open[pos[:2]] = True
        row = np.cumsum(is_open) - 1
        return cls(
            pos,
            np.searchsorted(nodes, np.asarray(verts).reshape(-1, 3).T),
            np.searchsorted(nodes, np.stack([stream.u, stream.v])),
            nodes,
            stream.k[is_open],
            row[pos[:2]],
        )


def enumerate_triangles(stream: Stream) -> tuple[np.ndarray, np.ndarray]:
    """Every triangle of ``stream`` once, as τ × 3 int64 arrays ``(pos,
    verts)``: the indices into the stream arrays of its three edges in
    arrival order, and its vertex ids x < y < z.

    Each triangle x < y < z is found once, as the wedge of edge (x, y)
    and a forward edge (y, z) (forward: to a larger vertex id), closed by
    a binary search for (x, z) among the sorted edges of a stream that
    passes :func:`check_stream`."""
    nodes, ends = np.unique(np.concatenate([stream.u, stream.v]), return_inverse=True)
    n = len(nodes)
    a, b = ends.reshape(2, -1)
    # Forward adjacency in CSR form: the edges sorted by (a, b), so the
    # forward neighbours of vertex x are nbr[start[x]:start[x + 1]].
    key = a * n + b
    order = np.argsort(key)
    key = key[order]
    nbr = b[order]
    deg = np.bincount(a, minlength=n)
    start = np.concatenate([[0], np.cumsum(deg)])
    # One wedge per edge (x, y) and forward neighbour z of y.
    fan = deg[b]
    xy = np.repeat(np.arange(len(a)), fan)
    yz = start[b[xy]] + np.arange(len(xy)) - np.repeat(np.cumsum(fan) - fan, fan)
    x, y, z = a[xy], b[xy], nbr[yz]
    want = x * n + z
    xz = np.minimum(np.searchsorted(key, want), len(key) - 1)
    hit = key[xz] == want
    pos = np.sort(np.stack([xy[hit], order[yz[hit]], order[xz[hit]]], axis=1), axis=1)
    return pos, nodes[np.stack([x[hit], y[hit], z[hit]], axis=1)]


@dataclass
class TriangleTables:
    """Triangles of one stream, shared by every experiment: the
    edge-indexed triangle arrays and the exact global statistics.

    The Spark views of the same triangles (``edges``, ``triangles``,
    ``open_edges``, ``last_edges``), each created on first access, and
    the ``spark`` field they need are kept only for ``perfbench``'s
    traced ``sweep``; no harness reads them."""

    spark: SparkSession
    stream: Stream
    tau: int
    eta: int
    index: TriangleIndex

    @cached_property
    def edges(self) -> DataFrame:
        return edge_stream_df(self.spark, self.stream)

    @cached_property
    def triangles(self) -> DataFrame:
        """The :func:`triangle_df` table, persisted."""
        return triangle_df(self.edges).persist()

    @cached_property
    def open_edges(self) -> DataFrame:
        return open_edge_df(self.triangles)

    @cached_property
    def last_edges(self) -> DataFrame:
        return last_edge_df(self.triangles)


def build_tables(spark: SparkSession, stream: Stream) -> TriangleTables:
    """Enumerate the triangles of ``stream`` once, on the driver, and
    compute τ and η = Σ_g C(n_g, 2) from them (n_g: the triangles in
    which edge g is not the last edge). Starts no Spark job; raises
    ``ValueError`` for a stream :func:`check_stream` refuses."""
    check_stream(stream)
    pos, verts = enumerate_triangles(stream)
    n_g = (np.bincount(pos[:, 0], minlength=stream.n_edges)
           + np.bincount(pos[:, 1], minlength=stream.n_edges))
    eta = int((n_g * (n_g - 1) // 2).sum())
    return TriangleTables(spark, stream, len(pos), eta, TriangleIndex.of(stream, pos, verts))


def local_counts(index: TriangleIndex) -> np.ndarray:
    """Exact local triangle counts τ_v as one int vector over
    ``index.nodes`` (0 at a node in no triangle). Starts no Spark job."""
    return np.bincount(index.verts.ravel(), minlength=len(index.nodes))
