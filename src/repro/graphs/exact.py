"""Exact (non-sampled) triangle analytics over an edge stream, in Spark SQL.

These are the ground truths every estimator is judged against, and the
source of the edge-indexed triangle arrays (:class:`TriangleIndex`) that
the closed-form REPT/MASCOT evaluator consumes:

* :func:`triangle_df` enumerates each triangle once together with its
  three edges **ordered by stream arrival** (t1 < t2 < t3) — the order
  that defines the paper's "semi-triangle" (first two edges sampled).
* :func:`open_edge_df` / :func:`last_edge_df` expose, per triangle, the
  edges that are / are not its last stream edge — the inputs to the
  exact η, η_v computations.

Everything is pure DataFrame API (Catalyst); correctness is checked in
tests against both a brute-force python reference and the DuckDB oracle.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.graphs.datasets import Stream, edge_stream_df


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


def local_counts_df(triangles: DataFrame) -> DataFrame:
    """Exact local triangle counts ``(v, tau_v)`` for nodes with τ_v > 0."""
    return (
        triangles.select(
            F.explode(F.array(F.col("x"), F.col("y"), F.col("z"))).alias("v")
        )
        .groupBy("v")
        .agg(F.count(F.lit(1)).alias("tau_v"))
    )


def eta_global(triangles: DataFrame) -> int:
    """Exact η = Σ_g C(n_g, 2) over non-last multiplicities n_g."""
    n = (
        open_edge_df(triangles)
        .groupBy("gk")
        .agg(F.count(F.lit(1)).alias("n"))
        .agg(F.sum(F.expr("n * (n - 1) / 2")).alias("eta"))
        .collect()[0]["eta"]
    )
    return int(n or 0)


def eta_local_df(triangles: DataFrame) -> DataFrame:
    """Exact per-node η_v as ``(v, eta_v)``: for each edge g = (p, q),
    C(n_g, 2) pairs accrue to both endpoints (a pair of distinct
    triangles sharing g can only both contain v if v ∈ g)."""
    per_edge = (
        open_edge_df(triangles)
        .groupBy("gk", "gp", "gq")
        .agg(F.count(F.lit(1)).alias("n"))
        .withColumn("pairs", F.expr("CAST(n * (n - 1) / 2 AS LONG)"))
    )
    return (
        per_edge.select(
            F.explode(F.array(F.col("gp"), F.col("gq"))).alias("v"), F.col("pairs")
        )
        .groupBy("v")
        .agg(F.sum("pairs").alias("eta_v"))
        .filter(F.col("eta_v") > 0)
    )


@dataclass(frozen=True)
class TriangleIndex:
    """One stream's triangles as int arrays: the input of the closed-form
    evaluator :mod:`repro.core.closed_form`.

    ``pos`` (3 × τ): rows t1, t2, t3 hold the stream positions (indices
    into the stream arrays) of each triangle's first, middle and last
    edge. ``verts`` (3 × τ): its three vertices, and ``ends`` (2 × |E|):
    each stream edge's endpoints, both as indices into the sorted node
    ids ``nodes``.
    """

    pos: np.ndarray
    verts: np.ndarray
    ends: np.ndarray
    nodes: np.ndarray

    @classmethod
    def of(cls, stream: Stream, pos, verts) -> "TriangleIndex":
        """Index triangles given as (τ × 3) arrival-ordered edge positions
        and (τ × 3) vertex ids of ``stream``."""
        nodes = np.unique(np.concatenate([stream.u, stream.v]))
        return cls(
            np.asarray(pos, dtype=np.int64).reshape(-1, 3).T.copy(),
            np.searchsorted(nodes, np.asarray(verts).reshape(-1, 3).T),
            np.searchsorted(nodes, np.stack([stream.u, stream.v])),
            nodes,
        )


@dataclass
class TriangleTables:
    """Triangle views of one stream, shared by every experiment: the
    persisted triangle table, its lazy per-edge views, the edge-indexed
    triangle arrays and the exact global statistics."""

    stream: Stream
    edges: DataFrame
    triangles: DataFrame
    open_edges: DataFrame
    last_edges: DataFrame
    tau: int
    eta: int
    index: TriangleIndex

    def unpersist(self) -> None:
        self.triangles.unpersist()


def build_tables(spark: SparkSession, stream: Stream) -> TriangleTables:
    """Enumerate the triangles of ``stream`` once: persist the triangle
    table and collect its edge positions and vertices to the driver."""
    if not np.array_equal(stream.t, np.arange(stream.n_edges)):
        raise ValueError("stream positions t must be 0..|E|-1 in arrival order")
    edges = edge_stream_df(spark, stream)
    tri = triangle_df(edges).persist()
    cols = tri.select("t1", "t2", "t3", "x", "y", "z").toPandas().to_numpy(np.int64)
    index = TriangleIndex.of(stream, cols[:, :3], cols[:, 3:])
    eta = eta_global(tri)
    return TriangleTables(
        stream, edges, tri, open_edge_df(tri), last_edge_df(tri), len(cols), eta, index
    )
