"""Exact analytics (τ, τ_v, η and the Spark SQL views) vs brute force
and vs plain SQL run in DuckDB."""
import duckdb
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.graphs.datasets import edge_stream_df
from repro.graphs.exact import (
    build_tables,
    enumerate_triangles,
    last_edge_df,
    local_counts,
    open_edge_df,
    triangle_df,
)
from tests.helpers import SMALL_DATASETS, brute_force, tiny_stream

TINY_SEEDS = [0, 1, 2, 3, 4]


@pytest.fixture(scope="module")
def tiny(spark):
    cache = {}

    def _get(seed):
        if seed not in cache:
            s = tiny_stream(n_nodes=40, n_edges=180, seed=seed)
            tri = triangle_df(edge_stream_df(spark, s)).persist()
            cache[seed] = (build_tables(spark, s), tri, brute_force(s))
        return cache[seed]

    return _get


@pytest.mark.parametrize("seed", TINY_SEEDS)
class TestVsBruteForce:
    def test_tau(self, tiny, seed):
        _, tri, bf = tiny(seed)
        assert tri.count() == bf["tau"]

    def test_tau_v(self, tiny, seed):
        t, _, bf = tiny(seed)
        tau_v = local_counts(t.index)
        assert set(bf["tau_v"]) <= set(t.index.nodes.tolist())
        assert tau_v.tolist() == [bf["tau_v"].get(v, 0) for v in t.index.nodes.tolist()]

    def test_eta(self, tiny, seed):
        t, _, bf = tiny(seed)
        assert t.eta == bf["eta"]

    def test_not_last_multiplicities(self, tiny, seed):
        _, tri, bf = tiny(seed)
        got = {
            (r["gp"], r["gq"]): r["n"]
            for r in open_edge_df(tri).groupBy("gp", "gq").agg(
                F.count(F.lit(1)).alias("n")
            ).collect()
        }
        assert got == bf["nlast"]

    def test_edge_time_ordering(self, tiny, seed):
        _, tri, bf = tiny(seed)
        bad = tri.filter((F.col("t1") >= F.col("t2")) | (F.col("t2") >= F.col("t3")))
        assert bad.count() == 0

    def test_triangle_edge_sets(self, tiny, seed):
        _, tri, bf = tiny(seed)
        got = {
            ((r["e1p"], r["e1q"]), (r["e2p"], r["e2q"]), (r["e3p"], r["e3q"]))
            for r in tri.collect()
        }
        want = {tuple(edges) for _, edges in bf["triangles"]}
        assert got == want

    def test_last_edge_rows(self, tiny, seed):
        _, tri, bf = tiny(seed)
        assert last_edge_df(tri).count() == bf["tau"]
        # every last-edge row pairs the first-two keys of that triangle
        row = last_edge_df(tri).limit(1).collect()
        if row:
            assert row[0]["p1"] != row[0]["p2"]


def assert_matches_duckdb(got: pd.DataFrame, sql: str, **tables) -> None:
    """Run ``sql`` in DuckDB over ``tables`` (Spark DataFrames) and assert
    its rows equal ``got``'s, ignoring row order and integer width."""
    con = duckdb.connect()
    try:
        for name, df in tables.items():
            con.register(name, df.toPandas())
        want = con.execute(sql).fetchdf()
    finally:
        con.close()
    assert sorted(got.columns) == sorted(want.columns)

    def canon(pdf):
        cols = sorted(pdf.columns)
        return pdf[cols].sort_values(cols).reset_index(drop=True)

    pd.testing.assert_frame_equal(canon(got), canon(want), check_dtype=False)


@pytest.mark.parametrize("seed", TINY_SEEDS[:3])
class TestVsDuckDBOracle:
    def test_global_count(self, tiny, seed):
        t, tri, _ = tiny(seed)
        assert_matches_duckdb(
            pd.DataFrame({"n_tri": [tri.count()]}),
            """
            SELECT count(*) AS n_tri
            FROM e e1 JOIN e e2 ON e1.b = e2.a
                      JOIN e e3 ON e3.a = e1.a AND e3.b = e2.b
            """,
            e=t.edges,
        )

    def test_local_counts(self, tiny, seed):
        t, _, _ = tiny(seed)
        assert_matches_duckdb(
            pd.DataFrame({"v": t.index.nodes, "tau_v": local_counts(t.index)}),
            """
            WITH tri AS (
              SELECT e1.a AS x, e1.b AS y, e2.b AS z
              FROM e e1 JOIN e e2 ON e1.b = e2.a
                        JOIN e e3 ON e3.a = e1.a AND e3.b = e2.b
            ), verts AS (
              SELECT x AS v FROM tri
              UNION ALL SELECT y FROM tri
              UNION ALL SELECT z FROM tri
            ), nodes AS (
              SELECT a AS v FROM e UNION SELECT b FROM e
            )
            SELECT nodes.v, count(verts.v) AS tau_v
            FROM nodes LEFT JOIN verts ON nodes.v = verts.v GROUP BY nodes.v
            """,
            e=t.edges,
        )

    def test_eta_per_edge(self, tiny, seed):
        t, tri, _ = tiny(seed)
        assert_matches_duckdb(
            open_edge_df(tri).groupBy("gp", "gq").agg(F.count(F.lit(1)).alias("n")).toPandas(),
            """
            WITH tri AS (
              SELECT e1.a AS x, e1.b AS y, e2.b AS z,
                     e1.t AS t_xy, e2.t AS t_yz, e3.t AS t_xz
              FROM e e1 JOIN e e2 ON e1.b = e2.a
                        JOIN e e3 ON e3.a = e1.a AND e3.b = e2.b
            ), open_edges AS (
              SELECT x AS gp, y AS gq FROM tri WHERE t_xy < greatest(t_yz, t_xz)
              UNION ALL
              SELECT y, z FROM tri WHERE t_yz < greatest(t_xy, t_xz)
              UNION ALL
              SELECT x, z FROM tri WHERE t_xz < greatest(t_xy, t_yz)
            )
            SELECT gp, gq, count(*) AS n FROM open_edges GROUP BY gp, gq
            """,
            e=t.edges,
        )


@pytest.mark.parametrize("seed", TINY_SEEDS)
def test_enumerator_vs_brute_force(seed):
    s = tiny_stream(n_nodes=40, n_edges=180, seed=seed)
    bf = brute_force(s)
    pos, verts = enumerate_triangles(s)
    at = {e: i for i, e in enumerate(zip(s.u.tolist(), s.v.tolist()))}
    want = {(nodes, tuple(at[e] for e in edges)) for nodes, edges in bf["triangles"]}
    got = {(tuple(v), tuple(p)) for v, p in zip(verts.tolist(), pos.tolist())}
    assert len(pos) == len(got) == bf["tau"]
    assert got == want
    t = build_tables(None, s)
    assert (t.tau, t.eta) == (bf["tau"], bf["eta"])


@pytest.mark.parametrize("name", SMALL_DATASETS)
def test_enumerator_vs_spark(tables_for, name):
    t = tables_for(name)
    pos, verts = enumerate_triangles(t.stream)
    got = {tuple(r) for r in np.hstack([pos, verts]).tolist()}
    want = {tuple(r) for r in t.triangles.select("t1", "t2", "t3", "x", "y", "z").collect()}
    assert len(got) == len(pos)
    assert got == want
    assert (t.tau, t.eta) == (len(want), brute_force(t.stream)["eta"])


def test_build_tables_starts_no_job(spark, tables_for, job_group):
    t = build_tables(spark, tables_for("YouTube").stream)
    assert t.tau > 0
    assert job_group() == (0, 0)


@pytest.mark.parametrize("name", SMALL_DATASETS)
class TestOnDatasets:
    def test_tables_consistent(self, tables_for, name):
        t = tables_for(name)
        assert t.tau == t.triangles.count()
        assert t.open_edges.count() == 2 * t.tau
        assert t.last_edges.count() == t.tau

    def test_tau_v_sums_to_3tau(self, tables_for, name):
        t = tables_for(name)
        tau_v = local_counts(t.index)
        assert tau_v.shape == t.index.nodes.shape
        assert tau_v.sum() == 3 * t.tau

    def test_eta_nonnegative(self, tables_for, name):
        t = tables_for(name)
        assert t.eta >= 0
