"""Bit-exact cross-checks of the two REPT implementation paths:
sequential streaming simulator ↔ closed-form evaluator.
"""
import numpy as np
import pytest

from repro.core.closed_form import processor_counts, rept_global_runs, rept_local_runs
from repro.core.hashing import bucket, rept_groups
from repro.stream.rept import rept_processor, rept_run
from tests.helpers import brute_force, tiny_stream, variance_se

CASES = [(2, 1), (2, 2), (5, 3), (5, 5), (10, 4), (10, 10)]
SEEDS = [101, 202]


@pytest.fixture(scope="module")
def setup(spark, tables_for):
    return tables_for("YouTube", 0.1)


@pytest.mark.parametrize("m,c", CASES)
@pytest.mark.parametrize("seed", SEEDS)
class TestStreamVsReference:
    def _kernel(self, t, m, c, seed):
        return processor_counts(t.index, bucket(t.stream.k, seed, m), c, local=True)

    def test_tau_per_processor(self, setup, m, c, seed):
        ref = self._kernel(setup, m, c, seed)
        got = [rept_processor(setup.stream, m, i, seed)["tau"] for i in range(c)]
        assert got == ref["tau"].tolist()

    def test_eta_per_processor(self, setup, m, c, seed):
        ref = self._kernel(setup, m, c, seed)
        got = [
            rept_processor(setup.stream, m, i, seed, track_eta=True)["eta"] for i in range(c)
        ]
        assert got == ref["eta"].tolist()

    def test_tau_v_per_processor(self, setup, m, c, seed):
        ref = self._kernel(setup, m, c, seed)
        want = {
            (int(i), int(setup.index.nodes[j])): int(ref["tau_v"][i, j])
            for i, j in zip(*np.nonzero(ref["tau_v"]))
        }
        got = {}
        for i in range(c):
            r = rept_processor(setup.stream, m, i, seed, track_local=True)
            for v, x in r["tau_v"].items():
                got[(i, v)] = x
        assert got == want


@pytest.mark.parametrize("m,c", CASES)
def test_kernel_global_matches_stream(setup, spark, m, c):
    t = setup
    seed = 4242
    procs = [rept_processor(t.stream, m, i, seed) for i in range(c)]
    expect = (m * m / c) * sum(p["tau"] for p in procs)
    got = rept_global_runs(spark, t, m, c, [seed])["tau_hat"].iloc[0]
    assert got == expect


def stream_local(t, run) -> list[float]:
    """``rept_run``'s sparse τ̂_v over ``t.index.nodes``, absent nodes 0."""
    assert set(run["tau_v_hat"]) <= set(t.index.nodes.tolist())
    return [run["tau_v_hat"].get(v, 0.0) for v in t.index.nodes.tolist()]


@pytest.mark.parametrize("m,c", CASES)
def test_kernel_local_matches_stream(setup, spark, m, c):
    seed = 4242
    run = rept_run(setup.stream, m, c, seed, track_local=True)
    got = rept_local_runs(spark, setup, m, c, [seed])
    assert got.tolist() == [stream_local(setup, run)]


@pytest.mark.parametrize("m,c", [(3, 7), (3, 6), (4, 9), (2, 5)])
@pytest.mark.parametrize("seed", SEEDS)
class TestAlgorithm2:
    """c > m: groups, η̂ and the Graybill–Deal combination."""

    def test_global_matches_stream(self, setup, spark, m, c, seed):
        run = rept_run(setup.stream, m, c, seed)
        got = rept_global_runs(spark, setup, m, c, [seed])
        assert got["tau_hat"].iloc[0] == run["tau_hat"]

    def test_diagnostics_match(self, setup, spark, m, c, seed):
        if c % m == 0:
            pytest.skip("no diagnostics for c2 == 0")
        run = rept_run(setup.stream, m, c, seed)
        got = rept_global_runs(spark, setup, m, c, [seed])
        assert got["tau1"].iloc[0] == run["tau1"]
        assert got["tau2"].iloc[0] == run["tau2"]
        assert got["eta_hat"].iloc[0] == run["eta_hat"]

    def test_local_matches_stream(self, setup, spark, m, c, seed):
        run = rept_run(setup.stream, m, c, seed, track_local=True)
        got = rept_local_runs(spark, setup, m, c, [seed])
        assert got.tolist() == [stream_local(setup, run)]


@pytest.mark.parametrize("m,c", [(4, 3), (4, 4), (3, 6), (3, 7)],
                         ids=["c<m", "c=m", "c=2m", "c>m_leftover"])
def test_rept_run_states_match_processors(setup, m, c):
    """``rept_run`` feeds every processor of the plan in one loop; each
    state equals the fan-out's unit, ``rept_processor``, run alone on
    the processor's bucket under its group's seed."""
    seed = 77
    run = rept_run(setup.stream, m, c, seed, track_local=True)
    want = [
        rept_processor(setup.stream, m, i, group_seed, track_eta=c > m, track_local=True)
        for group_seed, n in rept_groups(m, c, seed) for i in range(n)
    ]
    got = [(p.tau, p.eta, p.tau_v, p.eta_v, p.n_sampled()) for p in run["procs"]]
    assert got == [(r["tau"], r["eta"], r["tau_v"], r["eta_v"], r["n_sampled"]) for r in want]
    assert (sum(p.eta for p in run["procs"]) > 0) == (c > m)


@pytest.mark.parametrize("c", [250, 305], ids=["alg1", "alg2"])
def test_wide_buckets_match_stream(spark, c):
    """m = 300 > 256, so the buckets are uint16, not uint8: the closed
    form still equals the simulator, for c < m and for c > m (one full
    group of 300 and a leftover group of 5)."""
    from repro.graphs.exact import build_tables

    t = build_tables(spark, tiny_stream(n_nodes=30, n_edges=300, seed=1))
    m, seed = 300, 11
    assert bucket(t.stream.k, seed, m).dtype == np.uint16
    run = rept_run(t.stream, m, c, seed, track_local=True)
    assert run["tau_hat"] > 0
    assert rept_global_runs(spark, t, m, c, [seed])["tau_hat"].iloc[0] == run["tau_hat"]
    assert rept_local_runs(spark, t, m, c, [seed]).tolist() == [stream_local(t, run)]


class TestExactness:
    """m = 1, c = 1 degenerates to exact counting."""

    def test_global(self, setup):
        t = setup
        r = rept_processor(t.stream, 1, 0, 7, track_local=True)
        assert r["tau"] == t.tau

    def test_local(self, setup):
        t = setup
        bf = brute_force(t.stream)
        r = rept_processor(t.stream, 1, 0, 7, track_local=True)
        assert r["tau_v"] == bf["tau_v"]

    def test_all_edges_stored(self, setup):
        t = setup
        r = rept_processor(t.stream, 1, 0, 7)
        assert r["n_sampled"] == t.stream.n_edges


class TestSamplingModel:
    def test_partition_disjoint(self, setup):
        # every edge is stored by exactly one of the m buckets
        t = setup
        m, seed = 4, 31
        counts = [rept_processor(t.stream, m, i, seed)["n_sampled"] for i in range(m)]
        assert sum(counts) == t.stream.n_edges

    def test_sample_fraction(self, setup):
        t = setup
        m, seed = 5, 17
        r = rept_processor(t.stream, m, 0, seed)
        frac = r["n_sampled"] / t.stream.n_edges
        assert abs(frac - 1 / m) < 4 * np.sqrt((1 / m) * (1 - 1 / m) / t.stream.n_edges)


class TestStatistics:
    """Unbiasedness and the paper's variance formulas (fixed seeds)."""

    R = 600

    def _runs(self, spark, t, m, c):
        seeds = [9000 + i for i in range(self.R)]
        return rept_global_runs(spark, t, m, c, seeds)["tau_hat"].to_numpy()

    @pytest.mark.parametrize("m,c", [(4, 2), (4, 4), (3, 7)])
    def test_unbiased(self, setup, spark, m, c):
        t = setup
        est = self._runs(spark, t, m, c)
        se = est.std() / np.sqrt(self.R)
        assert abs(est.mean() - t.tau) < 5 * se + 0.02 * t.tau

    @pytest.mark.parametrize("m,c", [(4, 2), (5, 3)])
    def test_variance_formula_c_le_m(self, setup, spark, m, c):
        from repro.core.estimators import var_rept

        t = setup
        est = self._runs(spark, t, m, c)
        want = var_rept(t.tau, t.eta, m, c)
        assert 0.55 < est.var() / want < 1.7

    def test_variance_collapses_at_c_eq_m(self, setup, spark):
        t = setup
        m = 5
        est = self._runs(spark, t, m, m)
        want = t.tau * (m - 1)
        assert 0.55 < est.var() / want < 1.7

    @pytest.mark.parametrize("m,c", [(10, 4), (10, 10)])
    def test_variance_within_4se_at_10k_seeds(self, tables_for, spark, m, c):
        """Var(τ̂) of Algorithm 1 over 10⁴ seeds lies within 4 standard
        errors of ``var_rept``, the SE taken from the sample kurtosis: a
        two-sided bound at 99.994 % confidence for a normal s², about
        ±6 % at the measured SE of 1.4 %. On the Twitter analog the η term
        is 48 % of the variance at c = 4, and 0 at c = m."""
        from repro.core.estimators import var_rept

        t = tables_for("Twitter")
        seeds = [30_000 + i for i in range(10_000)]
        est = rept_global_runs(spark, t, m, c, seeds)["tau_hat"].to_numpy()
        assert abs(est.var(ddof=1) - var_rept(t.tau, t.eta, m, c)) < 4 * variance_se(est)

    def test_groups_variance_within_4se_at_10k_seeds(self, tables_for, spark):
        """Var(τ̂) of REPT at c = 2m, two full groups and no leftover,
        over 10⁴ seeds lies within 4 standard errors of
        ``var_rept_groups`` = τ(m − 1)/c1, the SE taken from the sample
        kurtosis (99.994 % two-sided for a normal s²)."""
        from repro.core.estimators import var_rept_groups

        t = tables_for("Twitter")
        m, c = 10, 20
        seeds = [40_000 + i for i in range(10_000)]
        est = rept_global_runs(spark, t, m, c, seeds)["tau_hat"].to_numpy()
        assert abs(est.var(ddof=1) - var_rept_groups(t.tau, m, c // m)) < 4 * variance_se(est)

    @pytest.mark.parametrize("name,scale", [("Twitter", 0.15), ("Flickr", 0.25)])
    @pytest.mark.parametrize("c", [4, 10])
    def test_local_variance_within_5se_at_10k_seeds(self, tables_for, spark, name, scale, c):
        """Var(τ̂_v) of Algorithm 1 over 10⁴ seeds lies within 5 standard
        errors of (τ_v(m²−c) + 2η_v(m−c))/c at every node in a triangle,
        each SE taken from that node's sample kurtosis. η_v = Σ_{g∋v}
        C(n_g, 2) counts the correlated pairs of triangles through v: a
        correlated pair shares a non-last edge g, and both of its
        triangles hold v only when g does. 5 SE is 99.99994 % two-sided
        per node for a normal s², so about 0.06 % family-wise over the
        1,010 node checks of the four cases. At
        c = 4 the η_v term is 33–39 % of the summed variance."""
        from repro.graphs.exact import local_counts

        t = tables_for(name, scale)
        m = 10
        t1, t2 = t.index.pos[:2]
        n_e = t.stream.n_edges
        n_g = np.bincount(t1, minlength=n_e) + np.bincount(t2, minlength=n_e)
        eta_v = np.bincount(t.index.ends.ravel(), np.tile(n_g * (n_g - 1) // 2, 2),
                            len(t.index.nodes))
        assert eta_v.sum() == 2 * t.eta
        tau_v = local_counts(t.index)
        want = (tau_v * (m * m - c) + 2.0 * eta_v * (m - c)) / c
        est = rept_local_runs(spark, t, m, c, [50_000 + i for i in range(10_000)])
        z = [(est[:, v].var(ddof=1) - want[v]) / variance_se(est[:, v])
             for v in np.flatnonzero(tau_v)]
        assert np.abs(z).max() < 5

    @pytest.mark.parametrize("name", ["Twitter", "LiveJournal"])
    def test_eta_hat_bias_is_zeta_over_m(self, tables_for, spark, name):
        """Algorithm 2's τ_(u,v) ← |N_uv| at insertion (DESIGN.md §1) also
        counts a pair of triangles whose shared edge g is last in one of
        them, so E[η̂] = η + ζ/m with ζ = Σ_g n_g·l_g (n_g: triangles in
        which g is not last, l_g: those in which it is). At 2,000 seeds the
        mean lies within 4 standard errors of η + ζ/m, and ζ/m is more than
        8 of them, so the bound also tells the two apart."""
        t = tables_for(name)
        m, c, runs = 10, 25, 2000
        t1, t2, t3 = t.index.pos
        n_e = t.stream.n_edges
        n_g = np.bincount(t1, minlength=n_e) + np.bincount(t2, minlength=n_e)
        bias = (n_g * np.bincount(t3, minlength=n_e)).sum() / m
        seeds = [20_000 + i for i in range(runs)]
        eta_hat = rept_global_runs(spark, t, m, c, seeds)["eta_hat"].to_numpy()
        se = eta_hat.std(ddof=1) / np.sqrt(runs)
        assert abs(eta_hat.mean() - (t.eta + bias)) < 4 * se
        assert bias > 8 * se

    def test_tiny_graph_unbiased_alg2(self, spark):
        from repro.graphs.exact import build_tables

        s = tiny_stream(30, 120, seed=3)
        t = build_tables(spark, s)
        est = rept_global_runs(spark, t, 3, 8, [500 + i for i in range(400)])
        mean = est["tau_hat"].mean()
        assert abs(mean - t.tau) < 0.15 * t.tau + 3
