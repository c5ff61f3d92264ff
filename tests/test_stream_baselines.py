"""Tests for the MASCOT / Trièst-IMPR / GPS streaming baselines."""
import hashlib

import numpy as np
import pytest

from repro.core.closed_form import mascot_local_trial_counts, mascot_trial_estimates
from repro.stream.engine import pooled_parallel_estimates, pooled_parallel_local
from repro.stream.gps import gps_processor
from repro.stream.mascot import mascot_processor
from repro.graphs.datasets import load_stream
from repro.stream.triest import impr_weights, triest_processor
from tests.helpers import brute_force, variance_se


@pytest.fixture(scope="module")
def yt(tables_for):
    return tables_for("YouTube", 0.1)


class TestMascot:
    @pytest.mark.parametrize("p", [0.2, 0.5, 1.0])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_stream_matches_kernel(self, spark, yt, p, seed):
        stream = mascot_processor(yt.stream, p, seed)
        kernel = mascot_trial_estimates(spark, yt, p, [seed])[0]
        assert kernel == stream["cnt"] / (p * p)
        assert stream["tau_hat"] == pytest.approx(kernel)

    def test_p1_exact_global_and_local(self, yt):
        bf = brute_force(yt.stream)
        r = mascot_processor(yt.stream, 1.0, 5, track_local=True)
        assert r["tau_hat"] == yt.tau
        assert {v: int(x) for v, x in r["tau_v_hat"].items()} == bf["tau_v"]

    def test_sample_fraction(self, yt):
        p = 0.3
        r = mascot_processor(yt.stream, p, 9)
        frac = r["n_sampled"] / yt.stream.n_edges
        assert abs(frac - p) < 4 * np.sqrt(p * (1 - p) / yt.stream.n_edges)

    def test_unbiased(self, spark, yt):
        est = mascot_trial_estimates(spark, yt, 0.2, list(range(400)))
        se = est.std() / np.sqrt(len(est))
        assert abs(est.mean() - yt.tau) < 5 * se

    def test_variance_formula(self, spark, yt):
        from repro.core.estimators import var_parallel_mascot

        m = 5
        est = mascot_trial_estimates(spark, yt, 1 / m, [7000 + i for i in range(600)])
        want = var_parallel_mascot(yt.tau, yt.eta, m, 1)
        assert 0.55 < est.var() / want < 1.7

    def test_variance_within_4se_at_10240_trials(self, spark, tables_for):
        """Var of 10,240 MASCOT trials at p = 1/10 lies within 4 standard
        errors of ``var_parallel_mascot`` (c = 1), the SE taken from the
        sample kurtosis: a two-sided bound at 99.994 % confidence for a
        normal s²."""
        from repro.core.estimators import var_parallel_mascot

        t, m = tables_for("Twitter"), 10
        est = mascot_trial_estimates(spark, t, 1 / m, [40_000 + i for i in range(10_240)])
        want = var_parallel_mascot(t.tau, t.eta, m, 1)
        assert abs(est.var(ddof=1) - want) < 4 * variance_se(est)

    def test_chunk_parallel_global(self):
        pool = np.arange(10, dtype=float)
        out = pooled_parallel_estimates(pool, 3)
        assert out.tolist() == [1.0, 4.0, 7.0]
        with pytest.raises(ValueError):
            pooled_parallel_estimates(pool[:2], 3)

    def test_chunk_parallel_reduces_error(self, spark, yt):
        pool = mascot_trial_estimates(spark, yt, 0.2, [100 + i for i in range(240)])
        err1 = np.abs(pool - yt.tau).mean()
        err8 = np.abs(pooled_parallel_estimates(pool, 8) - yt.tau).mean()
        assert err8 < err1

    def test_local_counts_match_stream(self, spark, yt):
        p, seed = 0.4, 11
        sql = mascot_local_trial_counts(spark, yt, p, [seed])
        got = {int(v): c for v, c in zip(sql["v"], sql["cnt"])}
        stream = mascot_processor(yt.stream, p, seed, track_local=True)["tau_v_hat"]
        want = {v: round(x * p * p) for v, x in stream.items() if x > 0}
        assert got == want

    def test_chunk_parallel_local(self, spark, yt):
        p = 0.4
        tc = mascot_local_trial_counts(spark, yt, p, [1, 2])
        tc["est"] = tc["cnt"] / (p * p)
        est = pooled_parallel_local(tc, 2, 2, yt.index.nodes)
        assert est.shape == (1, len(yt.index.nodes))
        merged = tc.groupby("v")["cnt"].sum()
        want = np.zeros(len(yt.index.nodes))
        want[np.searchsorted(yt.index.nodes, merged.index)] = merged / (p * p * 2)
        assert est[0] == pytest.approx(want)


#: Pool sizes on both sides of the 64-trial word boundaries.
PACKED_POOLS = (1, 63, 64, 65, 130)


@pytest.fixture(scope="module", params=[0.2, 0.5, 1.0])
def per_seed(request, yt):
    """``p`` and the simulator's MASCOT trial for each seed of the largest pool."""
    p = request.param
    runs = [mascot_processor(yt.stream, p, s, track_local=True) for s in range(max(PACKED_POOLS))]
    return p, runs


class TestMascotPacked:
    """The closed-form pools pack 64 trials to a word; trial i of a pool
    must still equal the simulator's trial under seed i."""

    @pytest.mark.parametrize("n", PACKED_POOLS)
    def test_global_equals_simulator(self, spark, yt, per_seed, n):
        p, runs = per_seed
        got = mascot_trial_estimates(spark, yt, p, list(range(n)))
        assert got.dtype == np.float64
        assert got.tolist() == [r["cnt"] / (p * p) for r in runs[:n]]

    @pytest.mark.parametrize("n", PACKED_POOLS)
    def test_local_equals_simulator(self, spark, yt, per_seed, n):
        p, runs = per_seed
        got = mascot_local_trial_counts(spark, yt, p, list(range(n)))
        assert (got.dtypes == np.int64).all()
        want = [
            (trial, v, round(x * p * p))
            for trial, r in enumerate(runs[:n])
            for v, x in sorted(r["tau_v_hat"].items())
            if x > 0
        ]
        assert list(got.itertuples(index=False, name=None)) == want


class TestTriest:
    def test_big_budget_exact(self, yt):
        bf = brute_force(yt.stream)
        r = triest_processor(yt.stream, yt.stream.n_edges + 5, 3, track_local=True)
        assert r["tau_hat"] == yt.tau
        assert {v: int(x) for v, x in r["tau_v_hat"].items()} == bf["tau_v"]

    def test_budget_respected(self, yt):
        r = triest_processor(yt.stream, 100, 4)
        assert r["n_sampled"] == 100

    def test_deterministic_in_seed(self, yt):
        a = triest_processor(yt.stream, 150, 9)["tau_hat"]
        b = triest_processor(yt.stream, 150, 9)["tau_hat"]
        assert a == b

    def test_approximately_unbiased(self, yt):
        ests = [triest_processor(yt.stream, 250, s)["tau_hat"] for s in range(60)]
        mean = np.mean(ests)
        se = np.std(ests) / np.sqrt(len(ests))
        assert abs(mean - yt.tau) < 5 * se + 0.05 * yt.tau

    def test_weights_grow_late_in_stream(self, yt):
        # the IMPR weight at t >> M must exceed 1
        M = 100
        t = yt.stream.n_edges
        assert (t - 1) * (t - 2) / (M * (M - 1)) > 1

    def test_rejects_tiny_budget(self, yt):
        with pytest.raises(ValueError):
            triest_processor(yt.stream, 1, 0)

    @pytest.mark.parametrize("name,scale", [("Flickr", 0.25), ("Twitter", 0.15)])
    @pytest.mark.parametrize("share", [0.1, 0.3])
    def test_unbiased_at_partial_budget(self, tables_for, name, scale, share):
        """The mean of 3,000 trials at a budget of 10 % or 30 % of |E| lies
        within 4 standard errors of τ: 99.994 % two-sided per
        configuration, and 99.97 % for all four together (Bonferroni)."""
        t = tables_for(name, scale)
        budget = int(share * t.stream.n_edges)
        est = np.array([triest_processor(t.stream, budget, 50_000 + i)["tau_hat"]
                        for i in range(3000)])
        assert abs(est.mean() - t.tau) < 4 * est.std(ddof=1) / np.sqrt(len(est))


#: The largest t with (t − 1)(t − 2) < 2^53, below which float64 holds
#: the product exactly.
T_EXACT = 94_906_267


@pytest.mark.parametrize("budget", [2, 150, 894, 12_345, 2**26])
def test_impr_weights_equal_python_ints(budget):
    """The vectorised IMPR weight is the float Python's int arithmetic
    gives, at every position of the pinned stream (|E| = 894) and at
    positions drawn just below the float64 exactness limit."""
    assert (T_EXACT - 1) * (T_EXACT - 2) < 2**53 <= T_EXACT * (T_EXACT - 1)
    s = load_stream("YouTube", 0.05, 7, cache=False)
    high = np.random.default_rng(budget).integers(T_EXACT - 10**6, T_EXACT, 1000)
    t = np.concatenate([np.arange(1, s.n_edges + 1), high, [T_EXACT]])
    want = [max(1.0, (x - 1) * (x - 2) / (budget * (budget - 1))) for x in t.tolist()]
    assert impr_weights(t, budget).tolist() == want


class TestGPS:
    def test_big_budget_exact(self, yt):
        r = gps_processor(yt.stream, yt.stream.n_edges + 5, 3)
        assert r["tau_hat"] == yt.tau

    def test_budget_respected(self, yt):
        r = gps_processor(yt.stream, 120, 4)
        assert r["n_sampled"] == 120

    def test_deterministic_in_seed(self, yt):
        a = gps_processor(yt.stream, 150, 9)["tau_hat"]
        b = gps_processor(yt.stream, 150, 9)["tau_hat"]
        assert a == b

    def test_approximately_unbiased(self, yt):
        ests = [gps_processor(yt.stream, 250, s)["tau_hat"] for s in range(60)]
        mean = np.mean(ests)
        assert abs(mean - yt.tau) < 0.25 * yt.tau

    def test_local_sums_to_3x_global(self, yt):
        r = gps_processor(yt.stream, 200, 5, track_local=True)
        assert sum(r["tau_v_hat"].values()) == pytest.approx(3 * r["tau_hat"])

    def test_rejects_tiny_budget(self, yt):
        with pytest.raises(ValueError):
            gps_processor(yt.stream, 1, 0)

    def test_higher_variance_than_triest_at_half_budget(self, yt):
        # the paper's memory accounting: GPS gets budget/2 and is worst
        g = np.array([gps_processor(yt.stream, 125, s)["tau_hat"] for s in range(40)])
        t = np.array([triest_processor(yt.stream, 250, s)["tau_hat"] for s in range(40)])
        g_mse = ((g - yt.tau) ** 2).mean()
        t_mse = ((t - yt.tau) ** 2).mean()
        assert g_mse > t_mse


#: Exact outputs on the YouTube analog at scale 0.05 (graph seed 7) with
#: local counts on. Trièst and GPS have no second oracle to compare with,
#: so these values pin their arithmetic.
PINNED = {
    "triest": (
        lambda s: triest_processor(s, 150, 3, track_local=True),
        242.82854586129753, 150,
        {
            0: 15.319463087248323, 2: 26.11373601789709, 3: 4.510335570469799,
            6: 25.741476510067113, 7: 11.569217002237137, 8: 9.728322147651006,
            10: 11.569217002237137, 11: 8.975391498881432, 13: 8.840268456375838,
            15: 25.403221476510065, 16: 25.403221476510065, 25: 5.591140939597316,
            27: 76.25279642058166, 34: 48.996420581655485, 36: 25.741476510067113,
            40: 13.559284116331096, 47: 7.176733780760626, 50: 8.840268456375838,
            56: 14.3082774049217, 64: 5.78255033557047, 75: 61.94451901565996,
            78: 20.522595078299776, 88: 6.96331096196868, 94: 7.841163310961969,
            101: 1.7986577181208054, 115: 54.51275167785235, 132: 8.840268456375838,
            164: 14.106577181208054, 185: 14.106577181208054, 187: 2.058612975391499,
            189: 54.51275167785235, 203: 11.569217002237137, 204: 5.217986577181208,
            205: 1.0, 212: 25.403221476510065, 217: 1.0, 218: 1.0, 244: 7.176733780760626,
            265: 1.7986577181208054, 289: 7.841163310961969, 290: 14.106577181208054,
            297: 25.741476510067113,
        },
    ),
    "gps": (
        lambda s: gps_processor(s, 75, 3, track_local=True),
        419.52080175086024, 75,
        {
            2: 15.896774433336676, 4: 66.8734929767141, 7: 132.6044039761785,
            8: 99.07109137064748, 10: 40.21753240778298, 22: 92.38687156839553,
            27: 24.815212073199366, 38: 5.422191657696071, 39: 106.55630691323186,
            53: 5.422191657696071, 56: 24.815212073199366, 64: 33.53331260553104,
            83: 173.90872663373548, 97: 66.8734929767141, 118: 5.422191657696071,
            128: 67.35241972050362, 129: 173.90872663373548, 142: 66.8734929767141,
            148: 15.896774433336676, 232: 24.815212073199366, 264: 15.896774433336676,
        },
    ),
}




def _digest(tau_v_hat: dict) -> str:
    """The first 16 hex digits of the SHA-256 of the items' repr: the
    float bits and the key order."""
    return hashlib.sha256(repr(list(tau_v_hat.items())).encode()).hexdigest()[:16]


#: The loops' boundaries on the same stream (|E| = 894): a 2-edge sample
#: (under the first seed whose sample closes a triangle), the last edge
#: arriving at a full sample, a sample that fills at the last edge, and
#: one that the stream never fills. Above 2 edges both methods count every
#: triangle once, and the local dict is pinned by its digest.
EXACT_LOCAL = "72bde7581afb54ad"
PINNED.update({
    "triest-M=2": (
        lambda s: triest_processor(s, 2, 5, track_local=True),
        181503.0, 2, {0: 181503.0, 17: 181503.0, 2: 181503.0},
    ),
    "gps-M=2": (
        lambda s: gps_processor(s, 2, 58, track_local=True),
        267317.67466866056, 2,
        {119: 267317.67466866056, 173: 267317.67466866056, 47: 267317.67466866056},
    ),
})
PINNED.update({
    f"{name}-M={label}": (
        lambda s, proc=proc, extra=extra: proc(s, s.n_edges + extra, 3, track_local=True),
        326.0, 894 + min(extra, 0), EXACT_LOCAL,
    )
    for name, proc in (("triest", triest_processor), ("gps", gps_processor))
    for label, extra in (("|E|-1", -1), ("|E|", 0), ("|E|+5", 5))
})


def test_triest_partial_budget_local_order():
    """``PINNED["triest"]`` compares the local dict with ``==``, which
    ignores key order; its digest pins the order as well."""
    r = triest_processor(load_stream("YouTube", 0.05, 7, cache=False), 150, 3, track_local=True)
    assert _digest(r["tau_v_hat"]) == "75f4919f1cd21044"


@pytest.mark.parametrize("method", sorted(PINNED))
def test_pinned_output(method):
    run, tau_hat, n_sampled, tau_v_hat = PINNED[method]
    r = run(load_stream("YouTube", 0.05, 7, cache=False))
    assert (r["tau_hat"], r["n_sampled"]) == (tau_hat, n_sampled)
    if isinstance(tau_v_hat, str):
        assert _digest(r["tau_v_hat"]) == tau_v_hat
    else:
        assert r["tau_v_hat"] == tau_v_hat
