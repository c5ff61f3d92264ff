"""Unit tests for the synthetic graph-stream generators."""
import numpy as np
import pytest

from repro.graphs import generators as gen

GENERATORS = {
    "er": lambda seed: gen.erdos_renyi(300, 900, seed=seed),
    "hub": lambda seed: gen.hub_graph(400, 1500, 1.4, seed=seed),
    "hk": lambda seed: gen.holme_kim(300, 5, 0.4, seed=seed),
    "cliques": lambda seed: gen.planted_cliques(3, 12, 100, 300, seed=seed),
}


@pytest.mark.parametrize("name", list(GENERATORS))
class TestInvariants:
    def test_canonical(self, name):
        u, v = GENERATORS[name](seed=1)
        assert (u < v).all()

    def test_no_duplicates(self, name):
        u, v = GENERATORS[name](seed=2)
        assert len(set(zip(u.tolist(), v.tolist()))) == len(u)

    def test_no_self_loops(self, name):
        u, v = GENERATORS[name](seed=3)
        assert (u != v).all()

    def test_deterministic(self, name):
        u1, v1 = GENERATORS[name](seed=5)
        u2, v2 = GENERATORS[name](seed=5)
        assert (u1 == u2).all() and (v1 == v2).all()

    def test_seed_changes_graph(self, name):
        u1, v1 = GENERATORS[name](seed=6)
        u2, v2 = GENERATORS[name](seed=7)
        assert len(u1) != len(u2) or not ((u1 == u2).all() and (v1 == v2).all())

    def test_nonempty(self, name):
        u, v = GENERATORS[name](seed=8)
        assert len(u) > 50


class TestErdosRenyi:
    def test_edge_count(self):
        u, v = gen.erdos_renyi(500, 2000, seed=1)
        assert len(u) == 2000

    def test_node_range(self):
        u, v = gen.erdos_renyi(100, 300, seed=2)
        assert u.max() < 100 and v.max() < 100


class TestHolmeKim:
    def test_edge_count_formula(self):
        # seed clique C(m+1,2) + m edges per subsequent node (pre-dedup;
        # construction never duplicates, so exact).
        n, m = 200, 4
        u, v = gen.holme_kim(n, m, 0.3, seed=1)
        assert len(u) == m * (m + 1) // 2 + (n - m - 1) * m

    def test_triadic_closure_raises_triangles(self):
        def tri_count(p_triad):
            u, v = gen.holme_kim(400, 4, p_triad, seed=3)
            adj = {}
            for a, b in zip(u.tolist(), v.tolist()):
                adj.setdefault(a, set()).add(b)
                adj.setdefault(b, set()).add(a)
            return sum(
                1
                for a, b in zip(u.tolist(), v.tolist())
                for w in adj[a] & adj[b]
                if w > b
            )

        assert tri_count(0.8) > tri_count(0.05) * 1.5

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            gen.holme_kim(3, 5, 0.1)


class TestPlantedCliques:
    def test_contains_cliques(self):
        k = 10
        u, v = gen.planted_cliques(2, k, 0, 0, seed=1)
        pairs = set(zip(u.tolist(), v.tolist()))
        for a in range(k):
            for b in range(a + 1, k):
                assert (a, b) in pairs

    def test_overlap_shares_nodes(self):
        u, v = gen.planted_cliques(3, 8, 0, 0, seed=1, overlap=2)
        # consecutive cliques share `overlap` nodes → fewer distinct nodes
        n_nodes = len(np.unique(np.concatenate([u, v])))
        assert n_nodes == 3 * (8 - 2) + 2


class TestHubGraph:
    def test_hub_dominates(self):
        u, v = gen.hub_graph(1000, 5000, 1.5, seed=4)
        deg = np.bincount(np.concatenate([u, v]))
        assert deg[:10].sum() > deg.sum() * 0.2  # top-10 nodes carry >20%


class TestToStream:
    def test_is_permutation(self):
        u, v = gen.erdos_renyi(100, 400, seed=1)
        su, sv = gen.to_stream(u, v, seed=2)
        assert set(zip(su.tolist(), sv.tolist())) == set(zip(u.tolist(), v.tolist()))

    def test_seed_changes_order(self):
        u, v = gen.erdos_renyi(100, 400, seed=1)
        a1, b1 = gen.to_stream(u, v, seed=2)
        a2, b2 = gen.to_stream(u, v, seed=3)
        assert not ((a1 == a2).all() and (b1 == b2).all())
