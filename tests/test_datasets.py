"""Tests for the Table II analog dataset registry and stream caching."""
import numpy as np
import pytest

from repro.core.hashing import edge_key
from repro.graphs.datasets import (
    CONFIGS,
    DATASETS,
    PAPER_TABLE2,
    load_stream,
    stream_pdf,
)
from tests.helpers import BAD_STREAMS


@pytest.mark.parametrize("name", DATASETS)
class TestRegistry:
    def test_loads(self, name):
        s = load_stream(name, scale=0.1, seed=7, cache=False)
        assert s.n_edges > 20
        assert s.n_nodes > 5

    def test_canonical_and_unique(self, name):
        s = load_stream(name, scale=0.1, seed=7, cache=False)
        assert (s.u < s.v).all()
        assert len(set(zip(s.u.tolist(), s.v.tolist()))) == s.n_edges

    def test_keys_match_endpoints(self, name):
        s = load_stream(name, scale=0.1, seed=7, cache=False)
        assert (s.k == edge_key(s.u, s.v)).all()

    def test_arrival_positions(self, name):
        s = load_stream(name, scale=0.1, seed=7, cache=False)
        assert (s.t == np.arange(s.n_edges)).all()

    def test_paper_stats_present(self, name):
        nodes, edges, triangles = PAPER_TABLE2[name]
        assert nodes > 0 and edges > nodes / 2 and triangles > 0

    def test_deterministic(self, name):
        s1 = load_stream(name, scale=0.1, seed=7, cache=False)
        s2 = load_stream(name, scale=0.1, seed=7, cache=False)
        assert (s1.u == s2.u).all() and (s1.v == s2.v).all()


def test_registry_covers_paper_table():
    assert set(CONFIGS) == set(PAPER_TABLE2)


def test_cache_roundtrip(tmp_path, monkeypatch):
    import repro.graphs.datasets as ds

    monkeypatch.setattr(ds, "_CACHE_DIR", str(tmp_path))
    s1 = ds.load_stream("YouTube", scale=0.05, seed=3, cache=True)
    assert any(f.suffix == ".npz" for f in tmp_path.iterdir())
    s2 = ds.load_stream("YouTube", scale=0.05, seed=3, cache=True)
    assert (s1.u == s2.u).all() and (s1.k == s2.k).all()


@pytest.mark.parametrize("damage", ["truncated", "wrong_keys", "swapped_endpoints", *BAD_STREAMS])
def test_bad_cache_is_regenerated(tmp_path, monkeypatch, damage):
    import repro.graphs.datasets as ds

    monkeypatch.setattr(ds, "_CACHE_DIR", str(tmp_path))
    s1 = ds.load_stream("YouTube", scale=0.05, seed=3, cache=True)
    (path,) = tmp_path.glob("*.npz")
    good = path.read_bytes()
    if damage == "truncated":
        path.write_bytes(good[:-3])
    elif damage == "wrong_keys":
        np.savez_compressed(path, u=s1.u, v=s1.v, k=s1.k[::-1])
    elif damage == "swapped_endpoints":
        # Same keys (edge_key is symmetric), but u > v: not canonical.
        np.savez_compressed(path, u=s1.v, v=s1.u, k=s1.k)
    else:
        bad = BAD_STREAMS[damage](s1)
        np.savez_compressed(path, u=bad.u, v=bad.v, k=bad.k)
    s2 = ds.load_stream("YouTube", scale=0.05, seed=3, cache=True)
    for field in ("t", "u", "v", "k"):
        assert (getattr(s1, field) == getattr(s2, field)).all()
    assert path.read_bytes() == good
    assert [f.name for f in tmp_path.iterdir()] == [path.name]


def test_stream_pdf_columns():
    s = load_stream("YouTube", scale=0.05, seed=3, cache=False)
    pdf = stream_pdf(s)
    assert list(pdf.columns) == ["t", "a", "b", "k"]
    assert (pdf["k"].to_numpy().view(np.uint64) == s.k).all()


def test_scale_changes_size():
    small = load_stream("LiveJournal", scale=0.05, seed=7, cache=False)
    big = load_stream("LiveJournal", scale=0.2, seed=7, cache=False)
    assert big.n_edges > small.n_edges * 2
