"""Registry of synthetic analogs of the paper's Table II graphs.

Each entry maps a paper dataset name to a generator config, scaled down
~10³–10⁴× (see DESIGN.md §6 for the substitution rationale). ``scale``
multiplies node/edge counts so tests can run tiny instances of the same
shapes the reproduced results use.

``load_stream`` returns the numpy arrays every engine consumes (cached
as ``.npz`` under ``.data/``), ``check_stream`` their invariants, and
``edge_stream_df`` a Spark DataFrame ``(t, a, b, k)`` of them. The
paper's true statistics are kept alongside for EXPERIMENTS.md.
"""
from __future__ import annotations

import contextlib
import hashlib
import os
import zipfile
import zlib
from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core.hashing import check_scale, edge_key
from repro.graphs import generators as gen

#: nodes / edges / triangles of the real graphs (paper Table II).
PAPER_TABLE2 = {
    "Twitter": (41_652_231, 1_202_513_046, 34_824_916_864),
    "Orkut": (3_072_441, 117_185_803, 627_584_181),
    "LiveJournal": (5_189_809, 48_688_097, 177_820_130),
    "Pokec": (1_632_803, 22_301_964, 32_557_458),
    "Flickr": (105_938, 2_316_948, 107_987_357),
    "Wiki-Talk": (2_394_385, 4_659_565, 9_203_519),
    "Web-Google": (875_713, 4_322_051, 13_391_903),
    "YouTube": (1_138_499, 2_990_443, 3_056_386),
}

#: generator configs at scale=1.0, the scale of the committed results.
#: Tuned so the measured η/τ spans ~0.7–80 (the paper's real graphs span
#: ≈11–3900; the compression at laptop scale is documented in
#: EXPERIMENTS.md — reaching η/τ ~10³ would force τ into the tens of
#: millions).
CONFIGS: dict[str, dict] = {
    # two large overlaid communities — the biggest η/τ (~78), like Twitter
    "Twitter": dict(kind="cliques", n_cliques=2, k=100, noise_nodes=2500, noise_edges=14000),
    "Orkut": dict(kind="hk", n=3500, m=20, p_triad=0.5),
    "LiveJournal": dict(kind="hk", n=6000, m=8, p_triad=0.45),
    "Pokec": dict(kind="hk", n=5000, m=8, p_triad=0.12),
    # few nodes, huge triangle count (clique overlays), η/τ ~ 42
    "Flickr": dict(kind="cliques", n_cliques=12, k=55, noise_nodes=600, noise_edges=5000),
    # hub-heavy, low clustering but high hub-edge overlap, η/τ ~ 40
    "Wiki-Talk": dict(kind="hub", n=4000, n_edges=30000, alpha=1.3),
    "Web-Google": dict(kind="hk", n=4500, m=5, p_triad=0.55),
    "YouTube": dict(kind="hk", n=6000, m=3, p_triad=0.35),
}

DATASETS = list(CONFIGS)

_CACHE_DIR = os.environ.get(
    "REPRO_DATA_DIR", os.path.join(os.path.dirname(__file__), "..", "..", "..", ".data")
)


@dataclass(frozen=True)
class Stream:
    """An edge stream in arrival order; :func:`check_stream` states its invariants."""

    name: str
    u: np.ndarray
    v: np.ndarray
    k: np.ndarray

    @property
    def t(self) -> np.ndarray:
        """Arrival positions ``0 … |E|−1``: an edge's index is its position."""
        return np.arange(self.n_edges)

    @property
    def n_edges(self) -> int:
        return len(self.u)

    @property
    def n_nodes(self) -> int:
        return len(np.unique(np.concatenate([self.u, self.v])))


def check_stream(stream: Stream) -> None:
    """Raise ``ValueError`` unless ``u``, ``v``, ``k`` have one length,
    0 ≤ u < v < 2^32, ``k == edge_key(u, v)`` as ``uint64`` and no key
    repeats: every count assumes it (DESIGN.md §2)."""
    u, v, k = stream.u, stream.v, stream.k
    if not len(u) == len(v) == len(k):
        raise ValueError(f"{stream.name}: u, v and k differ in length")
    if not np.all((0 <= u) & (u < v) & (v < 2**32)):
        raise ValueError(f"{stream.name}: edges must have 0 <= u < v < 2^32")
    if k.dtype != np.uint64 or not np.array_equal(k, edge_key(u, v)):
        raise ValueError(f"{stream.name}: keys k must be edge_key(u, v) as uint64")
    if len(np.unique(k)) != len(k):
        raise ValueError(f"{stream.name}: an edge arrives more than once")


def _generate(name: str, scale: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    cfg = dict(CONFIGS[name])
    kind = cfg.pop("kind")
    if kind == "hk":
        n = max(cfg["m"] + 2, int(cfg["n"] * scale))
        return gen.holme_kim(n, cfg["m"], cfg["p_triad"], seed=seed)
    if kind == "cliques":
        # k scales too, else tiny test instances would keep full cliques.
        return gen.planted_cliques(
            max(2, int(cfg["n_cliques"] * scale)),
            max(6, int(cfg["k"] * scale)),
            int(cfg["noise_nodes"] * scale),
            int(cfg["noise_edges"] * scale),
            seed=seed,
        )
    if kind == "hub":
        return gen.hub_graph(
            max(64, int(cfg["n"] * scale)), max(32, int(cfg["n_edges"] * scale)),
            cfg["alpha"], seed=seed,
        )
    raise ValueError(f"unknown generator kind {kind!r}")


def _read_cache(name: str, path: str) -> Stream | None:
    """The cached stream, or None when the file is missing, unreadable or
    fails :func:`check_stream` (then it is regenerated)."""
    try:
        with np.load(path) as z:
            stream = Stream(name, *(z[key] for key in ("u", "v", "k")))
        check_stream(stream)
    except (OSError, KeyError, ValueError, EOFError, zipfile.BadZipFile, zlib.error):
        return None
    return stream


def _write_cache(path: str, stream: Stream) -> None:
    """Write atomically, so a reader never sees a partial file."""
    os.makedirs(_CACHE_DIR, exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            np.savez_compressed(f, u=stream.u, v=stream.v, k=stream.k)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def load_stream(name: str, scale: float = 1.0, seed: int = 7, cache: bool = True) -> Stream:
    """Generate (or load from cache) the named dataset's edge stream.

    The cache key includes a digest of the generator config so edits to
    :data:`CONFIGS` never serve stale graphs; a cache file that fails
    validation is regenerated and rewritten. Raises ``ValueError`` for a
    ``scale`` :func:`~repro.core.hashing.check_scale` refuses.
    """
    check_scale(scale)
    digest = hashlib.md5(repr(sorted(CONFIGS[name].items())).encode()).hexdigest()[:8]
    path = os.path.join(_CACHE_DIR, f"{name}_s{scale}_r{seed}_{digest}.npz")
    cached = _read_cache(name, path) if cache else None
    if cached is not None:
        return cached
    u, v = gen.to_stream(*_generate(name, scale, seed), seed=seed + 1)
    stream = Stream(name, u, v, edge_key(u, v))
    if cache:
        _write_cache(path, stream)
    return stream


def stream_pdf(stream: Stream) -> pd.DataFrame:
    """Pandas frame ``(t, a, b, k)`` of a stream (k as int64 bit-pattern,
    Spark has no unsigned type)."""
    return pd.DataFrame(
        {
            "t": stream.t,
            "a": stream.u,
            "b": stream.v,
            "k": stream.k.view(np.int64),
        }
    )


def edge_stream_df(spark: SparkSession, stream: Stream) -> DataFrame:
    """Spark DataFrame view of a stream: ``(t, a, b, k)``, a < b."""
    return spark.createDataFrame(stream_pdf(stream))
