"""Shared plumbing for the experiment harnesses: parameter checks,
dataset/table caching, seed derivation, one fan-out per figure cell,
and result CSV output."""
from __future__ import annotations

import contextlib
import os

import pandas as pd
from pyspark.sql import SparkSession

from repro.core.hashing import check_scale, check_seed, is_int, mix_seeds, rept_groups
from repro.graphs.datasets import DATASETS, Stream, load_stream
from repro.graphs.exact import TriangleTables, build_tables
from repro.stream.engine import global_estimates, run_stream_trials

_TABLES_CACHE: dict[tuple, TriangleTables] = {}

RESULTS_DIR = os.environ.get(
    "REPRO_RESULTS_DIR",
    os.path.join(os.path.dirname(__file__), "..", "..", "..", "results"),
)

#: the analogs of the committed results, spanning the η/τ range; a
#: harness takes any of ``DATASETS``.
DEFAULT_DATASETS = ("Twitter", "LiveJournal", "Flickr", "YouTube")


def check_graphs(seed, scale, datasets: list[str] | tuple[str, ...]) -> None:
    """Raise ``ValueError``, before any graph loads, unless ``seed``
    passes :func:`check_seed`, ``scale`` :func:`check_scale`, and
    ``datasets`` is a non-empty list of names in ``DATASETS``."""
    check_seed(seed)
    check_scale(scale)
    if len(datasets) == 0 or any(name not in DATASETS for name in datasets):
        raise ValueError(f"need datasets among {DATASETS}, got {datasets!r}")


def check_harness(
    p_invs, c_list, seed, scale: float, datasets: list[str] | tuple[str, ...],
    methods=None, harness_methods=(), **runs: int,
) -> None:
    """Raise ``ValueError``, before a harness does any work, for the
    parameters one of its later steps would refuse or misread: seed,
    scale and datasets through :func:`check_graphs`, every (p_inv, c)
    through :func:`rept_groups`, the run counts ``runs`` as integers
    ≥ 1 and, when given, ``methods`` as a non-empty choice among
    ``harness_methods``, the methods the harness runs (so no method is
    skipped silently)."""
    check_graphs(seed, scale, datasets)
    if len(p_invs) == 0 or len(c_list) == 0:
        raise ValueError(f"need at least one p_inv and one c, got {p_invs!r} and {c_list!r}")
    for p_inv in p_invs:
        for c in c_list:
            rept_groups(p_inv, c, seed)
    for name, r in runs.items():
        if not (is_int(r) and r >= 1):
            raise ValueError(f"need {name} >= 1 as an integer, got {r!r}")
    if methods is not None and (len(methods) == 0
                                or any(x not in harness_methods for x in methods)):
        raise ValueError(f"need one or more methods among {harness_methods}, got {methods!r}")


def get_tables(
    spark: SparkSession, name: str, scale: float = 1.0, seed: int = 7
) -> TriangleTables:
    """Memoized triangle tables (triangle index + exact τ, η)."""
    key = (name, scale, seed)
    if key not in _TABLES_CACHE:
        _TABLES_CACHE[key] = build_tables(spark, load_stream(name, scale, seed))
    return _TABLES_CACHE[key]


def dataset_seed(base: int, name: str, *extra: int) -> int:
    """Stable per-(dataset, context) seed derivation."""
    return mix_seeds(base, DATASETS.index(name) + 1, *extra)


def baseline_budgets(p: float, n_edges: int) -> tuple[int, int]:
    """Edge budgets of Trièst and GPS at the memory of sampling
    probability p: Trièst holds ``max(2, round(p·|E|))`` edges (at most
    |E|) and GPS half that, since its weights cost the other half."""
    triest = max(2, min(n_edges, round(p * n_edges)))
    return triest, max(2, triest // 2)


def trials_by_method(
    spark: SparkSession, stream: Stream, specs: list[dict]
) -> dict[str, pd.DataFrame]:
    """Run one figure cell's ``specs`` as one :func:`run_stream_trials`
    fan-out; returns each method's ``v = −1`` rows (``est``, ``eta``,
    ``n_sampled``, ``elapsed``) in spec order, keyed by method in order of
    first appearance. An empty ``specs`` starts no job."""
    if not specs:  # skips ~2 ms of pandas work on an empty frame
        return {}
    trials = global_estimates(run_stream_trials(spark, stream, specs))
    methods = [spec["method"] for spec in specs]
    return {meth: trials[[x == meth for x in methods]] for meth in dict.fromkeys(methods)}


def save_result(df: pd.DataFrame, name: str) -> str:
    """Write ``results/<name>.csv`` atomically: a failed write leaves the
    previous file intact."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.csv")
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        df.to_csv(tmp, index=False)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
    return path
