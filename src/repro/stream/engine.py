"""Parallel fan-out of sequential streaming trials as Spark tasks.

A paper "processor" (or an independent baseline trial) is one unit of
work: one sequential pass of the edge stream through the requested
per-processor algorithm. The stream is broadcast once; the trials are
dealt round-robin into one slice per core (``defaultParallelism``), and
each slice runs as one Spark task of a single shuffle-free stage, its
trials one after another. This is the distributed-dataflow realization
of the paper's parallel model: REPT's c processors genuinely run
concurrently on the cluster (here local[*]), as many at a time as there
are cores, without paying a task's scheduling cost per trial.

Trial specs are dicts ``{"method": …}`` that carry the keys
:data:`_METHODS` lists for their method, e.g. ``{"method": "mascot",
"p": 0.1, "seed": 7}``; a rept spec may add ``track_eta``.

Output rows: ``(trial, v, est, eta, n_sampled, elapsed)`` where
``v = −1`` carries the trial's global value (REPT: raw τ^(i)/η^(i);
baselines: the trial's final estimate) and ``v ≥ 0`` rows are the
sparse local values when ``track_local``.
"""
from __future__ import annotations

import sys
import zipimport
from typing import Iterable, Iterator

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.core.hashing import check_budget, check_mascot, check_rept, is_int
from repro.graphs.datasets import Stream, check_stream
from repro.stream.gps import gps_processor
from repro.stream.mascot import mascot_processor
from repro.stream.rept import rept_processor
from repro.stream.triest import triest_processor

_DTYPES = {"trial": "int64", "v": "int64", "est": "float64", "eta": "float64",
           "n_sampled": "int64", "elapsed": "float64"}
_COLUMNS = list(_DTYPES)

#: method → (processor, its parameter check, the spec keys both take in
#: order).
_METHODS = {
    "rept": (rept_processor, check_rept, ("m", "proc", "seed")),
    "mascot": (mascot_processor, check_mascot, ("p", "seed")),
    "triest": (triest_processor, check_budget, ("budget", "seed")),
    "gps": (gps_processor, check_budget, ("budget", "seed")),
}


def _check_spec(spec: dict) -> None:
    """Raise ``ValueError`` for a spec no processor could run."""
    method = spec.get("method")
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}")
    _, check, keys = _METHODS[method]
    missing = [key for key in keys if key not in spec]
    if missing:
        raise ValueError(f"{method} spec is missing {missing}")
    check(*(spec[key] for key in keys))


def _drop_zip_finders() -> None:
    """Remove the ``zipimporter`` finders from ``sys.path_importer_cache``.

    PySpark's worker calls ``importlib.invalidate_caches()`` before every
    task, and on CPython 3.11 that makes each cached ``zipimporter`` re-read
    its archive's whole central directory: one per package the worker
    imported from ``pyspark.zip``, most of a small task's cost (DESIGN.md
    §3, §6). The finders are a cache that an import from the zip
    re-creates, so this runs at the start of every task, not once per
    worker. Harmless on CPython ≥ 3.12, whose re-read is lazy."""
    cache = sys.path_importer_cache
    for path in [p for p, f in cache.items() if isinstance(f, zipimport.zipimporter)]:
        del cache[path]


def _run_one(stream: Stream, spec: dict, track_local: bool) -> tuple:
    """Run one trial; returns (est, eta, processor result, local est,
    local eta). REPT reports its raw τ^(i), η^(i); a baseline its τ̂."""
    run, _, keys = _METHODS[spec["method"]]
    args = [spec[key] for key in keys]
    if spec["method"] == "rept":
        r = run(stream, *args, track_eta=bool(spec.get("track_eta")), track_local=track_local)
        return float(r["tau"]), float(r["eta"]), r, r["tau_v"], r["eta_v"]
    r = run(stream, *args, track_local=track_local)
    return float(r["tau_hat"]), 0.0, r, r["tau_v_hat"], {}


def run_stream_trials(
    spark: SparkSession,
    stream: Stream,
    specs: list[dict],
    track_local: bool = False,
) -> pd.DataFrame:
    """Run every spec over the broadcast stream, one Spark task per core;
    returns the concatenated output rows (see module docstring) as
    pandas. Raises ``ValueError`` for a bad spec or stream before any job."""
    check_stream(stream)
    if not specs:
        return pd.DataFrame(columns=_COLUMNS).astype(_DTYPES)
    for spec in specs:
        _check_spec(spec)
    sc = spark.sparkContext
    # Round-robin: specs arrive grouped by method, so contiguous chunks
    # would give one core every trial of the slowest method.
    n = min(len(specs), sc.defaultParallelism)
    trials = list(enumerate(specs))
    slices = [trials[i::n] for i in range(n)]
    bc = sc.broadcast(stream)

    def _run_slices(part: Iterable[list[tuple[int, dict]]]) -> Iterator[tuple]:
        _drop_zip_finders()
        for chunk in part:
            for trial, spec in chunk:
                est, eta, r, loc, loc_eta = _run_one(bc.value, spec, track_local)
                yield (trial, -1, est, eta, r["n_sampled"], r["elapsed"])
                if track_local:
                    for v, est in loc.items():
                        yield (trial, int(v), float(est), float(loc_eta.get(v, 0.0)), 0, 0.0)

    try:
        rows = sc.parallelize(slices, n).mapPartitions(_run_slices).collect()
    finally:
        # destroy, not unpersist: unpersist keeps the driver's pickled
        # copy of the stream in ``sc._temp_dir`` until the session ends.
        bc.destroy()
    out = pd.DataFrame(rows, columns=_COLUMNS).astype(_DTYPES)
    return out.sort_values(["trial", "v"]).reset_index(drop=True)


def global_estimates(trials: pd.DataFrame) -> pd.DataFrame:
    """The ``v = −1`` rows of :func:`run_stream_trials` (one per trial)."""
    return trials[trials["v"] == -1].set_index("trial").sort_index()


def _check_c(c: int) -> None:
    if not (is_int(c) and c >= 1):
        raise ValueError(f"need c >= 1 as an integer, got c={c!r}")


def pooled_parallel_estimates(trial_estimates: np.ndarray, c: int) -> np.ndarray:
    """Average disjoint chunks of c i.i.d. trials into parallel-c
    estimates (the paper's 'parallelize by averaging' baseline)."""
    _check_c(c)
    n = (len(trial_estimates) // c) * c
    if n == 0:
        raise ValueError(f"need at least c={c} trials")
    return np.asarray(trial_estimates[:n], dtype=np.float64).reshape(-1, c).mean(axis=1)


def pooled_parallel_local(
    trials: pd.DataFrame, c: int, n_trials: int, nodes: np.ndarray
) -> np.ndarray:
    """Parallel-c local estimates from a pool's sparse per-trial rows
    ``(trial, v, est)``: run r is the mean of trials rc … rc + c − 1, a
    trial with no row at a node adding 0. Trials past ⌊n_trials/c⌋·c are
    ignored. Returns a float array of runs × ``nodes`` (sorted ids)."""
    _check_c(c)
    n_runs = n_trials // c
    if n_runs == 0:
        raise ValueError(f"need at least c={c} trials")
    loc = trials[(trials["v"] >= 0) & (trials["trial"] < n_runs * c)]
    cells = loc["trial"].to_numpy() // c * len(nodes) + np.searchsorted(nodes, loc["v"].to_numpy())
    sums = np.bincount(cells, weights=loc["est"].to_numpy(), minlength=n_runs * len(nodes))
    return sums.reshape(n_runs, len(nodes)) / c
