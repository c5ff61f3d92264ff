"""Figures 5 & 6 — NRMSE of local (per-node) triangle count estimates.

REPT vs parallel MASCOT and Trièst (the paper omits GPS here). The
metric is the mean over nodes with τ_v > 0 of per-node NRMSE across
runs, each method's runs being one runs × nodes array that holds 0
where a run sampled nothing — see :func:`repro.core.estimators.local_nrmse`.
"""
from __future__ import annotations

from functools import partial

import pandas as pd
from pyspark.sql import SparkSession

from repro.core.closed_form import mascot_local_trial_counts, rept_local_runs
from repro.core.estimators import local_nrmse
from repro.core.hashing import mix_seeds
from repro.experiments.common import (
    DEFAULT_DATASETS, baseline_budgets, check_harness, dataset_seed, get_tables, save_result,
)
from repro.graphs.exact import local_counts
from repro.stream.engine import pooled_parallel_local, run_stream_trials

DEFAULT_METHODS = ("rept", "mascot", "triest")


def run_local_nrmse(
    spark: SparkSession,
    p_inv: int,
    c_list: list[int],
    datasets: list[str] | tuple[str, ...] = DEFAULT_DATASETS,
    methods: tuple[str, ...] = DEFAULT_METHODS,
    r_rept: int = 40,
    r_pool: int = 6,
    scale: float = 1.0,
    seed: int = 7,
) -> pd.DataFrame:
    """One row per (dataset, method, c): mean local NRMSE."""
    check_harness([p_inv], c_list, seed, scale, datasets, methods, DEFAULT_METHODS,
                  r_rept=r_rept, r_pool=r_pool)
    m = p_inv
    p = 1.0 / m
    c_max = max(c_list)
    rows = []
    for name in datasets:
        t = get_tables(spark, name, scale, seed)
        tau_v = local_counts(t.index)
        base = dataset_seed(seed, name, p_inv, 99)
        budget, _ = baseline_budgets(p, t.stream.n_edges)

        # Each method's local estimates at c, as runs × t.index.nodes.
        local_runs = {}
        if "rept" in methods:
            local_runs["rept"] = lambda c: rept_local_runs(
                spark, t, m, c, [mix_seeds(base, 4, c, i) for i in range(r_rept)]
            )
        if "mascot" in methods:
            # MASCOT trials are cheap (closed form) — use a 2× pool.
            seeds = [mix_seeds(base, 1, i) for i in range(2 * r_pool * c_max)]
            trials = mascot_local_trial_counts(spark, t, p, seeds)
            trials["est"] = trials["cnt"] / (p * p)
            local_runs["mascot"] = partial(
                pooled_parallel_local, trials, n_trials=len(seeds), nodes=t.index.nodes
            )
        if "triest" in methods:
            specs = [
                {"method": "triest", "budget": budget, "seed": mix_seeds(base, 2, i)}
                for i in range(r_pool * c_max)
            ]
            local_runs["triest"] = partial(
                pooled_parallel_local,
                run_stream_trials(spark, t.stream, specs, track_local=True),
                n_trials=len(specs), nodes=t.index.nodes,
            )

        for c in c_list:
            # Keyed, not unpacked: a loop variable bound to the last
            # partial would keep its pool alive into the next dataset.
            for meth in local_runs:
                est = local_runs[meth](c)
                rows.append(
                    {"graph": name, "method": meth, "p": p, "c": c,
                     "nrmse": local_nrmse(est, tau_v), "n_estimates": len(est)}
                )
    out = pd.DataFrame(rows)
    save_result(out, f"local_nrmse_pinv{p_inv}")
    return out
