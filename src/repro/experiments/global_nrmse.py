"""Figures 3 & 4 — NRMSE of global triangle count estimates.

REPT vs parallel MASCOT / Trièst / GPS, at fixed p = 1/m, sweeping the
processor count c. REPT runs through the closed-form evaluator (many
hash seeds at once); MASCOT through its closed-form trial pool; Trièst
and GPS have no batch shortcut and run as pooled sequential trials on
the streaming engine, both pools in one fan-out per dataset (budget
p|E|, and p|E|/2 for GPS per the paper's memory accounting). Pools are
chunked into parallel-c estimates, so one pool serves the whole c sweep.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.core.closed_form import mascot_trial_estimates, rept_global_runs
from repro.core.estimators import nrmse
from repro.core.hashing import mix_seeds
from repro.experiments.common import (
    DEFAULT_DATASETS, baseline_budgets, check_harness, dataset_seed, get_tables, save_result,
    trials_by_method,
)
from repro.stream.engine import pooled_parallel_estimates

DEFAULT_METHODS = ("rept", "mascot", "triest", "gps")


def run_global_nrmse(
    spark: SparkSession,
    p_inv: int,
    c_list: list[int],
    datasets: list[str] | tuple[str, ...] = DEFAULT_DATASETS,
    methods: tuple[str, ...] = DEFAULT_METHODS,
    r_rept: int = 100,
    r_pool: int = 10,
    scale: float = 1.0,
    seed: int = 7,
) -> pd.DataFrame:
    """One row per (dataset, method, c): measured NRMSE of τ̂.

    ``r_rept`` REPT runs per c; pooled methods build a pool of
    ``r_pool × max(c_list)`` trials reused across the sweep. MASCOT
    trials are nearly free (closed form), so its pool is
    ``3 × r_pool × max(c_list)`` for a less noisy REPT-vs-MASCOT
    comparison.
    """
    check_harness([p_inv], c_list, seed, scale, datasets, methods, DEFAULT_METHODS,
                  r_rept=r_rept, r_pool=r_pool)
    m = p_inv
    p = 1.0 / m
    c_max = max(c_list)
    rows = []
    for name in datasets:
        t = get_tables(spark, name, scale, seed)
        base = dataset_seed(seed, name, p_inv)
        budgets = baseline_budgets(p, t.stream.n_edges)

        pools: dict[str, np.ndarray] = {}
        if "mascot" in methods:
            seeds = [mix_seeds(base, 1, i) for i in range(3 * r_pool * c_max)]
            pools["mascot"] = mascot_trial_estimates(spark, t, p, seeds)
        specs = [
            {"method": meth, "budget": budget_m, "seed": mix_seeds(base, 2 + (meth == "gps"), i)}
            for meth, budget_m in zip(("triest", "gps"), budgets) if meth in methods
            for i in range(r_pool * c_max)
        ]
        for meth, trials in trials_by_method(spark, t.stream, specs).items():
            pools[meth] = trials["est"].to_numpy()

        for c in c_list:
            if "rept" in methods:
                seeds = [mix_seeds(base, 4, c, i) for i in range(r_rept)]
                est = rept_global_runs(spark, t, m, c, seeds)["tau_hat"].to_numpy()
                rows.append(
                    {"graph": name, "method": "rept", "p": p, "c": c,
                     "nrmse": nrmse(est, t.tau), "n_estimates": len(est)}
                )
            for meth, pool in pools.items():
                est = pooled_parallel_estimates(pool, c)
                rows.append(
                    {"graph": name, "method": meth, "p": p, "c": c,
                     "nrmse": nrmse(est, t.tau), "n_estimates": len(est)}
                )
    out = pd.DataFrame(rows)
    save_result(out, f"global_nrmse_pinv{p_inv}")
    return out
