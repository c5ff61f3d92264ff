"""Figure 8 — REPT (c processors, p) vs single-threaded baselines using
the same total memory (MASCOT-S at probability c·p; Trièst-S / GPS-S at
budget c·p·|E|, GPS halved), on the Flickr analog.

Reported per (c, method): wall-clock (max per-processor loop time for
REPT, MASCOT-S's one loop, the mean loop of the Trièst-S / GPS-S trials)
and global NRMSE. Each c runs its loops as one Spark fan-out. The
paper's shape: REPT is up to two orders of magnitude faster with
comparable error (GPS-S worse on both).
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession

from repro.core.closed_form import mascot_trial_estimates, rept_global_runs
from repro.core.estimators import nrmse
from repro.core.hashing import mix_seeds, rept_groups
from repro.experiments.common import (
    baseline_budgets, check_harness, dataset_seed, get_tables, save_result, trials_by_method,
)


def run_single_thread(
    spark: SparkSession,
    dataset: str = "Flickr",
    p_inv: int = 100,
    c_list: list[int] | None = None,
    r_err: int = 12,
    r_rept: int = 60,
    scale: float = 1.0,
    seed: int = 7,
) -> pd.DataFrame:
    """One row per (c, method): runtime and NRMSE at equal memory."""
    c_list = [2, 8, 32] if c_list is None else c_list
    check_harness([p_inv], c_list, seed, scale, [dataset], r_err=r_err, r_rept=r_rept)
    m = p_inv
    p = 1.0 / m
    t = get_tables(spark, dataset, scale, seed)
    n_edges = t.stream.n_edges
    base = dataset_seed(seed, dataset, p_inv, 8888)
    rows = []
    for c in c_list:
        p_s = min(1.0, c * p)
        budgets_s = baseline_budgets(c * p, n_edges)
        # One fan-out per c. REPT: c concurrent processors, runtime = max
        # processor time; for c > m the other groups repeat the same
        # per-processor work, so time the first group. MASCOT-S: one
        # processor at probability c·p. Trièst-S and GPS-S: sequential
        # trials for both time and error.
        group_seed, n = rept_groups(m, c, mix_seeds(base, 0, c))[0]
        specs = (
            [{"method": "rept", "m": m, "proc": i, "seed": group_seed, "track_eta": c > m}
             for i in range(n)]
            + [{"method": "mascot", "p": p_s, "seed": mix_seeds(base, 1, c)}]
            + [{"method": meth, "budget": budget, "seed": mix_seeds(base, 6, c, meth == "gps", i)}
               for meth, budget in zip(("triest", "gps"), budgets_s) for i in range(r_err)]
        )
        cell = trials_by_method(spark, t.stream, specs)
        rept_est = rept_global_runs(
            spark, t, m, c, [mix_seeds(base, 4, c, i) for i in range(r_rept)]
        )["tau_hat"].to_numpy()
        mascot_est = mascot_trial_estimates(
            spark, t, p_s, [mix_seeds(base, 5, c, i) for i in range(r_err)]
        )
        for meth, time_s, est in [
            ("rept", cell["rept"]["elapsed"].max(), rept_est),
            ("mascot_s", cell["mascot"]["elapsed"].max(), mascot_est),
            ("triest_s", cell["triest"]["elapsed"].mean(), cell["triest"]["est"].to_numpy()),
            ("gps_s", cell["gps"]["elapsed"].mean(), cell["gps"]["est"].to_numpy()),
        ]:
            rows.append({"dataset": dataset, "p": p, "c": c, "method": meth,
                         "time_s": time_s, "nrmse": nrmse(est, t.tau)})
    out = pd.DataFrame(rows)
    rept_time = out[out["method"] == "rept"].set_index("c")["time_s"]
    out["speedup_vs_rept"] = out.apply(
        lambda r: rept_time[r["c"]] and r["time_s"] / rept_time[r["c"]], axis=1
    )
    save_result(out, f"fig8_single_thread_pinv{p_inv}")
    return out
