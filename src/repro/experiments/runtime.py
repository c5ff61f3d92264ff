"""Figure 7 — runtime of the four parallel methods vs p, at c = 10.

Each (graph, p) cell runs the four methods' c = 10 processors in one
Spark fan-out, as many at a time as there are cores; the reported time
is the max per-processor loop time (the parallel wall-clock of the
paper's model, independent of scheduler noise). The paper's shape:
REPT ≈ parallel MASCOT, 2–4× faster than parallel Trièst, 4–10× faster
than parallel GPS.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession

from repro.core.hashing import mix_seeds
from repro.experiments.common import (
    DEFAULT_DATASETS, baseline_budgets, check_harness, dataset_seed, save_result, trials_by_method,
)
from repro.graphs.datasets import load_stream

DEFAULT_P_INVS = (100, 50, 20, 10)


def run_runtime(
    spark: SparkSession,
    c: int = 10,
    p_invs: tuple[int, ...] = DEFAULT_P_INVS,
    datasets: list[str] | tuple[str, ...] = DEFAULT_DATASETS,
    scale: float = 1.0,
    seed: int = 7,
) -> pd.DataFrame:
    """One row per (dataset, method, p): max and total per-processor time."""
    check_harness(p_invs, [c], seed, scale, datasets)
    if c > min(p_invs):  # the c REPT processors hold buckets 0 … c−1 of 1/p
        raise ValueError(f"Fig 7 runs one REPT group: need c <= every p_inv, "
                         f"got c={c!r}, p_invs={p_invs!r}")
    rows = []
    for name in datasets:
        stream = load_stream(name, scale, seed)
        for p_inv in p_invs:
            p = 1.0 / p_inv
            base = dataset_seed(seed, name, p_inv, 7777)
            budget, gps_budget = baseline_budgets(p, stream.n_edges)
            rept_seed = mix_seeds(base, 0)
            specs = (
                [{"method": "rept", "m": p_inv, "proc": i, "seed": rept_seed} for i in range(c)]
                + [{"method": "mascot", "p": p, "seed": mix_seeds(base, 1, i)} for i in range(c)]
                + [{"method": "triest", "budget": budget, "seed": mix_seeds(base, 2, i)}
                   for i in range(c)]
                + [{"method": "gps", "budget": gps_budget, "seed": mix_seeds(base, 3, i)}
                   for i in range(c)]
            )
            cell = trials_by_method(spark, stream, specs)
            for meth in sorted(cell):
                grp = cell[meth]
                rows.append(
                    {
                        "graph": name,
                        "method": meth,
                        "p": p,
                        "c": c,
                        "max_proc_time_s": grp["elapsed"].max(),
                        "total_proc_time_s": grp["elapsed"].sum(),
                        "mean_sampled_edges": grp["n_sampled"].mean(),
                    }
                )
    out = pd.DataFrame(rows)
    save_result(out, "fig7_runtime")
    return out
