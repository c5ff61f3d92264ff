"""Figure 1 — the covariance term dominates the naive-parallel variance.

For each dataset and sampling probability p, tabulate the two terms of
parallel MASCOT's variance numerator: τ(p⁻²−1) (independent-sampling
term) and 2η(p⁻¹−1) (covariance term), their ratio, and η/τ. The paper
reports η/τ ∈ ≈[11, 3900] and a covariance/term ratio of 2–355 at
p = 0.1 (still 2–35 at p = 0.01 on the high-η graphs).
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession

from repro.core.hashing import check_p
from repro.experiments.common import DEFAULT_DATASETS, check_graphs, get_tables, save_result

DEFAULT_PS = (0.1, 0.05, 0.02, 0.01)


def run_fig1(
    spark: SparkSession,
    datasets: list[str] | tuple[str, ...] = DEFAULT_DATASETS,
    ps: tuple[float, ...] = DEFAULT_PS,
    scale: float = 1.0,
    seed: int = 7,
) -> pd.DataFrame:
    """One row per (dataset, p): the two variance terms and their ratio."""
    check_graphs(seed, scale, datasets)
    if len(ps) == 0:
        raise ValueError("need at least one p")
    for p in ps:
        check_p(p)
    rows = []
    for name in datasets:
        t = get_tables(spark, name, scale, seed)
        for p in ps:
            term_tau = t.tau * (p**-2 - 1)
            term_eta = 2 * t.eta * (p**-1 - 1)
            rows.append(
                {
                    "graph": name,
                    "p": p,
                    "tau": t.tau,
                    "eta": t.eta,
                    "eta_over_tau": t.eta / t.tau if t.tau else float("nan"),
                    "term_tau": term_tau,
                    "term_cov": term_eta,
                    "cov_over_tau_term": term_eta / term_tau if term_tau else float("nan"),
                }
            )
    out = pd.DataFrame(rows)
    save_result(out, "fig1_variance_terms")
    return out
