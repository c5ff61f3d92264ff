"""Table II — dataset statistics (nodes, edges, triangles).

The paper reports the real graphs; we report the synthetic analogs side
by side with the paper's numbers (the scale-down is the documented
substitution, DESIGN.md §6).
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession

from repro.experiments.common import DEFAULT_DATASETS, check_graphs, get_tables, save_result
from repro.graphs.datasets import PAPER_TABLE2


def run_table2(
    spark: SparkSession,
    datasets: list[str] | tuple[str, ...] = DEFAULT_DATASETS,
    scale: float = 1.0,
    seed: int = 7,
) -> pd.DataFrame:
    """One row per dataset: synthetic analog stats vs paper Table II."""
    check_graphs(seed, scale, datasets)
    rows = []
    for name in datasets:
        t = get_tables(spark, name, scale, seed)
        pn, pe, pt = PAPER_TABLE2[name]
        rows.append(
            {
                "graph": name,
                "nodes": t.stream.n_nodes,
                "edges": t.stream.n_edges,
                "triangles": t.tau,
                "eta": t.eta,
                "paper_nodes": pn,
                "paper_edges": pe,
                "paper_triangles": pt,
            }
        )
    out = pd.DataFrame(rows)
    save_result(out, "table2_datasets")
    return out
