"""Reproduce the committed results: one target per paper table or figure.

Usage::

    python -m repro.reproduce TARGET [TARGET ...]
    spark-submit src/repro/reproduce.py TARGET [TARGET ...]

Each target is the one harness call that wrote its ``results/*.csv``;
the targets run in the order given, in one Spark session.
"""
from __future__ import annotations

import argparse
import tempfile

import pandas as pd
from pyspark.sql import SparkSession

from repro.core.estimators import rept_estimate
from repro.core.structured import rept_structured_counts, write_stream_files
from repro.experiments.fig1 import run_fig1
from repro.experiments.global_nrmse import run_global_nrmse
from repro.experiments.local_nrmse import run_local_nrmse
from repro.experiments.runtime import run_runtime
from repro.experiments.single_thread import run_single_thread
from repro.experiments.table2 import run_table2
from repro.graphs.datasets import load_stream, stream_pdf
from repro.session import get_session


def _show(df: pd.DataFrame) -> None:
    print(df.to_string(index=False))


def _fig8(spark: SparkSession) -> None:
    _show(run_single_thread(spark, p_inv=10, c_list=[2, 4, 8]))
    _show(run_single_thread(spark, p_inv=100, c_list=[2, 8, 32]))


def _structured(spark: SparkSession) -> None:
    """Live Structured Streaming REPT over the YouTube analog, five
    micro-batch files read one per trigger; writes no CSV."""
    m, c, seed = 10, 4, 7
    stream = load_stream("YouTube", scale=0.25, seed=seed)
    with tempfile.TemporaryDirectory() as d:
        write_stream_files(stream_pdf(stream), f"{d}/in", n_files=5)
        counts = rept_structured_counts(
            spark, f"{d}/in", m, c, seed=seed, checkpoint_dir=f"{d}/ckpt",
            max_files_per_trigger=1,
        )
    _show(counts)
    tau_hat = rept_estimate(counts["tau"], counts["eta"].sum(), m, c)["tau_hat"]
    print(f"REPT streaming estimate tau_hat = {tau_hat:.1f}")


TARGETS = {
    "table2": lambda spark: _show(run_table2(spark)),
    "fig1": lambda spark: _show(run_fig1(spark)),
    "fig3": lambda spark: _show(run_global_nrmse(
        spark, p_inv=100, c_list=[20, 80, 320], r_rept=60, r_pool=6,
    )),
    "fig4": lambda spark: _show(run_global_nrmse(
        spark, p_inv=10, c_list=[2, 4, 8, 16, 32], r_rept=100, r_pool=10,
    )),
    "fig5": lambda spark: _show(run_local_nrmse(
        spark, p_inv=100, c_list=[20, 80, 320], datasets=["Twitter", "Flickr", "YouTube"],
        r_rept=20, r_pool=4,
    )),
    "fig6": lambda spark: _show(run_local_nrmse(
        spark, p_inv=10, c_list=[2, 8, 32], datasets=["Twitter", "Flickr", "YouTube"],
        r_rept=30, r_pool=5,
    )),
    "fig7": lambda spark: _show(run_runtime(spark)),
    "fig8": _fig8,
    "structured": _structured,
}


def reproduce(spark: SparkSession, targets: list[str]) -> None:
    """Run ``targets`` in order on ``spark``; the caller owns the session."""
    for name in targets:
        print(f"=== {name} ===", flush=True)
        TARGETS[name](spark)


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(
        prog="python -m repro.reproduce", description=__doc__.splitlines()[0]
    )
    parser.add_argument("targets", nargs="+", metavar="TARGET", choices=list(TARGETS),
                        help="one or more of: " + ", ".join(TARGETS))
    args = parser.parse_args(argv)
    spark = get_session("rept-reproduce")
    try:
        reproduce(spark, args.targets)
    finally:
        spark.stop()


if __name__ == "__main__":
    main()
