"""REPT as a Spark Structured Streaming job.

The paper's future-work direction (and this reproduction's
distributed_dataflow brief): the edge stream arrives as files in a
directory; every edge is routed to all c processor groups (each
processor must observe every edge to close semi-triangles, but only
inserts the edges hashing to its bucket). Per-processor state —
sampled adjacency + τ^(i) — lives in Structured Streaming state via
``applyInPandasWithState``; each micro-batch emits the running τ^(i).
The query runs with c shuffle (state) partitions, so its per-batch task
count follows c rather than the session's default; the caller's session
conf is left as it was. Spark hash-places the processor ids into those
partitions, so a partition may hold several processors and another none:
for c = 4, processors 0–3 land in partitions [3, 3, 2, 3].

End-of-stream counts are identical to the sequential simulator (and so
to the closed-form evaluator) at the same (m, c, seed) — asserted in
``tests/test_structured.py``. Micro-batches must arrive in stream order
(enforced here by sorting each batch by ``t`` and feeding files
chronologically); within that contract the semantics are exact.
"""
from __future__ import annotations

import os
import pickle
import uuid

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession
from pyspark.sql import functions as F

EDGE_SCHEMA = "t LONG, a LONG, b LONG, k LONG"


def write_stream_files(pdf: pd.DataFrame, out_dir: str, n_files: int = 3) -> list[str]:
    """Split an edge-stream pandas frame ``(t, a, b, k)`` into
    ``n_files`` parquet files in arrival order, with increasing mtimes
    so the file source ingests them chronologically."""
    os.makedirs(out_dir, exist_ok=True)
    ordered = pdf.sort_values("t").reset_index(drop=True)
    bounds = np.linspace(0, len(ordered), n_files + 1).astype(int)
    parts = [ordered.iloc[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]
    paths = []
    for i, part in enumerate(parts):
        path = os.path.join(out_dir, f"part-{i:04d}.parquet")
        part.to_parquet(path, index=False)
        os.utime(path, (1_700_000_000 + i, 1_700_000_000 + i))
        paths.append(path)
    return paths


def rept_structured_counts(
    spark: SparkSession,
    input_dir: str,
    m: int,
    c: int,
    seed: int,
    checkpoint_dir: str,
    max_files_per_trigger: int | None = None,
) -> pd.DataFrame:
    """Run REPT(1/m, c ≤ m) over a file-source edge stream; blocks until
    all available files are processed and returns pandas ``(proc, tau)``
    with the final per-processor semi-triangle counts."""
    if m < 1 or c < 1:
        raise ValueError(f"need m >= 1 and c >= 1, got m={m}, c={c}")
    if c > m:
        raise ValueError("structured job implements the c <= m case")
    reader = spark.readStream.schema(EDGE_SCHEMA)
    if max_files_per_trigger:
        reader = reader.option("maxFilesPerTrigger", max_files_per_trigger)
    edges = reader.parquet(input_dir)
    routed = edges.withColumn(
        "proc", F.explode(F.array(*[F.lit(i) for i in range(c)]))
    )

    def _update(key, pdfs, state):
        from repro.core.hashing import bucket  # executor-side import

        proc = int(key[0])
        if state.exists:
            blob, tau = state.get
            adj = pickle.loads(bytes(blob))
        else:
            adj, tau = {}, 0
        pdf = pd.concat(list(pdfs)).sort_values("t")
        buckets = bucket(pdf["k"].to_numpy().view(np.uint64), seed, m)
        t_max = int(pdf["t"].max())
        for a, b, mine in zip(pdf["a"].tolist(), pdf["b"].tolist(), (buckets == proc).tolist()):
            na = adj.get(a)
            nb = adj.get(b)
            if na and nb:
                common = na & nb if len(na) <= len(nb) else nb & na
                tau += len(common)
            if mine:
                adj.setdefault(a, set()).add(b)
                adj.setdefault(b, set()).add(a)
        state.update((pickle.dumps(adj), int(tau)))
        yield pd.DataFrame({"proc": [proc], "tau": [int(tau)], "t_max": [t_max]})

    out = routed.groupBy("proc").applyInPandasWithState(
        _update,
        outputStructType="proc long, tau long, t_max long",
        stateStructType="blob binary, tau long",
        outputMode="update",
        timeoutConf="NoTimeout",
    )
    qname = f"rept_structured_{uuid.uuid4().hex[:8]}"
    # The query clones the session conf at start() and its offset log
    # pins the partition count, so the caller's value can come back at once.
    caller_partitions = spark.conf.get("spark.sql.shuffle.partitions")
    spark.conf.set("spark.sql.shuffle.partitions", str(c))
    try:
        query = (
            out.writeStream.format("memory")
            .queryName(qname)
            .outputMode("update")
            .option("checkpointLocation", checkpoint_dir)
            .trigger(availableNow=True)
            .start()
        )
    finally:
        spark.conf.set("spark.sql.shuffle.partitions", caller_partitions)
    # The memory sink's rows live in a temp view named after the query.
    try:
        query.awaitTermination()
        return (
            spark.table(qname)
            .groupBy("proc")
            .agg(F.max("tau").alias("tau"))
            .toPandas()
            .sort_values("proc")
            .reset_index(drop=True)
        )
    finally:
        spark.catalog.dropTempView(qname)
