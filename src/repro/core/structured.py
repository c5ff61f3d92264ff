"""REPT as a Spark Structured Streaming job.

The edge stream arrives as files in a directory (the paper's future-work
direction), and a file-source query hands each micro-batch to a
``foreachBatch`` sink. The sink collects the batch once (Arrow
``toPandas``), sorts it by ``t`` and feeds it, on the driver, to the
processors of the groups of :func:`repro.core.hashing.rept_groups`
through :func:`repro.stream.rept.feed_plan`, the loop of the sequential
simulator, so c > m (Algorithm 2) runs in one query; each processor
inserts only the edges hashing to its bucket under its group's seed.
η^(i) is tracked when c > m, for the Graybill–Deal step.

The c processors' :class:`~repro.stream.rept.ProcessorState` (a flat
list in plan order), the last ``t`` and the ``(m, c, seed)`` are written
atomically after every batch to ``<checkpoint_dir>/rept/<batch_id>.pkl``,
keeping the last two. A batch starts from batch_id − 1's state, held in
memory or else read back, so a restarted query resumes, a replayed batch
counts once, and resuming under other settings is refused before any
edge is counted.

The query's own offset, commit and file-source logs go through Spark's
FileSystem-based checkpoint manager for the length of the call, unless
the caller set ``spark.sql.streaming.checkpointFileManagerClass``
(:data:`CHECKPOINT_MANAGER`).

End-of-stream counts equal the sequential simulator at the same
(m, c, seed) (``tests/test_structured.py``). Batches must arrive in
stream order: one whose first ``t`` is not after the last ``t`` of the
batches before it fails the query, as does one that repeats a ``t`` or
fails ``check_stream``; an edge repeated in a later batch is not caught.
"""
from __future__ import annotations

import os
import pickle

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.core.hashing import is_int, rept_groups
from repro.graphs.datasets import Stream, check_stream
from repro.stream.rept import ProcessorState, feed_plan

EDGE_SCHEMA = "t LONG, a LONG, b LONG, k LONG"

#: Spark's default FileContext manager forks a ``readlink`` process per
#: checkpoint-file operation when no native Hadoop library is loaded; the
#: FileSystem-based one writes the same logs through Hadoop's FileSystem API.
CHECKPOINT_MANAGER_KEY = "spark.sql.streaming.checkpointFileManagerClass"
CHECKPOINT_MANAGER = (
    "org.apache.spark.sql.execution.streaming.checkpointing.FileSystemBasedCheckpointFileManager"
)


def write_stream_files(pdf: pd.DataFrame, out_dir: str, n_files: int = 3) -> list[str]:
    """Split an edge-stream pandas frame ``(t, a, b, k)`` into
    ``n_files`` parquet files in arrival order, with increasing mtimes
    so the file source ingests them chronologically. ``out_dir`` must be
    empty or absent: the file source reads every file in it."""
    if not (is_int(n_files) and n_files >= 1):
        raise ValueError(f"need n_files >= 1 as an integer, got {n_files!r}")
    os.makedirs(out_dir, exist_ok=True)
    if os.listdir(out_dir):
        raise ValueError(f"{out_dir} already holds files")
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


def _feed(
    state: dict, pdf: pd.DataFrame, batch_id: int, m: int, plan: list[tuple[int, int]]
) -> None:
    """Run the processors of every group in ``plan`` over one checked
    micro-batch (see the module docstring), in stream order."""
    pdf = pdf.sort_values("t")
    t = pdf["t"].to_numpy()
    if t[0] <= state["t_max"]:
        raise ValueError(f"micro-batch {batch_id} starts at t={t[0]}, not after "
                         f"t={state['t_max']}: files must arrive in stream order")
    if np.any(np.diff(t) == 0):
        raise ValueError(f"micro-batch {batch_id} repeats an arrival position t")
    batch = Stream(f"micro-batch {batch_id}", pdf["a"].to_numpy(), pdf["b"].to_numpy(),
                   pdf["k"].to_numpy().view(np.uint64))
    check_stream(batch)
    feed_plan(state["procs"], batch.u.tolist(), batch.v.tolist(), batch.k, m, plan)
    state["t_max"] = int(t[-1])


def rept_structured_counts(
    spark: SparkSession,
    input_dir: str,
    m: int,
    c: int,
    seed: int,
    checkpoint_dir: str,
    max_files_per_trigger: int | None = None,
) -> pd.DataFrame:
    """Run REPT(1/m, c) over a file-source edge stream; blocks until all
    available files are processed and returns pandas ``(proc, tau, eta)``
    with the final τ^(i) and η^(i) of the c processors, in the order of
    :func:`repro.core.hashing.rept_groups` (η only when c > m, else 0).
    :func:`repro.core.estimators.rept_estimate` turns them into τ̂."""
    plan = rept_groups(m, c, seed)
    if not (max_files_per_trigger is None
            or is_int(max_files_per_trigger) and max_files_per_trigger >= 1):
        raise ValueError(f"need max_files_per_trigger >= 1 as an integer, "
                         f"got {max_files_per_trigger!r}")
    state_dir = os.path.join(checkpoint_dir, "rept")
    os.makedirs(state_dir, exist_ok=True)

    def path(batch_id: int) -> str:
        return os.path.join(state_dir, f"{batch_id}.pkl")

    def load(batch_id: int) -> dict:
        if batch_id < 0:
            return {"settings": (m, c, seed), "t_max": -1,
                    "procs": [ProcessorState() for _ in range(c)]}
        with open(path(batch_id), "rb") as f:
            return pickle.load(f)

    held_id = max((int(n[:-4]) for n in os.listdir(state_dir) if n.endswith(".pkl")), default=-1)
    held = load(held_id)  # the state after batch ``held_id``
    if held["settings"] != (m, c, seed):
        raise ValueError(f"{checkpoint_dir} holds REPT state for (m, c, seed) = "
                         f"{held['settings']}, not {(m, c, seed)}")

    def _batch(df, batch_id: int) -> None:
        nonlocal held_id, held
        # Not the held state when Spark replays a batch it did not commit.
        state = held if held_id == batch_id - 1 else load(batch_id - 1)
        pdf = df.toPandas()
        if len(pdf):  # an empty batch carries the state over
            _feed(state, pdf, batch_id, m, plan)
        with open(f"{path(batch_id)}.tmp", "wb") as f:
            pickle.dump(state, f, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(f"{path(batch_id)}.tmp", path(batch_id))
        if os.path.exists(path(batch_id - 2)):  # Spark replays at most one batch
            os.remove(path(batch_id - 2))
        held_id, held = batch_id, state

    reader = spark.readStream.schema(EDGE_SCHEMA)
    if max_files_per_trigger is not None:
        reader = reader.option("maxFilesPerTrigger", max_files_per_trigger)
    writer = reader.parquet(input_dir).writeStream.foreachBatch(_batch).trigger(availableNow=True)
    unset = spark.conf.get(CHECKPOINT_MANAGER_KEY, None) is None
    if unset:
        spark.conf.set(CHECKPOINT_MANAGER_KEY, CHECKPOINT_MANAGER)
    try:
        writer.option("checkpointLocation", checkpoint_dir).start().awaitTermination()
    finally:
        if unset:
            spark.conf.unset(CHECKPOINT_MANAGER_KEY)
    rows = [(i, p.tau, p.eta) for i, p in enumerate(held["procs"])]
    return pd.DataFrame(rows, columns=["proc", "tau", "eta"])
