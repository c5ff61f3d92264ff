"""Spark session and the counters the benchmark reads from outside it.

The session takes its master and driver memory from the spark-submit
arguments ``run.py`` sets, and the SQL conf below. Counters come from
Spark's own status tracker (jobs, tasks, failed tasks per job group),
from ``/proc`` (the JVM's peak resident set) and from a
``StreamingQueryListener`` (per-batch durations and state size); all
three work with the UI disabled.
"""
from __future__ import annotations

import resource
import threading

from pyspark.sql import SparkSession
from pyspark.sql.streaming import StreamingQueryListener

#: post-launch SQL conf: ``jobs/_session.py``'s values, except 8 shuffle
#: partitions (2 per core; ``_session.py`` reads the same setting from
#: ``SPARK_SHUFFLE_PARTITIONS``, default 64). At 64, per-task overhead
#: makes one Algorithm 2 call take about 21 s and one micro-batch about
#: 9 s on 4 cores, too long for repeated, steady runs in the benchmark's
#: time budget; ``spark.tasks`` still shows the task count per repetition.
SQL_CONF = {
    "spark.sql.shuffle.partitions": "8",
    "spark.sql.execution.arrow.pyspark.enabled": "true",
    "spark.sql.autoBroadcastJoinThreshold": "-1",
    "spark.ui.showConsoleProgress": "false",
}

#: conf keys recorded in the provenance line.
RECORDED_CONF = (
    "spark.master", "spark.driver.memory", "spark.ui.enabled", *SQL_CONF,
)


def start_session() -> SparkSession:
    builder = SparkSession.builder.appName("perfbench")
    for key, value in SQL_CONF.items():
        builder = builder.config(key, value)
    return builder.getOrCreate()


def recorded_conf(spark: SparkSession) -> dict[str, str]:
    conf = dict(spark.sparkContext.getConf().getAll())
    for key in SQL_CONF:
        conf[key] = spark.conf.get(key)
    return {k: conf.get(k) for k in RECORDED_CONF}


def group_counts(spark: SparkSession, group: str) -> tuple[int, int, int]:
    """(jobs, tasks, failed tasks) of every job run under ``group``."""
    tracker = spark.sparkContext.statusTracker()
    jobs = tracker.getJobIdsForGroup(group)
    tasks = failed = 0
    for job_id in jobs:
        info = tracker.getJobInfo(job_id)
        for stage_id in info.stageIds if info else ():
            stage = tracker.getStageInfo(stage_id)
            if stage is not None:
                tasks += stage.numTasks
                failed += stage.numFailedTasks
    return len(jobs), tasks, failed


def jvm_peak_rss_mb(spark: SparkSession) -> float:
    """``VmHWM`` of the JVM that the driver's py4j gateway launched."""
    pid = spark.sparkContext._gateway.proc.pid
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def driver_peak_rss_mb() -> float:
    """Peak resident set of this Python process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class BatchRecorder(StreamingQueryListener):
    """Collects the progress of every micro-batch of the queries it sees."""

    def __init__(self) -> None:
        self.progress: list = []
        self.run_ids: list[str] = []
        self._terminated = threading.Event()

    def onQueryStarted(self, event) -> None:
        self.run_ids.append(str(event.runId))

    def onQueryProgress(self, event) -> None:
        self.progress.append(event.progress)

    def onQueryIdle(self, event) -> None:
        pass

    def onQueryTerminated(self, event) -> None:
        self._terminated.set()

    def wait_terminated(self, timeout: float = 60.0) -> None:
        """Events arrive on Spark's listener bus after the query returns;
        the termination event is posted after the last progress event."""
        if not self._terminated.wait(timeout):
            raise TimeoutError("no query-terminated event from the listener bus")
        self._terminated.clear()
