"""The SparkSession builder shared by :mod:`repro.reproduce` and the tests.

Master and driver memory are launch-time settings (spark-submit
arguments or ``PYSPARK_SUBMIT_ARGS``); this sets the SQL conf that is
honoured after launch: 64 shuffle partitions, Arrow transfers, and
broadcast joins disabled so joins exercise the shuffle path. Only the
SQL views of :mod:`repro.graphs.exact` (read by the tests and a traced
benchmark) join; no harness shuffles: the closed forms run in numpy, the
simulator fan-out is one shuffle-free stage, and the Structured
Streaming sink collects each batch.
"""
from pyspark.sql import SparkSession


def get_session(app_name: str) -> SparkSession:
    return (
        SparkSession.builder.appName(app_name)
        .config("spark.sql.shuffle.partitions", 64)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
