"""The SparkSession builder shared by :mod:`repro.reproduce` and the tests.

Master and driver memory are launch-time settings (spark-submit
arguments or ``PYSPARK_SUBMIT_ARGS``); this sets the SQL conf that is
honoured after launch: shuffle partitions (``SPARK_SHUFFLE_PARTITIONS``,
default 64), Arrow transfers, and broadcast joins disabled so joins
exercise the shuffle path.
"""
import os

from pyspark.sql import SparkSession


def get_session(app_name: str) -> SparkSession:
    return (
        SparkSession.builder.appName(app_name)
        .config(
            "spark.sql.shuffle.partitions",
            os.environ.get("SPARK_SHUFFLE_PARTITIONS", "64"),
        )
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
