"""spark-submit entrypoint: reproduce Table II (dataset statistics).

Usage: spark-submit jobs/table2_datasets.py [scale]
"""
import sys

from repro.experiments.table2 import run_table2
from repro.session import get_session


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 1.0
    spark = get_session("rept-table2")
    out = run_table2(spark, scale=scale)
    print(out.to_string(index=False))
    spark.stop()


if __name__ == "__main__":
    main()
