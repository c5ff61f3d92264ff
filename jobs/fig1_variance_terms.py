"""spark-submit entrypoint: reproduce Figure 1 (variance-term table).

Usage: spark-submit jobs/fig1_variance_terms.py [scale]
"""
import sys

from repro.experiments.fig1 import run_fig1
from repro.session import get_session


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 1.0
    spark = get_session("rept-fig1")
    out = run_fig1(spark, scale=scale)
    print(out.to_string(index=False))
    spark.stop()


if __name__ == "__main__":
    main()
