"""spark-submit entrypoint: reproduce Figure 7 (runtime vs p at c=10).

Usage: spark-submit jobs/fig7_runtime.py
"""
from repro.experiments.runtime import run_runtime
from repro.session import get_session


def main() -> None:
    spark = get_session("rept-fig7")
    out = run_runtime(spark)
    print(out.to_string(index=False))
    spark.stop()


if __name__ == "__main__":
    main()
