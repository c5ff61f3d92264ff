"""spark-submit entrypoint: reproduce Figure 8 (REPT vs single-threaded
baselines at equal memory, Flickr analog).

Usage: spark-submit jobs/fig8_single_thread.py [p_inv]
"""
import sys

from repro.experiments.single_thread import run_single_thread
from repro.session import get_session


def main() -> None:
    p_inv = int(sys.argv[1]) if len(sys.argv) > 1 else 100
    spark = get_session("rept-fig8")
    c_list = [2, 8, 32] if p_inv >= 100 else [2, 4, 8]
    out = run_single_thread(spark, p_inv=p_inv, c_list=c_list)
    print(out.to_string(index=False))
    spark.stop()


if __name__ == "__main__":
    main()
