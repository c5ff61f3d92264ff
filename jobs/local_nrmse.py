"""spark-submit entrypoint: reproduce Figures 5/6 (local NRMSE sweeps).

Usage: spark-submit jobs/local_nrmse.py [p_inv] [c1,c2,...]
"""
import sys

from repro.experiments.local_nrmse import run_local_nrmse
from repro.session import get_session


def main() -> None:
    p_inv = int(sys.argv[1]) if len(sys.argv) > 1 else 10
    if len(sys.argv) > 2:
        c_list = [int(x) for x in sys.argv[2].split(",")]
    else:
        c_list = [20, 80, 320] if p_inv >= 100 else [2, 8, 32]
    spark = get_session("rept-local-nrmse")
    out = run_local_nrmse(spark, p_inv=p_inv, c_list=c_list)
    print(out.to_string(index=False))
    spark.stop()


if __name__ == "__main__":
    main()
