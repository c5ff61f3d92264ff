"""spark-submit entrypoint: reproduce Figures 3/4 (global NRMSE sweeps).

Usage: spark-submit jobs/global_nrmse.py [p_inv] [c1,c2,...]
Defaults: p_inv=10 with c=2..32 (Figure 4); pass 100 for Figure 3.
"""
import sys

from repro.experiments.global_nrmse import run_global_nrmse
from repro.session import get_session


def main() -> None:
    p_inv = int(sys.argv[1]) if len(sys.argv) > 1 else 10
    if len(sys.argv) > 2:
        c_list = [int(x) for x in sys.argv[2].split(",")]
    else:
        c_list = [20, 40, 80, 160, 320] if p_inv >= 100 else [2, 4, 8, 16, 32]
    spark = get_session("rept-global-nrmse")
    out = run_global_nrmse(spark, p_inv=p_inv, c_list=c_list)
    print(out.to_string(index=False))
    spark.stop()


if __name__ == "__main__":
    main()
