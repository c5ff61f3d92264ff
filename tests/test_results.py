"""The paper's shapes, checked on the committed ``results/*.csv``.

Each shape test reads one committed CSV and writes nothing. The
thresholds allow for the small run counts behind each cell
(EXPERIMENTS.md). The gates at the end recompute the closed-form and
the stream-simulator rows of one analog and require them to equal the
committed ones.
"""
from pathlib import Path

import pandas as pd
import pytest

from repro.experiments.global_nrmse import run_global_nrmse
from repro.experiments.local_nrmse import run_local_nrmse

RESULTS = Path(__file__).resolve().parents[1] / "results"


def _read(name: str, **kwargs) -> pd.DataFrame:
    return pd.read_csv(RESULTS / f"{name}.csv", **kwargs)


def test_table2_every_analog_has_triangles():
    assert (_read("table2_datasets")["triangles"] > 0).all()


def test_fig1_covariance_dominates_on_high_eta_graphs():
    out = _read("fig1_variance_terms")
    hi = out[(out["graph"].isin(["Twitter", "Flickr"])) & (out["p"] == 0.1)]
    assert len(hi) == 2
    assert (hi["cov_over_tau_term"] > 1).all()


@pytest.mark.parametrize(
    "name, share",
    [("global_nrmse_pinv10", 0.8), ("global_nrmse_pinv100", 0.6), ("local_nrmse_pinv10", 0.6)],
    ids=["fig4", "fig3", "fig6"],
)
def test_rept_beats_mascot_in_most_cells(name, share):
    piv = _read(name).pivot_table(index=["graph", "c"], columns="method", values="nrmse")
    assert (piv["rept"] < piv["mascot"]).mean() > share


def test_fig7_rept_faster_than_gps():
    piv = _read("fig7_runtime").pivot_table(
        index=["graph", "p"], columns="method", values="max_proc_time_s"
    )
    assert (piv["rept"] < piv["gps"]).mean() > 0.7


def test_fig8_rept_no_slower_than_triest_s():
    piv = _read("fig8_single_thread_pinv100").pivot_table(
        index="c", columns="method", values="time_s"
    )
    assert list(piv.index) == [2, 8, 32]
    assert (piv["rept"] <= piv["triest_s"] + 1e-9).all()


# The fig3-fig6 calls of repro.reproduce (small profile), on YouTube only.
GATE = {
    "global_nrmse_pinv10": lambda spark, **kw: run_global_nrmse(
        spark, p_inv=10, c_list=[2, 4, 8, 16, 32], r_rept=100, r_pool=10, **kw),
    "global_nrmse_pinv100": lambda spark, **kw: run_global_nrmse(
        spark, p_inv=100, c_list=[20, 80, 320], r_rept=60, r_pool=6, **kw),
    "local_nrmse_pinv10": lambda spark, **kw: run_local_nrmse(
        spark, p_inv=10, c_list=[2, 8, 32], r_rept=30, r_pool=5, **kw),
    "local_nrmse_pinv100": lambda spark, **kw: run_local_nrmse(
        spark, p_inv=100, c_list=[20, 80, 320], r_rept=20, r_pool=4, **kw),
}


def _assert_rows_equal_committed(spark, name: str, methods: tuple[str, ...]) -> None:
    got = GATE[name](spark, datasets=["YouTube"], methods=methods)
    want = _read(name, float_precision="round_trip")
    want = want[(want["graph"] == "YouTube") & want["method"].isin(methods)]
    assert len(got) > 0
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True), want.reset_index(drop=True), check_exact=True
    )


@pytest.mark.parametrize("name", GATE)
def test_closed_form_rows_equal_committed(spark, name):
    """REPT and MASCOT rows of the YouTube analog, recomputed into the
    private results directory, equal the committed CSV bit for bit.
    ``round_trip`` parsing: pandas' default parser is off by up to a few
    ulps on these cells."""
    _assert_rows_equal_committed(spark, name, ("rept", "mascot"))


@pytest.mark.parametrize("name", GATE)
def test_stream_rows_equal_committed(spark, name):
    """Trièst and GPS rows of the YouTube analog, from the simulators'
    Spark fan-out, equal the committed CSV bit for bit. Figs 5/6 run no
    GPS, and their harness refuses a method it does not run."""
    methods = ("triest",) if name.startswith("local") else ("triest", "gps")
    _assert_rows_equal_committed(spark, name, methods)
