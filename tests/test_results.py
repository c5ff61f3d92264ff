"""The paper's shapes, checked on the committed ``results/*.csv``.

Each test reads one committed CSV and writes nothing. The thresholds
allow for the small run counts behind each cell (EXPERIMENTS.md).
"""
from pathlib import Path

import pandas as pd
import pytest

RESULTS = Path(__file__).resolve().parents[1] / "results"


def _read(name: str) -> pd.DataFrame:
    return pd.read_csv(RESULTS / f"{name}.csv")


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
