"""Smoke + behavioral tests of the experiment harnesses at tiny scale,
including the paper's headline claim (REPT beats naive parallelism).
"""
import os

import numpy as np
import pandas as pd
import pytest

import repro.experiments.common as common
import repro.experiments.fig1 as fig1
import repro.experiments.global_nrmse as global_nrmse
import repro.experiments.local_nrmse as local_nrmse
import repro.experiments.runtime as runtime
import repro.experiments.single_thread as single_thread
import repro.experiments.table2 as table2
from repro.core.closed_form import mascot_trial_estimates, rept_global_runs
from repro.core.estimators import nrmse
from repro.core.hashing import mix_seeds
from repro.experiments.fig1 import run_fig1
from repro.experiments.global_nrmse import run_global_nrmse
from repro.experiments.local_nrmse import run_local_nrmse
from repro.experiments.runtime import run_runtime
from repro.experiments.single_thread import run_single_thread
from repro.experiments.table2 import run_table2
from repro.stream.gps import gps_processor
from repro.stream.triest import triest_processor
from tests.helpers import SMALL_SCALE

DS = ["YouTube", "Flickr"]


@pytest.mark.parametrize(
    "p,n_edges,want",
    [(0.1, 1000, (100, 50)), (0.001, 1000, (2, 2)), (0.003, 1000, (3, 2)), (3.0, 1000, (1000, 500))],
    ids=["p|E|", "floor", "gps_floor", "clip"],
)
def test_baseline_budgets(p, n_edges, want):
    assert common.baseline_budgets(p, n_edges) == want


def test_table2(spark):
    out = run_table2(spark, datasets=DS, scale=SMALL_SCALE)
    assert set(out["graph"]) == set(DS)
    assert (out["triangles"] > 0).all()
    assert (out["paper_triangles"] > out["triangles"]).all()


def test_fig1(spark):
    out = run_fig1(spark, datasets=DS, ps=(0.1, 0.01), scale=SMALL_SCALE)
    assert len(out) == len(DS) * 2
    assert (out["term_tau"] > 0).all()
    # covariance term shrinks relative to tau term as p decreases
    for g in DS:
        sub = out[out["graph"] == g].set_index("p")
        assert (
            sub.loc[0.01, "cov_over_tau_term"] < sub.loc[0.1, "cov_over_tau_term"]
        )


def test_fig1_flickr_covariance_dominates(spark):
    # Needs cliques big enough for η/τ > ~6 (the paper's Fig 1 regime);
    # the default test scale shrinks them too far, so use 0.4.
    out = run_fig1(spark, datasets=["Flickr"], ps=(0.1,), scale=0.4)
    assert out["cov_over_tau_term"].iloc[0] > 1.0


class TestGlobalNRMSE:
    @pytest.fixture(scope="class")
    def result(self, spark):
        return run_global_nrmse(
            spark, p_inv=5, c_list=[2, 5], datasets=["Flickr"],
            r_rept=60, r_pool=8, scale=SMALL_SCALE,
        )

    def test_shape(self, result):
        assert set(result["method"]) == {"rept", "mascot", "triest", "gps"}
        assert set(result["c"]) == {2, 5}
        assert (result["nrmse"] >= 0).all() and np.isfinite(result["nrmse"]).all()

    def test_rept_beats_mascot_at_c_eq_m(self, result):
        sub = result[result["c"] == 5].set_index("method")["nrmse"]
        assert sub["rept"] < sub["mascot"]

    def test_error_decreases_with_c(self, result):
        rept = result[result["method"] == "rept"].set_index("c")["nrmse"]
        assert rept[5] < rept[2] * 1.2  # allow noise; must not blow up


def test_global_nrmse_c_gt_m(spark):
    out = run_global_nrmse(
        spark, p_inv=3, c_list=[7], datasets=["YouTube"],
        methods=("rept", "mascot"), r_rept=40, r_pool=6, scale=SMALL_SCALE,
    )
    sub = out.set_index("method")["nrmse"]
    assert np.isfinite(sub["rept"]) and sub["rept"] < sub["mascot"] * 1.5


def test_global_nrmse_closed_forms_start_no_job(spark, job_group):
    # c > m: REPT's Algorithm 2 and the packed MASCOT pool run on the driver.
    out = run_global_nrmse(
        spark, p_inv=3, c_list=[7], datasets=["YouTube"],
        methods=("rept", "mascot"), r_rept=40, r_pool=6, scale=SMALL_SCALE,
    )
    assert set(out["method"]) == {"rept", "mascot"}
    assert job_group() == (0, 0)


def test_local_nrmse(spark):
    out = run_local_nrmse(
        spark, p_inv=4, c_list=[4], datasets=["Flickr"],
        r_rept=12, r_pool=3, scale=SMALL_SCALE,
    )
    assert set(out["method"]) == {"rept", "mascot", "triest"}
    assert (out["nrmse"] > 0).all() and np.isfinite(out["nrmse"]).all()
    sub = out.set_index("method")["nrmse"]
    assert sub["rept"] < sub["mascot"]


def test_local_nrmse_closed_forms_start_no_job(spark, job_group):
    # Exact τ_v and the REPT/MASCOT closed forms all run on the driver.
    out = run_local_nrmse(
        spark, p_inv=4, c_list=[4], datasets=["Flickr"], methods=("rept", "mascot"),
        r_rept=12, r_pool=3, scale=SMALL_SCALE,
    )
    assert set(out["method"]) == {"rept", "mascot"}
    assert job_group() == (0, 0)


def test_runtime(spark):
    out = run_runtime(
        spark, c=3, p_invs=(10,), datasets=["YouTube"], scale=SMALL_SCALE
    )
    assert set(out["method"]) == {"rept", "mascot", "triest", "gps"}
    assert (out["max_proc_time_s"] > 0).all()
    assert (out["total_proc_time_s"] >= out["max_proc_time_s"]).all()


def test_single_thread(spark):
    out = run_single_thread(
        spark, dataset="Flickr", p_inv=10, c_list=[4], r_err=4, r_rept=12,
        scale=SMALL_SCALE,
    )
    assert set(out["method"]) == {"rept", "mascot_s", "triest_s", "gps_s"}
    assert (out["time_s"] > 0).all()
    assert np.isfinite(out["nrmse"]).all()


def test_global_nrmse_runs_one_fanout_per_dataset(spark, job_group):
    # The Trièst and GPS pools share one fan-out; REPT and MASCOT start none.
    out = run_global_nrmse(
        spark, p_inv=5, c_list=[2, 5], datasets=["YouTube"], r_rept=2, r_pool=2,
        scale=SMALL_SCALE,
    )
    assert list(out["method"]) == ["rept", "mascot", "triest", "gps"] * 2
    assert job_group()[0] == 1


def test_runtime_runs_one_fanout_per_p(spark, job_group):
    out = run_runtime(spark, c=2, p_invs=(10, 5), datasets=["YouTube"], scale=SMALL_SCALE)
    assert list(out["method"]) == ["gps", "mascot", "rept", "triest"] * 2
    assert job_group()[0] == 2


def test_single_thread_runs_one_fanout_per_c(spark, job_group):
    out = run_single_thread(
        spark, dataset="YouTube", p_inv=10, c_list=[2, 4], r_err=2, r_rept=2, scale=SMALL_SCALE,
    )
    assert list(out["method"]) == ["rept", "mascot_s", "triest_s", "gps_s"] * 2
    assert job_group()[0] == 2


def test_single_thread_nrmse_equals_recomputation(spark, tables_for):
    """Each Fig 8 NRMSE, recomputed at the harness's seeds: the closed
    form for REPT and MASCOT-S, the sequential processors for Trièst-S and
    GPS-S (`==`)."""
    p_inv, c_list, r_err, r_rept = 10, [2, 12], 3, 4
    out = run_single_thread(
        spark, dataset="YouTube", p_inv=p_inv, c_list=c_list, r_err=r_err, r_rept=r_rept,
        scale=SMALL_SCALE,
    )
    t = tables_for("YouTube")
    base = common.dataset_seed(7, "YouTube", p_inv, 8888)
    want = []
    for c in c_list:
        budgets = common.baseline_budgets(c / p_inv, t.stream.n_edges)
        rept = rept_global_runs(
            spark, t, p_inv, c, [mix_seeds(base, 4, c, i) for i in range(r_rept)]
        )
        mascot = mascot_trial_estimates(
            spark, t, min(1.0, c / p_inv), [mix_seeds(base, 5, c, i) for i in range(r_err)]
        )
        want += [nrmse(rept["tau_hat"].to_numpy(), t.tau), nrmse(mascot, t.tau)]
        for gps, (run, budget) in enumerate(zip((triest_processor, gps_processor), budgets)):
            est = [run(t.stream, budget, mix_seeds(base, 6, c, bool(gps), i))["tau_hat"]
                   for i in range(r_err)]
            want.append(nrmse(np.array(est, dtype=np.float64), t.tau))
    assert list(out["c"]) == [c for c in c_list for _ in range(4)]
    assert list(out["nrmse"]) == want


# Valid calls, each changed by one bad parameter below.
HARNESSES = {
    "global": (run_global_nrmse, dict(p_inv=10, c_list=[2], datasets=["YouTube"], r_rept=2,
                                      r_pool=2, scale=SMALL_SCALE)),
    "local": (run_local_nrmse, dict(p_inv=10, c_list=[2], datasets=["YouTube"], r_rept=2,
                                    r_pool=2, scale=SMALL_SCALE)),
    "runtime": (run_runtime, dict(c=2, p_invs=(10,), datasets=["YouTube"], scale=SMALL_SCALE)),
    "single": (run_single_thread, dict(dataset="YouTube", p_inv=10, c_list=[2], r_err=2, r_rept=2,
                                       scale=SMALL_SCALE)),
    "fig1": (run_fig1, dict(datasets=["YouTube"], ps=(0.1,), scale=SMALL_SCALE)),
    "table2": (run_table2, dict(datasets=["YouTube"], scale=SMALL_SCALE)),
}
BAD_PARAMETERS = [
    *[(h, {"p_inv": bad}) for h in ("global", "local", "single") for bad in (10.0, 0, True)],
    *[(h, {"c_list": bad}) for h in ("global", "local", "single") for bad in ([], [2.5], [0])],
    *[(h, {"seed": bad}) for h in HARNESSES for bad in (-1, 1.5)],
    *[(h, {"scale": bad})
      for h in HARNESSES for bad in (0, -0.5, float("nan"), True, "1", float("inf"))],
    *[(h, {r: bad}) for h, r in [("global", "r_rept"), ("global", "r_pool"), ("local", "r_rept"),
                                  ("local", "r_pool"), ("single", "r_rept"), ("single", "r_err")]
      for bad in (0, 1.5, True)],
    *[(h, {"datasets": bad})
      for h in ("global", "local", "runtime", "fig1", "table2") for bad in ([], ["Nope"])],
    ("single", {"dataset": "Nope"}),
    *[(h, {"methods": bad}) for h in ("global", "local") for bad in ((), ("rept", "nope"))],
    *[("local", {"methods": bad}) for bad in (("gps",), ("triest", "gps"))],
    *[("runtime", kw) for kw in ({"p_invs": ()}, {"p_invs": (10, 2.5)}, {"c": 0}, {"c": 2.5},
                                 {"c": 11}, {"p_invs": (10, 1)})],
    *[("fig1", {"ps": bad}) for bad in ((), (2.0,), (0,), (0.1, -0.5), (True,))],
]


@pytest.mark.parametrize(
    "harness,bad", BAD_PARAMETERS,
    ids=[f"{h}-{k}={v!r}" for h, kw in BAD_PARAMETERS for k, v in kw.items()],
)
def test_harness_refuses_bad_parameters_before_any_work(spark, job_group, tmp_path, monkeypatch,
                                                        harness, bad):
    def no_graph(*args, **kwargs):
        raise AssertionError("a graph was loaded before the parameters were checked")

    for mod, attr in [(global_nrmse, "get_tables"), (local_nrmse, "get_tables"),
                      (single_thread, "get_tables"), (runtime, "load_stream"),
                      (fig1, "get_tables"), (table2, "get_tables")]:
        monkeypatch.setattr(mod, attr, no_graph)
    monkeypatch.setattr(common, "RESULTS_DIR", str(tmp_path))
    run, kwargs = HARNESSES[harness]
    with pytest.raises(ValueError):
        run(spark, **{**kwargs, **bad})
    assert job_group() == (0, 0)
    assert os.listdir(tmp_path) == []


def test_save_result_failed_write_keeps_old_csv(tmp_path, monkeypatch):
    monkeypatch.setattr(common, "RESULTS_DIR", str(tmp_path))
    path = common.save_result(pd.DataFrame({"a": [1, 2]}), "x")
    with open(path) as f:
        before = f.read()

    def partial_write(self, target, **kwargs):
        with open(target, "w") as f:
            f.write("a\n")
        raise OSError("disk full")

    monkeypatch.setattr(pd.DataFrame, "to_csv", partial_write)
    with pytest.raises(OSError):
        common.save_result(pd.DataFrame({"a": [3]}), "x")
    with open(path) as f:
        assert f.read() == before
    assert os.listdir(tmp_path) == ["x.csv"]
