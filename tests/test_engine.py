"""Tests for the Spark-parallel streaming trial driver."""
import importlib
import os
import sys
import zipfile
import zipimport

import numpy as np
import pandas as pd
import pytest

from repro.stream.engine import (
    _drop_zip_finders,
    global_estimates,
    pooled_parallel_estimates,
    pooled_parallel_local,
    run_stream_trials,
)
from repro.stream.gps import gps_processor
from repro.stream.mascot import mascot_processor
from repro.stream.rept import rept_processor, rept_run
from repro.stream.triest import triest_processor
from tests.helpers import tiny_stream


@pytest.fixture(scope="module")
def yt(tables_for):
    return tables_for("YouTube", 0.1).stream


def test_all_trials_returned(spark, yt):
    specs = [{"method": "mascot", "p": 0.3, "seed": i} for i in range(7)]
    out = run_stream_trials(spark, yt, specs)
    ge = global_estimates(out)
    assert sorted(ge.index.tolist()) == list(range(7))


def test_empty_specs(spark, yt):
    out = run_stream_trials(spark, yt, [])
    assert out.empty
    assert out.dtypes.astype(str).tolist() == [
        "int64", "int64", "float64", "float64", "int64", "float64"
    ]


def test_one_job_one_task_per_core(spark, yt, job_group):
    specs = [{"method": "mascot", "p": 0.3, "seed": i} for i in range(10)]
    run_stream_trials(spark, yt, specs)
    assert job_group() == (1, min(10, spark.sparkContext.defaultParallelism))


def test_fanout_leaves_no_broadcast_file(spark, yt):
    """The fan-out destroys its broadcast, so the driver's pickled copy of
    the stream in the context's temp dir does not outlive the call."""
    temp_dir = spark.sparkContext._temp_dir
    before = set(os.listdir(temp_dir))
    run_stream_trials(spark, yt, [{"method": "mascot", "p": 0.3, "seed": i} for i in range(4)])
    assert set(os.listdir(temp_dir)) <= before


def test_output_dtypes(spark, yt):
    specs = [{"method": "rept", "m": 3, "proc": i, "seed": 1} for i in range(3)]
    out = run_stream_trials(spark, yt, specs, track_local=True)
    assert out.dtypes.astype(str).tolist() == [
        "int64", "int64", "float64", "float64", "int64", "float64"
    ]
    assert out.equals(out.sort_values(["trial", "v"]).reset_index(drop=True))


def _direct(stream, spec):
    """(est, eta, n_sampled, local est, local eta) of the simulator call
    a spec stands for, with local counts on."""
    method, seed = spec["method"], spec["seed"]
    if method == "rept":
        r = rept_processor(stream, spec["m"], spec["proc"], seed, track_eta=True, track_local=True)
        return r["tau"], r["eta"], r["n_sampled"], r["tau_v"], r["eta_v"]
    if method == "mascot":
        r = mascot_processor(stream, spec["p"], seed, track_local=True)
    elif method == "triest":
        r = triest_processor(stream, spec["budget"], seed, track_local=True)
    else:
        r = gps_processor(stream, spec["budget"], seed, track_local=True)
    return r["tau_hat"], 0.0, r["n_sampled"], r["tau_v_hat"], {}


def test_mixed_fanout_equals_direct_calls(spark, yt):
    specs = (
        [{"method": "rept", "m": 3, "proc": i, "seed": 4, "track_eta": True} for i in range(3)]
        + [{"method": "mascot", "p": 0.4, "seed": i} for i in range(2)]
        + [{"method": "triest", "budget": 150, "seed": i} for i in range(2)]
        + [{"method": "gps", "budget": 75, "seed": i} for i in range(2)]
    )
    out = run_stream_trials(spark, yt, specs, track_local=True)
    for trial, spec in enumerate(specs):
        rows = out[out["trial"] == trial]
        glob = rows[rows["v"] == -1].iloc[0]
        loc = rows[rows["v"] >= 0]
        est, eta, n_sampled, tau_v, eta_v = _direct(yt, spec)
        assert (glob["est"], glob["eta"], glob["n_sampled"]) == (est, eta, n_sampled)
        assert dict(zip(loc["v"], loc["est"])) == tau_v
        assert dict(zip(loc["v"], loc["eta"])) == {v: eta_v.get(v, 0) for v in tau_v}


@pytest.mark.parametrize(
    "spec,direct",
    [
        ({"method": "rept", "m": 4, "proc": 1, "seed": 5}, lambda s: rept_processor(s, 4, 1, 5)["tau"]),
        ({"method": "mascot", "p": 0.25, "seed": 6}, lambda s: mascot_processor(s, 0.25, 6)["tau_hat"]),
        ({"method": "triest", "budget": 200, "seed": 7}, lambda s: triest_processor(s, 200, 7)["tau_hat"]),
    ],
)
def test_engine_matches_direct_call(spark, yt, spec, direct):
    out = global_estimates(run_stream_trials(spark, yt, [spec]))
    assert out["est"].iloc[0] == direct(yt)


def test_rept_eta_carried(spark, yt):
    spec = {"method": "rept", "m": 3, "proc": 0, "seed": 2, "track_eta": True}
    out = global_estimates(run_stream_trials(spark, yt, [spec]))
    want = rept_processor(yt, 3, 0, 2, track_eta=True)["eta"]
    assert out["eta"].iloc[0] == want


def test_local_rows(spark, yt):
    spec = {"method": "mascot", "p": 0.5, "seed": 3}
    out = run_stream_trials(spark, yt, [spec], track_local=True)
    loc = out[out["v"] >= 0]
    want = mascot_processor(yt, 0.5, 3, track_local=True)["tau_v_hat"]
    got = {int(v): e for v, e in zip(loc["v"], loc["est"])}
    assert got == want


def test_elapsed_positive(spark, yt):
    specs = [{"method": "mascot", "p": 0.2, "seed": i} for i in range(3)]
    ge = global_estimates(run_stream_trials(spark, yt, specs))
    assert (ge["elapsed"] > 0).all()


def test_unknown_method_raises(spark, yt):
    with pytest.raises(ValueError):
        run_stream_trials(spark, yt, [{"method": "nope", "seed": 1}])


@pytest.mark.parametrize(
    "spec",
    [
        {"method": "nope", "seed": 1},
        {"seed": 1},
        {"method": "rept", "m": 4, "seed": 1},
        {"method": "mascot", "seed": 1},
        {"method": "rept", "m": 0, "proc": 0, "seed": 1},
        {"method": "rept", "m": 4, "proc": 4, "seed": 1},
        {"method": "rept", "m": 4, "proc": -1, "seed": 1},
        {"method": "mascot", "p": 0.0, "seed": 1},
        {"method": "mascot", "p": 1.5, "seed": 1},
        {"method": "triest", "budget": 1, "seed": 1},
        {"method": "gps", "budget": 1, "seed": 1},
        {"method": "triest", "budget": 3.7, "seed": 1},
        {"method": "gps", "budget": 2.5, "seed": 1},
        {"method": "triest", "budget": True, "seed": 1},
        {"method": "rept", "m": 2.5, "proc": 0, "seed": 1},
        {"method": "rept", "m": 4, "proc": 1.5, "seed": 1},
        {"method": "rept", "m": True, "proc": 0, "seed": 1},
        {"method": "rept", "m": 4, "proc": False, "seed": 1},
        {"method": "mascot", "p": 0.5, "seed": 1.5},
        {"method": "triest", "budget": 4, "seed": -1},
        {"method": "gps", "budget": 4, "seed": 2**64},
        {"method": "rept", "m": 4, "proc": 0, "seed": True},
        {"method": "mascot", "p": 0.5, "seed": None},
        {"method": "gps", "budget": True, "seed": 1},
        {"method": "mascot", "p": True, "seed": 1},
        {"method": "mascot", "p": None, "seed": 1},
        {"method": "rept", "m": 4, "proc": 0, "seed": 1.5},
        {"method": "rept", "m": 4, "proc": 0, "seed": -1},
        {"method": "rept", "m": 4, "proc": 0, "seed": 2**64},
        {"method": "rept", "m": 4, "proc": 0, "seed": None},
        {"method": "mascot", "p": 0.5, "seed": -1},
        {"method": "mascot", "p": 0.5, "seed": 2**64},
        {"method": "mascot", "p": 0.5, "seed": True},
        {"method": "triest", "budget": 4, "seed": 1.5},
        {"method": "triest", "budget": 4, "seed": 2**64},
        {"method": "triest", "budget": 4, "seed": True},
        {"method": "triest", "budget": 4, "seed": None},
        {"method": "gps", "budget": 4, "seed": 1.5},
        {"method": "gps", "budget": 4, "seed": -1},
        {"method": "gps", "budget": 4, "seed": True},
        {"method": "gps", "budget": 4, "seed": None},
    ],
    ids=[
        "unknown_method", "no_method", "missing_proc", "missing_p", "m<1",
        "proc>=m", "proc<0", "p=0", "p>1", "triest_budget<2", "gps_budget<2",
        "triest_budget_float", "gps_budget_float", "triest_budget_bool", "m_float",
        "proc_float", "m_bool", "proc_bool", "mascot_seed_float", "triest_seed<0",
        "gps_seed>=2^64", "rept_seed_bool", "mascot_seed_none", "gps_budget_bool",
        "p_bool", "p_none", "rept_seed_float", "rept_seed<0", "rept_seed>=2^64",
        "rept_seed_none", "mascot_seed<0", "mascot_seed>=2^64", "mascot_seed_bool",
        "triest_seed_float", "triest_seed>=2^64", "triest_seed_bool", "triest_seed_none",
        "gps_seed_float", "gps_seed<0", "gps_seed_bool", "gps_seed_none",
    ],
)
def test_bad_spec_rejected_before_any_job(spark, yt, job_group, spec):
    good = {"method": "mascot", "p": 0.5, "seed": 1}
    with pytest.raises(ValueError):
        run_stream_trials(spark, yt, [good, spec])
    assert job_group() == (0, 0)


@pytest.mark.parametrize(
    "call",
    [
        lambda s: rept_processor(s, 0, 0, 1),
        lambda s: rept_processor(s, 4, 4, 1),
        lambda s: rept_processor(s, 4, -1, 1),
        lambda s: mascot_processor(s, 0.0, 1),
        lambda s: mascot_processor(s, -1.0, 1),
        lambda s: mascot_processor(s, 1.5, 1),
        lambda s: triest_processor(s, 1, 1),
        lambda s: gps_processor(s, 1, 1),
        lambda s: rept_run(s, 4, 0, 1),
        lambda s: rept_run(s, 4, -1, 1),
        lambda s: rept_run(s, 0, 1, 1),
        lambda s: rept_processor(s, 2.5, 0, 1),
        lambda s: rept_processor(s, 4, 1.5, 1),
        lambda s: rept_processor(s, 4, 0, -1),
        lambda s: mascot_processor(s, 0.5, 1.5),
        lambda s: mascot_processor(s, 0.5, 2**64),
        lambda s: triest_processor(s, 3.7, 1),
        lambda s: triest_processor(s, True, 1),
        lambda s: triest_processor(s, 4, -1),
        lambda s: gps_processor(s, 2.5, 1),
        lambda s: gps_processor(s, 4, 1.0),
        lambda s: rept_run(s, 4, 2.5, 1),
        lambda s: rept_run(s, 2.5, 3, 1),
        lambda s: rept_run(s, 4, True, 1),
        lambda s: rept_run(s, True, 3, 1),
        lambda s: rept_run(s, 4, 3, 1.5),
        lambda s: rept_run(s, 4, 6, -1),
        lambda s: rept_run(s, 4, 3, 2**64),
        lambda s: rept_run(s, 4, 6, None),
        lambda s: rept_processor(s, True, 0, 1),
        lambda s: rept_processor(s, 4, True, 1),
        lambda s: rept_processor(s, 4, 0, 2**64),
        lambda s: rept_processor(s, 4, 0, None),
        lambda s: mascot_processor(s, True, 1),
        lambda s: mascot_processor(s, None, 1),
        lambda s: mascot_processor(s, 0.5, -1),
        lambda s: mascot_processor(s, 0.5, True),
        lambda s: triest_processor(s, 0, 1),
        lambda s: triest_processor(s, 4, 1.5),
        lambda s: triest_processor(s, 4, 2**64),
        lambda s: gps_processor(s, True, 1),
        lambda s: gps_processor(s, 4, -1),
        lambda s: gps_processor(s, 4, None),
    ],
    ids=[
        "m<1", "proc>=m", "proc<0", "p=0", "p<0", "p>1", "triest_budget<2", "gps_budget<2",
        "rept_run_c=0", "rept_run_c<0", "rept_run_m<1", "m_float", "proc_float",
        "rept_seed<0", "mascot_seed_float", "mascot_seed>=2^64", "triest_budget_float",
        "triest_budget_bool", "triest_seed<0", "gps_budget_float", "gps_seed_float",
        "rept_run_c_float", "rept_run_m_float", "rept_run_c_bool", "rept_run_m_bool",
        "rept_run_seed_float", "rept_run_seed<0", "rept_run_seed>=2^64", "rept_run_seed_none",
        "m_bool", "proc_bool", "rept_seed>=2^64", "rept_seed_none", "p_bool", "p_none",
        "mascot_seed<0", "mascot_seed_bool", "triest_budget=0", "triest_seed_float",
        "triest_seed>=2^64", "gps_budget_bool", "gps_seed<0", "gps_seed_none",
    ],
)
def test_bad_parameters_rejected_by_direct_call(call):
    with pytest.raises(ValueError):
        call(tiny_stream())


@pytest.mark.parametrize(
    "call,args,numpy_args",
    [
        (rept_processor, (4, 1, 2**64 - 1), (np.int64(4), np.int64(1), np.uint64(2**64 - 1))),
        (mascot_processor, (0.5, 2**64 - 1), (0.5, np.uint64(2**64 - 1))),
        (triest_processor, (5, 0), (np.int64(5), np.int64(0))),
        (gps_processor, (5, 2**64 - 1), (np.int32(5), 2**64 - 1)),
    ],
    ids=["rept", "mascot", "triest", "gps"],
)
def test_numpy_and_edge_integers_accepted(call, args, numpy_args):
    s = tiny_stream()
    want, got = call(s, *args, track_local=True), call(s, *numpy_args, track_local=True)
    del want["elapsed"], got["elapsed"]
    assert got == want


def _zip_finders() -> list[str]:
    return [p for p, f in sys.path_importer_cache.items() if isinstance(f, zipimport.zipimporter)]


def test_drop_zip_finders(tmp_path):
    archive = tmp_path / "mods.zip"
    with zipfile.ZipFile(archive, "w") as z:
        z.writestr("zipfinder_probe_a.py", "VALUE = 'a'\n")
        z.writestr("zipfinder_probe_b.py", "VALUE = 'b'\n")
    saved_path, saved_cache = list(sys.path), dict(sys.path_importer_cache)
    sys.path.insert(0, str(archive))
    try:
        assert importlib.import_module("zipfinder_probe_a").VALUE == "a"
        assert str(archive) in _zip_finders()
        _drop_zip_finders()
        assert _zip_finders() == []
        # the finder is a cache: the next import from the zip still works
        assert importlib.import_module("zipfinder_probe_b").VALUE == "b"
    finally:
        sys.path[:] = saved_path
        sys.path_importer_cache.clear()
        sys.path_importer_cache.update(saved_cache)
        for name in ("zipfinder_probe_a", "zipfinder_probe_b"):
            sys.modules.pop(name, None)


def test_pooled_parallel_estimates():
    out = pooled_parallel_estimates(np.arange(12, dtype=float), 4)
    assert out.tolist() == [1.5, 5.5, 9.5]
    for c in (0, -1, -2, 2.5, True):
        with pytest.raises(ValueError, match="need c >= 1"):
            pooled_parallel_estimates(np.arange(12, dtype=float), c)


def test_pooled_parallel_local(spark, yt):
    specs = [{"method": "mascot", "p": 0.5, "seed": i} for i in range(4)]
    out = run_stream_trials(spark, yt, specs, track_local=True)
    nodes = np.unique(np.concatenate([yt.u, yt.v]))
    est = pooled_parallel_local(out, 2, 4, nodes)
    assert est.shape == (2, len(nodes))
    for c in (0, -1, 2.5, True):
        with pytest.raises(ValueError, match="need c >= 1"):
            pooled_parallel_local(out, c, 2, nodes)
    # run r is the mean of trials 2r and 2r + 1, absent nodes adding 0
    direct = [mascot_processor(yt, 0.5, i, track_local=True)["tau_v_hat"] for i in range(4)]
    want = [
        [(direct[2 * r].get(v, 0.0) + direct[2 * r + 1].get(v, 0.0)) / 2 for v in nodes.tolist()]
        for r in range(2)
    ]
    assert est.tolist() == want


@pytest.mark.parametrize(
    "trial,v,est,c,n_trials,nodes,want",
    [
        # node 7 is held by trial 1 only: est/c; the v = -1 row is global
        ([0, 0, 1, 1], [-1, 5, 5, 7], [99.0, 6.0, 2.0, 3.0], 2, 2, [5, 7, 9], [[4.0, 1.5, 0.0]]),
        # 5 trials at c = 2 give 2 runs; trial 4 is left out
        ([0, 2, 3, 4], [5, 5, 5, 5], [2.0, 4.0, 6.0, 100.0], 2, 5, [5], [[1.0], [5.0]]),
        ([0, 1, 2], [-1, -1, -1], [1.0, 2.0, 3.0], 3, 3, [5, 7], [[0.0, 0.0]]),
        ([], [], [], 2, 4, [5], [[0.0], [0.0]]),
    ],
    ids=["one-trial-at-a-node", "trials-past-last-run", "global-rows-only", "empty-pool"],
)
def test_pooled_parallel_local_rows(trial, v, est, c, n_trials, nodes, want):
    trials = pd.DataFrame({"trial": trial, "v": v, "est": est}).astype(
        {"trial": "int64", "v": "int64", "est": "float64"}
    )
    assert pooled_parallel_local(trials, c, n_trials, np.array(nodes)).tolist() == want
