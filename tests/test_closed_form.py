"""Input validation at the entry points of the closed-form evaluator, and
its thread pool."""
import dataclasses
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

import repro
from repro.core import closed_form
from repro.core.closed_form import (
    mascot_local_trial_counts,
    mascot_trial_estimates,
    processor_counts,
    rept_global_runs,
    rept_local_runs,
)
from repro.core.estimators import rept_estimate
from repro.core.hashing import bucket, rept_groups, uniform01
from repro.graphs.exact import build_tables
from tests.helpers import BAD_STREAMS, tiny_stream


# Each call is rejected before it touches the session or the tables.
BAD_CALLS = {
    "m<1": lambda: rept_global_runs(None, None, 0, 4, [1]),
    "c<1": lambda: rept_local_runs(None, None, 4, 0, [1]),
    "no_seeds": lambda: rept_global_runs(None, None, 4, 2, []),
    "p=0": lambda: mascot_trial_estimates(None, None, 0.0, [1]),
    "p>1": lambda: mascot_local_trial_counts(None, None, 1.5, [1]),
    "no_trials": lambda: mascot_trial_estimates(None, None, 0.5, []),
    "no_local_trials": lambda: mascot_local_trial_counts(None, None, 0.5, []),
    "u>=v": lambda: build_tables(
        None, dataclasses.replace(tiny_stream(), u=tiny_stream().v, v=tiny_stream().u)
    ),
    "repeated_key": lambda: build_tables(None, BAD_STREAMS["repeated_edge"](tiny_stream())),
}
_REPT = {"rept_global_runs": rept_global_runs, "rept_local_runs": rept_local_runs}
_MASCOT = {"mascot_trial_estimates": mascot_trial_estimates,
           "mascot_local_trial_counts": mascot_local_trial_counts}
# A bad seed after a good one, at every entry point.
for _seed in (1.5, -1, 2**64, True, None):
    for _name, _f in _REPT.items():
        BAD_CALLS[f"{_name}_seed={_seed!r}"] = lambda f=_f, s=_seed: f(None, None, 4, 2, [1, s])
    for _name, _f in _MASCOT.items():
        BAD_CALLS[f"{_name}_seed={_seed!r}"] = lambda f=_f, s=_seed: f(None, None, 0.5, [1, s])
for _x in (2.5, True, 0):
    for _name, _f in _REPT.items():
        BAD_CALLS[f"{_name}_m={_x!r}"] = lambda f=_f, x=_x: f(None, None, x, 2, [1])
        BAD_CALLS[f"{_name}_c={_x!r}"] = lambda f=_f, x=_x: f(None, None, 4, x, [1])
for _p in (0, 1.5, True, None):
    for _name, _f in _MASCOT.items():
        BAD_CALLS[f"{_name}_p={_p!r}"] = lambda f=_f, p=_p: f(None, None, p, [1])


@pytest.mark.parametrize("name", BAD_CALLS)
def test_rejects_bad_input(name):
    with pytest.raises(ValueError):
        BAD_CALLS[name]()


# The thread pool: every output equals the one-seed-at-a-time evaluation,
# and the pool starts and keeps no more threads than it is sized for.
W = closed_form._WORKERS
SEED_COUNTS = sorted({1, max(1, W - 1), W, W + 1, 100})
REPT_CASES = {"c<m": (5, 3), "c=m": (5, 5), "c=2m": (3, 6), "c>m_leftover": (3, 7),
              "m>256": (300, 250), "m>256_leftover": (300, 305)}


@pytest.fixture
def pooled(monkeypatch):
    """Every call runs its tasks on the pool, however small the graph."""
    monkeypatch.setattr(closed_form, "_MIN_TASK", 1)


@pytest.fixture(scope="module")
def dense():
    """30 nodes, 300 edges, 1,321 triangles: dense enough that runs at
    m = 300 still see semi-triangles."""
    return build_tables(None, tiny_stream(n_nodes=30, n_edges=300, seed=1))


def _per_seed_rept(t, m, c, seed, local):
    """One REPT run alone: ``processor_counts`` per group of its plan,
    then ``rept_estimate``."""
    plan = rept_groups(m, c, seed)
    tau, eta = ("tau_v", "eta_v") if local else ("tau", "eta")
    counts = [processor_counts(t.index, bucket(t.stream.k, s, m), lim, local) for s, lim in plan]
    eta_sum = sum(x[eta].sum(axis=0) for x in counts) if len(plan) > 1 else 0
    return rept_estimate(np.concatenate([x[tau] for x in counts]), eta_sum, m, c)


@pytest.mark.parametrize("n", SEED_COUNTS)
@pytest.mark.parametrize("case", REPT_CASES)
def test_rept_global_pool_equals_per_seed(dense, pooled, case, n):
    m, c = REPT_CASES[case]
    assert (bucket(dense.stream.k, 1, m).dtype == np.uint16) == (m > 256)
    seeds = [500 + i for i in range(n)]
    got = rept_global_runs(None, dense, m, c, seeds)
    want = [_per_seed_rept(dense, m, c, s, local=False) for s in seeds]
    assert got["run"].tolist() == list(range(n))
    assert list(got.columns[1:]) == list(want[0])
    for col in want[0]:
        assert got[col].tolist() == [float(w[col]) for w in want]


@pytest.mark.parametrize("n", SEED_COUNTS)
@pytest.mark.parametrize("case", REPT_CASES)
def test_rept_local_pool_equals_per_seed(dense, pooled, case, n):
    m, c = REPT_CASES[case]
    seeds = [500 + i for i in range(n)]
    got = rept_local_runs(None, dense, m, c, seeds)
    want = np.stack([_per_seed_rept(dense, m, c, s, local=True)["tau_hat"] for s in seeds])
    assert got.dtype == want.dtype == np.float64
    assert got.tolist() == want.tolist()


@pytest.mark.parametrize("p", [0.01, 0.1, 1.0])
@pytest.mark.parametrize("n", [1, 63, 64, 65, 130])
def test_mascot_split_scan_equals_per_seed(dense, pooled, p, n):
    """Every word's scan is split over all the workers; each trial still
    equals its own held test ``uniform01(k, seed) < p`` on the open
    edges, the simulator's."""
    key, (a1, a2) = dense.index.open_keys, dense.index.open_rows
    want = []
    for seed in range(n):
        held = uniform01(key, seed) < p
        want.append(np.count_nonzero(held[a1] & held[a2]) / (p * p))
    assert mascot_trial_estimates(None, dense, p, list(range(n))).tolist() == want


@pytest.mark.parametrize("graph", [(40, 5, 0), (12, 14, 0), (8, 12, 0)],
                         ids=["no_triangle", "1_triangle", "4_triangles"])
def test_word_scan_with_empty_slices(graph):
    """Split into more slices than there are triangles, a word's counts
    equal the unsplit scan's."""
    t = build_tables(None, tiny_stream(*graph))
    a1, a2 = t.index.open_rows
    word = next(closed_form._words(t, 0.8, list(range(50))))[2]
    want = closed_form._word_counts(word, a1, a2, 50, 1)
    assert want.sum() > 0 or t.tau == 0
    for k in (2, W, len(a1) + 1, 2 * len(a1) + 5):
        assert closed_form._word_counts(word, a1, a2, 50, k).tolist() == want.tolist()


def test_import_starts_no_thread():
    code = ("import threading; n = threading.active_count(); "
            "import repro.core.closed_form as cf; "
            "assert threading.active_count() == n and cf._POOL is None")
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_threads_bounded_by_pool_size(dense, pooled):
    base = threading.active_count()
    for i in range(100):
        rept_global_runs(None, dense, 5, 3, [i, i + 1000, i + 2000])
        mascot_trial_estimates(None, dense, 0.5, [i, i + 1000])
    assert threading.active_count() <= base + W


def _no_pool():
    raise AssertionError("a pool task was submitted")


def test_small_work_stays_on_calling_thread(dense, monkeypatch):
    """1,621 edges and triangles are below ``_MIN_TASK``: no pool task."""
    monkeypatch.setattr(closed_form, "_pool", _no_pool)
    rept_global_runs(None, dense, 3, 7, [1, 2])
    rept_local_runs(None, dense, 3, 7, [1, 2])
    mascot_trial_estimates(None, dense, 0.5, [1, 2])


@pytest.mark.parametrize("name", BAD_CALLS)
def test_rejects_bad_input_before_any_task(name, monkeypatch):
    monkeypatch.setattr(closed_form, "_pool", _no_pool)
    with pytest.raises(ValueError):
        BAD_CALLS[name]()
