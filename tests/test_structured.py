"""Structured Streaming REPT equals the sequential processor exactly."""
import os
import pickle
import shutil

import pytest
from pyspark.errors import StreamingQueryException
from pyspark.sql.streaming import DataStreamWriter

from repro.core.estimators import rept_estimate
from repro.core.structured import (
    CHECKPOINT_MANAGER,
    CHECKPOINT_MANAGER_KEY,
    rept_structured_counts,
    write_stream_files,
)
from repro.graphs.datasets import load_stream, stream_pdf
from repro.stream.rept import ProcessorState, rept_processor, rept_run


@pytest.fixture(scope="module")
def small():
    return load_stream("YouTube", scale=0.05, seed=7, cache=False)


def _expected(stream, m, c, seed):
    return [rept_processor(stream, m, i, seed)["tau"] for i in range(c)]


FILE_CONTEXT_MANAGER = (
    "org.apache.spark.sql.execution.streaming.checkpointing.FileContextBasedCheckpointFileManager"
)


def _manager(spark):
    return spark.conf.get(CHECKPOINT_MANAGER_KEY, None)


@pytest.fixture
def managers_at_start(spark, monkeypatch):
    """The checkpoint manager conf in force as each query starts."""
    seen = []
    start = DataStreamWriter.start

    def recording_start(self, *args, **kwargs):
        seen.append(_manager(spark))
        return start(self, *args, **kwargs)

    monkeypatch.setattr(DataStreamWriter, "start", recording_start)
    return seen


def test_single_batch(spark, small, tmp_path, managers_at_start):
    m, c, seed = 4, 3, 99
    assert _manager(spark) is None
    write_stream_files(stream_pdf(small), str(tmp_path / "in"), n_files=1)
    res = rept_structured_counts(
        spark, str(tmp_path / "in"), m, c, seed, str(tmp_path / "ckpt")
    )
    assert res["tau"].tolist() == _expected(small, m, c, seed)
    assert managers_at_start == [CHECKPOINT_MANAGER]
    assert _manager(spark) is None


def test_one_state_partition_per_processor_c_eq_m(spark, small, tmp_path, managers_at_start):
    m = c = 3
    seed = 11
    assert _manager(spark) is None
    write_stream_files(stream_pdf(small), str(tmp_path / "in"), n_files=2)
    res = rept_structured_counts(
        spark, str(tmp_path / "in"), m, c, seed, str(tmp_path / "ckpt")
    )
    assert res["tau"].tolist() == _expected(small, m, c, seed)
    assert managers_at_start == [CHECKPOINT_MANAGER]
    assert _manager(spark) is None


def test_caller_conf_restored_when_start_fails(spark, small, tmp_path, monkeypatch):
    seen = []

    def failing_start(self, *args, **kwargs):
        seen.append(_manager(spark))
        raise RuntimeError("start failed")

    monkeypatch.setattr(DataStreamWriter, "start", failing_start)
    assert _manager(spark) is None
    write_stream_files(stream_pdf(small), str(tmp_path / "in"), n_files=1)
    with pytest.raises(RuntimeError):
        rept_structured_counts(spark, str(tmp_path / "in"), 4, 3, 1, str(tmp_path / "ckpt"))
    assert seen == [CHECKPOINT_MANAGER]
    assert _manager(spark) is None


def test_caller_checkpoint_manager_kept(spark, small, tmp_path, managers_at_start):
    m, c, seed = 3, 2, 5
    write_stream_files(stream_pdf(small), str(tmp_path / "in"), n_files=2)
    spark.conf.set(CHECKPOINT_MANAGER_KEY, FILE_CONTEXT_MANAGER)
    try:
        res = _run(spark, tmp_path, m, c, seed)
        assert managers_at_start == [FILE_CONTEXT_MANAGER]
        assert _manager(spark) == FILE_CONTEXT_MANAGER
    finally:
        spark.conf.unset(CHECKPOINT_MANAGER_KEY)
    assert res == _expected(small, m, c, seed)


def test_multi_batch_ordered(spark, small, tmp_path):
    m, c, seed = 3, 2, 5
    write_stream_files(stream_pdf(small), str(tmp_path / "in"), n_files=3)
    res = rept_structured_counts(
        spark, str(tmp_path / "in"), m, c, seed, str(tmp_path / "ckpt"),
        max_files_per_trigger=1,
    )
    assert res["tau"].tolist() == _expected(small, m, c, seed)


@pytest.mark.parametrize("n_files", [1, 3])
@pytest.mark.parametrize("m,c", [(2, 5), (3, 6)])
def test_c_gt_m_equals_rept_run(spark, small, tmp_path, m, c, n_files):
    """Algorithm 2 in one query: every group's processors, η included."""
    seed = 13
    write_stream_files(stream_pdf(small), str(tmp_path / "in"), n_files=n_files)
    res = rept_structured_counts(
        spark, str(tmp_path / "in"), m, c, seed, str(tmp_path / "ckpt"),
        max_files_per_trigger=1,
    )
    run = rept_run(small, m, c, seed)
    assert res["proc"].tolist() == list(range(c))
    assert res["tau"].tolist() == [p.tau for p in run["procs"]]
    assert res["eta"].tolist() == [p.eta for p in run["procs"]]
    assert res["eta"].sum() > 0
    got = rept_estimate(res["tau"], res["eta"].sum(), m, c)
    assert got["tau_hat"] == run["tau_hat"]


def test_snapshot_layout_c_le_m(spark, small, tmp_path):
    """A checkpoint keeps one flat list of c states and (m, c, seed), so
    snapshots written before Algorithm 2 ran in the sink still resume."""
    m, c, seed = 3, 2, 5
    write_stream_files(stream_pdf(small), str(tmp_path / "in"), n_files=2)
    res = _run(spark, tmp_path, m, c, seed)
    snaps = sorted((tmp_path / "ckpt" / "rept").glob("*.pkl"))
    with open(snaps[-1], "rb") as f:
        state = pickle.load(f)
    assert sorted(state) == ["procs", "settings", "t_max"]
    assert state["settings"] == (m, c, seed)
    assert [type(p) for p in state["procs"]] == [ProcessorState] * c
    assert [p.tau for p in state["procs"]] == res
    assert all(p.eta == 0 and not p.tau_edge for p in state["procs"])


@pytest.mark.parametrize(
    "m,c,seed",
    [(0, 1, 1), (4, 0, 1), (4, -1, 1), (2.5, 2, 1), (4, 2.5, 1), (True, 2, 1), (4, True, 1),
     (4, 2, 1.5), (4, 6, -1), (4, 2, 2**64), (4, 6, True), (4, 2, None)],
    ids=["m<1", "c<1", "c<0", "m_float", "c_float", "m_bool", "c_bool", "seed_float",
         "seed<0", "seed>=2^64", "seed_bool", "seed_none"],
)
def test_rejects_bad_m_c(spark, small, tmp_path, job_group, m, c, seed):
    write_stream_files(stream_pdf(small), str(tmp_path / "in"), n_files=2)
    with pytest.raises(ValueError):
        rept_structured_counts(
            spark, str(tmp_path / "in"), m, c, seed, str(tmp_path / "ckpt")
        )
    assert not (tmp_path / "ckpt").exists()
    assert job_group() == (0, 0)


@pytest.mark.parametrize("n_files", [0, -1, 2.5, True])
def test_write_stream_files_rejects_bad_n_files(small, tmp_path, n_files):
    with pytest.raises(ValueError, match="n_files"):
        write_stream_files(stream_pdf(small), str(tmp_path / "in"), n_files=n_files)
    assert not (tmp_path / "in").exists()


@pytest.mark.parametrize("max_files", [0, -1, 1.5, True])
def test_rejects_bad_max_files_per_trigger(spark, small, tmp_path, job_group, max_files):
    write_stream_files(stream_pdf(small), str(tmp_path / "in"), n_files=2)
    with pytest.raises(ValueError, match="max_files_per_trigger"):
        rept_structured_counts(
            spark, str(tmp_path / "in"), 3, 2, 1, str(tmp_path / "ckpt"),
            max_files_per_trigger=max_files,
        )
    assert not (tmp_path / "ckpt").exists()
    assert job_group() == (0, 0)


def test_write_stream_files_ordered(small, tmp_path):
    paths = write_stream_files(stream_pdf(small), str(tmp_path / "in"), n_files=4)
    assert len(paths) == 4
    mtimes = [os.path.getmtime(p) for p in paths]
    assert mtimes == sorted(mtimes)


def test_no_memory_table_left(spark, small, tmp_path):
    write_stream_files(stream_pdf(small), str(tmp_path / "in"), n_files=1)
    rept_structured_counts(spark, str(tmp_path / "in"), 3, 2, 1, str(tmp_path / "ckpt"))
    left = [t.name for t in spark.catalog.listTables() if t.name.startswith("rept_structured_")]
    assert left == []


def _run(spark, tmp_path, m, c, seed):
    return rept_structured_counts(
        spark, str(tmp_path / "in"), m, c, seed, str(tmp_path / "ckpt"),
        max_files_per_trigger=1,
    )["tau"].tolist()


def _stage(small, tmp_path):
    """Write 3 parts to a staging directory and move the first 2 into the
    query's input; return the third."""
    first, second, third = write_stream_files(stream_pdf(small), str(tmp_path / "stage"))
    os.makedirs(tmp_path / "in")
    for p in (first, second):
        shutil.move(p, tmp_path / "in")
    return third


def test_restart_and_replay(spark, small, tmp_path):
    # Algorithm 1, then Algorithm 2 (c > m, with a leftover group).
    for m, c, seed in [(3, 2, 5), (2, 5, 5)]:
        d = tmp_path / f"m{m}c{c}"

        def counts():
            res = rept_structured_counts(
                spark, str(d / "in"), m, c, seed, str(d / "ckpt"), max_files_per_trigger=1
            )
            return list(zip(res["tau"], res["eta"]))

        expected = [(p.tau, p.eta) for p in rept_run(small, m, c, seed)["procs"]]
        third = _stage(small, d)
        counts()
        shutil.move(third, d / "in")
        assert counts() == expected
        commits = d / "ckpt" / "commits"
        os.remove(commits / "2")
        os.remove(commits / ".2.crc")
        assert counts() == expected
        assert (commits / "2").exists()  # Spark ran batch 2 again


@pytest.mark.parametrize("delta", [(1, 0, 0), (0, 1, 0), (0, 0, 1)], ids=["m", "c", "seed"])
def test_resume_under_other_settings_rejected(spark, small, tmp_path, delta):
    m, c, seed = 3, 2, 5
    third = _stage(small, tmp_path)
    _run(spark, tmp_path, m, c, seed)
    shutil.move(third, tmp_path / "in")
    with pytest.raises(ValueError, match="holds REPT state"):
        _run(spark, tmp_path, m + delta[0], c + delta[1], seed + delta[2])
    # The refused run counted nothing: resuming as before gives the full counts.
    assert _run(spark, tmp_path, m, c, seed) == _expected(small, m, c, seed)


def test_out_of_order_batch_rejected(spark, small, tmp_path):
    paths = write_stream_files(stream_pdf(small), str(tmp_path / "in"), n_files=3)
    for i, p in enumerate(paths):
        os.utime(p, (1_700_000_010 - i, 1_700_000_010 - i))
    with pytest.raises(StreamingQueryException, match="micro-batch 1 starts at"):
        _run(spark, tmp_path, 3, 2, 5)


def test_write_stream_files_rejects_nonempty_dir(small, tmp_path):
    old = write_stream_files(stream_pdf(small), str(tmp_path / "in"), n_files=4)
    with pytest.raises(ValueError, match="already holds files"):
        write_stream_files(stream_pdf(small), str(tmp_path / "in"), n_files=2)
    assert sorted(os.listdir(tmp_path / "in")) == [os.path.basename(p) for p in old]
