"""The edge-stream invariants of :func:`check_stream`, at every entry
point that reads a stream: each kind of bad stream is refused before any
Spark job, triangle enumeration or state write, and every generated
stream passes."""
import numpy as np
import pytest
from pyspark.errors import StreamingQueryException

from repro.core.structured import rept_structured_counts, write_stream_files
from repro.graphs.datasets import CONFIGS, check_stream, load_stream, stream_pdf
from repro.graphs.exact import build_tables
from repro.stream.engine import run_stream_trials
from repro.stream.rept import rept_run
from tests.helpers import BAD_STREAMS


#: a parquet file has one length per column.
SINK_STREAMS = [name for name in BAD_STREAMS if name != "length_mismatch"]


@pytest.fixture(scope="module")
def good():
    return load_stream("YouTube", scale=0.05, seed=7, cache=False)


def test_good_stream_passes(good):
    check_stream(good)
    assert (good.t == np.arange(good.n_edges)).all()


@pytest.mark.parametrize("kind", BAD_STREAMS)
def test_check_stream_refuses(good, kind):
    with pytest.raises(ValueError, match="YouTube"):
        check_stream(BAD_STREAMS[kind](good))


@pytest.mark.parametrize("kind", BAD_STREAMS)
def test_build_tables_refuses(good, kind):
    with pytest.raises(ValueError):
        build_tables(None, BAD_STREAMS[kind](good))


@pytest.mark.parametrize("kind", BAD_STREAMS)
@pytest.mark.parametrize("m,c", [(4, 4), (3, 7)], ids=["alg1", "alg2"])
def test_rept_run_refuses(good, kind, m, c):
    with pytest.raises(ValueError):
        rept_run(BAD_STREAMS[kind](good), m, c, 5, track_local=True)


@pytest.mark.parametrize("kind", BAD_STREAMS)
def test_run_stream_trials_refuses_before_any_job(spark, good, job_group, kind):
    specs = [{"method": "rept", "m": 4, "proc": 0, "seed": 1},
             {"method": "mascot", "p": 0.5, "seed": 1},
             {"method": "triest", "budget": 50, "seed": 1},
             {"method": "gps", "budget": 50, "seed": 1}]
    with pytest.raises(ValueError):
        run_stream_trials(spark, BAD_STREAMS[kind](good), specs)
    assert job_group() == (0, 0)


def _sink(spark, tmp_path, pdf, n_files=1):
    write_stream_files(pdf, str(tmp_path / "in"), n_files=n_files)
    return rept_structured_counts(spark, str(tmp_path / "in"), 3, 7, 5, str(tmp_path / "ckpt"),
                                  max_files_per_trigger=1)


def _snapshots(tmp_path):
    return sorted(p.name for p in (tmp_path / "ckpt" / "rept").glob("*.pkl"))


@pytest.mark.parametrize("kind", SINK_STREAMS)
def test_sink_refuses_bad_batch(spark, good, tmp_path, kind):
    """The whole stream is micro-batch 0: its ``ValueError`` fails the
    query before the batch's state is written."""
    with pytest.raises(StreamingQueryException, match="ValueError: micro-batch 0"):
        _sink(spark, tmp_path, stream_pdf(BAD_STREAMS[kind](good)))
    assert _snapshots(tmp_path) == []


def test_sink_refuses_repeated_t(spark, good, tmp_path):
    pdf = stream_pdf(good)
    pdf.loc[len(pdf) - 1, "t"] = len(pdf) - 2
    with pytest.raises(StreamingQueryException, match="ValueError: micro-batch 0 repeats"):
        _sink(spark, tmp_path, pdf)
    assert _snapshots(tmp_path) == []


def test_sink_refuses_later_bad_batch(spark, good, tmp_path):
    """A bad micro-batch 1 leaves batch 0's state as the last written."""
    pdf = stream_pdf(good)
    pdf.loc[len(pdf) - 1, "k"] += 1  # a wrong key in the last file
    with pytest.raises(StreamingQueryException, match="ValueError: micro-batch 1"):
        _sink(spark, tmp_path, pdf, n_files=2)
    assert _snapshots(tmp_path) == ["0.pkl"]


@pytest.mark.parametrize("name", CONFIGS)
def test_generated_streams_pass(name):
    """Every analog at the test and benchmark scales and graph seeds passes,
    so a cache read never refuses what ``load_stream`` wrote."""
    for scale in (0.05, 0.25, 1.0):
        for seed in (1, 7):
            check_stream(load_stream(name, scale=scale, seed=seed, cache=False))
