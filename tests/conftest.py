"""Test fixtures: cached small-scale dataset triangle tables, and a
private results directory so tests never rewrite ``results/``."""
from __future__ import annotations

import uuid

import pytest

import repro.experiments.common as common
from repro.experiments.common import get_tables
from tests.helpers import SMALL_SCALE


@pytest.fixture(scope="session", autouse=True)
def _results_dir(tmp_path_factory):
    """Harness CSVs go to a temporary directory for the whole session."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(common, "RESULTS_DIR", str(tmp_path_factory.mktemp("results")))
        yield


@pytest.fixture(scope="session")
def tables_for(spark):
    """Factory fixture: memoized TriangleTables for a dataset at the
    small test scale (shared across all test modules)."""

    def _get(name: str, scale: float = SMALL_SCALE):
        return get_tables(spark, name, scale=scale, seed=7)

    return _get


@pytest.fixture
def job_group(spark):
    """Tag the Spark jobs a test starts with a fresh group; yields a
    function returning (jobs, total tasks) run under it so far."""
    sc = spark.sparkContext
    group = f"test-{uuid.uuid4().hex}"
    sc.setJobGroup(group, "tests")
    tracker = sc.statusTracker()

    def counts() -> tuple[int, int]:
        jobs = tracker.getJobIdsForGroup(group)
        tasks = sum(
            tracker.getStageInfo(stage).numTasks
            for job in jobs
            for stage in tracker.getJobInfo(job).stageIds
        )
        return len(jobs), tasks

    yield counts
    sc.setLocalProperty("spark.jobGroup.id", None)
    sc.setLocalProperty("spark.job.description", None)
