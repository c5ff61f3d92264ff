"""Test fixtures: cached small-scale dataset triangle tables, and a
private results directory so tests never rewrite ``results/``."""
from __future__ import annotations

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
