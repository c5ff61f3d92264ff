"""The ``python -m repro.reproduce`` entry point: its targets rewrite the
committed CSVs exactly, and its command line rejects unknown targets."""
from pathlib import Path

import pytest

import repro.experiments.common as common
from repro import reproduce

RESULTS = Path(__file__).resolve().parents[1] / "results"


def test_table2_and_fig1_match_committed_results(spark):
    reproduce.reproduce(spark, ["table2", "fig1"])
    for name in ("table2_datasets", "fig1_variance_terms"):
        written = Path(common.RESULTS_DIR, f"{name}.csv")
        assert written.read_bytes() == (RESULTS / f"{name}.csv").read_bytes(), name


def test_main_runs_targets_in_order_then_stops_its_session(monkeypatch):
    calls = []

    class FakeSession:
        def stop(self):
            calls.append("stop")

    monkeypatch.setattr(reproduce, "get_session", lambda app_name: FakeSession())
    for name in ("fig7", "table2"):
        monkeypatch.setitem(reproduce.TARGETS, name, lambda spark, n=name: calls.append(n))
    reproduce.main(["fig7", "table2"])
    assert calls == ["fig7", "table2", "stop"]


def test_unknown_target_exits_before_any_harness(monkeypatch):
    def no_session(app_name):
        raise AssertionError("a session was started")

    monkeypatch.setattr(reproduce, "get_session", no_session)
    with pytest.raises(SystemExit) as exc:
        reproduce.main(["table2", "fig9"])
    assert exc.value.code == 2
