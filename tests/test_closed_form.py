"""Input validation at the entry points of the closed-form evaluator."""
import dataclasses

import pytest

from repro.core.closed_form import (
    mascot_local_trial_counts,
    mascot_trial_estimates,
    rept_global_runs,
    rept_local_runs,
)
from repro.graphs.exact import build_tables
from tests.helpers import tiny_stream

# Each call is rejected before it touches the session or the tables.
BAD_CALLS = {
    "m<1": lambda: rept_global_runs(None, None, 0, 4, [1]),
    "c<1": lambda: rept_local_runs(None, None, 4, 0, [1]),
    "no_seeds": lambda: rept_global_runs(None, None, 4, 2, []),
    "p=0": lambda: mascot_trial_estimates(None, None, 0.0, [1]),
    "p>1": lambda: mascot_local_trial_counts(None, None, 1.5, [1]),
    "no_trials": lambda: mascot_trial_estimates(None, None, 0.5, []),
    "t_not_positions": lambda: build_tables(
        None, dataclasses.replace(tiny_stream(), t=tiny_stream().t[::-1].copy())
    ),
}


@pytest.mark.parametrize("name", BAD_CALLS)
def test_rejects_bad_input(name):
    with pytest.raises(ValueError):
        BAD_CALLS[name]()
