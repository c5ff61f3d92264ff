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
