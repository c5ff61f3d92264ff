"""Reference outputs from the sequential simulators, replayed off Spark.

The simulators in ``repro.stream`` are the repository's independent
oracle: every engine must reproduce them bit for bit at the same seeds.
The benchmark replays the trials it checks in a small process pool after
the timed region, so checking does not lengthen the measured wall time
and costs a quarter of a serial replay. Each task also reports its own
duration; their sum is the single-threaded baseline of a fan-out.

Workers start with ``spawn`` and load streams through ``load_stream``,
which hits the per-run cache the parent filled (its location is read
from the inherited environment). ``spawn`` also starts multiprocessing's
resource tracker, a process that otherwise outlives the benchmark;
``pool()`` stops it and waits for it when the workers are done.
"""
from __future__ import annotations

import functools
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from multiprocessing import get_context, resource_tracker

WORKERS = 4

StreamKey = tuple[str, float, int]  # (dataset, scale, seed) of load_stream


@contextmanager
def pool():
    """A spawn pool of ``WORKERS`` processes; on exit every worker and the
    resource tracker have ended."""
    try:
        with ProcessPoolExecutor(max_workers=WORKERS, mp_context=get_context("spawn")) as ex:
            yield ex
    finally:
        resource_tracker._resource_tracker._stop()


@functools.lru_cache(maxsize=None)
def _stream(key: StreamKey):
    from repro.graphs.datasets import load_stream

    return load_stream(*key)


def replay_trial(key: StreamKey, spec: dict, track_local: bool) -> dict:
    """One fan-out trial on one core: its global estimate, sample size,
    eta (REPT only), sparse local estimates and the seconds the replay took."""
    from repro.stream.gps import gps_processor
    from repro.stream.mascot import mascot_processor
    from repro.stream.rept import rept_processor
    from repro.stream.triest import triest_processor

    stream = _stream(key)
    t0 = time.perf_counter()
    method = spec["method"]
    if method == "rept":
        r = rept_processor(
            stream, spec["m"], spec["proc"], spec["seed"],
            track_eta=bool(spec.get("track_eta")), track_local=track_local,
        )
        est, eta, local = float(r["tau"]), float(r["eta"]), r["tau_v"]
    else:
        if method == "mascot":
            r = mascot_processor(stream, spec["p"], spec["seed"], track_local=track_local)
        elif method == "triest":
            r = triest_processor(stream, spec["budget"], spec["seed"], track_local=track_local)
        elif method == "gps":
            r = gps_processor(stream, spec["budget"], spec["seed"], track_local=track_local)
        else:
            raise ValueError(f"unknown method {method!r}")
        est, eta, local = float(r["tau_hat"]), 0.0, r["tau_v_hat"]
    return {
        "est": est,
        "eta": eta,
        "n_sampled": int(r["n_sampled"]),
        "local": {int(v): float(x) for v, x in local.items()},
        "seconds": time.perf_counter() - t0,
    }


def rept_tau_hat(key: StreamKey, m: int, c: int, seed: int) -> float:
    """Global REPT estimate from c sequential processors (Alg. 1 or 2)."""
    from repro.stream.rept import rept_run

    return float(rept_run(_stream(key), m, c, seed)["tau_hat"])


def mascot_count(key: StreamKey, p: float, seed: int) -> int:
    """Raw semi-triangle count of one MASCOT trial."""
    from repro.stream.mascot import mascot_processor

    return int(mascot_processor(_stream(key), p, seed)["cnt"])


def rept_tau(key: StreamKey, m: int, proc: int, seed: int) -> int:
    """τ^(i) of one REPT processor."""
    from repro.stream.rept import rept_processor

    return int(rept_processor(_stream(key), m, proc, seed)["tau"])


def exact_counts(key: StreamKey) -> tuple[int, int]:
    """Exact (τ, η) by their definitions: each arriving edge closes the
    triangles it is the last edge of; their two earlier edges gain one
    triangle in which they are not last, n_g, and η = Σ_g C(n_g, 2)."""
    stream = _stream(key)
    adj: dict[int, set[int]] = {}
    not_last: dict[tuple[int, int], int] = {}
    tau = 0
    for a, b in zip(stream.u.tolist(), stream.v.tolist()):
        na, nb = adj.setdefault(a, set()), adj.setdefault(b, set())
        for w in na & nb:
            tau += 1
            for g in ((min(a, w), max(a, w)), (min(b, w), max(b, w))):
                not_last[g] = not_last.get(g, 0) + 1
        na.add(b)
        nb.add(a)
    return tau, sum(n * (n - 1) // 2 for n in not_last.values())
