"""The benchmark's workloads: what each sets up, runs, checks and traces.

``sweep`` drives the batch-equivalent SQL engines through the Fig 3/4
harness; ``stream`` drives the streaming fan-out (Figs 5-8) and the
Structured Streaming job. The two share no hot code: ``sweep`` runs no
per-processor loop, ``stream`` never touches ``core.rept_sql``,
``core.mascot_sql`` or the triangle tables, so a change to one layer
shows on one workload and is predicted to leave the other unchanged.

Each workload calls only public entry points (the ``repro.experiments``
harnesses, ``run_stream_trials``, ``rept_structured_counts``) and
measures the layers from outside, by timing the calls into them.
"""
from __future__ import annotations

import hashlib
import json
import os
import shutil
import statistics
import time
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

import replay
import sparkprobe
from spans import Tracer

from repro.core.estimators import nrmse
from repro.core.hashing import mix_seeds
from repro.graphs.datasets import CONFIGS, DATASETS, Stream, load_stream

MB = float(1 << 20)


@dataclass
class Context:
    spark: SparkSession
    seed: int
    run_dir: str
    data_dir: str
    tracer: Tracer
    #: set-up pieces in seconds; ``setup_s`` is their sum.
    setup: dict[str, float] = field(default_factory=dict)
    #: per-layer values measured once per run (not per repetition).
    layer: dict[str, float] = field(default_factory=dict)
    datasets: list[dict] = field(default_factory=list)
    #: (operation, seconds) of every timed operation, for provenance.
    op_walls: list[tuple[str, float]] = field(default_factory=list)
    _groups: int = 0

    def job_group(self, what: str) -> str:
        """Tag the Spark jobs of the next operation with a fresh group."""
        self._groups += 1
        group = f"perfbench-{self._groups}"
        self.spark.sparkContext.setJobGroup(group, what)
        return group


def _median_of(fn, repeats: int = 3):
    """Median seconds of ``fn`` over ``repeats`` calls, and its last result."""
    times, result = [], None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def _load_fresh(ctx: Context, name: str, scale: float) -> tuple[float, Stream]:
    """``load_stream`` into an empty cache: generation, keys and the
    cache write. The cache stays filled after the last call."""

    def load() -> Stream:
        shutil.rmtree(ctx.data_dir, ignore_errors=True)
        os.makedirs(ctx.data_dir)
        return load_stream(name, scale, ctx.seed)

    return _median_of(load)


def describe(name: str, scale: float, seed: int, stream: Stream, tau: int, eta: int) -> dict:
    """Provenance of one dataset: its generator config digest and size."""
    cfg = json.dumps(CONFIGS[name], sort_keys=True).encode()
    return {
        "dataset": name, "scale": scale, "seed": seed,
        "config_digest": hashlib.sha256(cfg).hexdigest()[:12],
        "edges": stream.n_edges, "tau": tau, "eta": eta,
    }


class Sweep:
    """Fig 3/4 global NRMSE sweep on the SQL engines.

    Twitter analog at p = 1/10 with REPT and parallel MASCOT, one
    Algorithm 1 cell (c = 8) and one Algorithm 2 cell with a leftover
    group (c = 25: c1 = 2 full groups, c2 = 5, so it needs eta-hat and
    the Graybill-Deal combination). One harness call per repetition.
    """

    name = "sweep"
    DATASET, SCALE, P_INV, C_LIST = "Twitter", 1.0, 10, [8, 25]
    METHODS = ("rept", "mascot")
    R_REPT, R_POOL = 2, 1

    def setup(self, ctx: Context) -> None:
        from repro.experiments.common import get_tables

        ctx.setup["load_stream"], stream = _load_fresh(ctx, self.DATASET, self.SCALE)
        t0 = time.perf_counter()
        self.tables = get_tables(ctx.spark, self.DATASET, self.SCALE, ctx.seed)
        ctx.setup["build_tables"] = time.perf_counter() - t0
        ctx.layer["graphs.datasets.edges"] = stream.n_edges
        ctx.layer["graphs.exact.triangles"] = self.tables.tau

    def warm_up(self, ctx: Context) -> None:
        """One untimed harness call: the first call of each Spark plan is
        slow, and the Algorithm 2 eta path costs as much on a small input
        as on this one."""
        self.run_once(ctx)

    def ops_per_rep(self) -> int:
        return len(self.C_LIST) * len(self.METHODS)

    def install_trace(self, tracer: Tracer) -> None:
        t = self.tables
        rows = {id(t.triangles): t.tau, id(t.open_edges): 2 * t.tau, id(t.last_edges): t.tau}

        def rept_passes(df, jobs, *args, **kwargs):
            """One pass hashes every row of ``df`` under every job."""
            tracer.count("core.rept_sql.hash_jobs", len(jobs))
            tracer.count("core.rept_sql.tri_rows_x_jobs", rows.get(id(df), 0) * len(jobs))

        def rept_counts(df, jobs, *args, **kwargs):
            rept_passes(df, jobs)
            tracer.count("core.indicator.per_job_counts_calls")

        def mascot_counts(*args, **kwargs):
            tracer.count("core.indicator.per_job_counts_calls")

        def mascot_trials(spark, tables, p, seeds):
            tracer.count("core.mascot_sql.trials", len(seeds))

        def rept_name(spark, tables, m, c, seeds):
            return "core.rept_sql.global_alg1" if c <= m else "core.rept_sql.global_alg2"

        h = "repro.experiments.global_nrmse"
        tracer.wrap(f"{h}:rept_global_runs", rept_name)
        tracer.wrap(f"{h}:mascot_trial_estimates", "core.mascot_sql.trial_estimates", mascot_trials)
        tracer.wrap(f"{h}:nrmse", "core.estimators.nrmse")
        tracer.wrap("repro.core.rept_sql:graybill_deal", "core.estimators.graybill_deal")
        tracer.wrap("repro.core.rept_sql:per_job_counts", "core.indicator.per_job_counts", rept_counts)
        tracer.wrap("repro.core.mascot_sql:per_job_counts", "core.indicator.per_job_counts",
                    mascot_counts)
        # Lazy: returns an unexecuted DataFrame, so it gets no span; its
        # work shows in the self time of the caller that collects.
        tracer.wrap("repro.core.rept_sql:per_job_key_counts", None, rept_passes)

    def run_once(self, ctx: Context) -> tuple[pd.DataFrame, list[str]]:
        from repro.experiments.global_nrmse import run_global_nrmse

        group = ctx.job_group("run_global_nrmse")
        t0 = time.perf_counter()
        with ctx.tracer.span("experiments.global_nrmse"):
            out = run_global_nrmse(
                ctx.spark, self.P_INV, self.C_LIST, datasets=[self.DATASET],
                methods=self.METHODS, r_rept=self.R_REPT, r_pool=self.R_POOL,
                scale=self.SCALE, seed=ctx.seed,
            )
        ctx.op_walls.append(("run_global_nrmse", time.perf_counter() - t0))
        return out, [group]

    def same_output(self, a: pd.DataFrame, b: pd.DataFrame) -> bool:
        return a.equals(b)

    def check(self, ctx: Context, out: pd.DataFrame, ex) -> tuple[int, int]:
        """Recompute every NRMSE row from the sequential simulators on the
        seeds the harness derives; they must match exactly."""
        from repro.experiments.common import dataset_seed

        key = (self.DATASET, self.SCALE, ctx.seed)
        m, p = self.P_INV, 1.0 / self.P_INV
        base = dataset_seed(ctx.seed, self.DATASET, self.P_INV)
        exact = ex.submit(replay.exact_counts, key)
        n_mascot = 3 * self.R_POOL * max(self.C_LIST)
        mascot = [ex.submit(replay.mascot_count, key, p, mix_seeds(base, 1, i))
                  for i in range(n_mascot)]
        rept = {
            c: [ex.submit(replay.rept_tau_hat, key, m, c, mix_seeds(base, 4, c, i))
                for i in range(self.R_REPT)]
            for c in self.C_LIST
        }
        tau, eta = exact.result()
        failed = int((tau, eta) != (self.tables.tau, self.tables.eta))
        ctx.datasets.append(describe(self.DATASET, self.SCALE, ctx.seed, self.tables.stream, tau, eta))
        pool = [f.result() / (p * p) for f in mascot]
        got = out.set_index(["method", "c"])
        for c in self.C_LIST:
            est = [f.result() for f in rept[c]]
            n = len(pool) // c * c
            chunks = np.asarray(pool[:n]).reshape(-1, c).mean(axis=1)
            for meth, values in (("rept", est), ("mascot", chunks)):
                want = nrmse(values, tau)
                row = got.loc[(meth, c)] if (meth, c) in got.index else None
                ok = row is not None and row["nrmse"] == want and row["n_estimates"] == len(values)
                failed += not ok
                if not ok:
                    print(f"check: {meth} c={c} differs, want nrmse {want!r}", flush=True)
        return 1 + self.ops_per_rep(), failed

    def layer_metrics(self, ctx: Context, tracer: Tracer, reps: int) -> dict[str, float]:
        per = 1.0 / reps
        alg_s = tracer.total("core.rept_sql.global_alg1") + tracer.total("core.rept_sql.global_alg2")
        return {
            "experiments.global_nrmse_self_s": tracer.self_total("experiments.global_nrmse") * per,
            "core.rept_sql.global_alg1_s": tracer.total("core.rept_sql.global_alg1") * per,
            "core.rept_sql.global_alg2_s": tracer.total("core.rept_sql.global_alg2") * per,
            "core.rept_sql.hash_jobs": tracer.counts["core.rept_sql.hash_jobs"] * per,
            "core.rept_sql.tri_rows_x_jobs_per_s":
                tracer.counts["core.rept_sql.tri_rows_x_jobs"] / alg_s if alg_s else 0.0,
            "core.mascot_sql.trial_estimates_s": tracer.total("core.mascot_sql.trial_estimates") * per,
            "core.mascot_sql.trials": tracer.counts["core.mascot_sql.trials"] * per,
            "core.indicator.per_job_counts_s": tracer.total("core.indicator.per_job_counts") * per,
            "core.indicator.per_job_counts_calls":
                tracer.counts["core.indicator.per_job_counts_calls"] * per,
            "core.estimators.nrmse_s": tracer.total("core.estimators.nrmse") * per,
            "core.estimators.graybill_deal_s": tracer.total("core.estimators.graybill_deal") * per,
        }


class StreamFanout:
    """Fig 5-8 streaming fan-outs plus the Structured Streaming job.

    Fan-outs run through ``run_stream_trials`` in the two shapes the
    harnesses issue: Fig 7's mixed fan-out (10 trials each of REPT,
    MASCOT, Triest and GPS) plus the 10 REPT processors with eta tracking
    that Fig 8 runs, on the Twitter analog at p = 1/10 (the largest loop
    share of the wall time) and the YouTube analog at p = 1/100 (the
    smallest); and a pooled Triest fan-out of 25 trials with local counts
    on Twitter at p = 1/10, as Figs 5/6 issue. The Structured Streaming
    job replays the YouTube analog at scale 0.25 as 3 micro-batch files,
    one file per trigger, with m = 10 and c = 4 (the
    ``jobs/rept_streaming.py`` configuration, which splits the stream into
    5 files), closed-loop: each batch starts after the previous one
    commits (``availableNow``).
    """

    name = "stream"
    #: (graph, 1/p, shape) of every fan-out, in order.
    FANOUTS = (("Twitter", 10, "mixed"), ("YouTube", 100, "mixed"), ("Twitter", 10, "pooled"))
    POOLED_TRIALS = 25
    SS_DATASET, SS_SCALE, SS_FILES, SS_M, SS_C = "YouTube", 0.25, 3, 10, 4
    WARMUP = ("YouTube", 0.05)
    METHODS = ("rept", "mascot", "triest", "gps")

    def setup(self, ctx: Context) -> None:
        from repro.core.structured import write_stream_files
        from repro.graphs.datasets import stream_pdf

        keys = sorted({(g, 1.0) for g, _, _ in self.FANOUTS}) + [(self.SS_DATASET, self.SS_SCALE)]
        ctx.setup["load_stream"] = sum(_load_fresh(ctx, *key)[0] for key in keys)
        # Each fresh load empties the cache first; refill it for the run
        # and for the replay workers, which read it.
        self.streams = {key: load_stream(*key, ctx.seed) for key in keys}

        pdf = stream_pdf(self.streams[(self.SS_DATASET, self.SS_SCALE)])
        self._writes = 0

        def write() -> str:
            self._writes += 1
            path = os.path.join(ctx.run_dir, f"ss-input-{self._writes}")
            write_stream_files(pdf, path, n_files=self.SS_FILES)
            return path

        ctx.setup["write_files"], self.ss_input = _median_of(write)

        ctx.layer["graphs.datasets.edges"] = sum(s.n_edges for s in self.streams.values())
        self._checkpoints = 0

    def warm_up(self, ctx: Context) -> None:
        """The job list's calls once, on the YouTube analog at scale 0.05:
        starts the Python workers and compiles the fan-out and streaming
        plans, at a third of the cost of a full repetition."""
        from repro.core.structured import rept_structured_counts, write_stream_files
        from repro.graphs.datasets import stream_pdf
        from repro.stream.engine import run_stream_trials

        small = load_stream(*self.WARMUP, ctx.seed)
        run_stream_trials(ctx.spark, small, self._mixed(small, 10, 0, per_method=2))
        run_stream_trials(ctx.spark, small, self._pooled(small, 10, 0, trials=4), True)
        path = os.path.join(ctx.run_dir, "ss-warmup")
        write_stream_files(stream_pdf(small), os.path.join(path, "in"), n_files=2)
        rept_structured_counts(
            ctx.spark, os.path.join(path, "in"), self.SS_M, self.SS_C, ctx.seed,
            os.path.join(path, "ckpt"), max_files_per_trigger=1,
        )

    def _mixed(self, stream: Stream, p_inv: int, base: int, per_method: int = 10) -> list[dict]:
        p = 1.0 / p_inv
        budget = max(2, round(p * stream.n_edges))
        specs = [{"method": "rept", "m": p_inv, "proc": i, "seed": mix_seeds(base, 0)}
                 for i in range(per_method)]
        specs += [{"method": "mascot", "p": p, "seed": mix_seeds(base, 1, i)}
                  for i in range(per_method)]
        specs += [{"method": "triest", "budget": budget, "seed": mix_seeds(base, 2, i)}
                  for i in range(per_method)]
        specs += [{"method": "gps", "budget": max(2, budget // 2), "seed": mix_seeds(base, 3, i)}
                  for i in range(per_method)]
        specs += [{"method": "rept", "m": p_inv, "proc": i, "seed": mix_seeds(base, 4),
                   "track_eta": True} for i in range(per_method)]
        return specs

    def _pooled(self, stream: Stream, p_inv: int, base: int, trials: int) -> list[dict]:
        budget = max(2, round(stream.n_edges / p_inv))
        return [{"method": "triest", "budget": budget, "seed": mix_seeds(base, 5, i)}
                for i in range(trials)]

    def fanouts(self, seed: int) -> list[tuple[tuple[str, float], list[dict], bool]]:
        """The fixed fan-out list: (stream key, specs, track_local)."""
        out = []
        for graph, p_inv, shape in self.FANOUTS:
            key = (graph, 1.0)
            base = mix_seeds(seed, DATASETS.index(graph), p_inv, shape == "pooled")
            if shape == "mixed":
                out.append((key, self._mixed(self.streams[key], p_inv, base), False))
            else:
                out.append((key, self._pooled(self.streams[key], p_inv, base, self.POOLED_TRIALS), True))
        return out

    def ops_per_rep(self) -> int:
        return sum(len(specs) for _, specs, _ in self.fanouts(0)) + self.SS_C

    def install_trace(self, tracer: Tracer) -> None:
        self.recorder = sparkprobe.BatchRecorder()

    def run_once(self, ctx: Context):
        from repro.core.structured import rept_structured_counts
        from repro.stream.engine import run_stream_trials

        traced = ctx.tracer.enabled
        groups, results, fan_walls = [], [], []
        for key, specs, track_local in self.fanouts(ctx.seed):
            groups.append(ctx.job_group(f"run_stream_trials {key[0]} n={len(specs)}"))
            t0 = time.perf_counter()
            with ctx.tracer.span("stream.engine.run_stream_trials"):
                results.append(run_stream_trials(ctx.spark, self.streams[key], specs, track_local))
            fan_walls.append(time.perf_counter() - t0)
            ctx.op_walls.append((f"run_stream_trials {key[0]} n={len(specs)}", fan_walls[-1]))

        self._checkpoints += 1
        ckpt = os.path.join(ctx.run_dir, f"ss-ckpt-{self._checkpoints}")
        groups.append(ctx.job_group("rept_structured_counts"))
        if traced:
            ctx.spark.streams.addListener(self.recorder)
        try:
            t0 = time.perf_counter()
            with ctx.tracer.span("core.structured.query"):
                counts = rept_structured_counts(
                    ctx.spark, self.ss_input, self.SS_M, self.SS_C, ctx.seed, ckpt,
                    max_files_per_trigger=1,
                )
            ctx.op_walls.append(("rept_structured_counts", time.perf_counter() - t0))
            if traced:
                self.recorder.wait_terminated()
        finally:
            if traced:
                ctx.spark.streams.removeListener(self.recorder)
        if traced:
            groups += self.recorder.run_ids
            self.recorder.run_ids = []
            self._record_fanouts(ctx, results, fan_walls)
        return (results, counts), groups

    def _record_fanouts(self, ctx: Context, results: list[pd.DataFrame], walls: list[float]) -> None:
        tracer = ctx.tracer
        for (key, specs, _), out, wall in zip(self.fanouts(ctx.seed), results, walls):
            stream = self.streams[key]
            glob = out[out["v"] == -1].set_index("trial").sort_index()
            slowest = float(glob["elapsed"].max())
            tracer.count("stream.engine.fanouts")
            tracer.count("stream.engine.trials", len(specs))
            tracer.count("stream.engine.overhead_s", wall - slowest)
            tracer.count("stream.engine.slowest_loop_s", slowest)
            tracer.count("stream.engine.broadcast_mb",
                         sum(a.nbytes for a in (stream.t, stream.u, stream.v, stream.k)) / MB)
            methods = pd.Series([s["method"] for s in specs], index=glob.index)
            for meth, loops in glob["elapsed"].groupby(methods):
                tracer.count(f"stream.{meth}.loop_max_sum_s", float(loops.max()))
                tracer.count(f"stream.{meth}.loop_s", float(loops.sum()))
                tracer.count(f"stream.{meth}.edges", stream.n_edges * len(loops))

    def same_output(self, a, b) -> bool:
        (fa, ca), (fb, cb) = a, b
        drop = ["elapsed"]
        return ca.equals(cb) and all(
            x.drop(columns=drop).equals(y.drop(columns=drop)) for x, y in zip(fa, fb)
        )

    def check(self, ctx: Context, out, ex) -> tuple[int, int]:
        """Every fan-out trial must equal the same processor replayed off
        Spark (estimate, eta, sample size, local estimates); the
        streaming job's final tau^(i) must equal ``rept_processor``."""
        results, counts = out
        fanouts = self.fanouts(ctx.seed)
        keyed = [(k, self.streams[k]) for k in self.streams]
        exact = {k: ex.submit(replay.exact_counts, (k[0], k[1], ctx.seed)) for k, _ in keyed}
        replays = [
            [ex.submit(replay.replay_trial, (key[0], key[1], ctx.seed), spec, track_local)
             for spec in specs]
            for key, specs, track_local in fanouts
        ]
        procs = [ex.submit(replay.rept_tau, (self.SS_DATASET, self.SS_SCALE, ctx.seed),
                           self.SS_M, i, ctx.seed) for i in range(self.SS_C)]
        attempted = failed = 0
        serial = 0.0
        for (key, specs, track_local), got, futs in zip(fanouts, results, replays):
            glob = got[got["v"] == -1].set_index("trial").sort_index()
            for trial, (spec, fut) in enumerate(zip(specs, futs)):
                want = fut.result()
                serial += want["seconds"]
                attempted += 1
                ok = trial in glob.index and (
                    glob.at[trial, "est"] == want["est"]
                    and glob.at[trial, "n_sampled"] == want["n_sampled"]
                    and (spec["method"] != "rept" or glob.at[trial, "eta"] == want["eta"])
                )
                if ok and track_local:
                    loc = got[(got["trial"] == trial) & (got["v"] >= 0)]
                    ok = dict(zip(loc["v"].astype(int), loc["est"].astype(float))) == want["local"]
                if not ok:
                    failed += 1
                    print(f"check: {key[0]} trial {trial} {spec['method']} differs", flush=True)
        want_tau = [f.result() for f in procs]
        attempted += self.SS_C
        got_tau = counts.sort_values("proc")["tau"].tolist()
        failed += sum(a != b for a, b in zip(got_tau, want_tau)) + abs(len(got_tau) - len(want_tau))
        for k, s in keyed:
            tau, eta = exact[k].result()
            ctx.datasets.append(describe(k[0], k[1], ctx.seed, s, tau, eta))
        ctx.layer["stream.serial_baseline_s"] = serial
        return attempted, failed

    def layer_metrics(self, ctx: Context, tracer: Tracer, reps: int) -> dict[str, float]:
        per = 1.0 / reps
        c = tracer.counts
        wall = tracer.total("stream.engine.run_stream_trials")
        out = {
            "stream.engine.run_stream_trials_s": wall * per,
            "stream.engine.fanouts": c["stream.engine.fanouts"] * per,
            "stream.engine.trials": c["stream.engine.trials"] * per,
            "stream.engine.overhead_s": c["stream.engine.overhead_s"] * per,
            "stream.engine.loop_share": c["stream.engine.slowest_loop_s"] / wall if wall else 0.0,
            "stream.engine.broadcast_mb": c["stream.engine.broadcast_mb"] * per,
        }
        for meth in self.METHODS:
            loop_s = c[f"stream.{meth}.loop_s"]
            out[f"stream.{meth}.loop_max_s"] = c[f"stream.{meth}.loop_max_sum_s"] * per
            out[f"stream.{meth}.edges_per_s"] = c[f"stream.{meth}.edges"] / loop_s if loop_s else 0.0
        out.update(self._batch_metrics(tracer, per))
        return out

    def _batch_metrics(self, tracer: Tracer, per: float) -> dict[str, float]:
        progress = [p for p in self.recorder.progress if p.numInputRows > 0]
        trig = [p.durationMs.get("triggerExecution", 0) / 1000.0 for p in progress]
        add = [p.durationMs.get("addBatch", 0) / 1000.0 for p in progress]
        last = progress[-1].stateOperators if progress else []
        med = lambda xs: statistics.median(xs) if xs else 0.0  # noqa: E731
        return {
            "core.structured.query_s": tracer.total("core.structured.query") * per,
            "core.structured.batches": len(progress) * per,
            "core.structured.input_rows": sum(p.numInputRows for p in progress) * per,
            "core.structured.batch_p50_s": med(trig),
            "core.structured.batch_samples": len(trig),
            "core.structured.add_batch_p50_s": med(add),
            "core.structured.trigger_overhead_p50_s": med([t - a for t, a in zip(trig, add)]),
            "core.structured.state_mb": sum(op.memoryUsedBytes for op in last) / MB,
            "core.structured.state_rows": sum(op.numRowsTotal for op in last),
        }


WORKLOADS = {w.name: w for w in (Sweep, StreamFanout)}
