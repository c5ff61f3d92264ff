"""REPT benchmark: one workload per run, end-to-end or traced.

Run from the repository root::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

After set-up and a warm-up (both counted in ``setup_s``), a run repeats
the workload's fixed job list until ``--seconds`` have passed (at least
once). ``--trace 0`` prints the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` traces every repetition and prints the
per-layer metrics, with the traced wall time (``trace.wall_s``, to set
against ``wall_s`` of an untraced run) and the tracer's own measured
bookkeeping time (``trace.overhead_s``). Every line before the
last is for people (provenance and each metric by name and unit); the
last line is one JSON object ``{correct, attempted, failed, metrics}``.

Each run is isolated: the dataset cache, the results directory, Spark's
scratch space and every temporary file go to a fresh directory under
``.perfbench-runs/`` that is removed on exit, so a run never reads the
committed ``.data/`` cache and never rewrites ``results/``.
"""
from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import shlex
import shutil
import signal
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(ROOT, ".perfbench-runs")

#: spark-submit arguments, read once when the JVM is launched.
MASTER = "local[4]"
DRIVER_MEMORY = "2g"


def parse_args(argv: list[str] | None, workloads: list[str]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def isolate(run_dir: str) -> dict[str, str]:
    """Point every reader and writer at ``run_dir`` and let Spark's Python
    workers import this tree. Must run before pyspark or repro is
    imported: the data and results directories are read at import time
    and the spark-submit arguments when the JVM starts."""
    dirs = {d: os.path.join(run_dir, d) for d in ("data", "results", "tmp", "warehouse")}
    for d in dirs.values():
        os.makedirs(d)
    java_opts = f"-Djava.io.tmpdir={dirs['tmp']} -XX:-UsePerfData"
    submit = [
        "--master", MASTER, "--driver-memory", DRIVER_MEMORY,
        "--driver-java-options", java_opts,
        "--conf", "spark.driver.host=127.0.0.1",
        "--conf", "spark.ui.enabled=false",
        "--conf", f"spark.sql.warehouse.dir={dirs['warehouse']}",
        "pyspark-shell",
    ]
    pythonpath = os.environ.get("PYTHONPATH")
    os.environ.update({
        "REPRO_DATA_DIR": dirs["data"],
        "REPRO_RESULTS_DIR": dirs["results"],
        "PYTHONPATH": SRC + (os.pathsep + pythonpath if pythonpath else ""),
        "PYSPARK_PYTHON": sys.executable,
        "PYSPARK_DRIVER_PYTHON": sys.executable,
        "TMPDIR": dirs["tmp"],
        "SPARK_LOCAL_DIRS": dirs["tmp"],
        "SPARK_LAUNCHER_OPTS": "-XX:-UsePerfData",
        "PYSPARK_SUBMIT_ARGS": " ".join(shlex.quote(a) for a in submit),
    })
    sys.path.insert(0, SRC)
    return dirs


def git_sha() -> str | None:
    """HEAD of the checkout when it is a git work tree (read without git)."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as f:
            return f.read().strip()
    except OSError:
        return None


def source_digest() -> str:
    """SHA-256 over the program's source files, for checkouts without git."""
    h = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(SRC, "repro"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def cpu_probe_s() -> float:
    """Seconds for a fixed pure-Python loop: the host's speed at the time
    of the run, recorded so that drift between runs can be told apart
    from a change in the program."""
    t0 = time.perf_counter()
    sum(i * i for i in range(2_000_000))
    return time.perf_counter() - t0


def stop_spark(spark) -> None:
    """Stop the session, then end the JVM and wait for it: the gateway
    JVM exits when its stdin closes."""
    gateway = spark.sparkContext._gateway
    proc = gateway.proc
    spark.stop()
    gateway.shutdown()
    proc.stdin.close()
    proc.wait(timeout=60)


def adopt_orphans() -> None:
    """Become the reaper of this run's orphaned descendants (Linux
    ``PR_SET_CHILD_SUBREAPER``): a process whose parent ends before it,
    such as a Spark Python worker daemon after the JVM, becomes a child
    of this one, so ``reap_children`` finds it."""
    pr_set_child_subreaper = 36
    ctypes.CDLL(None, use_errno=True).prctl(pr_set_child_subreaper, 1, 0, 0, 0)


def children() -> dict[int, str]:
    """pid -> command name of every process whose parent is this one."""
    me, out = os.getpid(), {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                stat = f.read()
        except OSError:
            continue  # ended meanwhile
        comm, rest = stat[stat.index("(") + 1:].rsplit(")", 1)
        if int(rest.split()[1]) == me:
            out[int(entry)] = comm
    return out


def reap_children(grace_s: float = 10.0) -> None:
    """Stop every process still a child of this one and wait for it:
    SIGTERM, then SIGKILL after ``grace_s``. Repeats while orphans of the
    stopped processes keep arriving."""
    while pids := children():
        for pid, comm in pids.items():
            print(f"perfbench: stopping leftover process {pid} ({comm})", file=sys.stderr)
            try:
                os.kill(pid, signal.SIGTERM)
            except ProcessLookupError:
                pass
        pending, deadline = set(pids), time.monotonic() + grace_s
        while pending and time.monotonic() < deadline:
            for pid in list(pending):
                try:
                    done = os.waitpid(pid, os.WNOHANG)[0]
                except ChildProcessError:
                    done = pid
                if done:
                    pending.discard(pid)
            time.sleep(0.05)
        for pid in pending:
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass


def measure(args: argparse.Namespace, spec: dict, run_dir: str, dirs: dict) -> int:
    probe = cpu_probe_s()
    t0 = time.perf_counter()
    import sparkprobe

    spark = sparkprobe.start_session()
    session_s = time.perf_counter() - t0
    try:
        return run_workload(args, spec, spark, session_s, run_dir, dirs, probe)
    finally:
        stop_spark(spark)


def run_workload(args, spec, spark, session_s, run_dir, dirs, probe) -> int:
    import replay
    import sparkprobe
    import workloads
    from spans import Tracer

    wl = workloads.WORKLOADS[args.workload]()
    tracer = Tracer()
    ctx = workloads.Context(spark, args.seed, run_dir, dirs["data"], tracer)
    ctx.setup["session_start"] = session_s
    wl.setup(ctx)
    if args.trace:
        wl.install_trace(tracer)

    walls: list[float] = []
    outputs = []
    attempted = failed = 0
    spark_counts = [0, 0, 0]
    t0 = time.perf_counter()
    wl.warm_up(ctx)
    ctx.setup["warmup"] = time.perf_counter() - t0
    start = time.perf_counter()
    try:
        while not walls or time.perf_counter() - start < args.seconds:
            tracer.enabled = bool(args.trace)
            t = time.perf_counter()
            try:
                out, groups = wl.run_once(ctx)
            except Exception:
                traceback.print_exc()
                attempted += wl.ops_per_rep()
                failed += wl.ops_per_rep()
                break
            finally:
                tracer.enabled = False
            walls.append(time.perf_counter() - t)
            outputs.append(out)
            if args.trace:
                for g in groups:
                    for i, n in enumerate(sparkprobe.group_counts(spark, g)):
                        spark_counts[i] += n
    finally:
        tracer.restore()

    probes = [probe, cpu_probe_s()]
    if outputs:
        with replay.pool() as ex:
            checked, wrong = wl.check(ctx, outputs[0], ex)
        attempted += checked * len(outputs)
        failed += wrong + sum(
            wrong if wl.same_output(outputs[0], o) else checked for o in outputs[1:]
        )

    metrics: dict[str, float] = {}
    if args.trace:
        reps = max(1, len(walls))
        metrics.update({
            "spark.session_start_s": ctx.setup["session_start"],
            "setup.warmup_s": ctx.setup.get("warmup", 0.0),
            "graphs.datasets.load_stream_s": ctx.setup.get("load_stream", 0.0),
            "graphs.exact.build_tables_s": ctx.setup.get("build_tables", 0.0),
            "core.structured.write_files_s": ctx.setup.get("write_files", 0.0),
            "spark.jobs": spark_counts[0] / reps,
            "spark.tasks": spark_counts[1] / reps,
            "spark.failed_tasks": spark_counts[2] / reps,
            "spark.jvm_peak_rss_mb": sparkprobe.jvm_peak_rss_mb(spark),
            "driver.py_peak_rss_mb": sparkprobe.driver_peak_rss_mb(),
            "trace.overhead_s": tracer.overhead_s / reps,
        })
        metrics.update(ctx.layer)
        if walls:
            metrics.update(wl.layer_metrics(ctx, tracer, reps))
            metrics["trace.wall_s"] = statistics.median(walls)
        wanted = spec["per_layer"]
    else:
        if walls:
            metrics["wall_s"] = statistics.median(walls)
        metrics["setup_s"] = sum(ctx.setup.values())
        wanted = spec["end_to_end"]

    units = {m["name"]: m["unit"] for m in wanted}
    unknown = set(metrics) - set(units)
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    provenance = {
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "reps": len(walls), "rep_walls_s": walls,
        "op_walls_s": ctx.op_walls, "cpu_probe_s": probes,
        "datasets": ctx.datasets,
        "setup_pieces_s": ctx.setup,
        "spark_conf": sparkprobe.recorded_conf(spark),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
    }
    print("provenance " + json.dumps(provenance, sort_keys=True))
    out_metrics = {}
    for name, unit in units.items():
        value = float(metrics.get(name, 0.0))
        out_metrics[name] = {"value": value, "unit": unit}
        print(f"{args.workload}  {name} = {value:.6g} {unit}")
    print(f"{args.workload}  fail_ratio = {failed}/{attempted}")
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": out_metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    args = parse_args(argv, [w["name"] for w in spec["workloads"]])
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program to measure under {SRC}", file=sys.stderr)
        return 2
    adopt_orphans()
    run_dir = os.path.join(RUNS, f"{os.getpid()}-{time.time_ns()}")
    dirs = isolate(run_dir)
    try:
        return measure(args, spec, run_dir, dirs)
    finally:
        reap_children()
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(RUNS)
        except OSError:
            pass  # another run is still using it


if __name__ == "__main__":
    sys.exit(main())
