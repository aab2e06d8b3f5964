"""View-collection benchmark: one workload, one seed, one result line.

Usage, from the root of the repository::

    python3 viewbench/run.py --workload citation-adaptive --seed 1 \\
        --seconds 10 --trace 0

The run builds its own Spark session, generates the workload's inputs from
``--seed``, sets up three times (session, data, store) and reports the
median plus one untimed warm pass, then repeats the workload — create the
collection, run every algorithm over every view — for ``--seconds``. Every
(view, algorithm) result is checked against ``repro.graph_oracle`` outside
the timed region. ``--trace 1`` alternates traced and untraced passes and
reports the per-layer metrics instead of the end-to-end ones.

The last line of standard output is the JSON result; the lines before it
record the Spark settings, seed, commit and failure counts. See
``viewbench/README.md`` for what each metric means.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: Spark scratch space and span dumps; removed (scratch) or kept (spans)
#: inside the checkout, never elsewhere.
WORK = ROOT / ".viewbench"

SETUP_REPS = 3
#: What ``setup_s`` adds up: medians over SETUP_REPS, plus the warm pass.
SETUP_PARTS = ("session", "datagen", "store", "warmup")
DRIVER_MEMORY = "2g"
SHUFFLE_PARTITIONS = "8"
RETAINED_JOBS = "1000000"
#: Span name → the per-layer metric that reports its self time. Together
#: with ``trace.unattributed_share`` these account for ``total_s``.
SELF_TIME_METRICS = {
    "gvdl.compile": "gvdl.compile_s",
    "ebm": "ebm.s",
    "ordering.hamming": "ordering.hamming_s",
    "ordering.tsp": "ordering.tsp_s",
    "diffstream.counts": "diffstream.counts_s",
    "diffstream.sizes": "diffstream.sizes_s",
    "collection.view_edges": "collection.view_edges_s",
    "collection.delta": "collection.delta_s",
    "engine.view_build": "engine.view_build_s",
    "engine.scratch": "engine.scratch_s",
    "engine.diff": "engine.diff_s",
    "scc": "scc.s",
    "executor": "executor.self_s",
    "splitting": "splitting.s",
}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="input size; 'tiny' is the self-test's smoke size")
    return p.parse_args(argv)


def log(msg: str) -> None:
    print(f"[viewbench] {msg}", file=sys.stderr, flush=True)


# ------------------------------------------------------------- Spark
def n_cores() -> int:
    return max(1, min(4, len(os.sched_getaffinity(0))))


def configure_spark_env(tmp: Path) -> str:
    """Launch options for the driver JVM; must be set before pyspark starts it."""
    master = f"local[{n_cores()}]"
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(tmp)
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master {master} --driver-memory {DRIVER_MEMORY} "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        "--conf spark.ui.showConsoleProgress=false "
        f"--conf spark.local.dir={tmp} "
        f"--driver-java-options -Djava.io.tmpdir={tmp} pyspark-shell"
    )
    return master


def start_session():
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("viewbench")
        .config("spark.sql.shuffle.partitions", SHUFFLE_PARTITIONS)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", "-1")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.ui.retainedJobs", RETAINED_JOBS)
        .config("spark.ui.retainedStages", RETAINED_JOBS)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark_and_jvm(spark) -> None:
    """Stop the session, then the driver JVM, and wait for it to exit, so
    the next run's set-up does not overlap a dying JVM."""
    from pyspark import SparkContext

    spark.stop()
    gateway = SparkContext._gateway
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    SparkContext._gateway = None
    SparkContext._jvm = None
    if proc is not None:
        proc.stdin.close()  # the JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def settings(spark, master: str, seed: int) -> dict:
    conf = spark.sparkContext.getConf()
    keys = [
        "spark.master",
        "spark.driver.memory",
        "spark.sql.shuffle.partitions",
        "spark.sql.execution.arrow.pyspark.enabled",
        "spark.sql.autoBroadcastJoinThreshold",
        "spark.ui.showConsoleProgress",
        "spark.ui.retainedJobs",
    ]
    out = {k: conf.get(k, None) for k in keys}
    out["spark.sql.shuffle.partitions"] = spark.conf.get("spark.sql.shuffle.partitions")
    out["requested_master"] = master
    out["seed"] = seed
    out["commit"] = commit()
    out["src_sha256"] = source_digest()
    return out


def commit() -> str:
    try:
        r = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def source_digest() -> str:
    """Digest of the program's sources, which identifies the code when the
    checkout is not a git repository."""
    h = hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")):
        h.update(str(p.relative_to(SRC)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


# ------------------------------------------------------------ memory
def reset_peak_rss() -> None:
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")


def peak_rss_mb() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


# --------------------------------------------------------------- run
def median(xs) -> float:
    return float(statistics.median(xs))


def mean(xs) -> float:
    return float(sum(xs) / len(xs)) if xs else 0.0


def setup(wl, size: dict, seed: int, timer):
    """Start the session, generate the inputs and build the store
    SETUP_REPS times, keeping the last; then make one untimed warm pass.

    The first repetition launches the driver JVM; later ones start a fresh
    SparkContext in the same JVM, so the median is a warm-JVM start. A
    warm pass costs as much as a timed pass, so it is made once.
    """
    from workloads import run_pass

    samples = []
    for rep in range(SETUP_REPS):
        t0 = timer()
        spark = start_session()
        t1 = timer()
        prep = wl.generate(seed, size)
        t2 = timer()
        wl.build(spark, prep)
        t3 = timer()
        samples.append({"session": t1 - t0, "datagen": t2 - t1, "store": t3 - t2})
        if rep < SETUP_REPS - 1:
            wl.teardown(prep)
            spark.stop()
    t0 = timer()
    warm = run_pass(wl, spark, prep, timer)
    if warm.coll is not None:
        warm.coll.unpersist()
    parts = {k: median(s[k] for s in samples) for k in ("session", "datagen", "store")}
    parts["warmup"] = timer() - t0
    parts["jvm_launch"] = samples[0]["session"]
    return spark, prep, parts


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        log(f"the program's sources are missing: {SRC / 'repro'} not found")
        return 2
    sys.path.insert(0, str(SRC))
    tmp = WORK / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    master = configure_spark_env(tmp)

    from workloads import SIZES, WORKLOADS, reference_answers

    if args.workload not in WORKLOADS:
        log(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
        return 2
    wl = WORKLOADS[args.workload]
    timer = time.perf_counter
    spark = None
    try:
        spark, prep, setup_parts = setup(wl, SIZES[wl.name][args.size], args.seed, timer)
        conf = settings(spark, master, args.seed)
        refs = reference_answers(prep)
        out = measure(args, wl, spark, prep, refs, timer)
    finally:
        if spark is not None:
            stop_spark_and_jvm(spark)
        shutil.rmtree(tmp, ignore_errors=True)

    passes, attempted, failed = out["passes"], out["attempted"], out["failed"]
    if args.trace:
        metrics = layer_metrics(passes, setup_parts)
        dump = WORK / f"spans-{wl.name}-seed{args.seed}.json"
        dump.write_text(json.dumps([p["spans"] for p in passes if p["traced"]]))
    else:
        metrics = end_to_end_metrics(passes, setup_parts, out["peak_rss_mb"])
    print("viewbench settings " + json.dumps(conf, sort_keys=True))
    print(
        "viewbench summary "
        + json.dumps(
            {
                "workload": wl.name,
                "size": args.size,
                "passes": len(passes),
                "traced_passes": sum(p["traced"] for p in passes),
                "setup_reps": SETUP_REPS,
                "jvm_launch_s": round(setup_parts["jvm_launch"], 4),
                "failed_view_share": failed / attempted,
                "pass_total_s": [round(p["total_s"], 4) for p in passes],
            }
        )
    )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def measure(args, wl, spark, prep, refs, timer) -> dict:
    """The timed loop: whole workload passes until ``--seconds`` is used."""
    from tracing import Tracer
    from workloads import count_failures, run_pass

    sc = spark.sparkContext
    passes: list[dict] = []
    tracers = []
    attempted = failed = 0
    min_passes = 2 if args.trace else 1
    reset_peak_rss()
    start = timer()
    i = 0
    while i < min_passes or timer() - start < args.seconds:
        # Traced passes come first, so warm-up still under way inflates
        # trace.overhead_s rather than hiding it.
        traced = bool(args.trace) and i % 2 == 0
        tracer = Tracer(sc, i) if traced else None
        with tracer if traced else nullcontext():
            res = run_pass(wl, spark, prep, timer)
        rec = {
            "traced": traced,
            "cct_s": res.cct_s,
            "analytics_s": res.analytics_s,
            "total_s": res.cct_s + res.analytics_s,
            "n_results": len(prep.jobs) * len(prep.view_edges),
        }
        # ---- outside the timed region: checks and counters
        problems = (
            wl.collection_checks(res.coll, prep, args.seed) if res.coll is not None else []
        )
        for msg in problems:
            log(f"pass {i}: {msg}")
        a, f = count_failures(res, prep, refs, problems, lambda m: log(f"pass {i}: {m}"))
        attempted += a
        failed += f
        if traced:
            rec.update(pass_counters(res, args.seed))
            rec["trace"] = tracer.summary()
            rec["spans"] = tracer.dump()
            tracers.append((rec, tracer))
        if res.coll is not None:
            res.coll.unpersist()
        passes.append(rec)
        i += 1
    peak = peak_rss_mb()
    # Job events reach the status store asynchronously; let it catch up.
    time.sleep(0.5)
    for rec, tracer in tracers:
        rec["jobs"] = tracer.spark_jobs()
    return {
        "passes": passes,
        "attempted": attempted,
        "failed": failed,
        "peak_rss_mb": peak,
    }


def pass_counters(res, seed: int) -> dict:
    """Counters the program already returns, read after a traced pass."""
    from workloads import random_order_counts

    out = {"reported_s": 0.0, "adaptive_modes": []}
    for rep in res.reports.values():
        if isinstance(rep, Exception):
            continue
        out["reported_s"] += sum(s.seconds for s in rep.stats)
        if rep.strategy == "adaptive":
            out["adaptive_modes"].extend(rep.modes)
    coll = res.coll
    if coll is not None and coll.hamming is not None:
        n = int(sum(coll.diff_counts))
        out["n_diffs"] = n
        out["random_ratio"] = mean(random_order_counts(coll, seed)) / n
    return out


# ----------------------------------------------------------- metrics
def end_to_end_metrics(passes, setup, peak_mb) -> dict:
    total = [p["total_s"] for p in passes]
    return {
        "setup_s": (sum(setup[k] for k in SETUP_PARTS), "s"),
        "cct_s": (median(p["cct_s"] for p in passes), "s"),
        "analytics_s": (median(p["analytics_s"] for p in passes), "s"),
        "total_s": (median(total), "s"),
        "views_per_s": (median(p["n_results"] / p["total_s"] for p in passes), "1/s"),
        "driver_peak_rss_mb": (peak_mb, "MB"),
    }


def layer_metrics(passes, setup) -> dict:
    """Per-layer metrics: means over the traced passes (so self times add
    up to ``total_s``), set-up parts as medians over the repetitions."""
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]

    def avg(fn) -> float:
        return mean([fn(p) for p in traced])

    def self_s(name):
        return avg(lambda p: p["trace"]["self_s"].get(name, 0.0))

    def calls(name):
        return avg(lambda p: p["trace"]["calls"].get(name, 0))

    def jobs(*names):
        return avg(lambda p: sum(p["jobs"].get(n, 0) for n in names))

    def eng(key):
        return avg(lambda p: p["trace"]["engine"].get(key, 0))

    m: dict[str, tuple[float, str]] = {}
    for part in SETUP_PARTS + ("jvm_launch",):
        m[f"setup.{part}_s"] = (setup[part], "s")
    for span, metric in SELF_TIME_METRICS.items():
        m[metric] = (self_s(span), "s")
    m["ebm.spark_jobs"] = (jobs("ebm"), "count")
    m["ordering.n_diffs"] = (avg(lambda p: p.get("n_diffs", 0)), "count")
    m["ordering.random_ratio"] = (avg(lambda p: p.get("random_ratio", 0.0)), "ratio")
    m["diffstream.spark_jobs"] = (jobs("diffstream.counts", "diffstream.sizes"), "count")
    m["collection.view_edges_calls"] = (calls("collection.view_edges"), "count")
    m["collection.delta_rows"] = (avg(lambda p: p["trace"]["delta_rows"]), "count")
    m["engine.view_build_calls"] = (calls("engine.view_build"), "count")
    m["engine.scratch_calls"] = (calls("engine.scratch"), "count")
    m["engine.diff_calls"] = (calls("engine.diff"), "count")
    m["engine.iters"] = (eng("iters"), "count")
    m["engine.affected"] = (eng("affected"), "count")
    m["engine.changed"] = (eng("changed"), "count")
    affected = eng("affected")
    m["engine.useful_ratio"] = (eng("changed") / affected if affected else 0.0, "ratio")
    m["engine.rounds_local"] = (eng("rounds_local"), "count")
    m["engine.rounds_spark"] = (eng("rounds_spark"), "count")
    m["engine.spark_jobs"] = (jobs("engine.scratch", "engine.diff"), "count")
    m["engine.history_mb"] = (
        max(p["trace"]["history_bytes"] for p in traced) / 2**20, "MB"
    )
    m["scc.run_view_calls"] = (avg(lambda p: p["trace"]["scc_run_view_calls"]), "count")
    m["scc.view_build_calls"] = (avg(lambda p: p["trace"]["scc_view_build_calls"]), "count")
    executor_s = avg(lambda p: p["trace"]["executor_s"])
    reported = avg(lambda p: p["reported_s"])
    m["executor.s"] = (executor_s, "s")
    m["executor.reported_s"] = (reported, "s")
    m["executor.untimed_s"] = (executor_s - reported, "s")
    m["executor.untimed_share"] = (
        (executor_s - reported) / executor_s if executor_s else 0.0, "ratio"
    )
    modes = [x for p in traced for x in p["adaptive_modes"]]
    errors = [e for p in traced for e in p["trace"]["split_errors"]]
    m["splitting.batches"] = (avg(lambda p: p["trace"]["split_batches"]), "count")
    m["splitting.diff_views"] = (modes.count("diff") / len(traced), "count")
    m["splitting.scratch_views"] = (modes.count("scratch") / len(traced), "count")
    m["splitting.pred_error"] = (mean(errors), "ratio")
    spark_jobs = avg(lambda p: sum(p["jobs"].values()))
    m["spark.jobs"] = (spark_jobs, "count")
    m["spark.jobs_per_view"] = (spark_jobs / traced[0]["n_results"], "count")
    total = avg(lambda p: p["total_s"])
    covered = sum(m[metric][0] for metric in SELF_TIME_METRICS.values())
    m["trace.total_s"] = (total, "s")
    m["trace.overhead_s"] = (
        median(p["total_s"] for p in traced) - median(p["total_s"] for p in plain), "s"
    )
    m["trace.unattributed_share"] = ((total - covered) / total, "ratio")
    return m


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
