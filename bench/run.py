#!/usr/bin/env python3
"""Benchmark runner for mixlr.

    python3 bench/run.py --workload int_2p --seed 1 --seconds 45 --trace 0

Builds the workload's inputs from the seed, runs whole rounds of LRs for
--seconds of wall time in this one single-threaded process, checks the
results, and prints one JSON object as the last line of standard output:
the end-to-end metrics with --trace 0, the per-layer metrics of a traced
run with --trace 1. Metric names and units come from BENCHMARK.json.
Diagnostics go to standard error and to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback

from stats import median

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

# set-up is measured in this many fresh processes; setup_s is their median
SETUP_PROBES = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--setup-probe", action="store_true",
        help="import and build the inputs, then exit (times set-up in a fresh process)",
    )
    return p.parse_args(argv)


def log(msg: str) -> None:
    print(f"bench: {msg}", file=sys.stderr, flush=True)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def cpu_seconds() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def run_one(workload, k: int) -> tuple[int, int, float]:
    """(LRs done, LRs failed, wall seconds) for round k."""
    t0 = time.perf_counter()
    try:
        done = workload.run_round(k)
        failed = 0
    except Exception:
        log(f"round {k} raised:\n{traceback.format_exc()}")
        done, failed = 0, workload.lrs_per_round
    return done, failed, time.perf_counter() - t0


def measure_setup(args) -> list[float]:
    """Wall seconds from spawning a fresh interpreter to inputs ready."""
    cmd = [
        sys.executable, os.path.abspath(__file__), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, timeout=120, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def timed_phase(workload, seconds: float) -> dict:
    """Whole rounds, untraced, until `seconds` of wall time have passed."""
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    k = done = failed = 0
    per_lr = []
    while time.perf_counter() - t0 < seconds:
        n, bad, wall = run_one(workload, k)
        done += n
        failed += bad
        if n:
            per_lr.append(wall / n)
        k += 1
    wall = time.perf_counter() - t0
    return {
        "rounds": k,
        "lrs": done,
        "failed": failed,
        "wall_s": wall,
        "lr_s": per_lr,
        "cpu_s_per_lr": (cpu_seconds() - cpu0) / done if done else None,
        "peak_rss_mb": peak_rss_mb(),
    }


def traced_phase(workload, seconds: float) -> dict:
    """Each round twice, traced and untraced, until `seconds` have passed.

    The per-layer figures come from the traced copies; the untraced copies
    of the same rounds give the tracing overhead.
    """
    import spans

    tracer = spans.Tracer()
    t0 = time.perf_counter()
    k = failed = 0
    lrs = {True: 0, False: 0}
    walls = {True: 0.0, False: 0.0}
    while time.perf_counter() - t0 < seconds:
        # alternate which copy runs first, so warm-up favours neither
        for on in (True, False) if k % 2 == 0 else (False, True):
            if on:
                tracer.lr_id = k
                with spans.traced(tracer):
                    n, bad, wall = run_one(workload, k)
            else:
                n, bad, wall = run_one(workload, k)
            lrs[on] += n
            walls[on] += wall
            failed += bad
        k += 1
    metrics = spans.layer_metrics(tracer, lrs[True], walls[True], lrs[False], walls[False])
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write_jsonl(os.path.join(OUT_DIR, f"spans-{workload.name}.jsonl"))
    return {"rounds": k, "lrs": lrs[True] + lrs[False], "failed": failed, "metrics": metrics}


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    # BLAS and OpenMP pools must be pinned before numpy is first imported;
    # the set-up probes inherit the setting.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not os.path.isfile(os.path.join(SRC, "mixlr", "__init__.py")):
        log(f"no mixlr sources under {SRC}; run from a checkout of the repository")
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        log(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed)
    if args.setup_probe:
        return 0
    own_setup = time.perf_counter() - t0

    if args.trace:
        run = traced_phase(workload, seconds)
        wanted = spec["per_layer"]
        values = run["metrics"]
    else:
        run = timed_phase(workload, seconds)
        setup = measure_setup(args)
        run["setup_probes_s"] = setup
        wanted = spec["end_to_end"]
        values = {
            "setup_s": median(setup),
            "lr_per_s": run["lrs"] / run["wall_s"],
            "lr_s.p50": median(run["lr_s"]) if run["lr_s"] else 0.0,
            "peak_rss_mb": run["peak_rss_mb"],
        }

    failures = workload.check()
    for f in failures:
        log(f"check failed: {f}")
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        log(f"metrics not computed: {missing}")
        return 2
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {
        "correct": not failures and run["lrs"] > 0,
        "attempted": run["lrs"] + run["failed"],
        "failed": run["failed"],
        "metrics": metrics,
    }
    detail = dict(
        result,
        workload=args.workload,
        seed=args.seed,
        seconds=seconds,
        trace=args.trace,
        rounds=run["rounds"],
        in_process_setup_s=own_setup,
        check_failures=failures,
        environment=environment(),
        run={k: v for k, v in run.items() if k != "metrics"},
    )
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-trace{args.trace}.json"), "w") as fh:
        json.dump(detail, fh, indent=1)
    log(
        f"{args.workload} seed {args.seed}: {run['rounds']} rounds, {run['lrs']} LRs, "
        f"{run['failed']} failed, load {detail['environment']['loadavg'][0]:.2f}"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
