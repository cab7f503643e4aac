#!/usr/bin/env python3
"""The repository benchmark: one workload per invocation.

    python3 sfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the program and the measuring
process (sfbench/CMakeLists.txt) into $CARGO_TARGET_DIR/sfbench
(default .bench_build/sfbench), then measures.

--trace 0 prints the end-to-end metrics (host time, untraced):
  wall_s       mean sweep wall time, first cell scheduled to report
               serialised
  cpu_s        mean process user+sys CPU over the same interval
  peak_rss_mb  mean peak resident set of the sweep processes
  setup_s      median set-up time (planning + cold topology builds)
and failed_frac (failed cells / cells attempted) in the summary; a
failed cell also shows in the result's "failed" count.

--trace 1 prints every per-layer metric from one traced process.

Each sweep runs in its own process. A run makes
max(1, floor(S / nominal sweep time)) sweeps at seeds derived from
--seed; the count depends only on S, never on measured speed, so two
commits always do identical work. The last stdout line is the JSON
result; everything else is for people.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_DIR = os.path.dirname(BENCH_DIR)

# Nominal sweep wall time per workload (4-vCPU Xeon, Release). Fixes
# how many sweeps a run of --seconds makes.
NOMINAL_SWEEP_S = {
    "saturation_sweep": 24.0,
    "ugal_sweep": 14.0,
    "elastic_churn": 12.5,
}
# Set-up samples per run (sweep processes plus set-up-only ones).
SETUP_SAMPLES = 9
# Offset between the base seeds of a run's sweeps.
SWEEP_SEED_STRIDE = 1000003
# Measuring must end well inside the 180 s a run may take.
MEASURE_LIMIT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(os.path.abspath(target), "sfbench")


def build():
    """Configure once, then an incremental build of the targets."""
    out = build_dir()
    jobs = str(os.cpu_count() or 1)
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", out,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", out, "-j", jobs, "--target", "sfbench"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "sfbench")


def harness(binary, *args, deadline=None):
    """Run the measuring process; returns its last JSON line."""
    timeout = None if deadline is None else deadline - time.monotonic()
    try:
        proc = subprocess.run([binary, *args], stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{args[0]} timed out")
    if proc.returncode != 0:
        raise RuntimeError(f"{args[0]} exited {proc.returncode}")
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    return json.loads(lines[-1])


def reference_path(workload):
    return os.path.join(BENCH_DIR, "reference", workload + ".json")


def sweep_seeds(seed, seconds, workload):
    count = max(1, math.floor(seconds / NOMINAL_SWEEP_S[workload]))
    return [seed + k * SWEEP_SEED_STRIDE for k in range(count)]


def measure(binary, args, deadline):
    seeds = sweep_seeds(args.seed, args.seconds, args.workload)
    ref = reference_path(args.workload)
    walls, cpus, rss, setups = [], [], [], []
    attempted = failed = 0
    failures = []
    for seed in seeds:
        res = harness(binary, "run", "--workload", args.workload,
                      "--seed", str(seed), "--reference", ref,
                      deadline=deadline)
        walls.append(res["wall_s"])
        cpus.append(res["cpu_s"])
        rss.append(res["peak_rss_kb"] / 1024.0)
        setups.append(res["setup_s"])
        attempted += res["attempted"]
        failed += res["failed"]
        failures += res["failures"]
        if res["reference_checked"]:
            log(f"seed {seed}: outputs checked against the reference")
    while len(setups) < SETUP_SAMPLES:
        res = harness(binary, "setup", "--workload", args.workload,
                      "--seed", str(args.seed), deadline=deadline)
        setups.append(res["setup_s"])
    metrics = {
        "wall_s": (statistics.fmean(walls), "s"),
        "cpu_s": (statistics.fmean(cpus), "s"),
        "peak_rss_mb": (statistics.fmean(rss), "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    print(f"{args.workload}: {len(seeds)} sweep(s) at seeds "
          f"{', '.join(map(str, seeds))}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<12} {value:12.4f} {unit}")
    print(f"  {'failed_frac':<12} {failed / attempted:12.4f} ratio "
          f"({failed} of {attempted} cells)")
    for reason in failures:
        print(f"  failure: {reason}")
    return metrics, attempted, failed


def trace(binary, args, deadline):
    traces = os.path.join(build_dir(), "traces")
    os.makedirs(traces, exist_ok=True)
    trace_file = os.path.join(
        traces, f"{args.workload}-seed{args.seed}.json")
    res = harness(binary, "trace", "--workload", args.workload,
                  "--seed", str(args.seed), "--reference",
                  reference_path(args.workload), "--trace-out",
                  trace_file, deadline=deadline)
    metrics = {name: (m["value"], m["unit"])
               for name, m in res["metrics"].items()}
    print(f"{args.workload}: traced run at seed {args.seed}; spans in "
          f"{os.path.relpath(trace_file)}")
    print(f"  untraced sweep {res['untraced_wall_s']:.3f} s wall, "
          f"{res['untraced_cpu_s']:.3f} s CPU; tracing overhead "
          f"{metrics['trace.overhead_wall_s'][0]:+.3f} s wall, "
          f"{metrics['trace.overhead_cpu_s'][0]:+.3f} s CPU")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:14.6g} {unit}")
    print(f"  failed {res['failed']} of {res['attempted']} cell checks")
    for reason in res["failures"]:
        print(f"  failure: {reason}")
    return metrics, res["attempted"], res["failed"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(NOMINAL_SWEEP_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(REPO_DIR, "CMakeLists.txt")):
        log("sfbench: the program's CMakeLists.txt is not beside sfbench/")
        return 2
    try:
        started = time.monotonic()
        binary = build()
        log(f"sfbench: build ready in {time.monotonic() - started:.1f} s")
        deadline = time.monotonic() + MEASURE_LIMIT_S
        if args.trace:
            metrics, attempted, failed = trace(binary, args, deadline)
        else:
            metrics, attempted, failed = measure(binary, args, deadline)
    except (subprocess.CalledProcessError, RuntimeError, OSError,
            ValueError, KeyError) as e:
        log(f"sfbench: {e}")
        return 1
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
