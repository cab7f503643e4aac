#!/usr/bin/env python3
"""Run the benchmark over many seeds and report each metric's spread.

    python3 sfbench/spread.py [--workloads a,b] [--seeds 1-10]
        [--seconds S] [--trace 0|1] [--extra-seeds 2019,4242]
        [--out sfbench/baseline.json]

For every workload and seed it runs `sfbench/run.py` once and prints,
per metric, the median, the quartiles (statistics.quantiles, n=4) and
the spread (Q3 - Q1) / median. --extra-seeds runs are reported one by
one and kept out of the quartiles (the reference seed and a held-out
seed). --out writes all of it, with the machine description, as JSON:
into the file's "end_to_end" section, or "per_layer" with --trace 1.
Other sections, and other workloads measured at the same --seconds,
are kept.
Run from the repository root.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(BENCH_DIR, "run.py")


def seed_list(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds += range(int(lo), int(hi) + 1)
        elif part:
            seeds.append(int(part))
    return seeds


def run_once(workload, seed, seconds, trace):
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    elapsed = time.monotonic() - started
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit "
                           f"{proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = elapsed
    return result


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "samples": len(values)}


def compiler():
    try:
        out = subprocess.run(["c++", "--version"], stdout=subprocess.PIPE,
                             text=True, check=True).stdout
        return out.splitlines()[0]
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default="saturation_sweep,ugal_sweep,elastic_churn")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=48)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--extra-seeds", default="")
    parser.add_argument("--out")
    args = parser.parse_args()

    section = {"seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            result = run_once(workload, seed, args.seconds, args.trace)
            runs.append(result)
            line = "  ".join(f"{k}={v['value']:.4g}"
                             for k, v in result["metrics"].items())
            print(f"{workload} seed {seed} ({result['elapsed_s']:.0f} s, "
                  f"correct={result['correct']}): {line}", flush=True)
        names = list(runs[0]["metrics"])
        summary = {name: summarise([r["metrics"][name]["value"]
                                    for r in runs]) for name in names}
        for name, s in summary.items():
            print(f"  {workload} {name:<24} median {s['median']:.6g}  "
                  f"Q1 {s['q1']:.6g}  Q3 {s['q3']:.6g}  "
                  f"spread {s['spread']:.3f}", flush=True)
        extra = {}
        for seed in seed_list(args.extra_seeds):
            result = run_once(workload, seed, args.seconds, args.trace)
            extra[str(seed)] = {
                "correct": result["correct"],
                "failed_frac": result["failed"] / result["attempted"],
                "metrics": {k: v["value"]
                            for k, v in result["metrics"].items()}}
            print(f"  {workload} seed {seed}: correct={result['correct']} "
                  f"failed {result['failed']}/{result['attempted']}",
                  flush=True)
        section["workloads"][workload] = {
            "seeds": seed_list(args.seeds),
            "all_correct": all(r["correct"] for r in runs),
            "run_elapsed_s": summarise([r["elapsed_s"] for r in runs]),
            "metrics": summary, "single_seeds": extra}
    if args.out:
        report = {}
        if os.path.isfile(args.out):
            with open(args.out) as f:
                report = json.load(f)
        report["machine"] = {"nproc": os.cpu_count(),
                             "compiler": compiler(),
                             "build_type": "Release",
                             "platform": platform.platform()}
        key = "per_layer" if args.trace else "end_to_end"
        old = report.get(key, {})
        if old.get("seconds") == args.seconds:
            section["workloads"] = {**old["workloads"],
                                    **section["workloads"]}
        report[key] = section
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
