#!/usr/bin/env python3
"""The benchmark's own tests: it must run exactly what users run.

    python3 sfbench/selftest.py [--workloads a,b] [--skip-traced]

For every workload:
  1. the planned cell list equals `sfx run <family> --list-runs` at the
     workload's effort and run filter;
  2. at the reference seed, the cell outputs of a benchmark sweep equal
     the ones `sfx run <family> --out` writes, and both equal the
     committed reference (sfbench/reference/<workload>.json).
Then one traced run (the cheapest workload) must emit exactly the
per-layer metrics BENCHMARK.json lists, with outputs identical to the
untraced sweep. Exit 0 when everything holds. Run from the repository
root; builds like run.py does.
"""

import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

WORKLOADS = {
    # name: (family, effort, run filter)
    "saturation_sweep": ("fig10_saturation", "default", ""),
    "ugal_sweep": ("routing_bakeoff", "default", "*/ugal"),
    "elastic_churn": ("elastic_serving", "full", ""),
}
REFERENCE_SEED = 2019


def sfx_args(workload):
    family, effort, runs = WORKLOADS[workload]
    args = ["run", family, "--effort", effort]
    return args + (["--runs", runs] if runs else [])


def capture(cmd):
    return subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          check=True).stdout


def check(ok, what, failures):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--skip-traced", action="store_true")
    args = parser.parse_args()

    binary = run.build()
    out = run.build_dir()
    subprocess.run(["cmake", "--build", out, "-j",
                    str(os.cpu_count() or 1), "--target", "sfx"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    sfx = os.path.join(out, "program", "sfx")
    scratch = os.path.join(out, "selftest")
    os.makedirs(scratch, exist_ok=True)
    failures = []

    for workload in args.workloads.split(","):
        family = WORKLOADS[workload][0]
        planned = capture([binary, "plan", "--workload", workload,
                           "--seed", str(REFERENCE_SEED)]).split()
        listed = [line.strip() for line in
                  capture([sfx, *sfx_args(workload), "--list-runs"])
                  .splitlines() if line.startswith("  ")]
        check(planned == listed,
              f"{workload}: {len(planned)} planned cells == sfx plan "
              f"of {family}", failures)

        bench_out = os.path.join(scratch, workload + "-bench.json")
        sfx_out = os.path.join(scratch, workload + "-sfx.json")
        capture([binary, "outputs", "--workload", workload, "--seed",
                 str(REFERENCE_SEED), "--out", bench_out])
        capture([sfx, *sfx_args(workload), "--seed", str(REFERENCE_SEED),
                 "-q", "--out", sfx_out])
        with open(bench_out) as f:
            bench_cells = json.load(f)["cells"]
        with open(sfx_out) as f:
            report = json.load(f)["experiments"][0]["runs"]
        sfx_cells = {r["id"]: r["metrics"] for r in report}
        with open(run.reference_path(workload)) as f:
            reference = json.load(f)
        check(bench_cells == sfx_cells,
              f"{workload}: benchmark outputs == sfx run outputs at seed "
              f"{REFERENCE_SEED}", failures)
        check(reference["seed"] == REFERENCE_SEED and
              reference["cells"] == sfx_cells,
              f"{workload}: sfx run outputs == committed reference",
              failures)

    if not args.skip_traced:
        workload = "elastic_churn"
        res = run.harness(binary, "trace", "--workload", workload,
                          "--seed", "7", "--reference",
                          run.reference_path(workload))
        check(res["failed"] == 0,
              f"{workload}: traced, serial-probe and untraced outputs "
              f"identical at seed 7", failures)
        bench_json = os.path.join(run.REPO_DIR, "BENCHMARK.json")
        if os.path.isfile(bench_json):
            with open(bench_json) as f:
                listed = [m["name"] for m in json.load(f)["per_layer"]]
            check(listed == list(res["metrics"]),
                  "traced run emits exactly BENCHMARK.json's per-layer "
                  "metrics, in order", failures)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
