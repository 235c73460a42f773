#!/usr/bin/env python3
"""Builds bench_suite from this checkout and runs the benchmark.

One workload (the form BENCHMARK.json's command takes):
    python3 bench/suite/run.py --workload kernel_n32 --seed 1 --seconds 20 --trace 0
  builds, then replaces itself with bench_suite; its last stdout line is the
  JSON result.

Every workload, each in its own process:
    python3 bench/suite/run.py [--seed 1] [--seconds 20] [--trace 0|1]
                               [--repeat N] [--out FILE] [--smoke]
  runs each workload --repeat times back to back (repeat r uses seed + r),
  prints each run's output, then the median of every metric; --out writes
  every run as {"workloads": {name: [{"correct", "exit", "metrics":
  {metric: value}}, ...]}} for compare.py, crashed and failed runs
  included.

The build goes to $CARGO_TARGET_DIR if set, else .bench_build/ at the root
of the checkout.  Exits nonzero when the build or any run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

SUITE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(SUITE))
WORKLOADS = ["kernel_n32", "refine_n9", "served_cold", "served_hot"]


def build():
    build_dir = os.path.abspath(
        os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build"))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SUITE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "bench_suite",
                  "-j", str(len(os.sched_getaffinity(0)))])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            sys.exit("run.py: build failed: " + " ".join(step))
    return os.path.join(build_dir, "bench_suite")


def run_all(binary, args):
    samples = {name: [] for name in WORKLOADS}
    ok = True
    for name in WORKLOADS:
        for repeat in range(args.repeat):
            command = [binary, "--workload", name,
                       "--seed", str(args.seed + repeat),
                       "--seconds", str(args.seconds),
                       "--trace", str(args.trace)]
            if args.smoke:
                command.append("--smoke")
            child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            sys.stdout.write(child.stdout)
            run = parse_result(child)
            if not run["correct"]:
                print(f"run.py: {name} failed (exit {child.returncode})")
                ok = False
            samples[name].append(run)
    print_summary(samples)
    if args.out:
        with open(args.out, "w") as out:
            json.dump({"seconds": args.seconds, "trace": args.trace,
                       "seed": args.seed, "workloads": samples}, out, indent=1)
    return 0 if ok else 1


def parse_result(child):
    """One run's record: {"correct", "exit", "metrics": {name: value}}.  A
    run that exits nonzero or prints no result is recorded as incorrect,
    with no metrics, so compare.py sees it."""
    run = {"correct": False, "exit": child.returncode, "metrics": {}}
    lines = child.stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        return run
    try:
        result = json.loads(lines[-1])
        metrics = {metric: entry["value"]
                   for metric, entry in result["metrics"].items()}
    except (ValueError, KeyError, TypeError, AttributeError):
        return run
    run["correct"] = result.get("correct") is True
    run["metrics"] = metrics
    return run


def print_summary(samples):
    metrics = []
    for runs in samples.values():
        for run in runs:
            metrics += [m for m in run["metrics"] if m not in metrics]
    print("\n%-34s" % "median" + "".join("%14s" % name for name in samples))
    for metric in metrics:
        cells = []
        for runs in samples.values():
            values = [run["metrics"][metric] for run in runs
                      if metric in run["metrics"]]
            cells.append("%14.6g" % statistics.median(values) if values else
                         "%14s" % "-")
        print("%-34s" % metric + "".join(cells))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--out")
    args = parser.parse_args()

    binary = build()
    if args.workload:
        command = [binary, "--workload", args.workload, "--seed",
                   str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        if args.smoke:
            command.append("--smoke")
        sys.stdout.flush()
        os.execv(binary, command)
    return run_all(binary, args)


if __name__ == "__main__":
    sys.exit(main())
