#!/usr/bin/env python3
"""Compares two sets of bench_suite runs against BENCHMARK.json's bounds.

    python3 bench/suite/compare.py A.json B.json

A.json and B.json are `run.py --repeat N --out FILE` outputs: A is the
baseline (the parent commit), B the candidate.  One row per (metric,
workload), with both medians, the change of B against A, the spread of
each side (interquartile range over median) and a verdict:

  ok          B's median is not worse than A's by more than the bound
  worse       B's median is worse than A's by more than the bound
  unresolved  A's or B's spread is wider than the bound, so the bound
              cannot be resolved -- unless every B run reads better than
              every A run, which is ok; also when a side has fewer than
              3 runs, too few to measure a spread
  missing     B has fewer runs of the workload, or fewer values of the
              metric, than A; counts as worse
  failed      a run of the workload crashed or failed an output gate; on
              B's side it counts as worse
  info        a per-layer metric: no bound, the change is for reading

Exits 1 when any row is worse, missing or failed on B's side, else 0.
"""

import json
import os
import statistics
import sys

SUITE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(SUITE)),
                         "BENCHMARK.json")
MIN_RUNS = 3
ROW = "%-30s %-12s %12s %12s %8s %7s %7s %7s  %s"


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (q3 - q1) / abs(middle) if middle else float("inf")


def verdict(a, b, better, bound):
    ma, mb = statistics.median(a), statistics.median(b)
    change = (mb - ma) / abs(ma) if ma else 0.0
    worse_by = change if better == "lower" else -change
    if bound is None:
        return change, "info"
    if min(len(a), len(b)) < MIN_RUNS:
        return change, "unresolved"
    if better == "lower":
        all_better = max(b) < min(a)
    else:
        all_better = min(b) > max(a)
    if all_better:
        return change, "ok"
    if max(spread(a), spread(b)) > bound:
        return change, "unresolved"
    return change, "worse" if worse_by > bound else "ok"


def failed_runs(runs):
    return sum(1 for run in runs if not run["correct"])


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open(BENCHMARK) as f:
        bench = json.load(f)
    declared = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    with open(sys.argv[1]) as f:
        base = json.load(f)["workloads"]
    with open(sys.argv[2]) as f:
        cand = json.load(f)["workloads"]

    print(ROW % ("metric", "workload", "A median", "B median", "change",
                 "spr A", "spr B", "bound", "verdict"))
    blocking = 0
    for workload, a_runs in base.items():
        b_runs = cand.get(workload, [])
        for side, runs in (("A", a_runs), ("B", b_runs)):
            if failed_runs(runs):
                print("%-30s %-12s %d of %d %s runs failed  failed" % (
                    "-", workload, failed_runs(runs), len(runs), side))
                blocking += side == "B"
        if len(b_runs) < len(a_runs):
            print("%-30s %-12s %d B runs for %d A runs  missing" % (
                "-", workload, len(b_runs), len(a_runs)))
            blocking += 1
        for name, metric in declared.items():
            a = [run["metrics"][name] for run in a_runs
                 if name in run["metrics"]]
            b = [run["metrics"][name] for run in b_runs
                 if name in run["metrics"]]
            if not a:
                continue
            bound = metric.get("bound")
            if len(b) < len(a):
                print(ROW % (name, workload, "%.6g" % statistics.median(a),
                             "-", "", "", "", "", "missing"))
                blocking += 1
                continue
            change, result = verdict(a, b, metric["better"], bound)
            blocking += result == "worse"
            print(ROW % (
                name, workload, "%.6g" % statistics.median(a),
                "%.6g" % statistics.median(b), "%+.1f%%" % (100 * change),
                "%.1f%%" % (100 * spread(a)), "%.1f%%" % (100 * spread(b)),
                "-" if bound is None else "%.0f%%" % (100 * bound), result))
    return 1 if blocking else 0


if __name__ == "__main__":
    sys.exit(main())
