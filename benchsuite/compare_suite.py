#!/usr/bin/env python3
"""Compare benchmark-suite results of two commits (benchsuite/README.md).

    python3 benchsuite/compare_suite.py --base a1.json a2.json ... \
        --change b1.json b2.json ...

Each file is what `run_suite.py --out` writes. List the files of runs
made in pairs (base run i next to change run i, alternating which side
ran first), at least ten per side. For every workload and metric this
prints each side's median and quartiles, the change in the median, and
the change's win fraction over the pairs. Each end-to-end metric gets a
verdict, using its bound from BENCHMARK.json:

  improved    the change wins at least 9/10 of the pairs (ties count
              for neither) and its median moved the better way by more
              than the base runs' interquartile range
  regressed   the change's median is worse by more than the bound
  unresolved  the base runs spread wider than the bound (interquartile
              range over median) and not every change run beats every
              base run; or the change improved but failed more
              operations than the base
  unchanged   otherwise

Per-layer metrics have no bound and get no verdict. The exit code is 1
when any metric regressed.
"""

import argparse
import json
import os
import statistics
import sys

SPEC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "BENCHMARK.json")


def load(paths):
    runs = []
    for p in paths:
        with open(p) as f:
            runs.append(json.load(f))
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def better(a, b, direction):
    """Whether value a is strictly better than b."""
    return a < b if direction == "lower" else a > b


def verdict(base, change, direction, bound, more_failures):
    q1, med, q3 = quartiles(base)
    c_med = statistics.median(change)
    pairs = list(zip(base, change))
    wins = sum(better(c, b, direction) for b, c in pairs)
    worse = (c_med - med) / med if med else 0.0
    if direction == "higher":
        worse = -worse
    spread = (q3 - q1) / med if med else 0.0
    every_run_better = all(better(c, b, direction)
                           for b in base for c in change)
    if (pairs and wins >= 0.9 * len(pairs) and better(c_med, med, direction)
            and abs(c_med - med) > q3 - q1):
        return "unresolved" if more_failures else "improved"
    if spread > bound and not every_run_better:
        return "unresolved"
    if worse > bound:
        return "regressed"
    return "unchanged"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--change", nargs="+", required=True)
    ap.add_argument("--spec", default=SPEC)
    args = ap.parse_args()

    with open(args.spec) as f:
        spec = json.load(f)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    directions = {m["name"]: m["better"]
                  for m in spec["end_to_end"] + spec["per_layer"]}
    base, change = load(args.base), load(args.change)

    prints = {json.dumps({k: v for k, v in r["fingerprint"].items()
                          if k not in ("seed", "git")}, sort_keys=True)
              for r in base + change}
    if len(prints) > 1:
        print("warning: results come from different machines or "
              "toolchains:\n  " + "\n  ".join(sorted(prints)),
              file=sys.stderr)

    regressed = False
    workloads = [w["name"] for w in spec["workloads"]]
    for w in workloads:
        b_runs = [r["workloads"][w] for r in base if w in r["workloads"]]
        c_runs = [r["workloads"][w] for r in change if w in r["workloads"]]
        if not b_runs or not c_runs:
            continue
        b_fail = sum(r["failed"] for r in b_runs)
        c_fail = sum(r["failed"] for r in c_runs)
        print("== %s: %d base runs (%d failed ops), %d change runs "
              "(%d failed ops)" % (w, len(b_runs), b_fail, len(c_runs),
                                   c_fail))
        print("  %-34s %30s %30s %8s %6s  %s" % (
            "metric", "base median [q1, q3]", "change median [q1, q3]",
            "change", "wins", "verdict"))
        for name in b_runs[0]["metrics"]:
            bv = [r["metrics"][name]["value"] for r in b_runs]
            cv = [r["metrics"][name]["value"] for r in c_runs
                  if name in r["metrics"]]
            if not cv:
                continue
            direction = directions.get(name, "lower")
            bq, cq = quartiles(bv), quartiles(cv)
            pairs = list(zip(bv, cv))
            wins = sum(better(c, b, direction) for b, c in pairs)
            delta = (cq[1] - bq[1]) / bq[1] if bq[1] else 0.0
            v = "-"
            if name in bounds:
                v = verdict(bv, cv, direction, bounds[name]["bound"],
                            c_fail > b_fail)
                regressed = regressed or v == "regressed"
            print("  %-34s %11.5g [%7.5g, %7.5g] %11.5g [%7.5g, %7.5g] "
                  "%+7.1f%% %3d/%-2d  %s" % (
                      name, bq[1], bq[0], bq[2], cq[1], cq[0], cq[2],
                      100 * delta, wins, len(pairs), v))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
