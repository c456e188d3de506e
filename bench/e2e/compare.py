#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark runs by the benchmark's rule.

    python3 bench/e2e/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the result files `run.py --runs N --out DIR` writes
(<workload>.<i>.json); run i of the parent pairs with run i of the change.
Make the pairs alternate which side runs first, e.g.

    for i in 0 1 ... 9: run the parent first when i is even, else the change

(one `run.py --runs 1 --seed <seed+i>` per side, copying the result to
<workload>.<i>.json); the result files carry their start times, and the
report warns when the order did not alternate.

One row per (end-to-end metric, workload), with each side's median and
quartiles, the change's wins out of the pairs, and a verdict (the
bounds are those of BENCHMARK.json at the repository root):

  regression  the change's median is worse than the parent's by more than
              the metric's bound, and either both sides' spreads
              (interquartile range / median) are within the bound or
              every change run is worse than every parent run
  unresolved  otherwise, when either side's spread exceeds the bound and
              not every change run is better than every parent run
  gain        at least 10 pairs, the change wins at least 9 in 10 of them
              (ties count for neither), and the medians differ by more
              than the parent's interquartile range
  no-change   otherwise

A failed_op_frac row per workload rejects the change on any rise in
failed / attempted operations. The exit status is 1 when any row is a
regression or a rejection, else 3 when any row is unresolved, 2 on
unusable input, and 0 only when every row is a gain or no-change.
"""

import argparse
import glob
import json
import os
import statistics
import sys

SPEC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..",
                    "BENCHMARK.json")
MIN_GAIN_PAIRS = 10
GAIN_WIN_SHARE = 0.9


def load_runs(directory):
    """{workload: {index: result}} from <workload>.<i>.json files."""
    runs = {}
    for path in glob.glob(os.path.join(directory, "*.json")):
        stem = os.path.basename(path)[:-len(".json")]
        workload, _, index = stem.rpartition(".")
        if not workload or not index.isdigit():
            continue
        with open(path) as f:
            runs.setdefault(workload, {})[int(index)] = json.load(f)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def better(a, b, direction):
    """True when value a is better than value b."""
    return a < b if direction == "lower" else a > b


def verdict(parent, change, metric):
    """(verdict, details) for paired value lists of one metric."""
    direction, bound = metric["better"], metric["bound"]
    mp, mc = statistics.median(parent), statistics.median(change)
    p1, p3 = quartiles(parent)
    c1, c3 = quartiles(change)
    spread_p = (p3 - p1) / abs(mp) if mp else 0.0
    spread_c = (c3 - c1) / abs(mc) if mc else 0.0
    worse = 0.0
    if mp:
        worse = (mc - mp) / abs(mp) if direction == "lower" else (mp - mc) / abs(mp)
    wins = sum(1 for p, c in zip(parent, change) if better(c, p, direction))
    pairs = min(len(parent), len(change))
    all_better = all(better(c, p, direction) for c in change for p in parent)
    all_worse = all(better(p, c, direction) for c in change for p in parent)
    steady = max(spread_p, spread_c) <= bound
    details = {"parent": (mp, p1, p3), "change": (mc, c1, c3),
               "worse": worse, "wins": wins, "pairs": pairs}
    if worse > bound and (steady or all_worse):
        return "regression", details
    if not steady and not all_better:
        return "unresolved", details
    if (pairs >= MIN_GAIN_PAIRS and wins >= GAIN_WIN_SHARE * pairs
            and better(mc, mp, direction) and abs(mc - mp) > p3 - p1):
        return "gain", details
    return "no-change", details


def alternated(parent, change, indices):
    """True when the side that started first alternates across pairs (or
    the start times are unknown)."""
    order = []
    for i in indices:
        ps = parent[i].get("provenance", {}).get("started_at")
        cs = change[i].get("provenance", {}).get("started_at")
        if ps is None or cs is None:
            return True
        order.append(ps < cs)
    return all(a != b for a, b in zip(order, order[1:]))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent_dir")
    parser.add_argument("change_dir")
    args = parser.parse_args()
    with open(SPEC) as f:
        metrics = json.load(f)["end_to_end"]
    parent, change = load_runs(args.parent_dir), load_runs(args.change_dir)
    workloads = sorted(set(parent) & set(change))
    if not workloads:
        print("compare.py: no workload has runs on both sides",
              file=sys.stderr)
        return 2

    print("%-16s %-20s %30s %30s %8s %6s  %s" % (
        "workload", "metric", "parent median [q1, q3]",
        "change median [q1, q3]", "worse", "wins", "verdict"))
    bad = unresolved = False
    for workload in workloads:
        indices = sorted(set(parent[workload]) & set(change[workload]))
        if len(indices) < MIN_GAIN_PAIRS:
            print("# %s: %d pairs; a gain needs at least %d" % (
                workload, len(indices), MIN_GAIN_PAIRS))
        if not alternated(parent[workload], change[workload], indices):
            print("# %s: the pairs did not alternate which side ran first"
                  % workload)
        for metric in metrics:
            name = metric["name"]
            p = [parent[workload][i]["metrics"][name]["value"]
                 for i in indices]
            c = [change[workload][i]["metrics"][name]["value"]
                 for i in indices]
            v, d = verdict(p, c, metric)
            bad = bad or v == "regression"
            unresolved = unresolved or v == "unresolved"
            print("%-16s %-20s %30s %30s %+7.1f%% %3d/%-2d  %s" % (
                workload, name,
                "%.5g [%.5g, %.5g]" % d["parent"],
                "%.5g [%.5g, %.5g]" % d["change"],
                100 * d["worse"], d["wins"], d["pairs"], v))
        pf = sum(parent[workload][i]["failed"] for i in indices)
        pa = sum(parent[workload][i]["attempted"] for i in indices)
        cf = sum(change[workload][i]["failed"] for i in indices)
        ca = sum(change[workload][i]["attempted"] for i in indices)
        p_frac, c_frac = pf / max(1, pa), cf / max(1, ca)
        rejected = c_frac > p_frac
        bad = bad or rejected
        print("%-16s %-20s %30s %30s %8s %6s  %s" % (
            workload, "failed_op_frac", "%.3g (%d/%d)" % (p_frac, pf, pa),
            "%.3g (%d/%d)" % (c_frac, cf, ca), "", "",
            "reject" if rejected else "no-change"))
    if bad:
        return 1
    return 3 if unresolved else 0


if __name__ == "__main__":
    sys.exit(main())
