#!/usr/bin/env python3
"""The end-to-end benchmark's single command.

Builds bench/e2e (its own CMake project, Release) under .bench_build/e2e
and runs each workload in its own lsmcol_e2e process.

One workload (the form BENCHMARK.json's command takes):

    python3 bench/e2e/run.py --workload W --seed N --seconds S --trace 0|1

prints the metrics by name and unit, a provenance line, and as the last
line one JSON object {"correct", "attempted", "failed", "metrics"} holding
the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
The result file with everything the run measured, stamped with its
provenance, is kept under .bench_build/e2e/results/.

All workloads (no --workload):

    python3 bench/e2e/run.py [--trace] [--smoke] [--runs N] [--seed N]
                             [--seconds S] [--out DIR]

runs the four workloads one after another (N runs each, seeds N, N+1, ...)
and prints every metric with its median, min and max; --out keeps each
run's result file for compare.py. --smoke runs every workload at 2% of its
size for 1 second. The exit status is non-zero when any output check or
operation failed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
WORK = os.path.join(ROOT, ".bench_build", "e2e")
BUILD_DIR = os.path.join(WORK, "build-release")
BINARY = os.path.join(BUILD_DIR, "lsmcol_e2e")

WORKLOADS = ["sensors_scan", "tweet_cold_scan", "wos_ingest", "tweet2_mixed"]
# The seed runs use unless told otherwise, and the one kept out of
# development: a claimed gain must also hold on it.
DEFAULT_SEED = 1
HELD_OUT_SEED = 9001
# Set-ups per run (setup_s is their median), and the smoke run's sizes.
SETUPS = 5
SMOKE_SCALE = 0.02
SMOKE_SECONDS = 1
SMOKE_SETUPS = 1
# A single workload process must end well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def metric_names(spec, trace):
    """The metrics a run of this mode reports, in BENCHMARK.json order."""
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def build():
    """Configures (once) and builds lsmcol_e2e; exits 2 on failure."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log("run.py: the lsmcol sources (CMakeLists.txt, src/) are not in "
            + ROOT)
        sys.exit(2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "lsmcol_e2e",
                  "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            log("run.py: build failed: %s" % e)
            sys.exit(2)
        if done.returncode != 0:
            log("run.py: build failed: " + " ".join(cmd))
            sys.exit(2)


def git_sha():
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = done.stdout.strip()
    return sha if done.returncode == 0 and sha else "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_workload(workload, seed, seconds, trace, smoke, tag):
    """Runs one workload process; returns its result dict, or None when the
    process could not complete a run."""
    scale = SMOKE_SCALE if smoke else 1.0
    setups = SMOKE_SETUPS if smoke else SETUPS
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    out = os.path.join(WORK, "results", "%s.json" % tag)
    if os.path.exists(out):
        os.remove(out)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--scale", repr(float(scale)),
           "--setups", str(setups),
           "--dir", os.path.join(WORK, "store-%s-%d" % (workload,
                                                        os.getpid())),
           "--out", out]
    if trace:
        cmd += ["--trace", os.path.join(WORK, "trace-%s.json" % workload)]
    started_at = time.time()
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        log("run.py: %s: %s" % (workload, e))
        return None
    if done.returncode not in (0, 1) or not os.path.exists(out):
        log("run.py: %s exited with status %d" % (workload, done.returncode))
        return None
    with open(out) as f:
        result = json.load(f)
    result["provenance"] = {
        "git_sha": git_sha(),
        "build_type": result.get("build_type", "unknown"),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "scale": scale,
        "seed": seed,
        "seconds": seconds,
        "trace": bool(trace),
        "started_at": started_at,
    }
    with open(out, "w") as f:
        json.dump(result, f, indent=2)
    return result


def contract_metrics(result, names):
    """The named metrics of a result, or None if one is missing."""
    measured = result["metrics"]
    if any(n not in measured for n in names):
        log("run.py: missing metrics: "
            + ", ".join(n for n in names if n not in measured))
        return None
    return {n: {"value": measured[n]["value"], "unit": measured[n]["unit"]}
            for n in names}


def print_metrics(workload, metrics):
    for name in sorted(metrics):
        m = metrics[name]
        print("%-16s %-36s %16.6g %s" % (workload, name, m["value"],
                                         m["unit"]))


def single(args, spec):
    build()
    trace = args.trace == "1"
    seconds = args.seconds or spec["run_seconds"]
    tag = "%s-%d-%s" % (args.workload, args.seed, "trace" if trace else "e2e")
    result = run_workload(args.workload, args.seed, seconds, trace, False,
                          tag)
    if result is None:
        sys.exit(2)
    metrics = contract_metrics(result, metric_names(spec, trace))
    if metrics is None:
        sys.exit(2)
    print_metrics(args.workload, metrics)
    print("provenance " + json.dumps(result["provenance"], sort_keys=True))
    correct = bool(result["correct"])
    print(json.dumps({"correct": correct,
                      "attempted": max(1, int(result["attempted"])),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


def suite(args, spec):
    build()
    trace = args.trace == "1"
    seconds = SMOKE_SECONDS if args.smoke else (args.seconds
                                                or spec["run_seconds"])
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    ok = True
    for workload in WORKLOADS:
        results = []
        for i in range(args.runs):
            seed = args.seed + i
            tag = "%s.%d%s" % (workload, i, ".trace" if trace else "")
            result = run_workload(workload, seed, seconds, trace, args.smoke,
                                  tag)
            if result is None:
                ok = False
                continue
            if not result["correct"]:
                ok = False
                log("run.py: %s seed %d FAILED: %s" % (
                    workload, seed, "; ".join(result["errors"])))
            if args.out:
                with open(os.path.join(args.out, tag + ".json"), "w") as f:
                    json.dump(result, f, indent=2)
            results.append(result)
        if not results:
            continue
        names = metric_names(spec, trace)
        print("\n== %s (%d run%s, seed %d%s) ==" % (
            workload, len(results), "" if len(results) == 1 else "s",
            args.seed, ", traced" if trace else ""))
        print("%-36s %14s %14s %14s  %s" % ("metric", "median", "min", "max",
                                            "unit"))
        for name in names:
            values = [r["metrics"][name]["value"] for r in results
                      if name in r["metrics"]]
            if not values:
                print("%-36s %14s" % (name, "missing"))
                ok = False
                continue
            unit = results[0]["metrics"][name]["unit"]
            print("%-36s %14.6g %14.6g %14.6g  %s" % (
                name, statistics.median(values), min(values), max(values),
                unit))
        failed = sum(int(r["failed"]) for r in results)
        attempted = sum(int(r["attempted"]) for r in results)
        print("%-36s %14.6g %14s %14s  failed/attempted (%d/%d)" % (
            "failed_op_frac", failed / max(1, attempted), "", "", failed,
            attempted))
    sys.exit(0 if ok else 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=0,
                        help="timed phase per run (default: run_seconds "
                             "of BENCHMARK.json)")
    parser.add_argument("--trace", nargs="?", const="1", default="0",
                        choices=["0", "1"],
                        help="traced run: per-layer metrics and a Chrome "
                             "trace in .bench_build/e2e/")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--out")
    args = parser.parse_args()
    spec = load_spec()
    if args.workload:
        single(args, spec)
    else:
        suite(args, spec)


if __name__ == "__main__":
    main()
