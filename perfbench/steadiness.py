#!/usr/bin/env python3
"""Run each workload N times and report how steady every metric is.

    python3 perfbench/steadiness.py [--runs 10] [--sets 1] [--workloads a,b]
                                    [--first-seed 1] [--seconds S] [--trace 0|1]

Each run uses another seed (first-seed, first-seed + 1, ...). For every
metric it prints the median, the first and third quartiles (Python's
statistics.quantiles(values, n=4)), the interquartile spread as a share of
the median, and the max/min ratio. With --trace 0 each end-to-end metric,
setup_s included, is flagged against its bound in BENCHMARK.json: "FAIL"
when the spread exceeds the bound, "wide" when it exceeds a third of it.

With --sets 2 or more, every workload is measured that many times over (the
sets run one after another, on the same seeds), each set is reported as
above, and then every pair of sets is compared: a metric "FAIL"s when one
set's median is worse than another's by more than the bound, in the
metric's own direction ("better": lower or higher).

Exit status 1 when any run is incorrect or any end-to-end metric fails.
"""
import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr)
        raise SystemExit("run failed: " + " ".join(command))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        print("%s seed %d incorrect:" % (workload, seed))
        print("\n".join("  " + line for line in lines if "FAILED" in line or "differ" in line))
    # Host drift diagnostics: the calibration loop timed at start and end.
    for line in lines:
        for key in ("calibration_start_ms", "calibration_end_ms"):
            if line.startswith(key + "="):
                result["metrics"]["(" + key + ")"] = {"value": float(line.split("=")[1])}
    return result


def report_set(workload, label, values, incorrect, runs, bounds):
    """Print one set's table; return False when an end-to-end spread fails."""
    print("\n== %s%s: %d runs, %d incorrect" % (workload, label, runs, incorrect))
    print("%-36s %14s %14s %14s %8s %8s %6s" %
          ("metric", "median", "q1", "q3", "spread", "max/min", "bound"))
    ok = incorrect == 0
    for name, series in values.items():
        med = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / med if med else 0.0
        low = min(series)
        ratio = max(series) / low if low else float("inf")
        bound = bounds.get(name)
        flag = ""
        if bound is not None:
            if spread > bound:
                flag, ok = "FAIL", False
            elif spread > bound / 3:
                flag = "wide"
        print("%-36s %14.6g %14.6g %14.6g %8.4f %8.3f %6s %s" %
              (name, med, q1, q3, spread, ratio, "" if bound is None else bound, flag))
    return ok


def compare_sets(workload, sets, bounds, better):
    """Every ordered pair of sets: is one median worse than another's by more
    than the bound? Returns False when any is."""
    print("\n== %s: medians of %d sets" % (workload, len(sets)))
    ok = True
    for name in sets[0]:
        medians = [statistics.median(values[name]) for values in sets if name in values]
        worst = 0.0
        for first, second in itertools.permutations(medians, 2):
            if first:
                change = (second - first) / first
                worst = max(worst, change if better.get(name) == "lower" else -change)
        bound = bounds.get(name)
        flag = ""
        if bound is not None and worst > bound:
            flag, ok = "FAIL", False
        print("%-36s %s  worst pairwise %.4f %6s %s" %
              (name, " ".join("%12.6g" % m for m in medians), worst,
               "" if bound is None else bound, flag))
    return ok


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    metrics = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    bounds = {m["name"]: m["bound"] for m in metrics if "bound" in m}
    better = {m["name"]: m["better"] for m in metrics}

    workloads = args.workloads.split(",")
    sets = {workload: [] for workload in workloads}
    ok = True
    for number in range(args.sets):
        label = " (set %d of %d)" % (number + 1, args.sets) if args.sets > 1 else ""
        for workload in workloads:
            values, incorrect = {}, 0
            for i in range(args.runs):
                result = run_once(workload, args.first_seed + i, args.seconds, args.trace)
                incorrect += 0 if result["correct"] and result["failed"] == 0 else 1
                for name, metric in result["metrics"].items():
                    values.setdefault(name, []).append(metric["value"])
            ok = report_set(workload, label, values, incorrect, args.runs, bounds) and ok
            sets[workload].append(values)
            sys.stdout.flush()
    if args.sets > 1:
        for workload in workloads:
            ok = compare_sets(workload, sets[workload], bounds, better) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
