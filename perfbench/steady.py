#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs each workload on --runs consecutive seeds with tracing off and
reports, per end-to-end metric, the median, the quartiles and their
distance as a share of the median (Python's statistics.quantiles(n=4)),
next to the metric's bound from BENCHMARK.json. With --traced it also
runs each workload on the first TRACED_RUNS seeds with tracing on and
reports the traced median's difference from the untraced one: the
tracing overhead.

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 5 --workloads serve --first-seed 11
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACED_RUNS = 3


def run(spec, workload, seed, trace):
    command = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    result = subprocess.run(command, stdout=subprocess.PIPE, cwd=ROOT,
                            text=True)
    lines = result.stdout.rstrip("\n").split("\n")
    outcome = json.loads(lines[-1])
    if result.returncode != 0 or not outcome["correct"]:
        sys.stdout.write(result.stdout)
        sys.exit("%s seed %d trace %d failed" % (workload, seed, trace))
    # Every run prints its end-to-end metrics as "e2e <name> <value>" lines.
    e2e = {}
    for line in lines:
        parts = line.split()
        if len(parts) >= 3 and parts[0] == "e2e":
            e2e[parts[1]] = float(parts[2])
    return e2e, outcome


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    worst = 0.0
    for workload in workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in seeds:
            e2e, outcome = run(spec, workload, seed, 0)
            for name in values:
                values[name].append(outcome["metrics"][name]["value"])
            print("%s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.6g" % (n, v[-1]) for n, v in values.items())),
                flush=True)
        traced = {m["name"]: [] for m in spec["end_to_end"]}
        if args.traced:
            for seed in seeds[:TRACED_RUNS]:
                e2e, _ = run(spec, workload, seed, 1)
                for name in traced:
                    traced[name].append(e2e[name])
        print("\n%s: %d runs, seeds %d-%d" % (workload, len(seeds), seeds[0],
                                              seeds[-1]))
        print("  %-18s %14s %14s %14s %8s %7s %10s" % (
            "metric", "median", "q1", "q3", "spread", "bound",
            "traced"))
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            q1, q2, q3 = statistics.quantiles(v, n=4)
            median = statistics.median(v)
            spread = (q3 - q1) / median
            if m["name"] != "setup_s":
                worst = max(worst, spread / m["bound"])
            overhead = ""
            if traced[m["name"]]:
                overhead = "%+.1f%%" % (100.0 * (
                    statistics.median(traced[m["name"]]) / median - 1.0))
            flag = "" if spread < m["bound"] / 3 else "  <-- over 1/3 bound"
            print("  %-18s %14.6g %14.6g %14.6g %7.2f%% %6.0f%% %10s%s" % (
                m["name"], median, q1, q3, 100 * spread, 100 * m["bound"],
                overhead, flag))
        print(flush=True)
    print("largest spread / bound (setup_s excepted): %.2f" % worst)


if __name__ == "__main__":
    main()
