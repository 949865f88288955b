#!/usr/bin/env python3
"""Build the perfbench binary from source and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload train --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --test     # helper tests + tiny workloads

The binary is built (Release) into .bench_build/perfbench on first use and
re-built incrementally afterwards; build output goes to stderr. The run's
last line of stdout is the binary's JSON result, whose metric names are
checked against BENCHMARK.json: the end-to-end list with --trace 0, the
per-layer list with --trace 1.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUNS = os.path.join(ROOT, ".bench_build", "runs")
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build(targets):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("the library sources (CMakeLists.txt, src/) are missing from "
             + ROOT, 2)
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    configure = (["cmake", "-S", SOURCE, "-B", BUILD,
                  "-DCMAKE_BUILD_TYPE=Release"] + generator)
    compile_ = (["cmake", "--build", BUILD, "--parallel",
                 str(os.cpu_count() or 1), "--target"] + targets)
    for attempt in range(2):
        ok = True
        for command in ([] if os.path.isfile(
                os.path.join(BUILD, "CMakeCache.txt")) else [configure]) + [
                    compile_]:
            result = subprocess.run(command, stdout=sys.stderr,
                                    stderr=sys.stderr, cwd=ROOT,
                                    timeout=BUILD_TIMEOUT_S)
            if result.returncode != 0:
                ok = False
                break
        if ok:
            return
        if attempt == 0:
            # A stale or foreign build tree: start again from scratch once.
            shutil.rmtree(BUILD, ignore_errors=True)
    fail("build failed", 2)


def expected_units(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.test:
        build(["perfbench_test"])
        sys.exit(subprocess.run([os.path.join(BUILD, "perfbench_test")],
                                cwd=ROOT).returncode)

    if not os.path.isfile(os.path.join(ROOT, "BENCHMARK.json")):
        fail("BENCHMARK.json is missing from " + ROOT, 2)
    units = expected_units(args.trace == 1)
    build(["perfbench"])
    os.makedirs(RUNS, exist_ok=True)
    command = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out-dir", RUNS]
    result = subprocess.run(command, stdout=subprocess.PIPE, cwd=ROOT,
                            text=True, timeout=RUN_TIMEOUT_S)
    lines = result.stdout.rstrip("\n").split("\n")
    try:
        outcome = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(result.stdout)
        fail("perfbench printed no result (exit %d)" % result.returncode)
    got = {name: m["unit"] for name, m in outcome["metrics"].items()}
    if got != units:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s"
             % (sorted(set(units) - set(got)), sorted(set(got) - set(units))))
    sys.stdout.write(result.stdout)
    sys.stdout.flush()
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
