#!/usr/bin/env python3
"""Build and run the repo benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The first call configures and builds the
program's libraries (src/) and the benchmark program into .bench_build/;
later calls rebuild incrementally.  Build output goes to
.bench_build/build.log, so standard output carries only the benchmark's
report and, as its last line, the result object.  The result is checked
against BENCHMARK.json (metric names, units) and perfbench/layers.json
before it is printed; any mismatch or failure exits non-zero without a
result line.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
LOG = os.path.join(BUILD, "build.log")
BUILD_JOBS = 4
RUN_TIMEOUT_S = 150


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("program sources (src/) not found next to perfbench/")
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(BUILD_JOBS, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs])
    with open(LOG, "a") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                fail(f"build failed, see {LOG}")
    return os.path.join(BUILD, "perfbench")


def check(result, trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(ROOT, "perfbench", "layers.json")) as f:
        layers = json.load(f)["layers"]
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    workloads = {w["name"] for w in spec["workloads"]}
    if set(layers) != {m["name"] for m in spec["per_layer"]} or any(
            not set(entry["moves"]) <= end_to_end or not set(entry["on"]) <= workloads
            for entry in layers.values()):
        fail("perfbench/layers.json does not match BENCHMARK.json")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result has the wrong keys")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != units:
        fail(f"metrics {sorted(got)} do not match BENCHMARK.json")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            fail(f"metric {name} has no numeric value")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")

    binary = build()
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    if run.returncode != 0:
        fail(f"benchmark exited with {run.returncode}")
    lines = run.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    check(result, args.trace == "1")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
