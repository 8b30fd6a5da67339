#!/usr/bin/env python3
"""Builds and runs the GENAS repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. It configures and builds perfbench/
(which compiles the library from src/) in Release mode under .bench_build/,
runs one workload, checks the result against BENCHMARK.json's metric list,
and prints the result object as the last line of standard output. A traced
run also writes its spans to .bench_build/spans/. Exits non-zero, without a
result line, when the build or the run fails.
"""
import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_root):
    build_dir = os.path.join(build_root, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout carries only results.
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    binary = os.path.join(build_dir, "genas_perfbench")
    if not os.path.exists(binary):
        fail("build produced no genas_perfbench binary")
    return binary


def expected_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as handle:
        spec = json.load(handle)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_root = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_root)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(build_root, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        command += ["--spans-out", os.path.join(
            spans_dir, f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                             timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    if run.returncode != 0:
        fail(f"{args.workload} exited with code {run.returncode}")
    lines = [line for line in run.stdout.splitlines() if line.strip()]
    if not lines:
        fail("the benchmark printed nothing")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as error:
        fail(f"unreadable result line: {error}")

    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("result keys differ from correct/attempted/failed/metrics")
    names = expected_metrics(args.trace)
    if sorted(result["metrics"]) != sorted(names):
        missing = sorted(set(names) - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - set(names))
        fail(f"metric set differs from BENCHMARK.json: missing {missing}, "
             f"extra {extra}")
    for name, metric in result["metrics"].items():
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"metric {name} is not a finite number")

    for line in lines[:-1]:
        print(line)
    ordered = {name: result["metrics"][name] for name in names}
    result["metrics"] = ordered
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
