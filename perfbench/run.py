#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the repository root. The first call configures and builds the
benchmark (and the library under src/) into $CARGO_TARGET_DIR/perfbench,
or .bench_build/perfbench when the variable is unset; later calls rebuild
incrementally. The benchmark's stdout is passed through; its last line is
one JSON object with the run's metrics. Any failure -- build, output
check, determinism check, a result that does not match BENCHMARK.json --
exits nonzero without printing a result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("census", "publish_retrieve", "gateway_day", "bulk_fetch")
# One run must end well inside the caller's 180 s limit.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build(build_dir, env):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, env=env,
                          timeout=BUILD_TIMEOUT_S).returncode != 0:
            # A half-configured tree would be reused next time; drop it.
            shutil.rmtree(build_dir, ignore_errors=True)
            return False
    result = subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
        stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    return result.returncode == 0


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def valid_result(line, trace):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    if not isinstance(result, dict) or sorted(result) != [
            "attempted", "correct", "failed", "metrics"]:
        return False
    if result["correct"] is not True or result["attempted"] < 1:
        return False
    names = expected_metrics(trace)
    return names is None or sorted(result["metrics"]) == sorted(names)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(os.path.join(ROOT, target)),
                             "perfbench")
    # Compiler and benchmark scratch files stay inside the checkout too.
    tmp_dir = os.path.join(build_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    if not build(build_dir, env):
        log("build failed")
        return 1

    command = [os.path.join(build_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--work-dir", os.path.join(build_dir, "work")]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S, cwd=ROOT, env=env)
    except subprocess.TimeoutExpired:
        log(f"benchmark exceeded {RUN_TIMEOUT_S} s")
        return 1
    if run.returncode != 0:
        print(run.stdout, end="")
        log(f"benchmark failed (exit code {run.returncode})")
        return 1
    lines = run.stdout.rstrip("\n").split("\n")
    if not valid_result(lines[-1], args.trace == 1):
        print("\n".join(lines[:-1]))
        log("the result line does not match BENCHMARK.json")
        return 1
    print(run.stdout, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
