#!/usr/bin/env python3
"""Builds the HYDE benchmark from this checkout and runs one workload.

    python3 perfbench/run.py --workload <suite|suite_cached|windowed_scale>
                             --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The build goes to $CARGO_TARGET_DIR when
set, else to .bench_build (relative paths are taken from the repository
root); traces and scratch stores go to <build>/out. Build output goes to
standard error; the benchmark's last line on standard output is its result,
one JSON object. Exits non-zero, printing no result, when the build or the
run fails.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("suite", "suite_cached", "windowed_scale")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def repo_root():
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build(root, build_dir):
    steps = [
        ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "hyde_perfbench", "-j",
         str(os.cpu_count() or 1)],
    ]
    for step in steps:
        done = subprocess.run(step, cwd=root, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=BUILD_TIMEOUT_S,
                              check=False)
        if done.returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = repo_root()
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    if not build(root, build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    command = [os.path.join(build_dir, "hyde_perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--out", os.path.join(build_dir, "out")]
    try:
        done = subprocess.run(command, cwd=root, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print("perfbench: run failed", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        print("perfbench: malformed result", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
