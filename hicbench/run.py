#!/usr/bin/env python3
"""hic-bench driver: builds the benchmark from source, then runs one workload.

Run from the repository root:

    python3 hicbench/run.py --workload sim_fanout|compile_corpus|rt_socket \
        [--seed N] [--seconds S] [--trace 0|1]
    python3 hicbench/run.py --self-test      # the benchmark's helper tests

The benchmark is a CMake project of its own (hicbench/CMakeLists.txt) that
compiles the library sources under src/ into .bench_build/. Build output
goes to stderr; the last line of stdout is the benchmark's JSON result.
The exit code is the benchmark's: 0 when every output check passed.
"""

import argparse
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = ".bench_build"
RUN_TIMEOUT_S = 170


def build(target):
    """Configures (once) and builds `target`; False on any failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(ROOT, BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.relpath(BENCH_DIR, ROOT), "-B",
                      BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", target,
                  "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr, check=False)
        except OSError as e:
            print(f"hic-bench: cannot run {step[0]}: {e}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"hic-bench: build step failed: {' '.join(step)}",
                  file=sys.stderr)
            return False
    return True


def run(cmd):
    """Runs `cmd` from the repository root; returns its exit code."""
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              check=False).returncode
    except subprocess.TimeoutExpired:
        print(f"hic-bench: no result within {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        if not build("hicbench-tests"):
            return 2
        return run([os.path.join(BUILD_DIR, "hicbench-tests")])
    if not args.workload:
        parser.error("--workload is required")
    if not build("hic-bench"):
        return 2
    return run([os.path.join(BUILD_DIR, "hic-bench"),
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)])


if __name__ == "__main__":
    sys.exit(main())
