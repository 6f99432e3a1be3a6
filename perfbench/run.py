#!/usr/bin/env python3
"""Builds the perfbench harness from source and runs one workload.

Run from the root of a feio checkout:

    python3 perfbench/run.py --workload gallery_chain --seed 1 --seconds 10 \
        --trace 0 --slo-ms gallery_chain=20,solve_chain=1000,serve_mix=50

The harness package (perfbench/CMakeLists.txt) is configured and built in
.bench_build/perfbench on first use; later runs only re-check it. Build
output goes to standard error, so the last line of standard output is the
harness's JSON result. `--selftest` builds and runs the harness self-tests
instead of a workload.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: feio sources (src/) not found next to perfbench/")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", target, "-j", "4"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))
    return os.path.join(BUILD, target)


def main(argv):
    if argv == ["--selftest"]:
        return subprocess.run([build("perfbench_selftest")]).returncode
    binary = build("perfbench")
    return subprocess.run([binary] + argv).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
