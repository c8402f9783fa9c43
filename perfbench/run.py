#!/usr/bin/env python3
"""Runs one workload of the PDX end-to-end benchmark.

    python3 perfbench/run.py --workload ann-http|exact-scan|live-mixed \
        --seed N --seconds S --trace 0|1 [--tiny]

Run from the root of a checkout. Builds the library and the benchmark
binary from source into .bench_build/ (a no-op when up to date), runs the
workload, and relays its output: notes, one "metric value unit" line per
metric, and as the last line one JSON object with the keys correct,
attempted, failed and metrics. --trace 1 runs the traced variant, which
reports the per-layer metrics and writes its span file under
.bench_build/spans/. The exit code is the benchmark's: non-zero when a
correctness gate failed or the build was impossible.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("ann-http", "exact-scan", "live-mixed")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "pdx_perfbench")


def build():
    """Configures and builds the benchmark; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        print("perfbench: no library sources next to perfbench/", file=sys.stderr)
        return False
    if shutil.which("cmake") is None:
        print("perfbench: cmake not found", file=sys.stderr)
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "pdx_perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build failed: " + " ".join(step), file=sys.stderr)
            return False
    return os.path.isfile(BINARY)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="a few thousand vectors per workload (self-test)")
    args = parser.parse_args()

    if not build():
        return 1
    work_dir = os.path.join(BUILD_ROOT, "work", str(os.getpid()))
    span_dir = os.path.join(BUILD_ROOT, "spans")
    os.makedirs(work_dir, exist_ok=True)
    os.makedirs(span_dir, exist_ok=True)
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir]
    if args.tiny:
        command.append("--tiny")
    sys.stdout.flush()
    try:
        code = subprocess.run(command, cwd=ROOT).returncode
    finally:
        for name in os.listdir(work_dir):
            if name.startswith("spans-"):
                shutil.move(os.path.join(work_dir, name),
                            os.path.join(span_dir, name))
        shutil.rmtree(work_dir, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
