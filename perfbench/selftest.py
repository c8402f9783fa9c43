#!/usr/bin/env python3
"""Self-test of the benchmark at tiny size.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json with --tiny for one second, untraced
and traced, and checks that each run exits 0, that its last output line is
one JSON object with exactly the keys correct, attempted, failed and
metrics, that the run is correct, and that it emits exactly the metric set
BENCHMARK.json names (end-to-end untraced, per-layer traced), each with its
unit and a finite number. Then checks that a directory holding only
BENCHMARK.json and the benchmark's paths fails fast with no result line.
Exits non-zero on the first problem.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print("selftest: FAIL: " + message)
    sys.exit(1)


def check_run(bench, workload, trace):
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        fail(f"{workload} trace {trace} exited {proc.returncode}:\n"
             + proc.stderr[-2000:])
    last = proc.stdout.strip().splitlines()[-1]
    result = json.loads(last)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(result)}")
    if result["correct"] is not True:
        fail(f"{workload}: not correct")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail(f"{workload}: attempted {result['attempted']}")
    if not isinstance(result["failed"], int):
        fail(f"{workload}: failed {result['failed']}")
    expected = bench["per_layer"] if trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in expected}
    if set(result["metrics"]) != set(units):
        missing = set(units) - set(result["metrics"])
        extra = set(result["metrics"]) - set(units)
        fail(f"{workload}: missing {sorted(missing)} extra {sorted(extra)}")
    for name, metric in result["metrics"].items():
        if metric.get("unit") != units[name]:
            fail(f"{workload}: {name} unit {metric.get('unit')}")
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"{workload}: {name} value {value}")
    print(f"selftest: {workload} trace {trace}: {len(units)} metrics ok")


def check_bare_directory(bench):
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in bench["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    command = [sys.executable, "perfbench/run.py", "--workload",
               bench["workloads"][0]["name"], "--seed", "1", "--seconds", "1",
               "--trace", "0"]
    proc = subprocess.run(command, cwd=bare, capture_output=True, text=True,
                          timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        fail("a directory without the library did not fail cleanly")
    print("selftest: bare directory fails with exit", proc.returncode)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            check_run(bench, workload, trace)
    check_bare_directory(bench)
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
