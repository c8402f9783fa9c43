#!/usr/bin/env python3
"""Runs the benchmark over several seeds and records every result.

    python3 perfbench/collect.py --out runs.jsonl [--workloads ann-http,...]
        [--seeds 10] [--first-seed 1] [--seconds 10] [--trace 0|1]
        [--checkout DIR] [--git-sha SHA]

Each run is `python3 perfbench/run.py --workload W --seed S ...` inside
--checkout (default: the checkout holding this script). One JSON line per
run is appended to --out with the workload, seed, trace flag, wall time,
exit code, the run's result object, and the machine (isa, nproc) and
commit it ran on. Afterwards it prints, per workload and end-to-end metric,
the median, the quartiles and the spread (q3 - q1) / median against the
metric's bound in BENCHMARK.json. The run's "# " note lines (sample
counts, gate verdicts, p99 and write latencies) are kept in each record.
compare.py compares two such files.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def load_benchmark(checkout):
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        return json.load(f)


def git_sha(checkout):
    try:
        out = subprocess.run(["git", "-C", checkout, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_once(checkout, workload, seed, seconds, trace):
    command = ["python3", "perfbench/run.py", "--workload", workload, "--seed",
               str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    result = None
    isa = "unknown"
    for line in lines:
        if line.startswith("# isa "):
            isa = line.split()[2]
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
    notes = [line[2:] for line in lines if line.startswith("# ")]
    return {"workload": workload, "seed": seed, "trace": trace,
            "wall_s": round(wall, 3), "exit": proc.returncode, "isa": isa,
            "result": result, "notes": notes}


def summarize(records, bench):
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    by_workload = {}
    for r in records:
        if r["result"] is not None and r["trace"] == 0:
            by_workload.setdefault(r["workload"], []).append(r)
    for workload, runs in sorted(by_workload.items()):
        print(f"{workload}: {len(runs)} runs, wall max "
              f"{max(r['wall_s'] for r in runs):.1f} s")
        for name, spec in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in runs
                      if name in r["result"]["metrics"]]
            if len(values) < 2:
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            target = spec["bound"] / 3
            flag = "ok" if spread <= target or name == "setup_s" else "WIDE"
            print(f"  {name:14s} median {med:12.5g} {spec['unit']:6s} "
                  f"q1 {q1:12.5g} q3 {q3:12.5g} spread {spread:7.4f} "
                  f"(bound/3 {target:.4f}) {flag}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--checkout", default=os.path.dirname(HERE))
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=0,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--git-sha", default="",
                        help="commit to record when --checkout is not a git "
                             "repository")
    args = parser.parse_args()

    bench = load_benchmark(args.checkout)
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in bench["workloads"]])
    seconds = args.seconds or bench["run_seconds"]
    sha = args.git_sha or git_sha(args.checkout)
    records = []
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        for workload in workloads:
            record = run_once(args.checkout, workload, seed, seconds, args.trace)
            record.update({"git_sha": sha, "nproc": os.cpu_count(),
                           "seconds": seconds})
            records.append(record)
            with open(args.out, "a") as f:
                f.write(json.dumps(record) + "\n")
            ok = record["result"] is not None and record["result"]["correct"]
            print(f"{workload} seed {seed}: exit {record['exit']} "
                  f"{'correct' if ok else 'FAILED'} {record['wall_s']:.1f} s",
                  flush=True)
    summarize(records, bench)
    return 0 if all(r["exit"] == 0 for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
