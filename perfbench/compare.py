#!/usr/bin/env python3
"""Compares benchmark runs of two commits.

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl [--benchmark FILE]

Both files are written by collect.py (one JSON line per run). For every
workload and end-to-end metric it prints each side's median and quartiles,
the change's win fraction over seed-matched pairs (ties count for neither)
and a verdict:

  improved    the change wins at least 9 of 10 pairs and the medians differ
              by more than the base's own spread (q3 - q1), or the base is
              too noisy to judge but every change run beats every base run;
  worse       the change's median is worse than the base's by more than the
              metric's bound in BENCHMARK.json;
  unresolved  the base's spread, as a share of its median, is wider than
              the bound, so "no worse" cannot be shown;
  unchanged   otherwise.

Per-layer metrics from traced runs (--trace 1) are listed with both medians
and no verdict: they have no bound, and a count may back a claim only when
it repeats exactly, which the "exact" column shows.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path, trace):
    runs = {}
    with open(path) as f:
        for line in f:
            record = json.loads(line)
            if record.get("trace") != trace or record.get("result") is None:
                continue
            runs.setdefault(record["workload"], {})[record["seed"]] = \
                record["result"]["metrics"]
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(base, change, better, bound, pairs):
    q1a, med_a, q3a = quartiles(base)
    _, med_b, _ = quartiles(change)
    sign = 1 if better == "higher" else -1
    wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    win_fraction = wins / len(pairs) if pairs else 0.0
    gain = sign * (med_b - med_a)
    all_better = all(sign * (b - a) > 0 for a in base for b in change)
    noisy = med_a != 0 and (q3a - q1a) / abs(med_a) > bound
    if (win_fraction >= 0.9 and gain > (q3a - q1a)) or (noisy and all_better):
        return "improved", win_fraction
    if -gain > bound * abs(med_a):
        return "worse", win_fraction
    if noisy:
        return "unresolved", win_fraction
    return "unchanged", win_fraction


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--benchmark",
                        default=os.path.join(os.path.dirname(HERE),
                                             "BENCHMARK.json"))
    args = parser.parse_args()
    with open(args.benchmark) as f:
        bench = json.load(f)

    base, change = load(args.base, 0), load(args.change, 0)
    print(f"{'workload':12s} {'metric':14s} {'base median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} {'win':>5s}  verdict")
    worse = False
    for workload in sorted(set(base) | set(change)):
        a_runs, b_runs = base.get(workload, {}), change.get(workload, {})
        for metric in bench["end_to_end"]:
            name = metric["name"]
            a = [m[name]["value"] for m in a_runs.values() if name in m]
            b = [m[name]["value"] for m in b_runs.values() if name in m]
            if not a or not b:
                print(f"{workload:12s} {name:14s} missing on one side")
                continue
            pairs = [(a_runs[s][name]["value"], b_runs[s][name]["value"])
                     for s in sorted(set(a_runs) & set(b_runs))
                     if name in a_runs[s] and name in b_runs[s]]
            result, wins = verdict(a, b, metric["better"], metric["bound"],
                                   pairs)
            worse |= result == "worse"
            qa, qb = quartiles(a), quartiles(b)
            print(f"{workload:12s} {name:14s} "
                  f"{qa[1]:11.5g} [{qa[0]:9.5g}, {qa[2]:9.5g}] "
                  f"{qb[1]:11.5g} [{qb[0]:9.5g}, {qb[2]:9.5g}] "
                  f"{wins:5.2f}  {result}")

    base_t, change_t = load(args.base, 1), load(args.change, 1)
    if base_t and change_t:
        print("\nper-layer (traced runs): base median -> change median")
        for workload in sorted(set(base_t) & set(change_t)):
            for metric in bench["per_layer"]:
                name = metric["name"]
                a = [m[name]["value"] for m in base_t[workload].values()
                     if name in m]
                b = [m[name]["value"] for m in change_t[workload].values()
                     if name in m]
                if not a or not b:
                    continue
                exact = "exact" if len(set(a)) == 1 and len(set(b)) == 1 else ""
                print(f"{workload:12s} {name:40s} {statistics.median(a):12.5g} "
                      f"-> {statistics.median(b):12.5g} {metric['unit']:8s} "
                      f"{exact}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
