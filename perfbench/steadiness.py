#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread and drift.

    python3 perfbench/steadiness.py [--runs 10] [--sets 2]
                                    [--workloads a,b]
                                    [--out perfbench/steadiness.json]

Runs perfbench/run.py (untraced) once per seed 1..runs on each
workload, from the repository root, and repeats the whole pass --sets
times. For every end-to-end metric it reports each set's values, median
and spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median. A spread
is steady when it is under a third of the metric's bound in
BENCHMARK.json. With two or more sets it also reports the drift of
each later set's median from the first's, as a share of the first, in
the metric's worse direction (positive = worse). Writes the figures as
JSON to --out.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(root, workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        check=False)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n"
                 f"{out.stdout.decode()}")
    result = json.loads(out.stdout.decode().strip().splitlines()[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    metrics = {m["name"]: m for m in bench["end_to_end"]}
    workloads = args.workloads.split(",")
    report = {"runs": args.runs, "run_seconds": bench["run_seconds"],
              "sets": [], "drift": {}}
    for s in range(args.sets):
        rows = {}
        for workload in workloads:
            runs = [run_once(root, workload, seed, bench["run_seconds"])
                    for seed in range(1, args.runs + 1)]
            rows[workload] = {}
            for name, m in metrics.items():
                values = [r[name] for r in runs]
                q1, med, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med
                rows[workload][name] = {
                    "values": values, "median": med,
                    "spread": round(spread, 4), "bound": m["bound"],
                    "steady": spread < m["bound"] / 3}
                print(f"set {s + 1} {workload:13s} {name:14s} median "
                      f"{med:12.5g}  spread {spread:7.2%}  bound "
                      f"{m['bound']:.0%}"
                      f"{'' if spread < m['bound'] / 3 else '  <-- wide'}",
                      flush=True)
        report["sets"].append(rows)
    for s in range(1, args.sets):
        for workload in workloads:
            for name, m in metrics.items():
                first = report["sets"][0][workload][name]["median"]
                later = report["sets"][s][workload][name]["median"]
                worse = (later - first) / first
                if m["better"] == "higher":
                    worse = -worse
                report["drift"].setdefault(workload, {}).setdefault(
                    name, []).append(round(worse, 4))
                print(f"drift set {s + 1} {workload:13s} {name:14s} "
                      f"{worse:+7.2%}  bound {m['bound']:.0%}"
                      f"{'' if worse <= m['bound'] else '  <-- over'}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=2, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
