#!/usr/bin/env python3
"""Time every paper bench end to end at the default scale.

Usage: paper_e2e.py BUILD_DIR... [--runs N]

Runs each bench named in scripts/paper_digests.json from
BUILD_DIR/bench with no arguments (the default scale), N times per
build tree (default 3). Runs alternate across the build trees bench by
bench, and the order of the trees flips every run, so a slow spell on
a shared host lands on every tree alike.

Prints one JSON document on stdout: per build tree, the median wall
time, CPU time (user + system of the child, from getrusage) and max
RSS of each bench, and the median total wall and CPU time of one pass
over all of them. Progress goes to stderr. Exits non-zero if a bench
fails.

Max RSS is the child's VmHWM, polled from /proc every few milliseconds
while it runs: getrusage's ru_maxrss of an exec'd child also counts
the pages of the forking Python process (10-15 MiB), which would hide
every bench smaller than that.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "paper_digests.json")
POLL_S = 0.005


def vm_hwm_kib(pid):
    """Peak RSS so far of a running process (0 once it has exited)."""
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def run_bench(build_dir, bench):
    """(wall s, CPU s, max RSS MiB) of one default-scale run."""
    path = os.path.join(build_dir, "bench", bench)
    start = time.perf_counter()
    proc = subprocess.Popen([path], stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    hwm = 0
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid != 0:
            break
        hwm = max(hwm, vm_hwm_kib(proc.pid))
        time.sleep(POLL_S)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        sys.exit(f"{path}: exited {proc.returncode}")
    return wall, usage.ru_utime + usage.ru_stime, hwm / 1024


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.strip().splitlines()[0])
    ap.add_argument("builds", nargs="+", metavar="BUILD_DIR")
    ap.add_argument("--runs", type=int, default=3)
    args = ap.parse_args()
    builds, runs = args.builds, args.runs
    if runs < 1:
        ap.error("--runs must be at least 1")
    with open(DIGESTS) as f:
        benches = list(json.load(f)["stdout_sha256"])

    # samples[build][bench] = [(wall, cpu, rss), ...], one per run.
    samples = {b: {bench: [] for bench in benches} for b in builds}
    for run in range(runs):
        order = builds if run % 2 == 0 else builds[::-1]
        for bench in benches:
            for build in order:
                sample = run_bench(build, bench)
                samples[build][bench].append(sample)
                print(f"run {run + 1}/{runs} {build} {bench}: "
                      f"{sample[0]:.2f} s wall, {sample[1]:.2f} s CPU, "
                      f"{sample[2]:.1f} MiB", file=sys.stderr)

    report = {
        "command": "python3 scripts/paper_e2e.py " +
                   " ".join(sys.argv[1:]),
        "runs": runs,
        "cpus": os.cpu_count(),
        "builds": {},
    }
    for build in builds:
        per_bench = {}
        for bench in benches:
            walls, cpus, rss = zip(*samples[build][bench])
            per_bench[bench] = {
                "wall_s": round(statistics.median(walls), 3),
                "cpu_s": round(statistics.median(cpus), 3),
                "max_rss_mib": round(statistics.median(rss), 1),
            }
        totals = [[sum(samples[build][bench][r][k] for bench in benches)
                   for r in range(runs)] for k in (0, 1)]
        report["builds"][build] = {
            "total": {
                "wall_s": round(statistics.median(totals[0]), 3),
                "cpu_s": round(statistics.median(totals[1]), 3),
                "max_rss_mib": max(b["max_rss_mib"]
                                   for b in per_bench.values()),
            },
            "benches": per_bench,
        }
    json.dump(report, sys.stdout, indent=2)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
