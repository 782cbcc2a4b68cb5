#!/usr/bin/env python3
"""Negative tests for check_run_report.py.

Usage: test_check_run_report.py REPORT.json

REPORT.json is a fresh, valid run report (the report_contract ctest
uses quickstart's). The checker must accept it as written, and must
exit 1 on every mutated copy below, naming the one rule of the
contract that the mutation breaks. Exits 0 when every case behaves, 1 otherwise.
"""

import copy
import json
import os
import subprocess
import sys
import tempfile

CHECKER = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "check_run_report.py")


def set_counters(values):
    return lambda report: report["counters"].update(values)


def drop_counter(name):
    return lambda report: report["counters"].pop(name)


def schema_rev(value):
    return lambda report: report.update(schema_rev=value)


def add_snapshots(report):
    # Shaped like the time-series section the writer once emitted.
    report["snapshots"] = {
        "period_ms": 100, "total": 1,
        "samples": [{"t_s": 0.1, "counters": {}, "gauges": {},
                     "histograms": {}}],
    }


CASES = (
    ("schema_rev 13", schema_rev(13), "schema_rev 13 is not 14"),
    ("schema_rev missing", lambda report: report.pop("schema_rev"),
     "schema_rev None is not 14"),
    ("bp.predictions dropped", drop_counter("bp.predictions"),
     "missing counter bp.predictions"),
    ("frontend.ftq_stall_cycles dropped",
     drop_counter("frontend.ftq_stall_cycles"),
     "missing counter frontend.ftq_stall_cycles"),
    ("counter -1", set_counters({"bp.mispredicts": -1}), "not a count"),
    ("counter 1.5", set_counters({"bp.mispredicts": 1.5}), "not a count"),
    ("counter true", set_counters({"bp.mispredicts": True}), "not a count"),
    ("drained campaign over-counts",
     set_counters({"campaign.cells_done": 1, "campaign.cells_total": 0,
                   "campaign.interrupted": 0}),
     "campaign cell accounting"),
    ("completed > accepted",
     set_counters({"serve.requests": 2, "serve.accepted": 1,
                   "serve.completed": 2}),
     "completed = 2 > accepted = 1"),
    ("shed + accepted > requests",
     set_counters({"serve.requests": 2, "serve.accepted": 1,
                   "serve.shed": 2}),
     "shed + accepted = 3 > requests = 2"),
    ("stats_requests > requests",
     set_counters({"serve.requests": 1, "serve.stats_requests": 2}),
     "stats_requests = 2 > requests = 1"),
    ("snapshots section", add_snapshots, "top-level keys"),
)


def run_checker(report, scratch):
    path = os.path.join(scratch, "report.json")
    with open(path, "w") as f:
        json.dump(report, f)
    return subprocess.run([sys.executable, CHECKER, path],
                          capture_output=True, text=True)


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        base = json.load(f)
    failures = 0
    with tempfile.TemporaryDirectory() as scratch:
        done = run_checker(base, scratch)
        if done.returncode != 0:
            print(f"FAIL: unmutated report refused: {done.stderr.strip()}")
            failures += 1
        for name, mutate, reason in CASES:
            report = copy.deepcopy(base)
            mutate(report)
            done = run_checker(report, scratch)
            # The copy must fail for the rule it breaks, not another.
            if done.returncode == 1 and reason in done.stderr:
                print(f"ok: {name} refused")
            else:
                print(f"FAIL: {name}: checker exited {done.returncode}, "
                      f"expected 1 with {reason!r}: {done.stderr.strip()}")
                failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
