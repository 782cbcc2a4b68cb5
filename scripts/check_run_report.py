#!/usr/bin/env python3
"""Validate bpnsp JSON run reports (--metrics-out output).

Usage: check_run_report.py REPORT.json [REPORT.json ...]

Accepts exactly the contract the writer (src/obs/report.cpp) emits:
schema "bpnsp-run-report-v1" at schema_rev 14, with the top-level keys
schema, schema_rev, run, counters, gauges and histograms and no others.
Any other revision, including an older one, is refused: a contract
change bumps the writer and this checker together and regenerates the
committed BENCH_*.json files in the same change.

Within the report, run carries instructions, wall_seconds and git;
every counter is a non-negative integer; the counters the writer
always registers are present; and the campaign and serving books
balance (see check()). Exits 1 on the first violation.
"""

import json
import sys

SCHEMA = "bpnsp-run-report-v1"
SCHEMA_REV = 14
TOP_LEVEL_KEYS = ("schema", "schema_rev", "run", "counters", "gauges",
                  "histograms")
REQUIRED_RUN_KEYS = ("instructions", "wall_seconds", "git")
# The counters renderRunReport() registers in every report, so a
# consumer can tell "did not happen" (0) from "not measured" (absent).
REQUIRED_COUNTERS = (
    "run.instructions", "tracestore.cache.hits", "tracestore.cache.misses",
    "bp.predictions", "bp.mispredicts",
    # Robustness: whether the run healed itself, whether faults were on.
    "tracestore.replay.chunk_retries", "tracestore.cache.quarantined",
    "core.runner.degraded_runs", "faultsim.injected",
    # Campaigns and cancellation.
    "campaign.cells_total", "campaign.cells_done", "campaign.cells_failed",
    "campaign.cells_retried", "campaign.cells_skipped", "campaign.resumed",
    "campaign.interrupted", "core.runner.cancelled",
    # Serving. serve.shed counts requests refused because the daemon's
    # bounded FIFO admission queue was full; serve.expired counts
    # queued requests whose deadline passed before a worker took them.
    "serve.requests", "serve.accepted", "serve.rejected", "serve.completed",
    "serve.frames_corrupt", "serve.stats_requests", "serve.shed",
    "serve.expired",
    # The fetch engine (all zero when no FrontendModel is wired in).
    "frontend.btb_miss", "frontend.ras_over", "frontend.ind_mispred",
    "frontend.ftq_stall_cycles",
)


def is_count(value):
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def check(path):
    with open(path) as f:
        report = json.load(f)
    if not isinstance(report, dict):
        raise ValueError("report is not a JSON object")

    if report.get("schema") != SCHEMA:
        raise ValueError(f"unexpected schema: {report.get('schema')!r}")
    rev = report.get("schema_rev")
    if not is_count(rev) or rev != SCHEMA_REV:
        raise ValueError(f"schema_rev {rev!r} is not {SCHEMA_REV}")
    if sorted(report) != sorted(TOP_LEVEL_KEYS):
        raise ValueError(
            f"top-level keys {sorted(report)} are not {sorted(TOP_LEVEL_KEYS)}"
        )

    run = report["run"]
    if not isinstance(run, dict):
        raise ValueError("'run' is not an object")
    for key in REQUIRED_RUN_KEYS:
        if key not in run:
            raise ValueError(f"missing run.{key}")
    if not is_count(run["instructions"]):
        raise ValueError(f"run.instructions not a count: {run['instructions']!r}")
    wall = run["wall_seconds"]
    if not isinstance(wall, (int, float)) or isinstance(wall, bool) or wall < 0:
        raise ValueError(f"run.wall_seconds not a duration: {wall!r}")

    counters = report["counters"]
    if not isinstance(counters, dict):
        raise ValueError("'counters' is not an object")
    # Every counter, contract or not, is a monotonic event count; a
    # negative or non-integer value is a serialization bug.
    for name, value in counters.items():
        if not is_count(value):
            raise ValueError(f"counter {name} not a count: {value!r}")
    for name in REQUIRED_COUNTERS:
        if name not in counters:
            raise ValueError(f"missing counter {name}")
    for section in ("gauges", "histograms"):
        if not isinstance(report[section], dict):
            raise ValueError(f"'{section}' is not an object")

    c = counters
    total = c["campaign.cells_total"]
    accounted = (c["campaign.cells_done"] + c["campaign.cells_failed"]
                 + c["campaign.cells_skipped"])
    if c["campaign.interrupted"] == 0 and accounted != total:
        # A drained campaign accounts for every cell exactly once.
        raise ValueError(
            f"campaign cell accounting broken: done+failed+skipped = "
            f"{accounted} but cells_total = {total}"
        )
    if accounted > total:
        # Interrupted: pending cells are unaccounted, but the books can
        # never claim more cells than exist.
        raise ValueError(
            f"campaign cell accounting overflows: done+failed+skipped = "
            f"{accounted} > cells_total = {total}"
        )

    # Serving books: a request resolves as at most one of accepted or
    # rejected, nothing completes unadmitted, a Stats pull is a request,
    # and a request refused by the full queue never reaches a worker.
    requests = c["serve.requests"]
    for label, lhs, rhs, rhs_label in (
        ("accepted + rejected", c["serve.accepted"] + c["serve.rejected"],
         requests, "requests"),
        ("completed", c["serve.completed"], c["serve.accepted"], "accepted"),
        ("stats_requests", c["serve.stats_requests"], requests, "requests"),
        ("shed + accepted", c["serve.shed"] + c["serve.accepted"],
         requests, "requests"),
    ):
        if lhs > rhs:
            raise ValueError(
                f"serve accounting broken: {label} = {lhs} > "
                f"{rhs_label} = {rhs}"
            )


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    for path in argv[1:]:
        try:
            check(path)
        except (OSError, ValueError, json.JSONDecodeError) as err:
            print(f"{path}: FAIL: {err}", file=sys.stderr)
            return 1
        print(f"{path}: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
