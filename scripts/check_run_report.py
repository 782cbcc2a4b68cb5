#!/usr/bin/env python3
"""Validate bpnsp JSON run reports (--metrics-out output).

Usage: check_run_report.py REPORT.json [REPORT.json ...]

Checks that each report parses as JSON, declares the expected schema
(and a known schema_rev — unknown revisions fail loudly instead of
being half-validated), and carries the contract keys downstream tooling
relies on: run.instructions, run.wall_seconds, the
tracestore.cache.{hits,misses} / bp.{predictions,mispredicts} counters,
and — from schema_rev 2 — the robustness counters
(tracestore.replay.chunk_retries, tracestore.cache.quarantined,
core.runner.degraded_runs, faultsim.injected), and — from schema_rev
3 — the campaign/cancellation counters (campaign.cells_*,
campaign.resumed, campaign.interrupted, core.runner.cancelled) with
their accounting invariant: once a campaign drains
(campaign.interrupted == 0), cells_done + cells_failed + cells_skipped
must equal cells_total, and — from schema_rev 4 — the serving
counters (serve.requests, serve.accepted, serve.rejected,
serve.completed, serve.frames_corrupt) with their admission
invariants: accepted + rejected <= requests and completed <= accepted,
and, for revs 5 to 11 only, the synthesis counters
(synth.profiles_fitted, synth.branches_fitted,
synth.programs_generated, synth.validate_failures) with their
invariants: no branches fitted without a fitted profile, and no
validation failure without a generated program (rev 12 dropped them
with workload synthesis), and — from schema_rev 6 — the
observability counter serve.stats_requests with its invariant: stats
requests are a subset of serve.requests, plus, for revs 6 to 12 only,
the span counters (obs.spans_recorded, obs.spans_dropped) with their
invariant: no span dropped unless spans were being recorded (rev 13
dropped them with span tracing), and — from schema_rev 7 — the
client-retry counters (serve.client.{retries,gave_up}), plus, for
revs 7 to 9 only, the fleet-supervision counters
(serve.fleet.{worker_deaths,respawns,breaker_trips}) with their
invariant: respawns never exceed worker deaths, since a respawn only
ever answers a death (rev 10 dropped them with the multi-process
fleet), and — from schema_rev 8 — the overload counters (serve.{shed,expired}) with
their invariant: shed + accepted never exceeds requests (a shed
request is never also handed to a worker), plus, for revs 8 to 10
only, the client-hedging counters (serve.{hedges,hedge_wins}) with
their invariant: hedge_wins never exceeds hedges (rev 11 dropped them
with client-side hedging), and —
from schema_rev 9 — the frontend counters (frontend.btb_miss,
frontend.ras_over, frontend.ind_mispred, frontend.ftq_stall_cycles); the
optional "snapshots" time-series
section, when present, must be shaped like the sampler wrote it
(period_ms, total, and a samples array of {t_s, counters, gauges,
histograms} objects with non-decreasing t_s). Every counter in the
report (contract or not) must be a non-negative integer, and in revs 5
to 11 synth.* is a closed namespace: a key outside the contract is a
typo in an instrumentation site, not a new feature, and fails
validation.
Exits non-zero on the first violation.
"""

import json
import sys

REQUIRED_RUN_KEYS = ("instructions", "wall_seconds", "git")
REQUIRED_COUNTERS = (
    "run.instructions",
    "tracestore.cache.hits",
    "tracestore.cache.misses",
    "bp.predictions",
    "bp.mispredicts",
)
# Added in schema_rev 2: every report proves whether the run had to
# heal itself (retried chunks, quarantined entries, degraded runs) and
# whether fault injection was active.
REQUIRED_COUNTERS_REV2 = (
    "tracestore.replay.chunk_retries",
    "tracestore.cache.quarantined",
    "core.runner.degraded_runs",
    "faultsim.injected",
)
# Added in schema_rev 3: the campaign/cancellation contract. Every
# report proves whether the run was a campaign, whether it resumed,
# and whether any delivery loop was cancelled.
REQUIRED_COUNTERS_REV3 = (
    "campaign.cells_total",
    "campaign.cells_done",
    "campaign.cells_failed",
    "campaign.cells_retried",
    "campaign.cells_skipped",
    "campaign.resumed",
    "campaign.interrupted",
    "core.runner.cancelled",
)
# Added in schema_rev 4: the serving contract. Every report proves how
# many requests the daemon saw, admitted, refused, and finished, and
# whether any inbound frame failed its checksum.
REQUIRED_COUNTERS_REV4 = (
    "serve.requests",
    "serve.accepted",
    "serve.rejected",
    "serve.completed",
    "serve.frames_corrupt",
)
# Required in schema_rev 5 to 11 only: the synthesis contract (whether
# the run fitted profiles, generated programs, or failed a generation
# validation). Rev 12 dropped these keys with workload synthesis; older
# reports must still carry them.
REQUIRED_COUNTERS_SYNTH = (
    "synth.profiles_fitted",
    "synth.branches_fitted",
    "synth.programs_generated",
    "synth.validate_failures",
)
# Added in schema_rev 6: the observability contract. Every report
# proves whether the daemon answered live Stats pulls.
REQUIRED_COUNTERS_REV6 = ("serve.stats_requests",)
# Required in schema_rev 6 to 12 only: the span counters (whether span
# recording ran, whether its ring ever overflowed). Rev 13 dropped
# these keys with span tracing; older reports must still carry them.
REQUIRED_COUNTERS_SPANS = (
    "obs.spans_recorded",
    "obs.spans_dropped",
)
# Added in schema_rev 7: the client-retry contract. Every report
# proves whether clients needed retries.
REQUIRED_COUNTERS_REV7 = (
    "serve.client.retries",
    "serve.client.gave_up",
)
# Required in schema_rev 7 to 9 only: the fleet-supervision contract
# (how many workers died and came back, whether any shard's circuit
# breaker tripped). Rev 10 dropped these keys with the multi-process
# fleet; older reports must still carry them.
REQUIRED_COUNTERS_FLEET = (
    "serve.fleet.worker_deaths",
    "serve.fleet.respawns",
    "serve.fleet.breaker_trips",
)
# Added in schema_rev 8: the overload contract. Every report proves
# how the run behaved past saturation — fair-share sheds and deadline
# expiries swept before execution.
REQUIRED_COUNTERS_REV8 = (
    "serve.shed",
    "serve.expired",
)
# Required in schema_rev 8 to 10 only: the client-hedging counters.
# Rev 11 dropped these keys with client-side hedging; older reports
# must still carry them.
REQUIRED_COUNTERS_HEDGE = (
    "serve.hedges",
    "serve.hedge_wins",
)
# Added in schema_rev 9: the frontend contract. Every report proves
# what the fetch engine cost — BTB misses, RAS overflows, indirect
# target mispredicts, and FTQ-unabsorbed stall cycles (all zero when
# the run wired no FrontendModel).
REQUIRED_COUNTERS_REV9 = (
    "frontend.btb_miss",
    "frontend.ras_over",
    "frontend.ind_mispred",
    "frontend.ftq_stall_cycles",
)
MAX_KNOWN_SCHEMA_REV = 13


def check(path):
    with open(path) as f:
        report = json.load(f)

    if report.get("schema") != "bpnsp-run-report-v1":
        raise ValueError(f"unexpected schema: {report.get('schema')!r}")
    # Reports that predate the schema_rev mechanism are implicitly rev 1.
    rev = report.get("schema_rev", 1)
    if not isinstance(rev, int) or rev < 1:
        raise ValueError(f"bad schema_rev: {rev!r}")
    if rev > MAX_KNOWN_SCHEMA_REV:
        raise ValueError(
            f"unknown schema_rev {rev} (this checker knows up to "
            f"{MAX_KNOWN_SCHEMA_REV}); refusing to half-validate"
        )

    run = report.get("run")
    if not isinstance(run, dict):
        raise ValueError("missing 'run' object")
    for key in REQUIRED_RUN_KEYS:
        if key not in run:
            raise ValueError(f"missing run.{key}")
    if not isinstance(run["instructions"], int) or run["instructions"] < 0:
        raise ValueError(f"run.instructions not a count: {run['instructions']!r}")
    if not isinstance(run["wall_seconds"], (int, float)) or run["wall_seconds"] < 0:
        raise ValueError(f"run.wall_seconds not a duration: {run['wall_seconds']!r}")

    counters = report.get("counters")
    if not isinstance(counters, dict):
        raise ValueError("missing 'counters' object")
    # Every counter — contract or not — is a monotonic event count; a
    # negative or non-integer value means a serialization bug, not a
    # measurement.
    for name, value in counters.items():
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise ValueError(f"counter {name} not a count: {value!r}")
    # In revs 5 to 11 synth.* is a closed namespace: a key outside the
    # contract is a typo at an instrumentation site, not a new feature.
    if 5 <= rev <= 11:
        for name in counters:
            if name.startswith("synth.") and name not in REQUIRED_COUNTERS_SYNTH:
                raise ValueError(f"unknown synth.* counter {name}")
    required = REQUIRED_COUNTERS
    if rev >= 2:
        required = required + REQUIRED_COUNTERS_REV2
    if rev >= 3:
        required = required + REQUIRED_COUNTERS_REV3
    if rev >= 4:
        required = required + REQUIRED_COUNTERS_REV4
    if 5 <= rev <= 11:
        required = required + REQUIRED_COUNTERS_SYNTH
    if rev >= 6:
        required = required + REQUIRED_COUNTERS_REV6
    if 6 <= rev <= 12:
        required = required + REQUIRED_COUNTERS_SPANS
    if rev >= 7:
        required = required + REQUIRED_COUNTERS_REV7
    if 7 <= rev <= 9:
        required = required + REQUIRED_COUNTERS_FLEET
    if rev >= 8:
        required = required + REQUIRED_COUNTERS_REV8
    if 8 <= rev <= 10:
        required = required + REQUIRED_COUNTERS_HEDGE
    if rev >= 9:
        required = required + REQUIRED_COUNTERS_REV9
    for name in required:
        if name not in counters:
            raise ValueError(f"missing counter {name}")

    if rev >= 3:
        total = counters["campaign.cells_total"]
        accounted = (
            counters["campaign.cells_done"]
            + counters["campaign.cells_failed"]
            + counters["campaign.cells_skipped"]
        )
        if counters["campaign.interrupted"] == 0:
            # A drained campaign accounts for every cell exactly once.
            if accounted != total:
                raise ValueError(
                    f"campaign cell accounting broken: done+failed+skipped "
                    f"= {accounted} but cells_total = {total}"
                )
        elif accounted > total:
            # Interrupted: in-flight/pending cells are unaccounted, but
            # the books can never claim more cells than exist.
            raise ValueError(
                f"campaign cell accounting overflows: done+failed+skipped "
                f"= {accounted} > cells_total = {total}"
            )

    if rev >= 4:
        # Admission bookkeeping: every request resolves as at most one
        # of accepted/rejected, and nothing completes without being
        # admitted first.
        if counters["serve.accepted"] + counters["serve.rejected"] > counters[
            "serve.requests"
        ]:
            raise ValueError(
                f"serve admission accounting broken: accepted + rejected = "
                f"{counters['serve.accepted'] + counters['serve.rejected']} > "
                f"requests = {counters['serve.requests']}"
            )
        if counters["serve.completed"] > counters["serve.accepted"]:
            raise ValueError(
                f"serve completion accounting broken: completed = "
                f"{counters['serve.completed']} > accepted = "
                f"{counters['serve.accepted']}"
            )

    if 5 <= rev <= 11:
        # Synthesis bookkeeping: branches are only fitted as part of a
        # fitted profile, and a validation can only fail against a
        # program generated in the same run.
        if counters["synth.profiles_fitted"] == 0 and counters[
            "synth.branches_fitted"
        ] > 0:
            raise ValueError(
                f"synth fitting accounting broken: branches_fitted = "
                f"{counters['synth.branches_fitted']} with no fitted profile"
            )
        if counters["synth.validate_failures"] > counters[
            "synth.programs_generated"
        ]:
            raise ValueError(
                f"synth validation accounting broken: validate_failures = "
                f"{counters['synth.validate_failures']} > programs_generated "
                f"= {counters['synth.programs_generated']}"
            )

    if 6 <= rev <= 12:
        # Span bookkeeping: the ring only drops spans while recording
        # is on.
        if counters["obs.spans_dropped"] > 0 and counters["obs.spans_recorded"] == 0:
            raise ValueError(
                f"span accounting broken: {counters['obs.spans_dropped']} "
                f"span(s) dropped with none recorded"
            )

    if rev >= 6:
        # Observability bookkeeping: every Stats pull was first a
        # request.
        if counters["serve.stats_requests"] > counters["serve.requests"]:
            raise ValueError(
                f"stats accounting broken: stats_requests = "
                f"{counters['serve.stats_requests']} > requests = "
                f"{counters['serve.requests']}"
            )

    if 7 <= rev <= 9:
        # Fleet bookkeeping: a respawn only ever answers a death, so
        # the supervisor can never claim more revivals than losses.
        if counters["serve.fleet.respawns"] > counters[
            "serve.fleet.worker_deaths"
        ]:
            raise ValueError(
                f"fleet accounting broken: respawns = "
                f"{counters['serve.fleet.respawns']} > worker_deaths = "
                f"{counters['serve.fleet.worker_deaths']}"
            )

    if 8 <= rev <= 10:
        # Hedge bookkeeping: a hedge win is one of the hedges.
        if counters["serve.hedge_wins"] > counters["serve.hedges"]:
            raise ValueError(
                f"hedge accounting broken: hedge_wins = "
                f"{counters['serve.hedge_wins']} > hedges = "
                f"{counters['serve.hedges']}"
            )

    if rev >= 8:
        # Overload bookkeeping: a shed request was rejected, never
        # also handed to a worker.
        if counters["serve.shed"] + counters["serve.accepted"] > counters[
            "serve.requests"
        ]:
            raise ValueError(
                f"shed accounting broken: shed + accepted = "
                f"{counters['serve.shed'] + counters['serve.accepted']} > "
                f"requests = {counters['serve.requests']}"
            )

    for section in ("gauges", "histograms"):
        if not isinstance(report.get(section), dict):
            raise ValueError(f"missing '{section}' object")

    snapshots = report.get("snapshots")
    if snapshots is not None:
        if rev < 6:
            raise ValueError(f"'snapshots' section in a rev-{rev} report")
        if not isinstance(snapshots, dict):
            raise ValueError("'snapshots' is not an object")
        period = snapshots.get("period_ms")
        if not isinstance(period, int) or isinstance(period, bool) or period <= 0:
            raise ValueError(f"snapshots.period_ms not a period: {period!r}")
        total = snapshots.get("total")
        if not isinstance(total, int) or isinstance(total, bool) or total < 1:
            raise ValueError(f"snapshots.total not a count: {total!r}")
        samples = snapshots.get("samples")
        if not isinstance(samples, list) or not samples:
            raise ValueError("snapshots.samples missing or empty")
        if len(samples) > total:
            raise ValueError(
                f"snapshots ring holds {len(samples)} samples but only "
                f"{total} were ever taken"
            )
        prev_t = -1.0
        for i, sample in enumerate(samples):
            if not isinstance(sample, dict):
                raise ValueError(f"snapshots.samples[{i}] is not an object")
            t = sample.get("t_s")
            if not isinstance(t, (int, float)) or t < 0:
                raise ValueError(f"snapshots.samples[{i}].t_s bad: {t!r}")
            if t < prev_t:
                raise ValueError(
                    f"snapshots.samples[{i}].t_s goes backwards "
                    f"({t} after {prev_t}): ring unwrap broken"
                )
            prev_t = t
            for section in ("counters", "gauges", "histograms"):
                if not isinstance(sample.get(section), dict):
                    raise ValueError(
                        f"snapshots.samples[{i}] missing '{section}' object"
                    )
            for name, delta in sample["counters"].items():
                if not isinstance(delta, int) or isinstance(delta, bool) or delta < 0:
                    raise ValueError(
                        f"snapshots.samples[{i}] counter {name} not a "
                        f"delta: {delta!r}"
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
