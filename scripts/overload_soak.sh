#!/usr/bin/env bash
# Overload-survival soak: a deliberately oversubscribed open-loop mix
# against bpnsp_served with cost-aware admission engaged, plus one
# abusive client hammering whole-trace work with no deadline. The
# server must keep the well-behaved client's interactive tail bounded
# (p99 within 3x its uncontended baseline, with a small absolute floor
# for sanitizer noise), shed overwhelmingly from the abusive client
# (fair-share, heaviest first), expire unmeetable deadlines before
# they cost worker time, and answer every surviving request with the
# bit-exact result (--verify). The drained report must validate as
# schema_rev 13 (shed / expired accounting invariants).
#
# Usage: scripts/overload_soak.sh [BUILD_DIR]
#
# Intended to run against a sanitizer build (CI's overload-soak job);
# any build directory with bpnsp_served + bpnsp_client works.

set -euo pipefail

BUILD_DIR="${1:-build}"
SERVED="$BUILD_DIR/src/serve/bpnsp_served"
CLIENT="$BUILD_DIR/src/serve/bpnsp_client"
CHECKER="$(dirname "$0")/check_run_report.py"

WORK="$(mktemp -d /tmp/bpnsp-overload-soak.XXXXXX)"
SOCKET="$WORK/served.sock"
CACHE="$WORK/trace-cache"
REPORT="$WORK/report.json"
SERVED_PID=""
ABUSE_PID=""
trap 'for p in "$SERVED_PID" "$ABUSE_PID"; do
          [ -n "$p" ] && kill "$p" 2>/dev/null || true
      done
      rm -rf "$WORK"' EXIT

for bin in "$SERVED" "$CLIENT"; do
    [ -x "$bin" ] || { echo "missing binary: $bin" >&2; exit 2; }
done

echo "== overload soak: workdir $WORK"

# Cost-aware admission: a 50 ms estimated-work budget with a deep
# count queue, so the cost model (not the request count) is what
# decides admission, and heaviest-first shedding picks the victims.
"$SERVED" \
    --socket="$SOCKET" \
    --trace-cache="$CACHE" \
    --threads=2 \
    --queue-depth=128 \
    --max-inflight-cost=50 \
    --metrics-out="$REPORT" \
    &
SERVED_PID=$!
for _ in $(seq 1 100); do
    [ -S "$SOCKET" ] && break
    sleep 0.1
done
[ -S "$SOCKET" ] || { echo "daemon never bound $SOCKET" >&2; exit 1; }

# Warm the corpus so the phases measure serving, not generation.
"$CLIENT" --socket="$SOCKET" --op=materialize \
    --workload=mcf_like --instructions=200000

# Extract one key from a "loadgen-overload: k=v k=v ..." line.
ov_field() { # file key
    grep '^loadgen-overload:' "$1" | sed -n "s/.*$2=\([0-9.]*\).*/\1/p"
}

# Phase 1: uncontended 1x baseline for the well-behaved client's mix
# (half interactive BranchStats, half sliced Simulates, open loop so
# the arrival rate is fixed).
echo "== phase 1: 1x baseline (open loop, mixed interactive/batch)"
BASE_LOG="$WORK/baseline.log"
"$CLIENT" --socket="$SOCKET" --op=loadgen \
    --clients=4 --requests=40 --open-loop-hz=5 \
    --interactive-frac=0.5 \
    --workload=mcf_like --instructions=200000 --count=20000 \
    --predictor=gshare --seed=21 \
    --verify | tee "$BASE_LOG"
BASE_P99="$(ov_field "$BASE_LOG" interactive_p99_ms)"
[ -n "$BASE_P99" ] || { echo "no baseline p99 captured" >&2; exit 1; }

# Phase 2: 10x overload. The abusive client: 8 closed-loop clients of
# whole-trace Simulates, no deadline, no retries — the heaviest peer
# by estimated queued work, so fair-share shedding should land on it.
# The well-behaved client keeps the same mix at 10x the arrival rate,
# with a 2 s deadline.
echo "== phase 2: 10x overload + abusive client"
ABUSE_LOG="$WORK/abusive.log"
GOOD_LOG="$WORK/good.log"
"$CLIENT" --socket="$SOCKET" --op=loadgen \
    --clients=12 --requests=300 \
    --workload=mcf_like --instructions=200000 --count=0 \
    --predictor=tage-sc-l-8KB --seed=22 \
    >"$ABUSE_LOG" 2>&1 &
ABUSE_PID=$!
sleep 0.3
"$CLIENT" --socket="$SOCKET" --op=loadgen \
    --clients=4 --requests=100 --open-loop-hz=50 \
    --interactive-frac=0.5 --deadline-ms=2000 \
    --workload=mcf_like --instructions=200000 --count=20000 \
    --predictor=gshare --seed=23 \
    --verify | tee "$GOOD_LOG"
# The abusive client is expected to be shed hard; its exit code is
# not part of the contract (ok may legitimately reach 0).
wait "$ABUSE_PID" || true
ABUSE_PID=""
cat "$ABUSE_LOG"

GOOD_P99="$(ov_field "$GOOD_LOG" interactive_p99_ms)"
GOOD_IOK="$(ov_field "$GOOD_LOG" interactive_ok)"
GOOD_REJ="$(ov_field "$GOOD_LOG" rejected)"
GOOD_MISMATCH="$(ov_field "$GOOD_LOG" mismatches)"
ABUSE_REJ="$(ov_field "$ABUSE_LOG" rejected)"

python3 - "$BASE_P99" "$GOOD_P99" "$GOOD_REJ" "$ABUSE_REJ" \
    "$GOOD_MISMATCH" "$GOOD_IOK" <<'PY'
import sys

base_p99, good_p99 = float(sys.argv[1]), float(sys.argv[2])
good_rej, abuse_rej = int(sys.argv[3]), int(sys.argv[4])
mismatches, interactive_ok = int(sys.argv[5]), int(sys.argv[6])

# The p99 bound below means nothing if no interactive request
# completed (the percentile of an empty sample reads 0).
assert interactive_ok >= 1, "no interactive request completed under overload"

# Interactive tail: bounded at 3x the uncontended baseline, with a
# 100 ms absolute floor so a sub-ms sanitizer-noise baseline does not
# turn the ratio into a coin flip.
limit = max(3.0 * base_p99, 100.0)
assert good_p99 <= limit, (
    "interactive p99 %.2f ms exceeds %.2f ms under overload "
    "(baseline %.2f ms)" % (good_p99, limit, base_p99)
)

# Fairness: the overload must be absorbed by the abusive client.
total_rej = good_rej + abuse_rej
assert abuse_rej > 0, "overload never shed anything"
assert abuse_rej >= 0.9 * total_rej, (
    "abusive client absorbed only %d/%d sheds" % (abuse_rej, total_rej)
)

# Every answered request verified bit-identical.
assert mismatches == 0, "%d verify mismatches" % mismatches

print(
    "overload ok: interactive p99 %.2fms over %d ok (baseline %.2fms, "
    "limit %.2fms), sheds good=%d abusive=%d, 0 mismatches"
    % (good_p99, interactive_ok, base_p99, limit, good_rej, abuse_rej)
)
PY

# Phase 3: drain and audit the rev-13 report: the overload counters
# must be present, additive, and non-trivial.
echo "== phase 3: main report validation (schema_rev 13)"
kill -TERM "$SERVED_PID"
SERVED_STATUS=0
wait "$SERVED_PID" || SERVED_STATUS=$?
SERVED_PID=""
[ "$SERVED_STATUS" -eq 0 ] || {
    echo "daemon exited $SERVED_STATUS after SIGTERM" >&2; exit 1; }
python3 "$CHECKER" "$REPORT"
python3 - "$REPORT" <<'PY'
import json
import sys

with open(sys.argv[1]) as f:
    report = json.load(f)
assert report["schema_rev"] == 13, report["schema_rev"]
c = report["counters"]
assert c["serve.shed"] > 0, "cost-aware admission never shed: %r" % c
assert c["serve.shed"] + c["serve.accepted"] <= c["serve.requests"], c
print(
    "report ok: %d requests, %d accepted, %d shed, %d expired"
    % (
        c["serve.requests"],
        c["serve.accepted"],
        c["serve.shed"],
        c["serve.expired"],
    )
)
PY

# Phase 4: deadline propagation. A single-worker daemon with a
# permanent execute stall keeps the worker pinned while three
# no-deadline blockers serialize behind it, so a 1 ms-deadline request
# is guaranteed to outlive its deadline in the admission queue and be
# swept — DEADLINE_EXCEEDED without ever costing worker time.
echo "== phase 4: unmeetable deadline expires in the queue"
STALL_SOCKET="$WORK/stall.sock"
STALL_REPORT="$WORK/stall-report.json"
"$SERVED" \
    --socket="$STALL_SOCKET" \
    --trace-cache="$CACHE" \
    --threads=1 \
    --faults="seed=4,serve.worker.stall@1" \
    --metrics-out="$STALL_REPORT" \
    &
SERVED_PID=$!
for _ in $(seq 1 100); do
    [ -S "$STALL_SOCKET" ] && break
    sleep 0.1
done
[ -S "$STALL_SOCKET" ] || { echo "stall daemon never bound" >&2; exit 1; }

# Load probe: Stats answers on the io thread and carries the queue
# depth and the estimated queued + in-flight work as gauges.
STATS_JSON="$WORK/stats.json"
"$CLIENT" --socket="$STALL_SOCKET" --op=stats --raw >"$STATS_JSON"
python3 - "$STATS_JSON" <<'PY'
import json
import sys

with open(sys.argv[1]) as f:
    gauges = json.load(f)["gauges"]
for name in ("serve.queue_depth", "serve.inflight_cost_ms"):
    assert name in gauges, "stats carries no %s gauge: %r" % (name, gauges)
print("stats ok: queue_depth=%g inflight_cost_ms=%g"
      % (gauges["serve.queue_depth"], gauges["serve.inflight_cost_ms"]))
PY

# Three blockers queue up behind the one stalled worker, so the
# deadline request below waits long past its budget.
BLOCKER_PIDS=()
for i in 1 2 3; do
    "$CLIENT" --socket="$STALL_SOCKET" --op=simulate \
        --workload=mcf_like --instructions=200000 \
        --first=$((i * 1000)) --count=150000 \
        --predictor=gshare >"$WORK/blocker$i.log" 2>&1 &
    BLOCKER_PIDS+=($!)
done
sleep 0.15
"$CLIENT" --socket="$STALL_SOCKET" --op=simulate --deadline-ms=1 \
    --workload=mcf_like --instructions=200000 \
    --predictor=tage-sc-l-64KB >"$WORK/deadline.log" 2>&1 || true
grep -q "DEADLINE_EXCEEDED" "$WORK/deadline.log" || {
    cat "$WORK/deadline.log" >&2
    echo "1 ms deadline behind a stalled worker did not expire" >&2
    exit 1
}
for p in "${BLOCKER_PIDS[@]}"; do wait "$p" || true; done

kill -TERM "$SERVED_PID"
SERVED_STATUS=0
wait "$SERVED_PID" || SERVED_STATUS=$?
SERVED_PID=""
[ "$SERVED_STATUS" -eq 0 ] || {
    echo "stall daemon exited $SERVED_STATUS after SIGTERM" >&2
    exit 1
}
python3 "$CHECKER" "$STALL_REPORT"
python3 - "$STALL_REPORT" <<'PY'
import json
import sys

with open(sys.argv[1]) as f:
    c = json.load(f)["counters"]
assert c["serve.expired"] > 0, "no deadline ever expired: %r" % c
print("deadline ok: %d expired in the queue" % c["serve.expired"])
PY

echo "== overload soak passed"
