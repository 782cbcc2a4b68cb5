#!/usr/bin/env bash
# Serving-daemon soak: 32 concurrent closed-loop clients against
# bpnsp_served with every serve.* failpoint active, randomized client
# kills, a deliberately tiny admission queue (so backpressure actually
# fires), and a SIGTERM mid-load to prove the graceful drain. Mid-soak
# a Stats request must answer from the io thread, and the run report
# must validate as schema_rev 14 with the serve.* contract counters.
# A final phase proves --watch survives a daemon restart by
# reconnecting instead of exiting.
#
# Usage: scripts/serve_soak.sh [BUILD_DIR]
#
# Intended to run against a sanitizer build (CI's serve-soak job); any
# build directory with bpnsp_served + bpnsp_client works.

set -euo pipefail

BUILD_DIR="${1:-build}"
SERVED="$BUILD_DIR/src/serve/bpnsp_served"
CLIENT="$BUILD_DIR/src/serve/bpnsp_client"
CHECKER="$(dirname "$0")/check_run_report.py"

WORK="$(mktemp -d /tmp/bpnsp-serve-soak.XXXXXX)"
SOCKET="$WORK/served.sock"
CACHE="$WORK/trace-cache"
REPORT="$WORK/report.json"
SERVED_PID=""
WATCH_SERVED_PID=""
WATCH_PID=""
trap 'for p in "$SERVED_PID" "$WATCH_SERVED_PID" "$WATCH_PID"; do
          [ -n "$p" ] && kill "$p" 2>/dev/null || true
      done
      rm -rf "$WORK"' EXIT

for bin in "$SERVED" "$CLIENT"; do
    [ -x "$bin" ] || { echo "missing binary: $bin" >&2; exit 2; }
done

echo "== serve soak: workdir $WORK"

# A small queue and a flaky, stall-prone pool: the soak must observe
# real backpressure (serve.rejected > 0) and real frame corruption
# (serve.frames_corrupt > 0), not just happy-path throughput.
"$SERVED" \
    --socket="$SOCKET" \
    --trace-cache="$CACHE" \
    --threads=2 \
    --queue-depth=2 \
    --metrics-out="$REPORT" \
    --faults="seed=9,serve.accept.fail@0.02,serve.frame.corrupt@0.01,serve.worker.stall@0.1" \
    &
SERVED_PID=$!

# Wait for the socket to appear.
for _ in $(seq 1 100); do
    [ -S "$SOCKET" ] && break
    sleep 0.1
done
[ -S "$SOCKET" ] || { echo "daemon never bound $SOCKET" >&2; exit 1; }

# Warm the corpus so the load phases measure serving, not generation.
# Retried because the accept failpoint may drop the connection.
WARMED=0
for _ in 1 2 3 4 5; do
    if "$CLIENT" --socket="$SOCKET" --op=materialize \
        --workload=mcf_like --instructions=200000; then
        WARMED=1
        break
    fi
    sleep 0.2
done
[ "$WARMED" -eq 1 ] || { echo "warm-up never succeeded" >&2; exit 1; }

# Phase 1: 32 concurrent clients, randomized kills, bit-for-bit reply
# verification against a VM run of the trace inside the client (it
# never reads the served corpus). Mismatches
# fail the loadgen (exit 1); transport errors are expected here — the
# failpoints corrupt frames and drop connections on purpose.
echo "== phase 1: 32-client loadgen with kills + verify"
"$CLIENT" --socket="$SOCKET" --op=loadgen \
    --clients=32 --requests=32 \
    --workload=mcf_like --instructions=200000 --count=50000 \
    --predictor=gshare,bimodal \
    --kill-prob=0.05 --seed=9 \
    --verify

# Phase 1b: live introspection under the load the soak just applied.
# Stats answers from the io thread, so it must work right now even
# though the worker pool is stall-prone and the queue is tiny. Retried
# because the accept failpoint may drop the connection.
echo "== phase 1b: Stats request under load"
STATS_JSON="$WORK/stats.json"
STATS_OK=0
for _ in 1 2 3 4 5; do
    if "$CLIENT" --socket="$SOCKET" --op=stats --raw \
        >"$STATS_JSON" 2>/dev/null; then
        STATS_OK=1
        break
    fi
    sleep 0.2
done
[ "$STATS_OK" -eq 1 ] || { echo "Stats never answered" >&2; exit 1; }
python3 - "$STATS_JSON" <<'PY'
import json
import sys

with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["schema"] == "bpnsp-stats-v1", doc.get("schema")
c = doc["counters"]
assert c["serve.requests"] > 0, c
assert c["serve.stats_requests"] >= 1, c
assert "serve.request_ns" in doc["histograms"], sorted(doc["histograms"])
print(
    "stats snapshot ok: %d requests, %d completed so far"
    % (c["serve.requests"], c["serve.completed"])
)
PY

# Phase 2: SIGTERM mid-load. The background loadgen keeps the queue
# busy while the daemon is told to drain; in-flight requests finish,
# late ones are refused, and the daemon must exit 0 with a report.
echo "== phase 2: SIGTERM mid-load"
"$CLIENT" --socket="$SOCKET" --op=loadgen \
    --clients=8 --requests=64 \
    --workload=mcf_like --instructions=200000 --count=50000 \
    --kill-prob=0.05 --seed=10 >/dev/null 2>&1 &
LOAD_PID=$!
sleep 1
kill -TERM "$SERVED_PID"
SERVED_STATUS=0
wait "$SERVED_PID" || SERVED_STATUS=$?
wait "$LOAD_PID" 2>/dev/null || true
[ "$SERVED_STATUS" -eq 0 ] || {
    echo "daemon exited $SERVED_STATUS after SIGTERM" >&2
    exit 1
}

# Phase 3: the drained daemon's report must be a valid schema_rev 14
# run report whose serve.* counters prove the soak exercised every
# path: admission, rejection, corruption, completion, introspection.
echo "== phase 3: report validation"
python3 "$CHECKER" "$REPORT"
python3 - "$REPORT" <<'PY'
import json
import sys

with open(sys.argv[1]) as f:
    report = json.load(f)
c = report["counters"]
assert c["serve.requests"] > 0, c
assert c["serve.completed"] > 0, c
assert c["serve.rejected"] > 0, "no backpressure observed: %r" % c
assert c["serve.frames_corrupt"] > 0, "no corrupt frames observed: %r" % c
assert c["serve.drains"] == 1, c
assert c["serve.stats_requests"] >= 1, c
print(
    "serve soak ok: %d requests, %d completed, %d rejected, "
    "%d corrupt frame(s), %d worker stall(s)"
    % (
        c["serve.requests"],
        c["serve.completed"],
        c["serve.rejected"],
        c["serve.frames_corrupt"],
        c["serve.worker_stalls"],
    )
)
PY

# Phase 4: a stats --watch must outlive a daemon restart. Start a
# fresh single-process daemon, point a watch at it, bounce the
# daemon, and check the watch reconnected instead of exiting.
echo "== phase 4: --watch survives a daemon restart"
WATCH_SOCKET="$WORK/watch.sock"
start_watch_daemon() {
    "$SERVED" --socket="$WATCH_SOCKET" --trace-cache="$CACHE" \
        --threads=2 &
    WATCH_SERVED_PID=$!
    for _ in $(seq 1 100); do
        [ -S "$WATCH_SOCKET" ] && break
        sleep 0.1
    done
    [ -S "$WATCH_SOCKET" ] || {
        echo "watch daemon never bound $WATCH_SOCKET" >&2; exit 1; }
}
start_watch_daemon
WATCH_LOG="$WORK/watch.log"
"$CLIENT" --socket="$WATCH_SOCKET" --op=stats \
    --watch --watch-ms=100 >"$WATCH_LOG" 2>&1 &
WATCH_PID=$!
sleep 0.5
kill -TERM "$WATCH_SERVED_PID"
wait "$WATCH_SERVED_PID" || true
sleep 0.5
kill -0 "$WATCH_PID" 2>/dev/null || {
    echo "watch exited when the daemon went away" >&2; exit 1; }
start_watch_daemon
sleep 1.5
kill -0 "$WATCH_PID" 2>/dev/null || {
    echo "watch exited instead of reconnecting" >&2; exit 1; }
kill "$WATCH_PID" 2>/dev/null || true
wait "$WATCH_PID" 2>/dev/null || true
kill -TERM "$WATCH_SERVED_PID"
wait "$WATCH_SERVED_PID" || true
grep -q "reconnecting in" "$WATCH_LOG" || {
    echo "watch never reported a reconnect attempt" >&2; exit 1; }
SNAPSHOTS_AFTER_RESTART=$(grep -c "bpnsp-stats\|serve.requests" "$WATCH_LOG" || true)
[ "$SNAPSHOTS_AFTER_RESTART" -gt 0 ] || {
    echo "watch never printed a snapshot" >&2; exit 1; }
echo "watch reconnect ok"

echo "== serve soak passed"
