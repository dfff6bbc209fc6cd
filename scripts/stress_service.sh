#!/usr/bin/env bash
# stress_service.sh — multi-client stress of the synthesis service.
#
# Boots a se2gis_served daemon on a Unix socket with a warm shared disk
# cache, then drives it with N concurrent clients submitting a mix of
# realizable, unrealizable, and deliberately-timing-out jobs. Asserts:
#
#   1. Verdict parity: every service verdict (submit --wait exit code)
#      matches the in-process run of the same benchmark/budget.
#   2. Admission control: a second, deliberately tiny daemon (1 worker,
#      queue bound 1) answers a submit flood with typed `overloaded`
#      rejections — clients are refused, never blocked or dropped.
#   3. Warm shared cache: after the stress mix, the daemon's stats report
#      a nonzero SMT-cache hit count (clients repeat problems, so the
#      process-wide cache must pay off across connections).
#   4. Metrics exposition: a plain-HTTP scrape of the daemon's
#      --metrics-addr listener returns Prometheus text whose job counters
#      (submitted, done-by-verdict, cache hits) agree with `stats`, and
#      the frame-protocol `metrics` method serves the same families.
#   5. Flight dumps: every deliberately-timed-out job leaves a
#      Perfetto-loadable flight-<jobid>.json under --flight-dir.
#   6. Graceful drain: the daemon exits 0 by itself after `drain`, with
#      the persistent store intact on disk.
#   7. Shared cache tier: a se2gis_cached daemon warms a two-node fleet —
#      node A's solves populate the daemon, node B's first solves of the
#      same benchmarks report remote-cache hits (and no remote errors)
#      with verdict parity against the direct CLI; kill -9 of the daemon
#      mid-run degrades node B to local-only with zero failed or changed
#      verdicts; a few se2gis_fuzz --gen-seed cases run the remote matrix
#      column; and the cached daemon restarted on the same store directory
#      reports the warm entries before a clean client-driven drain.
#
# Usage: scripts/stress_service.sh [build-dir] [clients] [jobs-per-client]
#   build-dir        default: build
#   clients          default: 8  (the acceptance floor)
#   jobs-per-client  default: 3
set -euo pipefail

BUILD_DIR=${1:-build}
CLIENTS=${2:-8}
JOBS_PER=${3:-3}
OUT_DIR=${STRESS_OUT_DIR:-$BUILD_DIR}
CLI="$BUILD_DIR/tools/se2gis"
DAEMON="$BUILD_DIR/tools/se2gis_served"
CACHED="$BUILD_DIR/tools/se2gis_cached"
FUZZ="$BUILD_DIR/tools/se2gis_fuzz"
SOCK="$OUT_DIR/stress.sock"
CACHE="$OUT_DIR/stress-cache"
WORK="$OUT_DIR/stress-work"

if [ ! -x "$CLI" ] || [ ! -x "$DAEMON" ] || [ ! -x "$CACHED" ]; then
  echo "error: build $BUILD_DIR first (cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR -j)" >&2
  exit 1
fi
rm -rf "$CACHE" "$WORK" "$SOCK"
mkdir -p "$WORK"

DAEMON_PID=
TINY_PID=
CACHED_PID=
NODE_A_PID=
NODE_B_PID=
cleanup() {
  [ -n "$DAEMON_PID" ] && kill "$DAEMON_PID" 2>/dev/null || true
  [ -n "$TINY_PID" ] && kill "$TINY_PID" 2>/dev/null || true
  [ -n "$CACHED_PID" ] && kill "$CACHED_PID" 2>/dev/null || true
  [ -n "$NODE_A_PID" ] && kill "$NODE_A_PID" 2>/dev/null || true
  [ -n "$NODE_B_PID" ] && kill "$NODE_B_PID" 2>/dev/null || true
}
trap cleanup EXIT

wait_ping() { # wait_ping <addr>
  for _ in $(seq 1 50); do
    if "$CLI" ping --connect "$1" >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  return 1
}

# The job mix: (benchmark, budget-ms). The 1 ms budget must produce a
# timeout verdict; the others resolve well inside their budget.
MIX_BENCH=(list/sum unreal/sum list/sum)
MIX_BUDGET=(20000 20000 1)

# Parity baseline: the in-process exit code of each mix entry (0
# realizable, 1 unrealizable, 2 timeout).
echo "[stress] computing in-process parity baselines..."
BASELINE=()
for K in 0 1 2; do
  RC=0
  "$CLI" --benchmark "${MIX_BENCH[$K]}" --timeout-ms "${MIX_BUDGET[$K]}" \
    --quiet >/dev/null 2>&1 || RC=$?
  BASELINE[$K]=$RC
  echo "[stress]   ${MIX_BENCH[$K]} @${MIX_BUDGET[$K]}ms -> exit $RC"
done

echo "[stress] starting daemon ($CLIENTS clients x $JOBS_PER jobs)..."
"$DAEMON" --listen "unix:$SOCK" --workers 2 --max-queue 64 \
  --cache disk --cache-dir "$CACHE" \
  --metrics-addr tcp:127.0.0.1:0 --flight-dir "$WORK" \
  >"$WORK/daemon.log" 2>&1 &
DAEMON_PID=$!
wait_ping "unix:$SOCK" || { echo "[stress] FAIL: daemon never came up" >&2; exit 1; }

# --- Concurrent clients -----------------------------------------------------
client() { # client <index>
  local I=$1 RC K
  : >"$WORK/client$I.rc"
  for ((J = 0; J < JOBS_PER; ++J)); do
    K=$(((I + J) % 3)) # stagger the mix across clients
    RC=0
    "$CLI" submit --connect "unix:$SOCK" --benchmark "${MIX_BENCH[$K]}" \
      --timeout-ms "${MIX_BUDGET[$K]}" --wait --quiet \
      >>"$WORK/client$I.out" 2>&1 || RC=$?
    echo "$K $RC" >>"$WORK/client$I.rc"
  done
}

CLIENT_PIDS=()
for ((I = 0; I < CLIENTS; ++I)); do
  client "$I" &
  CLIENT_PIDS+=($!)
done
# Wait on the client pids explicitly: a bare `wait` would also block on the
# daemon, which stays up until we drain it.
for P in "${CLIENT_PIDS[@]}"; do wait "$P"; done

MISMATCH=0
TOTAL=0
for ((I = 0; I < CLIENTS; ++I)); do
  while read -r K RC; do
    TOTAL=$((TOTAL + 1))
    if [ "$RC" != "${BASELINE[$K]}" ]; then
      echo "[stress] FAIL: client $I got exit $RC for ${MIX_BENCH[$K]}" \
           "@${MIX_BUDGET[$K]}ms (in-process: ${BASELINE[$K]})" >&2
      MISMATCH=$((MISMATCH + 1))
    fi
  done <"$WORK/client$I.rc"
done
EXPECTED=$((CLIENTS * JOBS_PER))
if [ "$MISMATCH" -ne 0 ] || [ "$TOTAL" -ne "$EXPECTED" ]; then
  echo "[stress] FAIL: $MISMATCH verdict mismatches, $TOTAL/$EXPECTED jobs reported" >&2
  exit 1
fi
echo "[stress] verdict parity: $TOTAL/$EXPECTED jobs match the in-process runs"

# --- Warm shared cache ------------------------------------------------------
STATS=$("$CLI" stats --connect "unix:$SOCK")
SMT_HITS=$(printf '%s' "$STATS" | sed -n 's/.*"smt_hits":\([0-9][0-9]*\).*/\1/p')
if [ -z "$SMT_HITS" ] || [ "$SMT_HITS" -eq 0 ]; then
  echo "[stress] FAIL: no SMT-cache hits across repeated submissions" >&2
  echo "$STATS" >&2
  exit 1
fi
echo "[stress] warm cache: smt_hits=$SMT_HITS across $TOTAL jobs"

# --- Metrics exposition ------------------------------------------------------
# The daemon printed its bound (ephemeral) metrics port on startup.
METRICS_HP=$(sed -n 's/^se2gis_served: metrics on tcp:\(.*\)$/\1/p' "$WORK/daemon.log")
if [ -z "$METRICS_HP" ]; then
  echo "[stress] FAIL: daemon never reported a metrics address" >&2
  exit 1
fi
scrape() { # scrape <host:port> <outfile>
  if command -v curl >/dev/null 2>&1; then
    curl -sf "http://$1/metrics" -o "$2"
  else
    python3 -c 'import sys, urllib.request
open(sys.argv[2], "wb").write(
    urllib.request.urlopen("http://%s/metrics" % sys.argv[1], timeout=10).read())' \
      "$1" "$2"
  fi
}
scrape "$METRICS_HP" "$WORK/metrics.txt" \
  || { echo "[stress] FAIL: HTTP scrape of $METRICS_HP failed" >&2; exit 1; }

SUBMITTED_STATS=$(printf '%s' "$STATS" | sed -n 's/.*"submitted":\([0-9][0-9]*\).*/\1/p')
SUBMITTED_METRIC=$(awk '$1 == "se2gis_jobs_submitted_total" {print int($2)}' "$WORK/metrics.txt")
if [ "$SUBMITTED_METRIC" != "$SUBMITTED_STATS" ]; then
  echo "[stress] FAIL: se2gis_jobs_submitted_total=$SUBMITTED_METRIC but stats says $SUBMITTED_STATS" >&2
  exit 1
fi
TIMEOUT_DONE=$(sed -n 's/^se2gis_jobs_done_total{verdict="timeout"} \([0-9][0-9]*\)$/\1/p' "$WORK/metrics.txt")
if [ -z "$TIMEOUT_DONE" ] || [ "$TIMEOUT_DONE" -eq 0 ]; then
  echo "[stress] FAIL: no timeout verdicts counted in se2gis_jobs_done_total" >&2
  exit 1
fi
SMT_HITS_METRIC=$(awk '$1 == "se2gis_cache_smt_hits_total" {print int($2)}' "$WORK/metrics.txt")
if [ -z "$SMT_HITS_METRIC" ] || [ "$SMT_HITS_METRIC" -lt "$SMT_HITS" ]; then
  echo "[stress] FAIL: se2gis_cache_smt_hits_total=$SMT_HITS_METRIC < stats smt_hits=$SMT_HITS" >&2
  exit 1
fi
if ! grep -q '^# TYPE se2gis_queue_depth gauge$' "$WORK/metrics.txt" \
   || ! grep -q '^# TYPE se2gis_job_latency_seconds histogram$' "$WORK/metrics.txt"; then
  echo "[stress] FAIL: scrape is missing queue-depth/latency families" >&2
  exit 1
fi
# The frame-protocol `metrics` method serves the same exposition.
"$CLI" metrics --connect "unix:$SOCK" >"$WORK/metrics-frame.txt"
if ! grep -q '^se2gis_jobs_submitted_total ' "$WORK/metrics-frame.txt"; then
  echo "[stress] FAIL: frame-protocol metrics method returned no exposition" >&2
  exit 1
fi
echo "[stress] metrics: submitted=$SUBMITTED_METRIC timeouts=$TIMEOUT_DONE smt_hits=$SMT_HITS_METRIC (HTTP + frame scrapes agree with stats)"

# --- Flight dumps for timed-out jobs ----------------------------------------
DUMPS=$(ls "$WORK"/flight-j*.json 2>/dev/null | wc -l)
if [ "$DUMPS" -eq 0 ]; then
  echo "[stress] FAIL: timed-out jobs left no flight dumps under --flight-dir" >&2
  exit 1
fi
for F in "$WORK"/flight-j*.json; do
  python3 -c 'import json, sys
d = json.load(open(sys.argv[1]))
assert isinstance(d.get("traceEvents"), list) and d["traceEvents"], "empty dump"' "$F" \
    || { echo "[stress] FAIL: $F is not a loadable trace dump" >&2; exit 1; }
done
echo "[stress] flight recorder: $DUMPS timed-out job dump(s), all Perfetto-loadable"

# --- Typed rejection at queue capacity -------------------------------------
TINY_SOCK="$OUT_DIR/stress-tiny.sock"
rm -f "$TINY_SOCK"
"$DAEMON" --listen "unix:$TINY_SOCK" --workers 1 --max-queue 1 \
  >"$WORK/tiny.log" 2>&1 &
TINY_PID=$!
wait_ping "unix:$TINY_SOCK" || { echo "[stress] FAIL: tiny daemon never came up" >&2; exit 1; }

REJECTED=0
for _ in $(seq 1 10); do
  RC=0
  "$CLI" submit --connect "unix:$TINY_SOCK" --benchmark list/sum \
    --timeout-ms 20000 >/dev/null 2>"$WORK/reject.err" || RC=$?
  if [ "$RC" -eq 4 ] && grep -q overloaded "$WORK/reject.err"; then
    REJECTED=$((REJECTED + 1))
  fi
done
if [ "$REJECTED" -eq 0 ]; then
  echo "[stress] FAIL: flooding a 1-worker/1-slot daemon produced no typed rejection" >&2
  exit 1
fi
echo "[stress] admission control: $REJECTED/10 floods rejected with typed 'overloaded'"
"$CLI" drain --connect "unix:$TINY_SOCK" --deadline-ms 30000 >/dev/null
wait "$TINY_PID" || { echo "[stress] FAIL: tiny daemon exited nonzero" >&2; exit 1; }
TINY_PID=

# --- Graceful drain ---------------------------------------------------------
"$CLI" drain --connect "unix:$SOCK" >/dev/null
DRAIN_EXIT=0
wait "$DAEMON_PID" || DRAIN_EXIT=$?
DAEMON_PID=
if [ "$DRAIN_EXIT" -ne 0 ]; then
  echo "[stress] FAIL: daemon exited $DRAIN_EXIT after drain (want 0)" >&2
  exit 1
fi
if [ ! -s "$CACHE/store.meta" ] || [ ! -s "$CACHE/smt.jsonl" ]; then
  echo "[stress] FAIL: persistent store missing or empty after drain" >&2
  exit 1
fi
echo "[stress] drain clean (exit 0); store intact: $(ls "$CACHE" | tr '\n' ' ')"

# --- Shared cache tier: one solve warms the fleet ---------------------------
CACHED_SOCK="$OUT_DIR/stress-cached.sock"
CACHED_STORE="$OUT_DIR/stress-cached-store"
NODE_A_SOCK="$OUT_DIR/stress-nodeA.sock"
NODE_B_SOCK="$OUT_DIR/stress-nodeB.sock"
rm -rf "$CACHED_SOCK" "$CACHED_STORE" "$NODE_A_SOCK" "$NODE_B_SOCK" \
       "$WORK/nodeA-cache" "$WORK/nodeB-cache"

echo "[stress] cache tier: starting se2gis_cached + two served nodes..."
"$CACHED" --listen "unix:$CACHED_SOCK" --cache-dir "$CACHED_STORE" \
  >"$WORK/cached.log" 2>&1 &
CACHED_PID=$!
for _ in $(seq 1 50); do
  if "$CACHED" ping --connect "unix:$CACHED_SOCK" >/dev/null 2>&1; then break; fi
  sleep 0.1
done
"$CACHED" ping --connect "unix:$CACHED_SOCK" >/dev/null \
  || { echo "[stress] FAIL: cache daemon never came up" >&2; exit 1; }

"$DAEMON" --listen "unix:$NODE_A_SOCK" --workers 2 \
  --cache remote --cache-addr "unix:$CACHED_SOCK" \
  --cache-dir "$WORK/nodeA-cache" --metrics-addr tcp:127.0.0.1:0 \
  >"$WORK/nodeA.log" 2>&1 &
NODE_A_PID=$!
"$DAEMON" --listen "unix:$NODE_B_SOCK" --workers 2 \
  --cache remote --cache-addr "unix:$CACHED_SOCK" \
  --cache-dir "$WORK/nodeB-cache" --metrics-addr tcp:127.0.0.1:0 \
  >"$WORK/nodeB.log" 2>&1 &
NODE_B_PID=$!
wait_ping "unix:$NODE_A_SOCK" || { echo "[stress] FAIL: node A never came up" >&2; exit 1; }
wait_ping "unix:$NODE_B_SOCK" || { echo "[stress] FAIL: node B never came up" >&2; exit 1; }

# The warm-fleet benchmark set, solved on node A first (populates the
# daemon), then on node B (whose local cache is cold — every persistent
# hit must come from the remote tier), checking verdict parity with the
# direct CLI runs computed for the stress mix above.
TIER_BENCH=(list/sum unreal/sum)
TIER_BASE=("${BASELINE[0]}" "${BASELINE[1]}")
for NODE in A B; do
  SOCK_VAR="unix:$OUT_DIR/stress-node$NODE.sock"
  for K in 0 1; do
    RC=0
    "$CLI" submit --connect "$SOCK_VAR" --benchmark "${TIER_BENCH[$K]}" \
      --timeout-ms 20000 --wait --quiet >/dev/null 2>&1 || RC=$?
    if [ "$RC" != "${TIER_BASE[$K]}" ]; then
      echo "[stress] FAIL: node $NODE got exit $RC for ${TIER_BENCH[$K]}" \
           "(direct CLI: ${TIER_BASE[$K]})" >&2
      exit 1
    fi
  done
done

# Node B's metrics must show remote-tier hits: its local store was empty,
# so its warm start came from the daemon node A populated.
NODE_B_HP=$(sed -n 's/^se2gis_served: metrics on tcp:\(.*\)$/\1/p' "$WORK/nodeB.log")
[ -n "$NODE_B_HP" ] || { echo "[stress] FAIL: node B reported no metrics address" >&2; exit 1; }
scrape "$NODE_B_HP" "$WORK/nodeB-metrics.txt" \
  || { echo "[stress] FAIL: scrape of node B failed" >&2; exit 1; }
B_REMOTE_HITS=$(awk '$1 == "se2gis_cache_remote_hits_total" {print int($2)}' "$WORK/nodeB-metrics.txt")
if [ -z "$B_REMOTE_HITS" ] || [ "$B_REMOTE_HITS" -eq 0 ]; then
  echo "[stress] FAIL: node B shows no remote cache hits" >&2
  cat "$WORK/nodeB-metrics.txt" >&2
  exit 1
fi
# ... and, the daemon being healthy, no remote errors.
B_REMOTE_ERRS=$(awk '$1 == "se2gis_cache_remote_errors_total" {print int($2)}' "$WORK/nodeB-metrics.txt")
if [ "${B_REMOTE_ERRS:-missing}" != 0 ]; then
  echo "[stress] FAIL: node B counts ${B_REMOTE_ERRS:-no} remote errors against a healthy daemon" >&2
  exit 1
fi
CACHED_STATS=$("$CACHED" stats --connect "unix:$CACHED_SOCK")
CACHED_HITS=$(printf '%s' "$CACHED_STATS" | sed -n 's/.*"hits":\([0-9][0-9]*\).*/\1/p')
echo "[stress] cache tier: node B remote_hits=$B_REMOTE_HITS, daemon hits=$CACHED_HITS"

# A few generator cases through the remote matrix column (cold+warm pair
# against the shared daemon).
if [ -x "$FUZZ" ]; then
  "$FUZZ" --gen-seed 7 --cases 3 --timeout-ms 4000 \
    --cache-addr "unix:$CACHED_SOCK" >"$WORK/fuzz-tier.log" 2>&1 \
    || { echo "[stress] FAIL: fuzz cases through the remote tier failed" >&2;
         tail -5 "$WORK/fuzz-tier.log" >&2; exit 1; }
  echo "[stress] cache tier: 3 fuzz cases ran the remote matrix column"
fi

# Kill -9 the cache daemon: node B must degrade to local-only — same
# verdicts, exit codes, no stalls (bounded by the client timeout).
kill -9 "$CACHED_PID" 2>/dev/null || true
wait "$CACHED_PID" 2>/dev/null || true
CACHED_PID=
for K in 0 1; do
  RC=0
  "$CLI" submit --connect "unix:$NODE_B_SOCK" --benchmark "${TIER_BENCH[$K]}" \
    --timeout-ms 20000 --wait --quiet >/dev/null 2>&1 || RC=$?
  if [ "$RC" != "${TIER_BASE[$K]}" ]; then
    echo "[stress] FAIL: node B verdict changed after daemon kill -9:" \
         "${TIER_BENCH[$K]} -> exit $RC (want ${TIER_BASE[$K]})" >&2
    exit 1
  fi
done
# A benchmark neither node has seen yet forces fresh SMT queries, so node
# B must actually probe the (dead) remote tier, count the failures, and
# still land the direct-CLI verdict.
FRESH_BENCH=unreal/min_no_invariant
RC=0
"$CLI" --benchmark "$FRESH_BENCH" --timeout-ms 20000 --quiet \
  >/dev/null 2>&1 || RC=$?
FRESH_BASE=$RC
RC=0
"$CLI" submit --connect "unix:$NODE_B_SOCK" --benchmark "$FRESH_BENCH" \
  --timeout-ms 20000 --wait --quiet >/dev/null 2>&1 || RC=$?
if [ "$RC" != "$FRESH_BASE" ]; then
  echo "[stress] FAIL: node B got exit $RC for $FRESH_BENCH with the daemon" \
       "dead (direct CLI: $FRESH_BASE)" >&2
  exit 1
fi
scrape "$NODE_B_HP" "$WORK/nodeB-metrics2.txt" \
  || { echo "[stress] FAIL: post-kill scrape of node B failed" >&2; exit 1; }
B_DEGRADED=$(awk '$1 == "se2gis_cache_remote_errors_total" {e=int($2)}
               $1 == "se2gis_cache_remote_degraded_total" {d=int($2)}
               END {print e + d}' "$WORK/nodeB-metrics2.txt")
if [ -z "$B_DEGRADED" ] || [ "$B_DEGRADED" -eq 0 ]; then
  echo "[stress] FAIL: node B shows neither remote errors nor degraded probes after kill -9" >&2
  exit 1
fi
echo "[stress] cache tier: daemon kill -9 degraded node B cleanly (errors+degraded=$B_DEGRADED, verdicts unchanged)"

# Drain both nodes; each must exit 0.
for NODE in A B; do
  "$CLI" drain --connect "unix:$OUT_DIR/stress-node$NODE.sock" >/dev/null
done
wait "$NODE_A_PID" || { echo "[stress] FAIL: node A exited nonzero" >&2; exit 1; }
NODE_A_PID=
wait "$NODE_B_PID" || { echo "[stress] FAIL: node B exited nonzero" >&2; exit 1; }
NODE_B_PID=

# Restart the cache daemon on the same store directory: the entries
# written before the kill must come back warm; then a clean client drain.
"$CACHED" --listen "unix:$CACHED_SOCK" --cache-dir "$CACHED_STORE" \
  >"$WORK/cached2.log" 2>&1 &
CACHED_PID=$!
for _ in $(seq 1 50); do
  if "$CACHED" ping --connect "unix:$CACHED_SOCK" >/dev/null 2>&1; then break; fi
  sleep 0.1
done
# The top-level "entries" field precedes the per-segment breakdown, whose
# own "entries" keys a greedy match would grab instead.
WARM=$("$CACHED" stats --connect "unix:$CACHED_SOCK" \
  | sed -n 's/.*"entries":\([0-9][0-9]*\),"segments".*/\1/p')
if [ -z "$WARM" ] || [ "$WARM" -eq 0 ]; then
  echo "[stress] FAIL: restarted cache daemon reloaded no entries" >&2
  exit 1
fi
"$CACHED" drain --connect "unix:$CACHED_SOCK" >/dev/null
wait "$CACHED_PID" || { echo "[stress] FAIL: cache daemon exited nonzero after drain" >&2; exit 1; }
CACHED_PID=
echo "[stress] cache tier: restart reloaded $WARM entries; client drain clean"

echo "[stress] PASS"
