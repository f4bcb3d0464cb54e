#!/usr/bin/env bash
# chaos_smoke.sh proves the service's crash-safety and admission
# contracts end to end, from outside the process:
#
#   1. Durability round trip: boot cmd/served with a durable store,
#      complete a job, kill -9 the process, restart on the same
#      directory, and assert the boot log replays the stored points,
#      that an identical resubmission is served entirely from the store
#      (service_store_hits_total == evaluations, zero misses), and that
#      the result document is byte-identical across the crash.
#   2. Admission + drain: boot with -max-active-jobs 1, pin the slot
#      with a long job, and assert a second submission bounces with
#      429 + Retry-After while /readyz still says ready; then SIGTERM
#      and assert /readyz flips to 503 during the drain and that an
#      expired -drain-timeout makes served exit nonzero.
#   3. CLI crash round trip: kill -9 a cmd/sweep -store-dir run about a
#      second in, rerun it on the same store, and assert its stdout is
#      byte-identical to an uninterrupted run's; a third run must then
#      be served entirely from the store (every configuration a
#      config_skipped event, none a config_done). These hold wherever
#      the kill lands.
#
# Requires: go, curl, jq. Run via `make chaos-smoke`.
set -euo pipefail

cd "$(dirname "$0")/.."

fail() {
	echo "chaos-smoke: FAIL: $*" >&2
	exit 1
}

TMP="$(mktemp -d)"
STORE="$TMP/store"
go build -o "$TMP/served" ./cmd/served

SERVED_PID=""
SWEEP_PID=""
cleanup() {
	[ -n "$SERVED_PID" ] && kill -9 "$SERVED_PID" 2>/dev/null || true
	[ -n "$SWEEP_PID" ] && kill -9 "$SWEEP_PID" 2>/dev/null || true
	wait 2>/dev/null || true
	rm -rf "$TMP"
}
trap cleanup EXIT

# start LOGFILE ARGS... boots served and waits for its address in BASE.
start() {
	local log="$1"
	shift
	"$TMP/served" -listen 127.0.0.1:0 "$@" 2>"$log" &
	SERVED_PID=$!
	local addr=""
	for _ in $(seq 1 100); do
		addr="$(sed -n 's#^served: listening on http://\([^ ]*\).*#\1#p' "$log")"
		[ -n "$addr" ] && break
		sleep 0.1
	done
	[ -n "$addr" ] || { cat "$log" >&2; fail "server never announced its address"; }
	BASE="http://$addr"
}

# wait_done JOB_ID: polls until the job leaves "running", echoing the
# terminal state.
wait_done() {
	local state=running
	for _ in $(seq 1 300); do
		state="$(curl -fsS "$BASE/v1/jobs/$1" | jq -r .state)"
		[ "$state" = running ] || break
		sleep 0.2
	done
	echo "$state"
}

JOB_BODY='{
  "workloads": ["gcc1"],
  "options": {"refs": 50000, "l1_kb": [1, 2, 4], "l2_kb": [0, 16, 32]}
}'
EVALS=9

# ---- Phase 1: kill -9 durability round trip ----

start "$TMP/run1.log" -workers 2 -store-dir "$STORE"
echo "chaos-smoke: run 1 up at $BASE (store $STORE)"

JOB="$(curl -fsS -X POST "$BASE/v1/jobs" -d "$JOB_BODY" | jq -r .id)"
[ -n "$JOB" ] && [ "$JOB" != null ] || fail "job submission returned no id"
STATE="$(wait_done "$JOB")"
[ "$STATE" = done ] || fail "run 1 job state $STATE, want done"
curl -fsS "$BASE/v1/jobs/$JOB/result" >"$TMP/doc1.json"
[ "$(jq -r .format "$TMP/doc1.json")" = "twolevel-sweep/1" ] || fail "run 1 result format"

kill -9 "$SERVED_PID"
wait "$SERVED_PID" 2>/dev/null || true
SERVED_PID=""
echo "chaos-smoke: killed -9 after $EVALS evaluations"

start "$TMP/run2.log" -workers 2 -store-dir "$STORE"
echo "chaos-smoke: run 2 up at $BASE"
grep -q "replayed $EVALS points" "$TMP/run2.log" \
	|| { cat "$TMP/run2.log" >&2; fail "restart did not replay $EVALS points"; }

JOB2="$(curl -fsS -X POST "$BASE/v1/jobs" -d "$JOB_BODY" | jq -r .id)"
STATE="$(wait_done "$JOB2")"
[ "$STATE" = done ] || fail "resubmitted job state $STATE, want done"

# Everything must come from the replayed store: all hits, no misses.
METRICS="$(curl -fsS "$BASE/metrics")"
HITS="$(jq '.counters.service_store_hits_total // 0' <<<"$METRICS")"
MISSES="$(jq '.counters.service_store_misses_total // 0' <<<"$METRICS")"
[ "$HITS" -eq "$EVALS" ] || fail "store hits after restart = $HITS, want $EVALS"
[ "$MISSES" -eq 0 ] || fail "store misses after restart = $MISSES, want 0 (nothing durably stored may re-evaluate)"

curl -fsS "$BASE/v1/jobs/$JOB2/result" >"$TMP/doc2.json"
cmp -s "$TMP/doc1.json" "$TMP/doc2.json" \
	|| { diff "$TMP/doc1.json" "$TMP/doc2.json" >&2 || true; fail "result documents differ across kill -9 + restart"; }
echo "chaos-smoke: byte-identical result doc across crash ($HITS/$EVALS store hits)"

kill -INT "$SERVED_PID"
wait "$SERVED_PID" || fail "run 2 clean shutdown exited nonzero"
SERVED_PID=""

# ---- Phase 2: load shedding, readiness flip, drain-deadline expiry ----

start "$TMP/run3.log" -workers 1 -max-active-jobs 1 -drain-timeout 2s
echo "chaos-smoke: run 3 up at $BASE (admission limits on)"

SLOW_BODY='{
  "workloads": ["gcc1"],
  "options": {"refs": 50000000, "l1_kb": [1, 2, 4, 8], "l2_kb": [0]}
}'
SLOW="$(curl -fsS -X POST "$BASE/v1/jobs" -d "$SLOW_BODY" | jq -r .id)"
[ -n "$SLOW" ] && [ "$SLOW" != null ] || fail "slow job submission failed"

CODE="$(curl -s -D "$TMP/shed.hdr" -o "$TMP/shed.json" -w '%{http_code}' -X POST "$BASE/v1/jobs" -d "$JOB_BODY")"
[ "$CODE" = 429 ] || fail "submission while saturated returned $CODE, want 429"
grep -qi '^retry-after:' "$TMP/shed.hdr" || fail "429 without Retry-After header"
echo "chaos-smoke: saturated service sheds with 429 + Retry-After"

[ "$(curl -s -o /dev/null -w '%{http_code}' "$BASE/readyz")" = 200 ] || fail "/readyz not ready while serving"

kill -TERM "$SERVED_PID"
READY=200
for _ in $(seq 1 100); do
	READY="$(curl -s -o /dev/null -w '%{http_code}' "$BASE/readyz" || echo 000)"
	[ "$READY" = 503 ] && break
	sleep 0.1
done
[ "$READY" = 503 ] || fail "/readyz = $READY during drain, want 503"
echo "chaos-smoke: /readyz flipped to 503 during drain"

# The slow job cannot finish inside -drain-timeout 2s: served must exit
# nonzero to tell the supervisor the drain was cut short.
if wait "$SERVED_PID"; then
	fail "drain-deadline expiry exited zero, want nonzero"
fi
SERVED_PID=""
grep -q "drain cut short" "$TMP/run3.log" || { cat "$TMP/run3.log" >&2; fail "no drain-cut-short notice in log"; }
echo "chaos-smoke: expired drain deadline exits nonzero"

# ---- Phase 3: cmd/sweep kill -9 and resume from the store ----

go build -o "$TMP/sweep" ./cmd/sweep
SWEEP_ARGS=(-workload all -refs 2000000)
SWEEP_CONFIGS=315 # 7 workloads x the 45-configuration paper grid
CLI_STORE="$TMP/cli-store"
"$TMP/sweep" "${SWEEP_ARGS[@]}" >"$TMP/sweep-base.txt" 2>"$TMP/sweep-base.log" \
	|| { cat "$TMP/sweep-base.log" >&2; fail "baseline sweep exited nonzero"; }

"$TMP/sweep" "${SWEEP_ARGS[@]}" -store-dir "$CLI_STORE" >/dev/null 2>"$TMP/sweep-killed.log" &
SWEEP_PID=$!
sleep 1
kill -9 "$SWEEP_PID" 2>/dev/null || true
wait "$SWEEP_PID" 2>/dev/null || true
SWEEP_PID=""
echo "chaos-smoke: killed -9 a cmd/sweep -store-dir run after ~1s"

"$TMP/sweep" "${SWEEP_ARGS[@]}" -store-dir "$CLI_STORE" >"$TMP/sweep-resumed.txt" 2>"$TMP/sweep-resumed.log" \
	|| { cat "$TMP/sweep-resumed.log" >&2; fail "resumed sweep exited nonzero"; }
cmp -s "$TMP/sweep-base.txt" "$TMP/sweep-resumed.txt" \
	|| { diff "$TMP/sweep-base.txt" "$TMP/sweep-resumed.txt" >&2 || true; fail "resumed sweep output differs from the uninterrupted run"; }
echo "chaos-smoke: resumed sweep output byte-identical ($(grep -o 'holds [0-9]* points' "$TMP/sweep-resumed.log"))"

"$TMP/sweep" "${SWEEP_ARGS[@]}" -store-dir "$CLI_STORE" -events "$TMP/sweep-events.jsonl" >/dev/null 2>"$TMP/sweep-warm.log" \
	|| { cat "$TMP/sweep-warm.log" >&2; fail "warm sweep exited nonzero"; }
SKIPPED="$(jq -s '[.[] | select(.type == "config_skipped")] | length' "$TMP/sweep-events.jsonl")"
EVALUATED="$(jq -s '[.[] | select(.type == "config_done")] | length' "$TMP/sweep-events.jsonl")"
[ "$SKIPPED" -eq "$SWEEP_CONFIGS" ] || fail "warm sweep skipped $SKIPPED configurations, want $SWEEP_CONFIGS"
[ "$EVALUATED" -eq 0 ] || fail "warm sweep evaluated $EVALUATED configurations, want 0"
echo "chaos-smoke: warm sweep served all $SWEEP_CONFIGS configurations from the store"

echo "chaos-smoke: PASS"
