#!/usr/bin/env bash
# serve_smoke.sh boots cmd/served on an ephemeral port, drives the HTTP
# API end to end with curl, and asserts the invariants the service
# promises: the job reaches "done", the result document is the standard
# twolevel-sweep/1 format, the envelope is a true Pareto staircase, and
# a resubmitted identical job is served from the result store (visible
# in the service_store_hits_total counter on /metrics), and the job's
# span tree is served as Chrome trace_event JSON (saved to ARTIFACT_DIR
# when set, so CI can upload it).
#
# Requires: go, curl, jq. Run via `make serve-smoke`.
set -euo pipefail

cd "$(dirname "$0")/.."

fail() {
	echo "serve-smoke: FAIL: $*" >&2
	exit 1
}

TMP="$(mktemp -d)"
LOG="$TMP/served.log"
go build -o "$TMP/served" ./cmd/served

"$TMP/served" -listen 127.0.0.1:0 -workers 2 2>"$LOG" &
PID=$!
cleanup() {
	kill -INT "$PID" 2>/dev/null || true
	wait "$PID" 2>/dev/null || true
	rm -rf "$TMP"
}
trap cleanup EXIT

# The server prints its bound address once the listener is up.
ADDR=""
for _ in $(seq 1 100); do
	ADDR="$(sed -n 's#^served: listening on http://\([^ ]*\).*#\1#p' "$LOG")"
	[ -n "$ADDR" ] && break
	sleep 0.1
done
[ -n "$ADDR" ] || { cat "$LOG" >&2; fail "server never announced its address"; }
BASE="http://$ADDR"
echo "serve-smoke: server up at $BASE"

curl -fsS "$BASE/healthz" >/dev/null || fail "healthz"

JOB_BODY='{
  "workloads": ["gcc1"],
  "options": {"refs": 50000, "l1_kb": [1, 2, 4], "l2_kb": [0, 16, 32]}
}'

JOB="$(curl -fsS -X POST "$BASE/v1/jobs" -d "$JOB_BODY" | jq -r .id)"
[ -n "$JOB" ] && [ "$JOB" != null ] || fail "job submission returned no id"
echo "serve-smoke: submitted $JOB"

STATE=running
for _ in $(seq 1 300); do
	STATE="$(curl -fsS "$BASE/v1/jobs/$JOB" | jq -r .state)"
	[ "$STATE" = running ] || break
	sleep 0.2
done
[ "$STATE" = done ] || fail "job state $STATE, want done"

# The result endpoint serves the same document `twolevel sweep -save`
# writes, so existing tooling consumes it unchanged.
FORMAT="$(curl -fsS "$BASE/v1/jobs/$JOB/result" | jq -r .format)"
[ "$FORMAT" = "twolevel-sweep/1" ] || fail "result format $FORMAT"

# Under a generous budget the envelope must be feasible and a true
# Pareto staircase: area strictly ascending, TPI strictly descending.
# (unique sorts ascending and drops duplicates, so a strictly monotone
# sequence is a fixed point of unique / unique+reverse.)
ENV="$(curl -fsS "$BASE/v1/envelope?area=1e9&workload=gcc1")"
jq -e '
	.feasible
	and (.best != null)
	and (.envelope | length >= 1)
	and (([.envelope[].area_rbe]) as $a | $a == ($a | unique))
	and (([.envelope[].tpi_ns]) as $t | $t == ($t | unique | reverse))
' <<<"$ENV" >/dev/null || { echo "$ENV" >&2; fail "envelope is not a feasible Pareto staircase"; }
echo "serve-smoke: staircase ok ($(jq '.envelope | length' <<<"$ENV") points, best $(jq -r .best.label <<<"$ENV"))"

# The trace endpoint serves the finished job's span tree as Chrome
# trace_event JSON: a displayTimeUnit, at least one complete ("X") event
# named "job", one "evaluate" X event per evaluation, and the job's one
# trace stage: a "generate" and an "l1-record" event, with one "l1-pass"
# per L1 size, and one "replay" event per L1 size, the follower that
# replays that size's pass into its L2s. The document is kept (ARTIFACT_DIR) so CI can upload it
# for loading into Perfetto.
ARTIFACT_DIR="${ARTIFACT_DIR:-$TMP}"
mkdir -p "$ARTIFACT_DIR"
TRACE_FILE="$ARTIFACT_DIR/serve_smoke_trace.json"
curl -fsS "$BASE/v1/jobs/$JOB/trace" >"$TRACE_FILE" || fail "trace endpoint"
jq -e '
	(.displayTimeUnit == "ms")
	and ([.traceEvents[] | select(.ph == "X" and .name == "job")] | length == 1)
	and ([.traceEvents[] | select(.ph == "X" and .name == "evaluate")] | length == 9)
	and ([.traceEvents[] | select(.ph == "X" and .name == "generate")] | length == 1)
	and ([.traceEvents[] | select(.ph == "X" and .name == "l1-record")] | length == 1)
	and ([.traceEvents[] | select(.ph == "X" and .name == "l1-pass")] | length == 3)
	and ([.traceEvents[] | select(.ph == "X" and .name == "replay")] | length == 3)
	and ([.traceEvents[] | select(.ph == "X")] | all(.ts != null and .dur != null and .pid != null and .tid != null))
' <"$TRACE_FILE" >/dev/null || { cat "$TRACE_FILE" >&2; fail "trace document is not a valid job span tree"; }
echo "serve-smoke: span trace ok ($(jq '[.traceEvents[] | select(.ph == "X")] | length' <"$TRACE_FILE") spans, saved to $TRACE_FILE)"

# A resubmitted identical job must be answered from the result store.
JOB2="$(curl -fsS -X POST "$BASE/v1/jobs" -d "$JOB_BODY" | jq -r .id)"
for _ in $(seq 1 300); do
	STATE="$(curl -fsS "$BASE/v1/jobs/$JOB2" | jq -r .state)"
	[ "$STATE" = running ] || break
	sleep 0.2
done
[ "$STATE" = done ] || fail "resubmitted job state $STATE, want done"

HITS="$(curl -fsS "$BASE/metrics" | jq '.counters.service_store_hits_total // 0')"
[ "$HITS" -ge 1 ] || fail "service_store_hits_total = $HITS after identical resubmission, want >= 1"
echo "serve-smoke: resubmission hit the result store ($HITS hits)"

echo "serve-smoke: PASS"
