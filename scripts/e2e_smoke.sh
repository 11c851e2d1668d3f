#!/usr/bin/env bash
# End-to-end smoke for the detection service: build zeroedd, start it,
# submit a small CSV job, poll it to completion, and check the result and
# metrics endpoints; resubmit the same rows as NDJSON and assert identical
# verdicts; then fit a model over the socket, score fresh rows
# against it, and assert the scored verdicts match a direct
# `cmd/zeroed -model-in` run on the persisted artifact; round-trip the
# served repair endpoint against `cmd/zeroed -model-in -repair
# -repair-log` (change logs must match byte for byte); finally stream
# chunked rows against a registered model, trip a drift-triggered refit
# with a novel-value burst, and assert the model hot-swapped to a new
# version (old artifact retained) with zero non-200 responses. Along the
# way it checks the observability surface: X-Request-ID echo on responses,
# error envelopes, and JSON log lines; ?trace=1 span trees and
# GET /v1/jobs/{id}/trace; per-route RED series on /metrics; /readyz; and
# the /debug/traces ring on the debug listener. Exercises the same paths
# CI pins with httptest, but against the real binaries over a real socket.
# Every file it writes lives under one mktemp -d work directory, which the
# EXIT trap removes after stopping the server.
set -euo pipefail

ADDR="127.0.0.1:18080"
DEBUG_ADDR="127.0.0.1:18081"
BASE="http://$ADDR"
DEBUG="http://$DEBUG_ADDR"
WORK="$(mktemp -d)"
BIN="$WORK/zeroedd"
CLI="$WORK/zeroed"
MODELDIR="$WORK/models"
LOG="$WORK/zeroedd.log"
PID=""
cleanup() {
  if [ -n "$PID" ]; then
    kill "$PID" 2>/dev/null || true
    wait "$PID" 2>/dev/null || true
  fi
  rm -rf "$WORK"
}
trap cleanup EXIT

go build -o "$BIN" ./cmd/zeroedd
go build -o "$CLI" ./cmd/zeroed
"$BIN" -addr "$ADDR" -workers 2 -model-dir "$MODELDIR" \
  -drift-threshold 0.3 -drift-min-rows 30 -stream-chunk 16 \
  -log-format json -debug-addr "$DEBUG_ADDR" -trace-slow 0s 2> "$LOG" &
PID=$!

# Wait for liveness.
for _ in $(seq 1 100); do
  if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then break; fi
  sleep 0.1
done
curl -fsS "$BASE/healthz" >/dev/null

# --- Request IDs: honored, echoed, and in every error envelope. ---

RID="smoke-rid-$$"
ECHOED="$(curl -fsS -D - -o /dev/null -H "X-Request-ID: $RID" "$BASE/healthz" \
  | tr -d '\r' | grep -i '^x-request-id:' | awk '{print $2}')"
[ "$ECHOED" = "$RID" ] || { echo "e2e: X-Request-ID not echoed (got '$ECHOED')"; exit 1; }
ENVELOPE="$(curl -s -H "X-Request-ID: $RID-err" "$BASE/v1/jobs/j-nope")"
echo "$ENVELOPE" | grep -q "\"request_id\":\"$RID-err\"" \
  || { echo "e2e: 404 envelope missing request_id"; exit 1; }
grep -q "\"request_id\":\"$RID\"" "$LOG" \
  || { echo "e2e: JSON log missing the request-id line"; exit 1; }
echo "e2e: request-id echoed in header, envelope, and JSON log"

# Readiness: the model dir is writable, so the server reports ready.
READY="$(curl -fsS "$BASE/readyz")"
echo "$READY" | grep -q '"status":"ready"' \
  || { echo "e2e: readyz not ready"; exit 1; }

# Submit a small dataset.
CSV="$WORK/smoke.csv"
printf 'city,state,zip\nchicago,IL,60601\nspringfield,IL,62701\nchicago,IL,60601\nmadison,WI,53703\nchicago,XX,60601\n' > "$CSV"
ID="$(curl -fsS -X POST --data-binary @"$CSV" "$BASE/v1/jobs?seed=1&name=smoke" \
  | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')"
[ -n "$ID" ] || { echo "e2e: no job id in submit response"; exit 1; }
echo "e2e: submitted $ID"

# Poll to completion.
STATE=""
for _ in $(seq 1 150); do
  STATE="$(curl -fsS "$BASE/v1/jobs/$ID" | sed -n 's/.*"state":"\([^"]*\)".*/\1/p')"
  case "$STATE" in
    done) break ;;
    failed|canceled) echo "e2e: job ended $STATE"; curl -fsS "$BASE/v1/jobs/$ID"; exit 1 ;;
  esac
  sleep 0.2
done
[ "$STATE" = done ] || { echo "e2e: timeout in state '$STATE'"; exit 1; }

# The result must carry verdicts for every submitted row.
RESULT="$(curl -fsS "$BASE/v1/jobs/$ID/result")"
echo "$RESULT" | grep -q '"pred":' || { echo "e2e: result missing pred"; exit 1; }

# Metrics must account for the finished job.
METRICS="$(curl -fsS "$BASE/metrics")"
echo "$METRICS" | grep -q 'zeroedd_jobs_finished_total{outcome="done"} 1' \
  || { echo "e2e: metrics missing finished job"; exit 1; }

# The finished job's trace: the submit request's span tree, adopted by the
# job, carrying the serve phases and the fit pipeline.
TRACE="$(curl -fsS "$BASE/v1/jobs/$ID/trace")"
for SPAN in queue_wait ingest detect fit.train score; do
  echo "$TRACE" | grep -q "\"name\":\"$SPAN\"" \
    || { echo "e2e: job trace missing span $SPAN"; exit 1; }
done
echo "e2e: job trace carries the serve phases and pipeline spans"

# --- Ingest formats: the same rows as NDJSON give identical verdicts. ---

# Convert the CSV to NDJSON array framing (header line first).
NDJ="$WORK/smoke.ndjson"
awk -F, '{
  printf "[";
  for (i = 1; i <= NF; i++) printf "%s\"%s\"", (i > 1 ? "," : ""), $i;
  print "]";
}' "$CSV" > "$NDJ"
NID="$(curl -fsS -X POST -H 'Content-Type: application/x-ndjson; charset=utf-8' \
  --data-binary @"$NDJ" "$BASE/v1/jobs?seed=1&name=smoke-ndjson" \
  | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')"
[ -n "$NID" ] || { echo "e2e: no job id in ndjson submit response"; exit 1; }
NSTATE=""
for _ in $(seq 1 150); do
  NSTATE="$(curl -fsS "$BASE/v1/jobs/$NID" | sed -n 's/.*"state":"\([^"]*\)".*/\1/p')"
  case "$NSTATE" in
    done) break ;;
    failed|canceled) echo "e2e: ndjson job ended $NSTATE"; exit 1 ;;
  esac
  sleep 0.2
done
[ "$NSTATE" = done ] || { echo "e2e: ndjson job timeout in state '$NSTATE'"; exit 1; }
PRED_CSV="$(curl -fsS "$BASE/v1/jobs/$ID/result?scores=0" | sed -n 's/.*"pred":\(\[\[.*\]\]\).*/\1/p')"
PRED_NDJ="$(curl -fsS "$BASE/v1/jobs/$NID/result?scores=0" | sed -n 's/.*"pred":\(\[\[.*\]\]\).*/\1/p')"
[ -n "$PRED_CSV" ] || { echo "e2e: could not extract csv job pred"; exit 1; }
if [ "$PRED_CSV" != "$PRED_NDJ" ]; then
  echo "e2e: NDJSON job verdicts differ from the CSV job"
  exit 1
fi
echo "e2e: NDJSON job verdicts match the CSV job"

# --- Models: fit once over the socket, score forever. ---

# Fit a model from the same CSV; the response carries the ready model's id.
MID="$(curl -fsS -X POST --data-binary @"$CSV" "$BASE/v1/models?seed=1&name=smoke" \
  | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')"
[ -n "$MID" ] || { echo "e2e: no model id in fit response"; exit 1; }
echo "e2e: fitted $MID"

# Score fresh rows (one seen, one with a novel value) synchronously.
FRESH="$CSV.fresh"
printf 'city,state,zip\nchicago,IL,60601\nnew-city-unseen,ZZ,00000\n' > "$FRESH"
SCORED="$(curl -fsS -X POST --data-binary @"$FRESH" "$BASE/v1/models/$MID/score?scores=0")"
echo "$SCORED" | grep -q '"pred":' || { echo "e2e: score response missing pred"; exit 1; }

# ?trace=1 embeds the request's span tree in the synchronous envelope.
TSCORED="$(curl -fsS -X POST --data-binary @"$FRESH" "$BASE/v1/models/$MID/score?scores=0&trace=1")"
echo "$TSCORED" | grep -q '"trace":{' || { echo "e2e: ?trace=1 score has no trace"; exit 1; }
for SPAN in ingest score score.shard; do
  echo "$TSCORED" | grep -q "\"name\":\"$SPAN\"" \
    || { echo "e2e: ?trace=1 score trace missing span $SPAN"; exit 1; }
done
echo "e2e: ?trace=1 embeds the score span tree"

# The scored verdicts must match a direct cmd/zeroed -model-in run on the
# artifact the server persisted. Normalize both to a 0/1 cell string.
SRV_MASK="$(echo "$SCORED" | sed -n 's/.*"pred":\(\[\[[^]]*\]\(,\[[^]]*\]\)*\]\).*/\1/p' \
  | tr -d '[] ' | tr ',' '\n' | sed -e 's/^true$/1/' -e 's/^false$/0/' | tr -d '\n')"
"$CLI" -dirty "$FRESH" -model-in "$MODELDIR/$MID.zedm" -out "$WORK/cli_mask.csv" >/dev/null
CLI_MASK="$(tail -n +2 "$WORK/cli_mask.csv" | tr -d ',\n')"
[ -n "$SRV_MASK" ] || { echo "e2e: could not extract server mask"; exit 1; }
if [ "$SRV_MASK" != "$CLI_MASK" ]; then
  echo "e2e: server verdicts ($SRV_MASK) != cmd/zeroed -model-in verdicts ($CLI_MASK)"
  exit 1
fi
echo "e2e: model verdicts match cmd/zeroed -model-in ($SRV_MASK)"

# Model metrics must account for the fit and the two score calls (checked
# before repair, which scores internally and bumps the same counter).
METRICS="$(curl -fsS "$BASE/metrics")"
echo "$METRICS" | grep -q 'zeroedd_models_current 1' || { echo "e2e: metrics missing model gauge"; exit 1; }
echo "$METRICS" | grep -q 'zeroedd_score_seconds_count 2' || { echo "e2e: metrics missing score latency"; exit 1; }

# --- Served repair: bit-identical to the CLI detect -> repair loop. ---

# A repair input with a typo'd novel value ("chicagoo") next to a frequent
# clean one: the model flags the novel cell and the repairer must propose
# the typo fix, so the change-log equality below is exercised on a
# nonzero log.
REPCSV="$WORK/repair.csv"
{
  printf 'city,state,zip\n'
  printf 'chicago,IL,60601\nchicago,IL,60601\nchicago,IL,60601\n'
  printf 'springfield,IL,62701\nmadison,WI,53703\nchicagoo,IL,60601\n'
} > "$REPCSV"
REPAIRED="$WORK/cli_repaired.csv"
RLOG="$WORK/cli_changes.ndjson"
"$CLI" -dirty "$REPCSV" -model-in "$MODELDIR/$MID.zedm" -repair "$REPAIRED" -repair-log "$RLOG" >/dev/null
[ -f "$REPAIRED" ] || { echo "e2e: CLI wrote no repaired CSV"; exit 1; }
[ -s "$RLOG" ] || { echo "e2e: CLI repair change log is empty"; exit 1; }
SRV_REPAIR="$(curl -fsS -X POST --data-binary @"$REPCSV" "$BASE/v1/models/$MID/repair?table=0")"
echo "$SRV_REPAIR" | grep -q '"repaired":' || { echo "e2e: repair response missing repaired count"; exit 1; }
# The server's changes array, one object per line, must equal the CLI's
# change log byte for byte (same artifact, same input bytes).
SRV_CHANGES="$(echo "$SRV_REPAIR" | sed -n 's/.*"changes":\[\(.*\)\].*/\1/p' | sed 's/},{/}\n{/g')"
if [ "$SRV_CHANGES" != "$(cat "$RLOG")" ]; then
  echo "e2e: served repair change log differs from cmd/zeroed -repair-log"
  echo "  server: $SRV_CHANGES"
  echo "  cli:    $(cat "$RLOG")"
  exit 1
fi
echo "e2e: repair change log matches cmd/zeroed -repair-log ($(grep -c . "$RLOG" || true) changes)"
METRICS="$(curl -fsS "$BASE/metrics")"
echo "$METRICS" | grep -q 'zeroedd_repair_seconds_count 1' \
  || { echo "e2e: metrics missing repair latency"; exit 1; }

# --- Streaming & drift: stream chunks, trip a refit, assert the hot swap. ---
# Every curl below uses -f, so any non-200 during streaming aborts the smoke.

# Fit a streaming model on a larger CSV (repeated clean patterns plus a few
# errors, so a refit on accumulated rows has both classes to train on).
STREAMFIT="$WORK/streamfit.csv"
{
  printf 'city,state,zip\n'
  for _ in $(seq 1 12); do
    printf 'chicago,IL,60601\nspringfield,IL,62701\nmadison,WI,53703\n'
  done
  printf 'chicago,XX,60601\nmadison,WI,99999\n'
} > "$STREAMFIT"
SMID="$(curl -fsS -X POST --data-binary @"$STREAMFIT" "$BASE/v1/models?seed=2&name=streamsmoke" \
  | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')"
[ -n "$SMID" ] || { echo "e2e: no model id in stream-fit response"; exit 1; }
echo "e2e: fitted streaming model $SMID"

# Replay the fit data as a stream: one verdict line per row, version 1, no
# drift (the observed distribution equals the fit-time one exactly).
OUT1="$(curl -fsS -X POST --data-binary @"$STREAMFIT" "$BASE/v1/models/$SMID/stream?scores=0")"
ROWS=$(($(wc -l < "$STREAMFIT") - 1))
GOT1="$(echo "$OUT1" | grep -c '"pred":')"
[ "$GOT1" -eq "$ROWS" ] || { echo "e2e: stream returned $GOT1 verdicts for $ROWS rows"; exit 1; }
echo "$OUT1" | grep -q '"done":true' || { echo "e2e: stream missing summary line"; exit 1; }
echo "$OUT1" | grep -q '"event":"refit"' && { echo "e2e: fit-identical stream tripped a refit"; exit 1; }

# A burst of all-novel rows pushes the unseen-value gauge over the
# threshold: the stream must report the triggered refit.
NOVEL="$WORK/novel.csv"
{
  printf 'city,state,zip\n'
  for i in $(seq 1 30); do printf 'newtown-%s,N%s,%s00\n' "$i" "$i" "$i"; done
} > "$NOVEL"
OUT2="$(curl -fsS -X POST --data-binary @"$NOVEL" "$BASE/v1/models/$SMID/stream?scores=0")"
GOT2="$(echo "$OUT2" | grep -c '"pred":')"
[ "$GOT2" -eq 30 ] || { echo "e2e: novel stream returned $GOT2 verdicts for 30 rows"; exit 1; }
echo "$OUT2" | grep -q '"event":"refit"' || { echo "e2e: novel burst never tripped a refit"; exit 1; }

# The background refit persists a new artifact version and hot-swaps it
# into the registry; the original artifact stays on disk for rollback.
VER=""
for _ in $(seq 1 300); do
  VER="$(curl -fsS "$BASE/v1/models/$SMID" | sed -n 's/.*"version":\([0-9]*\).*/\1/p')"
  [ -n "$VER" ] && [ "$VER" -ge 2 ] && break
  sleep 0.2
done
[ -n "$VER" ] && [ "$VER" -ge 2 ] || { echo "e2e: model never hot-swapped (version '$VER')"; exit 1; }
[ -f "$MODELDIR/$SMID.zedm" ] || { echo "e2e: v1 artifact not retained for rollback"; exit 1; }
[ -f "$MODELDIR/$SMID.v$VER.zedm" ] || { echo "e2e: v$VER artifact not persisted"; exit 1; }
echo "e2e: drift refit hot-swapped $SMID to version $VER"

# The swapped model keeps scoring over the same endpoint, and the drift
# gauges export per model.
OUT3="$(curl -fsS -X POST --data-binary @"$NOVEL" "$BASE/v1/models/$SMID/stream?scores=0")"
echo "$OUT3" | grep -q "\"version\":$VER" || { echo "e2e: post-swap stream not scored by v$VER"; exit 1; }
METRICS="$(curl -fsS "$BASE/metrics")"
echo "$METRICS" | grep -q "zeroedd_model_drift{model=\"$SMID\",gauge=\"unseen_rate\"}" \
  || { echo "e2e: metrics missing drift gauge"; exit 1; }
# The post-swap stream may legitimately trip a further refit, so assert
# the exported version is at least the one we observed, not exactly it.
MVER="$(echo "$METRICS" | sed -n "s/^zeroedd_model_version{model=\"$SMID\"} \([0-9]*\)$/\1/p")"
[ -n "$MVER" ] && [ "$MVER" -ge "$VER" ] || { echo "e2e: metrics model version '$MVER' < $VER"; exit 1; }
echo "$METRICS" | grep -q 'zeroedd_model_refits_total{outcome="swapped"}' \
  || { echo "e2e: metrics missing refit counter"; exit 1; }

# --- Observability: RED series, build info, and the debug trace ring. ---

echo "$METRICS" | grep -qF 'zeroedd_http_requests_total{route="POST /v1/jobs",code="202"}' \
  || { echo "e2e: metrics missing RED request counter for POST /v1/jobs"; exit 1; }
echo "$METRICS" | grep -qF 'zeroedd_http_request_seconds_bucket{route="POST /v1/models/{id}/score",le="+Inf"}' \
  || { echo "e2e: metrics missing RED latency histogram for score route"; exit 1; }
echo "$METRICS" | grep -qF 'zeroedd_queue_wait_seconds_count' \
  || { echo "e2e: metrics missing queue-wait histogram"; exit 1; }
echo "$METRICS" | grep -qF 'zeroedd_build_info{version=' \
  || { echo "e2e: metrics missing build info"; exit 1; }
echo "e2e: RED series, queue-wait histogram, and build info export"

# The debug listener serves the slow-request ring (-trace-slow 0s retains
# everything); the first retained trace loads as Chrome trace_event JSON.
RING="$(curl -fsS "$DEBUG/debug/traces")"
echo "$RING" | grep -q '"seq":' || { echo "e2e: debug trace ring is empty"; exit 1; }
SEQ="$(echo "$RING" | sed -n 's/.*"seq":\([0-9]*\).*/\1/p' | head -1)"
CHROME="$(curl -fsS "$DEBUG/debug/traces/$SEQ")"
echo "$CHROME" | grep -q '"traceEvents":' \
  || { echo "e2e: retained trace $SEQ is not Chrome trace_event JSON"; exit 1; }
FAILPOINTS="$(curl -fsS "$DEBUG/debug/failpoints")"
echo "$FAILPOINTS" | grep -q '"failpoints":' \
  || { echo "e2e: debug listener missing failpoint registry"; exit 1; }
echo "e2e: debug ring serves browsable Chrome traces"

echo "e2e: OK"
