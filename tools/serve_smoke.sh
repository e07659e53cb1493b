#!/usr/bin/env bash
# CI serve-smoke: boots the lfp_serve daemon against the deterministic sim
# world, exercises every query family through the lfp_query CLI, and checks
# the serving layer's central promise — answers byte-identical to the batch
# pipeline over the same census:
#
#   1. `lfp_query export` must diff clean against the batch pipeline CSV
#      the daemon wrote from an identically-seeded world (--batch-csv).
#   2. VENDOR point lookups must agree with the CSV's snmp/lfp/pass columns
#      row by row (spot-checked over labeled and unlabeled rows).
#   3. PATH per-hop verdicts must equal the CSV's combined verdict (snmp
#      when present, else lfp) for those hops; ASMIX must cover the AS a
#      VENDOR answer reports.
#   4. TRIGGER/DIFF: a second census publishes v2 and DIFF 1 2 answers;
#      while that TRIGGER's census runs, VENDOR still answers (from v1).
#   5. bench_serve (smoke mode) must hold its QPS/p99 gates while a
#      concurrent census absorbs.
#
# Usage: tools/serve_smoke.sh [build-dir]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD=${1:-build}
SOCK=$(mktemp -u "${TMPDIR:-/tmp}/lfp_serve_smoke.XXXXXX.sock")
BATCH=$(mktemp "${TMPDIR:-/tmp}/lfp_smoke_batch.XXXXXX.csv")
SERVED=$(mktemp "${TMPDIR:-/tmp}/lfp_smoke_served.XXXXXX.csv")
SERVE_LOG=$(mktemp "${TMPDIR:-/tmp}/lfp_smoke_serve.XXXXXX.log")
TRIGGER_OUT=$(mktemp "${TMPDIR:-/tmp}/lfp_smoke_trigger.XXXXXX.txt")

SERVE_PID=
cleanup() {
    [[ -n "$SERVE_PID" ]] && kill "$SERVE_PID" 2>/dev/null || true
    rm -f "$SOCK" "$BATCH" "$SERVED" "$SERVE_LOG" "$TRIGGER_OUT"
}
trap cleanup EXIT

"$BUILD/tools/lfp_serve" --socket "$SOCK" --batch-csv "$BATCH" > "$SERVE_LOG" 2>&1 &
SERVE_PID=$!

Q() { "$BUILD/tools/lfp_query" --socket "$SOCK" "$@"; }
# Whether process $1 is still running (a zombie has finished).
running() {
    local state
    state=$(ps -o stat= -p "$1" 2>/dev/null) || return 1
    [[ "$state" != Z* ]]
}

# Startup covers two full censuses (batch reference + serving); poll.
for _ in $(seq 1 120); do
    if ! kill -0 "$SERVE_PID" 2>/dev/null; then
        echo "serve-smoke FAILED: lfp_serve exited during startup"; cat "$SERVE_LOG"; exit 1
    fi
    Q ping >/dev/null 2>&1 && break
    sleep 1
done
Q ping >/dev/null || { echo "serve-smoke FAILED: daemon never came up"; cat "$SERVE_LOG"; exit 1; }
Q stats | grep -q ' version=1 ' || { echo "serve-smoke FAILED: no v1 snapshot"; exit 1; }
echo "serve-smoke: daemon up ($(Q stats))"

# --- 1. EXPORT is byte-identical to the batch pipeline CSV ----------------
Q export > "$SERVED"
if ! diff -q "$BATCH" "$SERVED" >/dev/null; then
    echo "serve-smoke FAILED: served CSV differs from batch pipeline CSV"
    diff "$BATCH" "$SERVED" | head -10
    exit 1
fi
echo "serve-smoke: EXPORT byte-identical to batch CSV ($(wc -l < "$BATCH") lines)"

# --- 2. VENDOR answers agree with the CSV row by row ----------------------
# Sample rows of each flavor: SNMP-labeled, LFP-identified, unidentified.
vendor_rows=$( { awk -F, 'NR>1 && $3!="" && ++n<=4' "$BATCH";
                 awk -F, 'NR>1 && $3=="" && $4!="" && ++n<=4' "$BATCH";
                 awk -F, 'NR>1 && $3=="" && $4=="" && ++n<=4' "$BATCH"; } )
checked=0
while IFS=, read -r ip _protos snmp lfp _kind pass _sig; do
    [[ -n "$ip" ]] || continue
    answer=$(Q vendor "$ip")
    for expect in "known=1" " snmp=${snmp:--} " " lfp=${lfp:--} " " pass=${pass}"; do
        if [[ "$answer " != *"$expect"* ]]; then
            echo "serve-smoke FAILED: VENDOR $ip: missing '$expect' in: $answer"
            exit 1
        fi
    done
    checked=$((checked + 1))
done <<< "$vendor_rows"
[[ "$checked" -ge 3 ]] || { echo "serve-smoke FAILED: too few VENDOR rows checked"; exit 1; }
echo "serve-smoke: VENDOR answers match $checked CSV rows"

# --- 3. ASMIX + PATH ------------------------------------------------------
first_ip=$(awk -F, 'NR==2 {print $1}' "$BATCH")
asn=$(Q vendor "$first_ip" | grep -o 'asn=[0-9]*' | head -1 | cut -d= -f2)
[[ -n "$asn" ]] || { echo "serve-smoke FAILED: VENDOR carries no asn="; exit 1; }
Q asmix "$asn" | grep -q ' routers=' || { echo "serve-smoke FAILED: ASMIX $asn"; exit 1; }
echo "serve-smoke: ASMIX asn=$asn answers"

# Path over three CSV rows; per-hop verdict must equal the CSV's combined
# verdict (snmp_vendor when present, else lfp_vendor, else '-').
path_ips=$(awk -F, 'NR>1 && NR<=4 {print $1}' "$BATCH")
# shellcheck disable=SC2086
path_answer=$(Q path $path_ips)
[[ "$path_answer" == *"hops=3 known=3"* ]] || {
    echo "serve-smoke FAILED: PATH: $path_answer"; exit 1; }
while IFS=, read -r ip _protos snmp lfp _rest; do
    expect="${snmp:-${lfp:--}}"
    if [[ "$path_answer " != *" $ip=$expect "* ]]; then
        echo "serve-smoke FAILED: PATH hop $ip: want '$ip=$expect' in: $path_answer"
        exit 1
    fi
done < <(awk -F, 'NR>1 && NR<=4' "$BATCH")
echo "serve-smoke: PATH per-hop verdicts match the CSV"

# --- 4. TRIGGER a second census, DIFF the two versions --------------------
# The TRIGGER runs in the background; once its client sleeps waiting for
# the answer, a VENDOR must be answered (from v1) while that client is
# still waiting, i.e. while the census runs.
"$BUILD/tools/lfp_query" --socket "$SOCK" trigger > "$TRIGGER_OUT" &
TRIGGER_PID=$!
for _ in $(seq 1 2000); do
    state=$(ps -o stat= -p "$TRIGGER_PID" 2>/dev/null) || break
    [[ "$state" == S* || "$state" == Z* ]] && break
done
vendor_answer=$(Q vendor "$first_ip")
if ! running "$TRIGGER_PID"; then
    echo "serve-smoke FAILED: VENDOR was answered only after the TRIGGER census ended"
    exit 1
fi
[[ "$vendor_answer" == "OK version=1 ip=$first_ip "* ]] || {
    echo "serve-smoke FAILED: VENDOR during the census: $vendor_answer"; exit 1; }
wait "$TRIGGER_PID" || { echo "serve-smoke FAILED: TRIGGER: $(cat "$TRIGGER_OUT")"; exit 1; }
grep -qx 'OK version=2' "$TRIGGER_OUT" || {
    echo "serve-smoke FAILED: TRIGGER: $(cat "$TRIGGER_OUT")"; exit 1; }
echo "serve-smoke: VENDOR answered from v1 while the TRIGGER census ran"
diff_answer=$(Q diff 1 2)
[[ "$diff_answer" == OK\ from=1\ to=2* ]] || {
    echo "serve-smoke FAILED: DIFF 1 2: $diff_answer"; exit 1; }
echo "serve-smoke: $diff_answer"

# --- 5. bench_serve gates under a concurrent census -----------------------
LFP_BENCH_SMOKE=1 "$BUILD/bench/bench_serve"

Q shutdown >/dev/null
wait "$SERVE_PID"
SERVE_PID=
echo "serve-smoke OK"
