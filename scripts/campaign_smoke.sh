#!/usr/bin/env bash
# Kill-and-resume smoke for uvm_campaign: the determinism contract, enforced
# at the process level.
#
# For UVMSIM_THREADS in {1, 4}:
#   1. run a reference campaign (process isolation) to completion,
#   2. re-run the same queue into fresh stores, SIGKILL-ing the campaign at
#      several points mid-flight, then resume each to completion,
#   3. diff every interrupted-then-resumed store against the reference —
#      everything except the (order-dependent) journal and tmp/ scratch must
#      be byte-identical,
#   4. check the poisoned request was quarantined after exactly RETRIES
#      attempts in total, however many sessions those attempts spanned,
#   5. check the invalid request was quarantined as a config error after
#      exactly one attempt (the child CLI exits 2 for a bad knob value).
#
#   scripts/campaign_smoke.sh [build-dir]
set -euo pipefail

BUILD=${1:-build}
cd "$(dirname "$0")/.."
CAMPAIGN="$BUILD/tools/uvm_campaign"
CLI="$BUILD/tools/uvmsim_cli"
for bin in "$CAMPAIGN" "$CLI"; do
  [ -x "$bin" ] || { echo "campaign_smoke: missing $bin (build first)" >&2; exit 1; }
done

TMP=$(mktemp -d /tmp/uvmsim-campaign.XXXXXX)
trap 'rm -rf "$TMP"' EXIT

QUEUE="$TMP/queue.txt"
cat > "$QUEUE" <<'EOF'
workload=regular size-mib=4 gpu-mib=8 batch-size=64
workload=regular size-mib=4 gpu-mib=8 batch-size=64 seed=7
workload=regular size-mib=6 gpu-mib=8 batch-size=64
workload=sgemm size-mib=6 gpu-mib=8 batch-size=64
workload=stream size-mib=6 gpu-mib=8 batch-size=64
workload=regular size-mib=4 gpu-mib=8 batch-size=64   # duplicate of line 1
workload=regular size-mib=4 gpu-mib=8 batch-size=64 sabotage=crash
workload=regular size-mib=4 gpu-mib=8 prefetch=sideways
EOF
RETRIES=3
# Retry backoff keeps the poison request in flight long enough that the
# mid-flight SIGKILLs below land inside a live campaign.
BACKOFF_MS=200
KILL_POINTS=(0.15 0.45 0.90)

run_campaign() { # <store> <threads>; completed-with-quarantine (4) is success
  local store=$1 threads=$2 code=0
  UVMSIM_THREADS=$threads "$CAMPAIGN" --queue "$QUEUE" --store "$store" \
    --isolate process --cli "$CLI" --retries "$RETRIES" \
    --backoff-ms "$BACKOFF_MS" --timeout-ms 30000 > /dev/null || code=$?
  [ "$code" -eq 0 ] || [ "$code" -eq 4 ] \
    || { echo "campaign_smoke: unexpected exit $code for $store"; exit 1; }
}

check_store() { # <store> <reference> <label>
  local store=$1 ref=$2 label=$3
  diff -r --exclude=journal.log --exclude=tmp "$ref" "$store" > /dev/null \
    || { echo "campaign_smoke: store MISMATCH ($label)";
         diff -r --exclude=journal.log --exclude=tmp "$ref" "$store" | head -20;
         exit 1; }
  # The poison line must show exactly RETRIES attempts, even when those
  # attempts were spread across killed-and-resumed sessions.
  local attempts
  attempts=$(awk -F'\t' '$2 == "crash" { print $3 }' "$store/failures.tsv")
  [ "$attempts" = "$RETRIES" ] \
    || { echo "campaign_smoke: quarantine after '$attempts' attempts, want $RETRIES ($label)";
         cat "$store/failures.tsv"; exit 1; }
  # A config error is never retried.
  attempts=$(awk -F'\t' '$2 == "config" { print $3 }' "$store/failures.tsv")
  [ "$attempts" = "1" ] \
    || { echo "campaign_smoke: config quarantine after '$attempts' attempts, want 1 ($label)";
         cat "$store/failures.tsv"; exit 1; }
}

for threads in 1 4; do
  REF="$TMP/ref_t$threads"
  run_campaign "$REF" "$threads"
  check_store "$REF" "$REF" "reference t$threads"

  point=0
  for delay in "${KILL_POINTS[@]}"; do
    point=$((point + 1))
    STORE="$TMP/kill_t${threads}_p$point"
    # Launch, SIGKILL mid-flight, then resume to completion. A campaign
    # that finished before the kill landed still exercises the fully-cached
    # resume path, so every iteration is a valid check.
    UVMSIM_THREADS=$threads "$CAMPAIGN" --queue "$QUEUE" --store "$STORE" \
      --isolate process --cli "$CLI" --retries "$RETRIES" \
      --backoff-ms "$BACKOFF_MS" --timeout-ms 30000 > /dev/null 2>&1 &
    pid=$!
    sleep "$delay"
    if kill -KILL "$pid" 2>/dev/null; then
      killed="killed at ${delay}s"
    else
      killed="finished before ${delay}s"
    fi
    wait "$pid" 2>/dev/null || true
    run_campaign "$STORE" "$threads"
    check_store "$STORE" "$REF" "t$threads point$point ($killed)"
    echo "campaign_smoke: t$threads point$point ($killed): store matches reference"
  done
done

# The two reference stores must agree with each other as well: worker count
# is not allowed to leak into any committed artifact.
diff -r --exclude=journal.log --exclude=tmp "$TMP/ref_t1" "$TMP/ref_t4" > /dev/null \
  || { echo "campaign_smoke: t1 vs t4 reference stores differ"; exit 1; }
echo "campaign_smoke: t1 and t4 stores byte-identical"

echo "campaign_smoke: all green"
