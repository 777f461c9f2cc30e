#!/usr/bin/env bash
# CI gate: lint, build and test the plain configuration, run every bench
# once, then rebuild with AddressSanitizer + UBSan (Debug, so asserts stay
# on) and with ThreadSanitizer. Any warning (builds are -Werror), lint
# finding, test failure, bench crash or sanitizer report fails the script.
#
#   scripts/ci.sh [jobs]
set -euo pipefail

JOBS=${1:-$(nproc)}
cd "$(dirname "$0")/.."

echo "== lint (per-file token rules) =="
cmake -B build -S .
cmake --build build --target uvmsim_lint -j"$JOBS"
./build/tools/uvmsim_lint --list-rules > /dev/null
# Lint before anything else builds. Any finding fails the run; a justified
# allow(...) comment is the only exception.
./build/tools/uvmsim_lint --root . src bench tools
# Self-check: the linter must still reject a known-bad fixture.
if ./build/tools/uvmsim_lint tests/lint_fixtures/banned_random_bad.cpp \
    > /dev/null 2>&1; then
  echo "lint self-check FAILED: bad fixture not flagged"; exit 1
fi
echo "lint self-check: bad fixture rejected"

echo "== config checks live in SimConfig::validate() =="
# Every SimConfig field constraint is checked in one function
# (core/simulator.cpp); component constructors only assert. The other
# ConfigError sites validate run-time input: campaign queues, traces and
# the workload registry, and managed-range creation.
STRAY=$(grep -rn 'throw ConfigError' src \
  | grep -v -e '^src/core/simulator\.cpp:' -e '^src/campaign/' \
            -e '^src/workloads/' -e '^src/mem/address_space\.cpp:' || true)
if [ -n "$STRAY" ]; then
  echo "$STRAY"
  echo "config-check gate FAILED: ConfigError thrown outside validate()"
  exit 1
fi
echo "config-check gate: ConfigError only at its four homes"

echo "== residency writers stamp the GPU engine =="
# A retried parked lane skips its page checks while its 64 KB big page has
# no stamp since the warp's last walk, so every write that sets
# gpu_resident or remote_mapped bits must be followed by
# GpuEngine::on_pages_mapped. The stamping homes: Driver::map_local and
# map_remote (driver.cpp), the three writes of resolve_fault
# (gpu_driven.cpp) and Simulator::prefill_all_resident (simulator.cpp).
# resolve_fault writes a word at a time (set_word_bits), each write
# followed by the per-word notice on_pages_mapped(blk, w, bits).
SETS_RESIDENCY='[.>](gpu_resident|remote_mapped)[[:space:]]*(\|=|=[^=]|\.set\(|\.set_range\(|\.set_word_bits\()'
WRITERS=$(grep -rnE "$SETS_RESIDENCY" src \
  | cut -d: -f1 | sort | uniq -c | awk '{print $2 "=" $1}' | tr '\n' ' ')
if [ "$WRITERS" != "src/core/simulator.cpp=1 src/uvm/driver.cpp=2 src/uvm/gpu_driven.cpp=3 " ]; then
  grep -rnE "$SETS_RESIDENCY" src
  echo "residency-stamp gate FAILED: residency bits set outside the stamping homes"
  exit 1
fi
echo "residency-stamp gate: residency bits set only at its six homes"

echo "== every src header compiles on its own =="
# A header that leans on its includer's includes breaks the next file that
# includes it first. Each one is compiled alone (included from stdin, so
# GCC does not warn about #pragma once in the main file); xargs exits
# nonzero if any fails, after naming every failing header.
find src -name '*.h' | sort | xargs -P"$JOBS" -n1 sh -c \
  'printf "#include \"%s\"\n" "$1" |
     g++ -std=c++20 -I. -Isrc -fsyntax-only -x c++ - \
     || { echo "header FAILED: $1"; exit 1; }' sh
echo "headers: $(find src -name '*.h' | wc -l) compile on their own"

echo "== plain build =="
cmake --build build -j"$JOBS"

echo "== hardware popcount (x86-64: no libgcc __popcountdi2 in libuvmsim) =="
# src/CMakeLists.txt builds the library with -mpopcnt when the build host
# runs POPCNT. Without it every PageMask count is a call into libgcc's
# software popcount; an undefined __popcountdi2 means the flag was lost.
case "$(uname -m)" in
  x86_64|amd64|AMD64)
    if nm -A build/src/libuvmsim.a | grep ' U __popcountdi2$'; then
      echo "popcount guard FAILED: libuvmsim.a calls __popcountdi2"; exit 1
    fi
    echo "popcount guard: libuvmsim.a uses the popcnt instruction"
    ;;
  *) echo "popcount guard: not x86-64; skipped" ;;
esac
ctest --test-dir build -j"$JOBS" --output-on-failure

echo "== memory guard (1 GiB sgemm in 256 MiB; 4 PiB VA is a config error) =="
# sgemm's grid is generated one resident block at a time from strided
# records, so its memory must not grow with the grid. A 1 GiB sgemm stored
# as page lists needs ~1.08 GB and fails here with std::bad_alloc.
(ulimit -v 262144
 ./build/tools/uvmsim_cli --workload sgemm --size-mib 1024 --gpu-mib 2048 \
   --csv > /dev/null) || { echo "memory guard FAILED"; exit 1; }
echo "memory guard: sgemm 1 GiB fits in 256 MiB"
# Managed VA is bounded below 2^32 pages (16 TiB) before any VABlock is
# built, so a 4 PiB request is a config error (exit 2), not std::bad_alloc.
rc=0
(ulimit -v 2097152
 ./build/tools/uvmsim_cli --workload regular --size-mib 4294967296 \
   --gpu-mib 32 > /dev/null 2>&1) || rc=$?
[ "$rc" -eq 2 ] \
  || { echo "memory guard FAILED: 4 PiB exited $rc, not 2"; exit 1; }
echo "memory guard: 4 PiB of managed VA is a config error"

echo "== clang-tidy (best effort) =="
if command -v clang-tidy >/dev/null 2>&1; then
  # Advisory: report generic bug patterns without failing CI; the enforced
  # determinism, concurrency and hygiene rules live in uvmsim_lint above.
  clang-tidy -p build --quiet \
    src/sim/event_queue.cpp src/uvm/prefetcher.cpp src/uvm/fault_batch.cpp \
    src/uvm/service.cpp src/sim/trace.cpp 2>/dev/null || true
  echo "clang-tidy ran (advisory)"
else
  echo "clang-tidy unavailable; skipped"
fi

echo "== traced bench run (Chrome trace JSON must parse) =="
TRACE_OUT=$(mktemp /tmp/uvmsim-trace.XXXXXX.json)
UVMSIM_FAST=1 ./build/bench/fig03_fault_cost_breakdown --trace-out "$TRACE_OUT"
test -s "$TRACE_OUT"
grep -q '"traceEvents":\[' "$TRACE_OUT"
if command -v python3 >/dev/null 2>&1; then
  python3 -m json.tool "$TRACE_OUT" > /dev/null
  echo "trace JSON parses"
else
  echo "python3 unavailable; skipped JSON parse check"
fi
# The GPU-driven pass body traces its own spans; export them end to end.
./build/tools/uvmsim_cli --backend gpu --workload random --size-mib 24 \
  --gpu-mib 16 --trace-out "$TRACE_OUT" > /dev/null
test -s "$TRACE_OUT"
grep -q '"gpu.resolve"' "$TRACE_OUT" \
  || { echo "GPU-driven trace has no gpu.resolve spans"; exit 1; }
if command -v python3 >/dev/null 2>&1; then
  python3 -m json.tool "$TRACE_OUT" > /dev/null
  echo "GPU-driven trace JSON parses and has gpu.resolve"
fi
rm -f "$TRACE_OUT"

echo "== sweep determinism (UVMSIM_THREADS=1 vs 4 stdout must match) =="
SWEEP_BENCHES=(fig09_oversub_breakdown fig10_sgemm_oversub_rate
               abl1_threshold_sweep abl2_batch_size table2_sgemm_fault_scaling
               fig_policy_crossover fig01_uvm_vs_explicit
               table1_fault_reduction)
SWEEP_TMP=$(mktemp -d /tmp/uvmsim-sweep.XXXXXX)
for b in "${SWEEP_BENCHES[@]}"; do
  UVMSIM_FAST=1 UVMSIM_THREADS=1 "./build/bench/$b" > "$SWEEP_TMP/$b.t1.txt"
  UVMSIM_FAST=1 UVMSIM_THREADS=4 "./build/bench/$b" > "$SWEEP_TMP/$b.t4.txt"
  diff -u "$SWEEP_TMP/$b.t1.txt" "$SWEEP_TMP/$b.t4.txt" > /dev/null \
    || { echo "sweep determinism FAILED for $b"; exit 1; }
  echo "$b: byte-identical"
done
rm -rf "$SWEEP_TMP"

echo "== every bench once (fast mode; each must exit 0) =="
# Each binary's stdout is kept so the shape gates below grep it instead of
# re-running the bench.
BENCH_TMP=$(mktemp -d /tmp/uvmsim-bench.XXXXXX)
for b in build/bench/*; do
  [ -x "$b" ] && [ -f "$b" ] || continue
  n=$(basename "$b")
  UVMSIM_FAST=1 "$b" > "$BENCH_TMP/$n.txt" \
    || { echo "bench FAILED: $n"; cat "$BENCH_TMP/$n.txt"; exit 1; }
  echo "$n: exit 0"
done
# Fast-mode stdout is simulated output only (micro_driver_ops, which prints
# host timings, is not listed), so each listed bench must print exactly the
# bytes whose digest scripts/bench_stdout.sha256 pins. A change that means
# to alter a bench's output regenerates its line:
#   (cd "$BENCH_TMP" && sha256sum <bench>.txt)
echo "== bench stdout contract (scripts/bench_stdout.sha256) =="
PINNED="$PWD/scripts/bench_stdout.sha256"
(cd "$BENCH_TMP" && sha256sum --quiet -c "$PINNED") \
  || { echo "bench stdout FAILED: differs from its pinned digest"; exit 1; }
echo "bench stdout: $(wc -l < "$PINNED") benches byte-identical"

echo "== paper-shape gate (fig01 claim 4 / fig09 prefetch verdict) =="
# shape_check prints [SHAPE PASS]/[SHAPE FAIL] without affecting the exit
# code, so the gate greps stdout. These two assertions are the PR-5 fixes:
# prefetching must aggravate deep-oversubscribed random performance.
FIG01="$BENCH_TMP/fig01_uvm_vs_explicit.txt"
FIG09="$BENCH_TMP/fig09_oversub_breakdown.txt"
grep -q '^\[SHAPE PASS\] (random) prefetching aggravates deep oversubscription' \
  "$FIG01" \
  || { echo "shape gate FAILED: fig01 claim 4"; cat "$FIG01"; exit 1; }
grep -q '^\[SHAPE PASS\] disabling prefetching improves oversubscribed performance' \
  "$FIG09" \
  || { echo "shape gate FAILED: fig09 prefetch verdict"; cat "$FIG09"; exit 1; }
if grep -h '^\[SHAPE FAIL\]' "$FIG01" "$FIG09"; then
  echo "shape gate FAILED: unexpected [SHAPE FAIL] above"; exit 1
fi
echo "shape gate: fig01 + fig09 all green"

echo "== backend-crossover shape gate (driver vs GPU-driven servicing) =="
# The two pass bodies DriverConfig::backend selects must show both sides of
# the trade: batching wins dense sequential access, per-fault GPU-side
# resolution wins sparse oversubscribed access.
XOVER="$BENCH_TMP/fig_backend_crossover.txt"
grep -q '^\[SHAPE PASS\] dense sequential access favors the batching driver' \
  "$XOVER" \
  || { echo "shape gate FAILED: crossover dense claim"; cat "$XOVER"; exit 1; }
grep -q '^\[SHAPE PASS\] sparse oversubscribed access favors GPU-driven paging' \
  "$XOVER" \
  || { echo "shape gate FAILED: crossover sparse claim"; cat "$XOVER"; exit 1; }
if grep '^\[SHAPE FAIL\]' "$XOVER"; then
  echo "shape gate FAILED: unexpected [SHAPE FAIL] above"; exit 1
fi
echo "backend-crossover gate: green"

echo "== policy-crossover shape gate (learned vs tree vs off, PR 10) =="
# The learned-prefetcher payoff: at deep oversubscription on the strided
# pattern, prefetch-off must beat the tree (the PR-5 regime) AND the markov
# predictor must beat both.
POLICY="$BENCH_TMP/fig_policy_crossover.txt"
grep -q '^\[SHAPE PASS\] strided oversubscription reproduces PR 5' \
  "$POLICY" \
  || { echo "shape gate FAILED: off-beats-tree claim"; cat "$POLICY"; exit 1; }
grep -q '^\[SHAPE PASS\] the learned predictor beats BOTH' "$POLICY" \
  || { echo "shape gate FAILED: learned-beats-both claim"; cat "$POLICY"; exit 1; }
grep -q '^\[SHAPE PASS\] eviction choice shifts victim order' "$POLICY" \
  || { echo "shape gate FAILED: eviction-panel claim"; cat "$POLICY"; exit 1; }
if grep '^\[SHAPE FAIL\]' "$POLICY"; then
  echo "shape gate FAILED: unexpected [SHAPE FAIL] above"; exit 1
fi
echo "policy-crossover gate: green"
rm -rf "$BENCH_TMP"

echo "== perfbench (benchmark self-tests + every pinned golden digest) =="
# run.py builds the harness into .bench_build/ and exits nonzero when a
# simulation's digest differs from perfbench/goldens.json, so these runs
# pin the simulated output of all three benchmark workloads on every seed
# the file pins (42 and 0-31 each), not only the benchmark's seed 42.
python3 perfbench/test_perfbench.py
for w in random-oversub random-oversub-gpudriven sgemm-resident; do
  seeds=$(python3 -c 'import json, sys
print(" ".join(json.load(open("perfbench/goldens.json"))[sys.argv[1]]))' "$w")
  for seed in $seeds; do
    python3 perfbench/run.py --workload "$w" --seed "$seed" --seconds 0 \
      > /dev/null \
      || { echo "perfbench golden FAILED for $w seed $seed"; exit 1; }
    echo "$w seed $seed: golden digest matches"
  done
done

echo "== campaign kill-and-resume smoke (SIGKILL x resume determinism) =="
scripts/campaign_smoke.sh build

echo "== sanitized build (ASan + UBSan, Debug: asserts on) =="
cmake -B build-asan -S . -DUVMSIM_SANITIZE=address -DCMAKE_BUILD_TYPE=Debug
cmake --build build-asan -j"$JOBS"
ctest --test-dir build-asan -j"$JOBS" --output-on-failure

echo "== sanitized build (TSan: thread pool + sweep harness) =="
# One simulation's servicing is serial; the only concurrent code is the
# pool that runs whole simulations side by side for sweeps and campaigns.
cmake -B build-tsan -S . -DUVMSIM_SANITIZE=thread
cmake --build build-tsan -j"$JOBS" \
  --target thread_pool_test sweep_runner_test fig09_oversub_breakdown
./build-tsan/tests/thread_pool_test
./build-tsan/tests/sweep_runner_test
UVMSIM_FAST=1 UVMSIM_THREADS=4 ./build-tsan/bench/fig09_oversub_breakdown \
  > /dev/null
echo "tsan suite: clean"

echo "== ci: all green =="
