#!/usr/bin/env bash
# Build, test, and regenerate every paper table/figure + ablation.
#
#   scripts/run_all.sh [build_dir] [results_dir]
set -euo pipefail

BUILD=${1:-build}
RESULTS=${2:-results}

cmake -B "$BUILD"
cmake --build "$BUILD"

echo "== tests =="
ctest --test-dir "$BUILD" -j"$(nproc)" --output-on-failure

echo "== benches =="
mkdir -p "$RESULTS"
fail=0
for b in "$BUILD"/bench/*; do
  [ -x "$b" ] && [ -f "$b" ] || continue
  n=$(basename "$b")
  echo "-- $n"
  if ! "$b" > "$RESULTS/$n.txt" 2>&1; then
    echo "   FAILED (exit $?)"
    fail=1
  fi
  grep -h "SHAPE" "$RESULTS/$n.txt" || true
done

if command -v python3 >/dev/null && python3 -c 'import matplotlib' 2>/dev/null; then
  python3 scripts/plot_results.py "$RESULTS" plots
fi

exit $fail
