#!/usr/bin/env bash
# Builds the common, overload-control, runtime, recovery and obs suites
# under UndefinedBehaviorSanitizer and runs them. The shedding/watchdog
# paths lean on lock-free arithmetic (CAS loops over doubles, clock deltas,
# occupancy ratios) — exactly where signed overflow or bad float-to-int
# conversions would hide in a plain build; the recovery catch-up and the
# tracer hand-off run through the executor's stage worker.
# Usage: scripts/check_ubsan.sh [build-dir]   (default: build-ubsan)
set -euo pipefail

BUILD_DIR="${1:-build-ubsan}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"

cmake -S "$ROOT" -B "$ROOT/$BUILD_DIR" \
  -DSPEAR_SANITIZE=undefined \
  -DSPEAR_BUILD_BENCHMARKS=OFF \
  -DSPEAR_BUILD_EXAMPLES=OFF
cmake --build "$ROOT/$BUILD_DIR" -j"$(nproc)" \
  --target spear_common_tests spear_overload_tests spear_runtime_tests \
  spear_recovery_tests spear_obs_tests

# -fno-sanitize-recover=all already aborts on the first report; print
# stacks so a failure is diagnosable from CI logs alone.
export UBSAN_OPTIONS="print_stacktrace=1 ${UBSAN_OPTIONS:-}"
# Every suite runs even after one fails, so one failure cannot hide the
# verdict on the suites after it; the script fails at the end, naming them.
failed=()
run_suite() {  # run_suite <suite> [gtest flags...]
  local suite="$1"
  shift
  "$ROOT/$BUILD_DIR/tests/$suite" "$@" || failed+=("$suite")
}
run_suite spear_common_tests
run_suite spear_overload_tests
run_suite spear_runtime_tests
run_suite spear_recovery_tests
run_suite spear_obs_tests
if [ ${#failed[@]} -gt 0 ]; then
  echo "UBSan: failed suites: ${failed[*]}" >&2
  exit 1
fi
echo "UBSan: common + overload + runtime + recovery + obs suites clean"
