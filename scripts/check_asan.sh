#!/usr/bin/env bash
# Builds the fault-injection / supervision suites under AddressSanitizer
# and runs them. Chaos runs exercise exception unwinding, mid-stream
# cancellation and tuple quarantine — exactly the paths where lifetime
# bugs (use-after-free of queued tuples, double-free on unwind) hide. The
# windowed bolts (the shared WindowedBolt workflow and every engine on it)
# run too.
# Usage: scripts/check_asan.sh [build-dir]   (default: build-asan)
set -euo pipefail

BUILD_DIR="${1:-build-asan}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"

cmake -S "$ROOT" -B "$ROOT/$BUILD_DIR" \
  -DSPEAR_SANITIZE=address \
  -DSPEAR_BUILD_BENCHMARKS=OFF \
  -DSPEAR_BUILD_EXAMPLES=OFF
cmake --build "$ROOT/$BUILD_DIR" -j"$(nproc)" \
  --target spear_common_tests spear_substrate_tests spear_runtime_tests \
  spear_recovery_tests spear_overload_tests

export ASAN_OPTIONS="halt_on_error=1 detect_leaks=1 ${ASAN_OPTIONS:-}"
# Every suite runs even after one fails, so one failure cannot hide the
# verdict on the suites after it; the script fails at the end, naming them.
failed=()
run_suite() {  # run_suite <suite> [gtest flags...]
  local suite="$1"
  shift
  "$ROOT/$BUILD_DIR/tests/$suite" "$@" || failed+=("$suite")
}
run_suite spear_common_tests --gtest_filter='Fault*:Retry*:Backoff*'
run_suite spear_substrate_tests --gtest_filter='SecondaryStorage*'
run_suite spear_runtime_tests \
  --gtest_filter='Supervision*:Chaos*:Executor*:*WindowedBolt*:GkQuantileBolt*:CountMinBolt*'
run_suite spear_recovery_tests
run_suite spear_overload_tests
if [ ${#failed[@]} -gt 0 ]; then
  echo "ASan: failed suites: ${failed[*]}" >&2
  exit 1
fi
echo "ASan: fault-injection + supervision + windowed-bolt + recovery + overload suites clean"
