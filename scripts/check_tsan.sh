#!/usr/bin/env bash
# Builds the common, runtime, recovery, overload and obs test suites under
# ThreadSanitizer and runs them, catching data races in the channel/executor
# machinery and in the always-on metrics counters (scraped mid-run by the
# sampler) that a plain build would only lose intermittently.
# Usage: scripts/check_tsan.sh [build-dir]   (default: build-tsan)
set -euo pipefail

BUILD_DIR="${1:-build-tsan}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"

cmake -S "$ROOT" -B "$ROOT/$BUILD_DIR" \
  -DSPEAR_SANITIZE=thread \
  -DSPEAR_BUILD_BENCHMARKS=OFF \
  -DSPEAR_BUILD_EXAMPLES=OFF
cmake --build "$ROOT/$BUILD_DIR" -j"$(nproc)" \
  --target spear_common_tests spear_runtime_tests spear_recovery_tests \
  spear_overload_tests spear_obs_tests

# halt_on_error makes the suite fail on the first race instead of
# reporting and continuing with an exit code gtest would swallow.
export TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}"
# Every suite runs even after one fails, so one failure cannot hide the
# verdict on the suites after it; the script fails at the end, naming them.
failed=()
run_suite() {  # run_suite <suite> [gtest flags...]
  local suite="$1"
  shift
  "$ROOT/$BUILD_DIR/tests/$suite" "$@" || failed+=("$suite")
}
run_suite spear_common_tests
run_suite spear_runtime_tests
run_suite spear_recovery_tests
run_suite spear_overload_tests
run_suite spear_obs_tests
if [ ${#failed[@]} -gt 0 ]; then
  echo "TSan: failed suites: ${failed[*]}" >&2
  exit 1
fi
echo "TSan: common + runtime + recovery + overload + obs suites clean"
