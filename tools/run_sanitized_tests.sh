#!/usr/bin/env bash
#===- run_sanitized_tests.sh - Sanitized builds of the test suite --------===#
#
# Part of jeddpp. Configures, builds, and runs the tier-1 suite under the
# two sanitizer configurations the project supports:
#
#   * ThreadSanitizer, running the stress test (label "stress"), the
#     tracer's own tests (tests/obs_test.cpp) and the BDD differential
#     harness. The BDD manager is single-threaded, so
#     the races TSan can still find are in the state threads share: the
#     process-wide obs::Tracer (span totals and trace buffer behind its
#     one lock, subscriber list, level toggle, metrics snapshots), raced
#     by client threads that each own a manager (tests/obs_stress_test.cpp);
#   * AddressSanitizer + UndefinedBehaviorSanitizer, running everything.
#     This tree is a Debug build: the tier-1 and TSan trees define NDEBUG,
#     so it is the one place the kernel's asserts (child-level order in
#     makeNode, refcount underflow, ...) run, over the full suite and the
#     fault-injection loop.
#
# Both configurations additionally loop the persistence fuzz battery
# (tests/io_fuzz_test.cpp): hostile-image loads must fail as typed
# errors without ever reading out of bounds.
#
# Both also run the resource-governance suite (label "robustness") and
# loop its fault-injection differential (tests/resource_test.cpp) for
# 200+ injected-abort iterations: every abort/recovery cycle must be
# clean under ASan and race-free under TSan (docs/robustness.md).
#
# Usage: tools/run_sanitized_tests.sh [thread|address|all]   (default: all)
#
# Build trees go to build-tsan/ and build-asan/ next to build/ so they
# never disturb the regular configuration.
#
#===----------------------------------------------------------------------===#

set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
MODE="${1:-all}"
JOBS="$(nproc 2>/dev/null || echo 2)"

run_thread() {
  echo "=== ThreadSanitizer: stress, tracer + differential tests ==="
  cmake -S "$ROOT" -B "$ROOT/build-tsan" -DJEDDPP_SANITIZE=thread \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "$ROOT/build-tsan" -j "$JOBS" \
        --target obs_stress_test obs_test bdd_differential_test \
                 io_fuzz_test resource_test robustness_test
  (cd "$ROOT/build-tsan" && ctest --output-on-failure -L stress)
  TSAN_OPTIONS="halt_on_error=1" "$ROOT/build-tsan/tests/obs_test"
  TSAN_OPTIONS="halt_on_error=1" \
      "$ROOT/build-tsan/tests/bdd_differential_test"
  echo "=== ThreadSanitizer: persistence fuzz loop ==="
  TSAN_OPTIONS="halt_on_error=1" \
      "$ROOT/build-tsan/tests/io_fuzz_test" --gtest_repeat=3
  echo "=== ThreadSanitizer: resource governance + fault injection ==="
  (cd "$ROOT/build-tsan" && ctest --output-on-failure -L robustness)
  # 3 repeats x 80 mirrored operations = 240 injected-abort iterations.
  TSAN_OPTIONS="halt_on_error=1" "$ROOT/build-tsan/tests/resource_test" \
      --gtest_filter='*FaultInjection*' --gtest_repeat=3
}

run_address() {
  echo "=== AddressSanitizer + UBSan (Debug, asserts on): full suite ==="
  cmake -S "$ROOT" -B "$ROOT/build-asan" -DJEDDPP_SANITIZE=address \
        -DCMAKE_BUILD_TYPE=Debug
  cmake --build "$ROOT/build-asan" -j "$JOBS"
  (cd "$ROOT/build-asan" &&
       ASAN_OPTIONS="detect_leaks=0" ctest --output-on-failure -j "$JOBS")
  echo "=== AddressSanitizer: persistence fuzz loop ==="
  ASAN_OPTIONS="detect_leaks=0" \
      "$ROOT/build-asan/tests/io_fuzz_test" --gtest_repeat=5
  echo "=== AddressSanitizer: resource governance + fault injection ==="
  (cd "$ROOT/build-asan" &&
       ASAN_OPTIONS="detect_leaks=0" ctest --output-on-failure -L robustness)
  # 3 repeats x 80 mirrored operations = 240 injected-abort iterations;
  # every unwound allocation path must be leak- and corruption-free.
  ASAN_OPTIONS="detect_leaks=0" "$ROOT/build-asan/tests/resource_test" \
      --gtest_filter='*FaultInjection*' --gtest_repeat=3
}

case "$MODE" in
thread) run_thread ;;
address) run_address ;;
all)
  run_thread
  run_address
  ;;
*)
  echo "usage: $0 [thread|address|all]" >&2
  exit 2
  ;;
esac

echo "All sanitized runs passed."
