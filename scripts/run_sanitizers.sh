#!/usr/bin/env bash
# Builds and runs the test suite under the dynamic-analysis lanes, each in
# its own build tree (build-asan/, build-ubsan/, build-tsan/,
# build-thread-safety/) so the lanes never contaminate the regular build/
# directory. All lanes use -fno-sanitize-recover semantics — any finding
# fails the lane — and every requested lane runs even when an earlier one
# fails: the script prints a per-lane PASS/FAIL/SKIP table at the end and
# exits nonzero if ANY lane failed, not just the last.
#
# Lanes:
#   asan           AddressSanitizer (with LeakSanitizer) over the whole
#                  suite.
#   ubsan          UndefinedBehaviorSanitizer over the whole suite.
#   tsan           ThreadSanitizer over the concurrent subsystems only (the
#                  planning service, its protocol core and TCP line server,
#                  its thread pool, the islands model, and the pooled SoA
#                  evaluator's threaded lane splicing) —
#                  TSan's ~10x slowdown makes the full suite impractical,
#                  and the single-threaded tests have nothing for it to
#                  find. Not part of "all"; run it explicitly.
#   prop           Extended-iteration fuzz sweep: reuses the asan tree and
#                  re-runs only the property suites (ctest -L prop) with
#                  GAPLAN_PROP_ITERS raised (default 20x; override in the
#                  environment). Failing seeds print as GAPLAN_PROP_SEED=...
#                  lines, replayable against any build.
#   thread_safety  Clang thread-safety analysis (static, compile-time):
#                  configures with -DGAPLAN_THREAD_SAFETY=ON so the whole
#                  tree compiles under -Werror=thread-safety-analysis
#                  against the util/sync.hpp capability annotations. Needs
#                  clang++; SKIPs gracefully when it is not installed.
#   all            ubsan + asan + thread_safety.
#
#   scripts/run_sanitizers.sh [asan|ubsan|tsan|prop|thread_safety|all]
#                             (default: all)
#
# Extra ctest args can follow the lane name, e.g.:
#   scripts/run_sanitizers.sh ubsan -R Replanner
set -uo pipefail

cd "$(dirname "$0")/.."

lane="${1:-all}"
shift || true

lane_names=()
lane_results=()

record() {
  lane_names+=("$1")
  lane_results+=("$2")
}

run_lane() {
  local name="$1" sanitize="$2"
  shift 2
  local dir="build-${name}"
  echo "=== ${name}: configure (${dir}) ==="
  if ! cmake -B "${dir}" -S . -DGAPLAN_SANITIZE="${sanitize}" \
             -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null; then
    record "${name}" FAIL
    return 1
  fi
  echo "=== ${name}: build ==="
  if ! cmake --build "${dir}" -j"$(nproc)"; then
    record "${name}" FAIL
    return 1
  fi
  echo "=== ${name}: test ==="
  # halt_on_error makes ASan findings fail the run the way
  # -fno-sanitize-recover=all already does for UBSan. Leak detection is on;
  # scripts/lsan.supp exempts only the lock-order detector's deliberate
  # per-thread state.
  if ! ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" \
       LSAN_OPTIONS="suppressions=${PWD}/scripts/lsan.supp:print_suppressions=0" \
       ctest --test-dir "${dir}" --output-on-failure -j"$(nproc)" "$@"; then
    record "${name}" FAIL
    return 1
  fi
  record "${name}" PASS
}

# Compile-only lane: the verification is the build succeeding under
# -Werror=thread-safety-analysis, so there is nothing to ctest.
run_thread_safety_lane() {
  local name="thread_safety" dir="build-thread-safety"
  local cxx=""
  for candidate in clang++ clang++-21 clang++-20 clang++-19 clang++-18 \
                   clang++-17 clang++-16 clang++-15; do
    if command -v "${candidate}" >/dev/null 2>&1; then
      cxx="${candidate}"
      break
    fi
  done
  if [ -z "${cxx}" ]; then
    echo "=== ${name}: clang++ not found on PATH; skipping (install LLVM to enable) ==="
    record "${name}" SKIP
    return 0
  fi
  echo "=== ${name}: configure (${dir}, ${cxx}) ==="
  if ! cmake -B "${dir}" -S . -DCMAKE_CXX_COMPILER="${cxx}" \
             -DGAPLAN_THREAD_SAFETY=ON \
             -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null; then
    record "${name}" FAIL
    return 1
  fi
  echo "=== ${name}: build (-Wthread-safety -Werror=thread-safety-analysis) ==="
  if ! cmake --build "${dir}" -j"$(nproc)"; then
    record "${name}" FAIL
    return 1
  fi
  record "${name}" PASS
}

case "${lane}" in
  asan)  run_lane asan address "$@" ;;
  ubsan) run_lane ubsan undefined "$@" ;;
  tsan)  run_lane tsan thread \
           -R 'PlanService|PlanCache|ThreadPool|Serve|Island|Soa|Prop|Dist|Protocol|LineServer|serve_smoke|trace_analyze_smoke|dist_smoke|cli_flags_smoke' \
           "$@" ;;
  prop)  GAPLAN_PROP_ITERS="${GAPLAN_PROP_ITERS:-20}" \
           run_lane asan address -L prop "$@" ;;
  thread_safety) run_thread_safety_lane ;;
  all)   run_lane ubsan undefined "$@"
         run_lane asan address "$@"
         run_thread_safety_lane
         ;;
  *) echo "usage: $0 [asan|ubsan|tsan|prop|thread_safety|all] [ctest args...]" >&2
     exit 2 ;;
esac

echo ""
echo "=== lane summary ==="
failed=0
for i in "${!lane_names[@]}"; do
  printf '  %-16s %s\n' "${lane_names[$i]}" "${lane_results[$i]}"
  if [ "${lane_results[$i]}" = FAIL ]; then
    failed=1
  fi
done
if [ "${failed}" -ne 0 ]; then
  echo "=== sanitizers: FAILED (see table above) ==="
  exit 1
fi
echo "=== sanitizers: all lanes passed ==="
