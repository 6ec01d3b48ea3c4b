#!/usr/bin/env bash
# Builds and runs the test suite under the dynamic-analysis lanes, each in
# its own build tree (build-asan/, build-ubsan/, build-tsan/,
# build-thread-safety/, build-libstdcxx/) so the lanes never contaminate the
# regular build/ directory. All lanes use -fno-sanitize-recover semantics — any finding
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
#                  worker gossip, the router (backend pool and island runs over
#                  in-process workers), its thread
#                  pool, the islands model, and the pooled SoA evaluator's
#                  threaded lane splicing) —
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
#   libstdcxx_assertions
#                  The whole suite built with -D_GLIBCXX_ASSERTIONS, so
#                  libstdc++ bounds-checks every operator[], front/back and
#                  span subscript and aborts on a violation.
#   all            ubsan + asan + thread_safety + libstdcxx_assertions.
#
#   scripts/run_sanitizers.sh [asan|ubsan|tsan|prop|thread_safety|
#                              libstdcxx_assertions|all]  (default: all)
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

# run_lane NAME DIR CMAKE_FLAG [ctest args...]
run_lane() {
  local name="$1" dir="$2" flag="$3"
  shift 3
  echo "=== ${name}: configure (${dir}) ==="
  if ! cmake -B "${dir}" -S . "${flag}" \
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

asan=(asan build-asan -DGAPLAN_SANITIZE=address)
ubsan=(ubsan build-ubsan -DGAPLAN_SANITIZE=undefined)
libstdcxx=(libstdcxx_assertions build-libstdcxx
           -DCMAKE_CXX_FLAGS=-D_GLIBCXX_ASSERTIONS)

case "${lane}" in
  asan)  run_lane "${asan[@]}" "$@" ;;
  ubsan) run_lane "${ubsan[@]}" "$@" ;;
  tsan)  run_lane tsan build-tsan -DGAPLAN_SANITIZE=thread \
           -R 'PlanService|PlanCache|ThreadPool|Serve|Island|Soa|Prop|Dist|Protocol|LineServer|Gossip|Router|serve_smoke|trace_analyze_smoke|dist_smoke|cli_flags_smoke' \
           "$@" ;;
  prop)  GAPLAN_PROP_ITERS="${GAPLAN_PROP_ITERS:-20}" \
           run_lane "${asan[@]}" -L prop "$@" ;;
  thread_safety) run_thread_safety_lane ;;
  libstdcxx_assertions) run_lane "${libstdcxx[@]}" "$@" ;;
  all)   run_lane "${ubsan[@]}" "$@"
         run_lane "${asan[@]}" "$@"
         run_thread_safety_lane
         run_lane "${libstdcxx[@]}" "$@"
         ;;
  *) echo "usage: $0 [asan|ubsan|tsan|prop|thread_safety|libstdcxx_assertions|all] [ctest args...]" >&2
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
