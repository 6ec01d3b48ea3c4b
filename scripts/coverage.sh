#!/usr/bin/env bash
# Coverage lane: builds the whole tree with gcc's --coverage at -O0 in its
# own build tree (build-coverage/ unless a directory is given), runs the
# tier-1 ctest suite there, and aggregates the counters with
# `gcov --json-format` (scripts/coverage_report.py). It prints line and
# function coverage per module of src/ and examples/ and lists every function
# definition that never ran; the run fails when one of them is missing from
# scripts/coverage_allow.txt or when a test fails.
#
#   scripts/coverage.sh [BUILD_DIR]
#
# A process writes its counters only when it exits normally, so everything
# the smokes start must be shut down through its own shutdown path; only the
# worker that scripts/check_dist.py SIGKILLs on purpose contributes nothing.
# The numbers are also written to BUILD_DIR/coverage.json.
set -uo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build=${1:-$root/build-coverage}
jobs=$(nproc)
[ "$jobs" -gt 4 ] && jobs=4

cmake -S "$root" -B "$build" -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="--coverage -O0" -DCMAKE_EXE_LINKER_FLAGS=--coverage \
  >/dev/null || exit 1
# Counters of an earlier run would not match rebuilt objects, and the build
# itself runs the test binaries (gtest discovery): clear them on both sides.
find "$build" -name '*.gcda' -delete
cmake --build "$build" -j "$jobs" >/dev/null || exit 1
find "$build" -name '*.gcda' -delete

status=0
(cd "$build" && ctest -j "$jobs" --output-on-failure) >"$build/coverage_ctest.log" 2>&1 \
  || { echo "coverage: tests failed (see $build/coverage_ctest.log)"; status=1; }
tail -n 3 "$build/coverage_ctest.log"
python3 "$root/scripts/coverage_report.py" --build "$build" --root "$root" \
  --allow "$root/scripts/coverage_allow.txt" --json "$build/coverage.json" \
  || status=1
exit $status
