#!/usr/bin/env bash
# The static checker (tools/yanc-analyze): source policy and
# whole-program lock-order verification.
#
# Usage: scripts/analyze.sh [--coverage] [--json] [build-dir]
#
#   default     — fixture self-test, then the static pass over src, tests
#                 and bench: banned functions, include cycles, missing
#                 #pragma once, waits under trace spans; in src/yanc also
#                 raw mutexes, manual lock calls, rank cycles, same-rank
#                 nesting, blocking calls under held locks, unresolvable
#                 guards, dead ranks, and docs/CORRECTNESS.md rank-table
#                 drift.
#   --coverage  — additionally run tier 1 with YANC_LOCK_EDGES_OUT set so
#                 every test process dumps its observed runtime edge
#                 graph at exit, merge the per-process dumps, and print
#                 the static-vs-runtime lock-coverage report (which
#                 statically reachable edges no test exercised, and which
#                 runtime edges static resolution missed).
#   --json      — machine-readable findings/edges/coverage on stdout.
set -euo pipefail

cd "$(dirname "$0")/.."
COVERAGE=0
JSON=()
BUILD_DIR=build
for arg in "$@"; do
  case "$arg" in
    --coverage) COVERAGE=1 ;;
    --json) JSON+=(--json) ;;
    *) BUILD_DIR="$arg" ;;
  esac
done

ANALYZE="$BUILD_DIR/tools/yanc-analyze/yanc_analyze"
if [[ ! -x "$ANALYZE" ]]; then
  cmake -B "$BUILD_DIR" -S . >/dev/null
  cmake --build "$BUILD_DIR" --target yanc_analyze -j "$(nproc)"
fi

echo "== yanc-analyze self-test =="
"$ANALYZE" --self-test tools/yanc-analyze/fixtures

if [[ "$COVERAGE" == 0 ]]; then
  echo "== yanc-analyze (static) =="
  "$ANALYZE" --root "$PWD" --doc docs/CORRECTNESS.md ${JSON[@]+"${JSON[@]}"} \
    src tests bench
  echo "yanc-analyze: clean"
  exit 0
fi

echo "== yanc-analyze (static + runtime coverage) =="
# The test tier must exist to observe runtime edges.
if [[ ! -f "$BUILD_DIR/CTestTestfile.cmake" ]]; then
  cmake -B "$BUILD_DIR" -S . >/dev/null
  cmake --build "$BUILD_DIR" -j "$(nproc)"
fi
EDGE_DIR="$(mktemp -d)"
trap 'rm -rf "$EDGE_DIR"' EXIT
# One dump file per test process ("edges.<pid>"); processes that abort
# (death tests) simply contribute nothing.
YANC_LOCK_EDGES_OUT="$EDGE_DIR/edges" \
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)" >/dev/null
cat "$EDGE_DIR"/edges.* >"$EDGE_DIR/merged" 2>/dev/null || true
"$ANALYZE" --root "$PWD" --doc docs/CORRECTNESS.md \
  --runtime-edges "$EDGE_DIR/merged" ${JSON[@]+"${JSON[@]}"} src tests bench
