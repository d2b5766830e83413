#!/usr/bin/env bash
# One-shot correctness gate: everything a change must pass before merge.
#
# Usage: scripts/check.sh [--fast]
#
#   default — configure + build (lockdep ON), full ctest tier (which
#             includes the yanc-analyze gate and its self-test), lint.sh
#             (clang-tidy, when installed), yanc-analyze with the runtime
#             lock-coverage sweep (scripts/analyze.sh --coverage), a
#             lockdep-OFF release build proving the wrappers compile
#             away, the perfbench smoke test (perfbench builds ../src
#             with its own Release, YANC_DBG_LOCKS=0 flags, a build tier 1
#             never exercises), then ASan/UBSan over the full suite and
#             TSan over the concurrency suites via scripts/sanitize.sh.
#   --fast  — static-only yanc-analyze, stop before the coverage sweep
#             and sanitizer rebuilds.
set -euo pipefail

cd "$(dirname "$0")/.."
FAST=0
[[ "${1:-}" == "--fast" ]] && FAST=1

echo "=== build (YANC_DBG_LOCKS=ON) ==="
cmake -B build -S . -DYANC_DBG_LOCKS=ON
cmake --build build -j "$(nproc)"

echo "=== ctest (tier 1 + static gate) ==="
ctest --test-dir build --output-on-failure -j "$(nproc)"

echo "=== clang-tidy ==="
scripts/lint.sh build

# Static checker: --fast stops at the static pass; the full run
# also sweeps tier 1 with edge dumping on and prints the static-vs-runtime
# lock-coverage report.
echo "=== yanc-analyze ==="
if [[ "$FAST" == 1 ]]; then
  scripts/analyze.sh build
else
  scripts/analyze.sh --coverage build
fi

# Perf gate: when two recorded baselines of the same variant exist
# (BENCH_<date>.json, or BENCH_<date>_<variant>.json), diff the two
# newest.  Cross-day baselines carry ambient machine drift well beyond
# the tolerance (EXPERIMENTS.md EXP-10 saw +31…+63% day-to-day swings on
# untouched code), so by default a regression here is REPORTED but does
# not fail the gate; set YANC_BENCH_STRICT=1 to make it fatal — correct
# when both files came from the same session (scripts/bench_diff.sh on
# an interleaved A/B pair is always strict when invoked directly).
echo "=== bench diff (recorded baselines) ==="
for variant in $(ls BENCH_*.json 2>/dev/null \
                   | sed -E 's/^BENCH_[0-9]+(_)?//; s/\.json$//; s/^$/@default/' \
                   | sort -u); do
  if [[ "$variant" != "@default" ]]; then
    files=(BENCH_*_"$variant".json)
  else
    variant=""
    files=($(ls BENCH_*.json 2>/dev/null | grep -E '^BENCH_[0-9]+\.json$' || true))
  fi
  if (( ${#files[@]} >= 2 )); then
    prev="${files[-2]}" latest="${files[-1]}"
    echo "--- ${variant:-default}: $prev -> $latest"
    if ! scripts/bench_diff.sh "$prev" "$latest"; then
      if [[ "${YANC_BENCH_STRICT:-0}" == 1 ]]; then
        echo "bench diff: regression beyond tolerance (YANC_BENCH_STRICT=1)"
        exit 1
      fi
      echo "bench diff: regression reported (advisory — cross-day baselines;"
      echo "            set YANC_BENCH_STRICT=1 to enforce)"
    fi
  else
    echo "--- ${variant:-default}: single baseline, nothing to diff"
  fi
done

echo "=== release build (YANC_DBG_LOCKS=OFF: wrappers must compile away) ==="
cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release -DYANC_DBG_LOCKS=OFF
cmake --build build-release -j "$(nproc)"
# dbg_test proves the lock wrappers still behave; smoke_cluster_failover
# proves a node-kill failover (elect -> re-home -> resync) end to end in
# the release configuration too.
ctest --test-dir build-release --output-on-failure -j "$(nproc)" \
  -R '(dbg_test|smoke_cluster_failover)'

if [[ "$FAST" == 1 ]]; then
  echo "check.sh --fast: OK (sanitizers skipped)"
  exit 0
fi

echo "=== perfbench smoke (every workload, both modes, 1 s each) ==="
python3 perfbench/smoke_test.py

echo "=== asan+ubsan ==="
scripts/sanitize.sh asan

echo "=== tsan (concurrency suites + lockdep) ==="
scripts/sanitize.sh tsan build-tsan -R '(vfs|netfs|dbg)_test'

echo "check.sh: all gates passed"
