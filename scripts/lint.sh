#!/usr/bin/env bash
# Optional clang-tidy pass over src/yanc.
#
# Usage: scripts/lint.sh [build-dir]     (default: build)
#
# The required static gate is yanc-analyze (scripts/analyze.sh, and ctest).
# clang-tidy is an extra layer: the container does not ship it, so its
# absence is reported and skipped, never failed on.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

if ! command -v clang-tidy >/dev/null 2>&1; then
  echo "clang-tidy: not installed, skipped (yanc-analyze is the required gate)"
  exit 0
fi

echo "== clang-tidy =="
# CMAKE_EXPORT_COMPILE_COMMANDS is ON in the top-level CMakeLists, so the
# database is always there once the tree has configured.
if [[ ! -f "$BUILD_DIR/compile_commands.json" ]]; then
  cmake -B "$BUILD_DIR" -S . >/dev/null
fi
# Propagate failures: a clang-tidy diagnostic fails the gate, exactly like
# a yanc-analyze finding (xargs exits non-zero when any batch does).
if ! find src/yanc -name '*.cpp' -print0 |
    xargs -0 -P "$(nproc)" -n 8 clang-tidy -p "$BUILD_DIR" --quiet; then
  echo "clang-tidy: findings above are fatal"
  exit 1
fi
echo "clang-tidy: clean"
