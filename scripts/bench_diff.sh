#!/usr/bin/env bash
# Diffs two merged bench result files (scripts/bench.sh output) and fails
# on a performance regression, so recorded BENCH_*.json baselines gate a
# change the same way the unit tests do.
#
# Usage: scripts/bench_diff.sh BASELINE.json CURRENT.json [tolerance-pct]
#
# Compares every (binary, benchmark) pair present in BOTH files:
#
#   - real_time_ns / cpu_time_ns up by more than the tolerance -> regression
#   - throughput counters (*_per_second) down by more than the
#     tolerance -> regression
#
# Everything else is ignored: `iterations` is a measurement artifact, and
# the remaining counters (syscalls, modeled_*, watchers, ...) describe the
# workload's shape, not its speed.  Benchmarks that ran fewer than
# YANC_BENCH_MIN_ITERS (default 3) iterations in either file are skipped
# for the time comparison — a single sample cannot support a percentage
# judgement — and listed so the skip is never silent.  Benchmarks present
# in only one of the two files (removed, renamed or newly added) are
# listed too; they do not affect the exit status.
#
#   YANC_BENCH_TOLERANCE   override the tolerance (percent, default 10)
#   YANC_BENCH_MIN_ITERS   minimum iterations for time comparisons
#
# Exit status: 0 when no regression, 1 on regression, 2 on usage error.
set -euo pipefail

if [[ $# -lt 2 || $# -gt 3 ]]; then
  echo "usage: $0 BASELINE.json CURRENT.json [tolerance-pct]" >&2
  exit 2
fi

BASE="$1" CURR="$2"
TOL="${3:-${YANC_BENCH_TOLERANCE:-10}}"
MIN_ITERS="${YANC_BENCH_MIN_ITERS:-3}"
[[ -r "$BASE" ]] || { echo "bench_diff: cannot read $BASE" >&2; exit 2; }
[[ -r "$CURR" ]] || { echo "bench_diff: cannot read $CURR" >&2; exit 2; }

python3 - "$BASE" "$CURR" "$TOL" "$MIN_ITERS" <<'PY'
import json
import sys

base_path, curr_path, tol_pct, min_iters = sys.argv[1:5]
tol = float(tol_pct) / 100.0
min_iters = int(min_iters)


def load(path):
    with open(path) as f:
        doc = json.load(f)
    flat = {}
    for binary, body in doc.get("benches", {}).items():
        for name, row in body.get("benchmarks", {}).items():
            flat[f"{binary}/{name}"] = row
    return flat


base = load(base_path)
curr = load(curr_path)
shared = sorted(base.keys() & curr.keys())
if not shared:
    print("bench_diff: no shared benchmarks between the two files",
          file=sys.stderr)
    sys.exit(2)

regressions, skipped, compared = [], [], 0


def pct(old, new):
    return 100.0 * (new - old) / old


for key in shared:
    b, c = base[key], curr[key]
    weak = (b.get("iterations", 0) < min_iters
            or c.get("iterations", 0) < min_iters)
    for field in ("real_time_ns", "cpu_time_ns"):
        if field not in b or field not in c or b[field] <= 0:
            continue
        if weak:
            skipped.append(key)
            break
        compared += 1
        if c[field] > b[field] * (1.0 + tol):
            regressions.append((key, field, b[field], c[field],
                                pct(b[field], c[field])))
    for counter, bv in b.get("counters", {}).items():
        if not counter.endswith("_per_second"):
            continue
        cv = c.get("counters", {}).get(counter)
        if cv is None or bv <= 0:
            continue
        compared += 1
        if cv < bv * (1.0 - tol):
            regressions.append((key, counter, bv, cv, pct(bv, cv)))

print(f"bench_diff: {len(shared)} shared benchmarks, "
      f"{compared} metrics compared at ±{tol_pct}% "
      f"({base_path} -> {curr_path})")
for label, only in (("baseline", base.keys() - curr.keys()),
                    ("current", curr.keys() - base.keys())):
    if only:
        print(f"bench_diff: {len(only)} benchmark(s) only in the {label} "
              "file, not compared: " + ", ".join(sorted(only)))
if skipped:
    names = sorted(set(skipped))
    print(f"bench_diff: skipped time check for {len(names)} "
          f"low-iteration benchmarks (< {min_iters} iters): "
          + ", ".join(names))
if regressions:
    print(f"bench_diff: {len(regressions)} regression(s) beyond {tol_pct}%:")
    for key, field, old, new, delta in regressions:
        print(f"  {key} [{field}]: {old:.1f} -> {new:.1f} ({delta:+.1f}%)")
    sys.exit(1)
print("bench_diff: OK — no regression beyond tolerance")
PY
