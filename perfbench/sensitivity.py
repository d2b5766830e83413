#!/usr/bin/env python3
"""Sensitivity self-check: does the gate see a slower layer, and only there?

    python3 perfbench/sensitivity.py

Slows the `cluster` layer by spinning, after each Harness::tick the
benchmark makes, for 25 % of that call's median time (measured during the
first warm-up; kInjectPct in src/ledger.hpp).  Each of two workloads runs
PAIRS pairs of (unslowed, slowed) runs on seeds FIRST_SEED onwards,
alternating which side runs first, so slow drift of a shared machine hits
both sides alike.  An end-to-end metric is flagged when the slowed side is
worse in at least nine tenths of the pairs and the medians differ by more
than the unslowed runs' own quartile spread.  The check passes when:
  1. on replicated_commit, which calls the layer, some metric is flagged;
  2. on bulk_commit, which never calls it, nothing is flagged;
  3. in TRACED_PAIRS traced pairs on replicated_commit, the layer's share
     of the timed wall time grows more than any other layer's.
It also reports which metrics the plain bound rule of BENCHMARK.json
(median worse by more than the bound) would flag.  The last stdout line
is a JSON summary; the exit code is 0 when the check passes.
"""
import json
import statistics
import sys

from spread import load_spec, run_once

LAYER = "cluster"
USES = "replicated_commit"
BYPASSES = "bulk_commit"
PAIRS = 10
TRACED_PAIRS = 3
FIRST_SEED = 101


def worse_by(metric, base, slowed):
    """How much worse `slowed` is than `base`, as a share of `base`."""
    if metric["better"] == "lower":
        return (slowed - base) / base
    return (base - slowed) / base


def paired(workload, pairs, seconds, trace):
    base, slowed = [], []
    for i in range(pairs):
        seed = FIRST_SEED + i
        sides = [(None, base), (LAYER, slowed)]
        if i % 2:
            sides.reverse()
        for inject, out in sides:
            r = run_once(workload, seed, seconds, trace, inject)
            if not r["correct"]:
                sys.exit("%s seed %d inject %s: incorrect run" % (
                    workload, seed, inject))
            out.append(r["metrics"])
    return base, slowed


def judge(spec, base, slowed):
    verdicts = {}
    for m in spec["end_to_end"]:
        name = m["name"]
        b = [r[name]["value"] for r in base]
        s = [r[name]["value"] for r in slowed]
        wins = sum(worse_by(m, x, y) > 0 for x, y in zip(b, s))
        q1, _, q3 = statistics.quantiles(b, n=4)
        bmed, smed = statistics.median(b), statistics.median(s)
        worse = worse_by(m, bmed, smed)
        verdicts[name] = {
            "worse_pct": round(100 * worse, 2),
            "base_spread_pct": round(100 * (q3 - q1) / bmed, 2),
            "slowed_worse_in": "%d/%d" % (wins, len(b)),
            "flagged": (wins >= 0.9 * len(b) and worse > 0
                        and abs(smed - bmed) > q3 - q1),
            "over_bound": worse > m["bound"],
        }
    return verdicts


def main():
    spec = load_spec()
    seconds = spec["run_seconds"]

    summary = {"layer": LAYER, "pairs": PAIRS}
    ok = True
    for role, workload in (("uses", USES), ("bypasses", BYPASSES)):
        base, slowed = paired(workload, PAIRS, seconds, 0)
        verdicts = judge(spec, base, slowed)
        flags = sorted(k for k, v in verdicts.items() if v["flagged"])
        expect = bool(flags) if role == "uses" else not flags
        ok &= expect
        summary[workload] = {"verdicts": verdicts, "flagged": flags,
                             "as_expected": expect}
        for name, v in verdicts.items():
            print("%-18s %-12s worse %+7.2f%% in %s pairs (unslowed spread "
                  "%.2f%%)  flagged=%s over_bound=%s" % (
                      workload, name, v["worse_pct"], v["slowed_worse_in"],
                      v["base_spread_pct"], v["flagged"], v["over_bound"]),
                  file=sys.stderr)
        print("%s (%s the layer): flagged %s -> %s" % (
            workload, role, flags or "nothing",
            "as expected" if expect else "UNEXPECTED"), file=sys.stderr)

    base, slowed = paired(USES, TRACED_PAIRS, seconds, 1)
    shares = {}
    for k in base[0]:
        if k.endswith("_share"):
            shares[k] = (statistics.median(r[k]["value"] for r in slowed) -
                         statistics.median(r[k]["value"] for r in base))
    grew = max(shares, key=shares.get)
    attributed = grew.split(".")[0] == LAYER and shares[grew] > 0
    ok &= attributed
    summary["ledger_share_change"] = {k: round(v, 4)
                                      for k, v in shares.items()}
    summary["attributed_to"] = grew
    print("ledger: largest share increase is %s (%+.4f) -> %s" % (
        grew, shares[grew], "as expected" if attributed else "UNEXPECTED"),
        file=sys.stderr)
    summary["pass"] = ok
    print(json.dumps(summary))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
