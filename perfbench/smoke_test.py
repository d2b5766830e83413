#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload, both modes, one second each.

    python3 perfbench/smoke_test.py

Asserts for each run that the correctness gate passed, that no operation
failed (error_ratio = 0), and that exactly the metrics BENCHMARK.json
names for that mode were emitted, each with its declared unit.  Exits 0
when every run passes.
"""
import sys

from spread import load_spec, run_once


def main():
    spec = load_spec()
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for w in (x["name"] for x in spec["workloads"]):
        for trace in (0, 1):
            where = "%s --trace %d" % (w, trace)
            before = len(problems)
            try:
                r = run_once(w, seed=1, seconds=1, trace=trace)
            except RuntimeError as e:
                problems.append("%s: %s" % (where, e))
                continue
            if set(r) != {"correct", "attempted", "failed", "metrics"}:
                problems.append("%s: result keys %s" % (where, sorted(r)))
            if r["correct"] is not True or r["failed"] != 0:
                problems.append("%s: gate failed or ops failed" % where)
            if r["attempted"] < 1:
                problems.append("%s: nothing attempted" % where)
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            if got != expected[trace]:
                problems.append("%s: metrics/units differ from BENCHMARK.json:"
                                " missing %s, extra or mis-united %s" % (
                                    where,
                                    sorted(set(expected[trace]) - set(got)),
                                    sorted(k for k in got
                                           if expected[trace].get(k) != got[k])))
            if trace == 1 and r["metrics"].get("bench.error_ratio",
                                               {}).get("value") != 0:
                problems.append("%s: error_ratio is not 0" % where)
            if trace == 0 and any(v["value"] <= 0
                                  for v in r["metrics"].values()):
                problems.append("%s: an end-to-end metric is not positive"
                                % where)
            print("%-32s %s" % (where, "ok" if len(problems) == before else "FAIL"),
                  file=sys.stderr)
    for p in problems:
        print("FAIL " + p, file=sys.stderr)
    print("smoke: %s" % ("PASS" if not problems else "FAIL"))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
