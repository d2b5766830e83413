#!/usr/bin/env python3
"""Runs one workload over several seeds and reports each metric's spread.

    python3 perfbench/spread.py --workload <name> [--first-seed 1]

Runs the end-to-end measurement (--trace 0, run_seconds of
BENCHMARK.json) once for each of RUNS seeds.  A second set of runs, to
compare medians with the first, takes other seeds (--first-seed 11).  Spread is the distance between the first
and third quartile of the runs' values (statistics.quantiles, n=4) as a
share of their median.  It is compared with each metric's bound in
BENCHMARK.json: a workload is steady when every spread is below a third
of its bound.  The last stdout line is a JSON summary.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
RUNS = 10


def load_spec():
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace, inject=None):
    """One run.py call; returns its parsed result (raises on failure)."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if inject:
        cmd += ["--inject", inject]
    done = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, cwd=REPO,
                          timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d exited %d" % (workload, seed,
                                                     done.returncode))
    return json.loads(lines[-1])


def summarize(results):
    """metric -> (median, q1, q3, spread) over a list of run results."""
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = med
        out[name] = (med, q1, q3, (q3 - q1) / med if med else 0.0)
    return out


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--first-seed", type=int, default=1)
    a = p.parse_args()
    spec = load_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results = []
    for i in range(RUNS):
        r = run_once(a.workload, a.first_seed + i, spec["run_seconds"], 0)
        if not r["correct"] or r["failed"]:
            sys.exit("seed %d: incorrect run" % (a.first_seed + i))
        results.append(r)
    steady = True
    summary = summarize(results)
    for name, (med, q1, q3, spread) in summary.items():
        bound = bounds.get(name)
        note = ""
        if bound is not None:
            ok = spread < bound / 3
            steady &= ok
            note = "bound %.2f %s" % (bound, "ok" if ok else "TOO WIDE")
        print("%-26s median %14.4f  q1 %14.4f  q3 %14.4f  spread %6.2f%%  %s"
              % (name, med, q1, q3, 100 * spread, note), file=sys.stderr)
    print(json.dumps({"workload": a.workload, "runs": RUNS,
                      "steady": steady,
                      "metrics": {k: {"median": v[0], "spread": v[3],
                                      "values": [r["metrics"][k]["value"]
                                                 for r in results]}
                                  for k, v in summary.items()}}))


if __name__ == "__main__":
    main()
