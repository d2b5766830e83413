#!/usr/bin/env python3
"""Builds the full-stack benchmark from source and runs one measurement.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--inject <layer>]

Run from the repository root.  The first call configures and builds
.bench_build/perfbench (Release, lock-order validation off); later calls
rebuild only what changed.  Build output goes to stderr.  Stdout carries
one run-record line, then the benchmark's result as its last line.  A
traced run also writes its spans to .bench_build/perfbench/spans-<workload>.tsv.
The exit code is non-zero when the build fails or the run is incorrect.
"""
import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
BUILD = os.path.join(REPO, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
BUILD_CONFIG = "Release, YANC_DBG_LOCKS=0"
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    # The Makefile appears only once a configure has fully succeeded.
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  cwd=REPO, timeout=850)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step %s failed: %s" % (cmd[:2], e))
        if done.returncode != 0:
            fail("build step %s exited %d" % (cmd[:2], done.returncode))


def source_digest():
    """sha256 over the sources the binary is built from (src/, perfbench/)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(REPO, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, REPO).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_revision():
    if not os.path.isdir(os.path.join(REPO, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "none"
    except (OSError, subprocess.TimeoutExpired):
        return "none"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--inject", help="slow this layer (sensitivity.py)")
    args = parser.parse_args()

    build()
    if not os.access(BINARY, os.X_OK):
        fail("no benchmark binary at " + BINARY)

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans",
                os.path.join(BUILD, "spans-%s.tsv" % args.workload)]
    if args.inject:
        cmd += ["--inject", args.inject]

    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "inject": args.inject,
        "nproc": os.cpu_count(), "loadavg": list(os.getloadavg()),
        "git_revision": git_revision(), "source_digest": source_digest(),
        "build": BUILD_CONFIG, "machine": platform.machine(),
    }
    print(json.dumps({"run_record": record}), flush=True)

    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=REPO, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark did not finish within %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("benchmark printed no result (exit %d)" % done.returncode)
    print(lines[-1], flush=True)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
