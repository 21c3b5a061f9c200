#!/usr/bin/env python3
"""Builds bench_e2e from source and runs one workload of the end-to-end benchmark.

    python3 bench/e2e/run.py --workload W [--seed N] [--seconds S] [--trace 0|1] [--quick]

Run from anywhere; paths resolve against this file. The build goes to
.bench_build/ at the repository root (CMake, Release). Build output and the
harness's human-readable lines go to stderr. Standard output ends with two
lines: the harness's full JSON record (raw samples, check tallies, seed, git
SHA) and then the summary line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

whose metrics are BENCHMARK.json's end_to_end list (--trace 0) or its
per_layer list (--trace 1). The exit status is the harness's: 0 when every
answer checked, non-zero otherwise. Without the library sources next to this
directory the build fails and the script exits 2 before printing anything.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "bench_e2e")
# The harness stops itself after --seconds plus set-up; this only guards
# against a hang.
RUN_TIMEOUT_S = 170


def build():
    """Configures and builds bench_e2e; returns False on any failure."""
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "--target", "bench_e2e", "-j", "4"],
    ]
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as err:
            print(f"run.py: {err}", file=sys.stderr)
            return False
        if done.returncode != 0:
            return False
    return True


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="one round instead of --seconds (smoke runs)")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 2

    command = [BINARY, f"--workload={args.workload}", f"--seed={args.seed}",
               f"--seconds={args.seconds}"]
    if args.trace:
        command.append("--trace")
    if args.quick:
        command.append("--quick")
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: bench_e2e exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 2
    lines = done.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        print(f"run.py: bench_e2e exited {done.returncode} without a record",
              file=sys.stderr)
        return done.returncode or 2
    missing = [name for name in wanted if name not in record["metrics"]]
    if missing:
        print(f"run.py: metrics missing from the record: {missing}",
              file=sys.stderr)
        return 2

    record["git_sha"] = git_sha()
    summary = {
        "correct": done.returncode == 0 and record["wrong"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"] + record["wrong"],
        "metrics": {name: record["metrics"][name] for name in wanted},
    }
    print(json.dumps(record))
    print(json.dumps(summary))
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
