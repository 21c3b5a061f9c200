#!/usr/bin/env python3
"""Smoke test of bench_e2e: one quick round of every workload, untraced and traced.

    python3 check_smoke.py BENCH_E2E_BINARY BENCHMARK_JSON

Fails unless, for every workload BENCHMARK.json lists: the harness exits 0;
every end-to-end metric (untraced) and every per-layer metric (traced) is
reported; no query failed and no answer was wrong; the traced round dropped
no span; and under 5% of the traced wall time is unattributed to a span or
to parsing.
"""

import json
import subprocess
import sys


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__)
    binary = argv[1]
    with open(argv[2]) as f:
        spec = json.load(f)
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (False, True):
            command = [binary, f"--workload={workload}", "--quick"]
            if trace:
                command.append("--trace")
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                  timeout=120)
            label = f"{workload}{' --trace' if trace else ''}"
            if done.returncode != 0:
                problems.append(f"{label}: exit {done.returncode}")
                continue
            record = json.loads(done.stdout.strip().splitlines()[-1])
            metrics = record["metrics"]
            wanted = spec["per_layer" if trace else "end_to_end"]
            missing = [m["name"] for m in wanted if m["name"] not in metrics]
            if missing:
                problems.append(f"{label}: missing metrics {missing}")
            if record["failed"] or record["wrong"]:
                problems.append(f"{label}: {record['failed']} failed, "
                                f"{record['wrong']} wrong of {record['attempted']}")
            if trace:
                dropped = metrics["trace.spans_dropped"]["value"]
                unattributed = metrics["trace.unattributed_pct"]["value"]
                if dropped != 0:
                    problems.append(f"{label}: {dropped} spans dropped")
                if not unattributed < 5:
                    problems.append(f"{label}: {unattributed}% unattributed")
            print(f"{label}: {record['attempted']} ops, "
                  f"{record['answers_checked']} answers checked")
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
