#!/usr/bin/env python3
"""Compares two sets of end-to-end benchmark runs under BENCHMARK.json's bounds.

    python3 bench/e2e/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the saved standard output of run.py runs, one file per
run (any file names; traced runs are ignored). For every workload and every
end-to-end metric, the per-run values of each side give a median and
quartiles, and the pair gets one verdict:

  unresolved  the spread (interquartile distance over median) of either side
              is wider than the bound, and not every change run beats every
              parent run; also when a side has fewer than two runs;
  regressed   the change's median is worse than the parent's by more than
              the bound;
  improved    the change wins at least nine tenths of the run pairs (ties
              count for neither) and the medians differ by more than the
              parent's interquartile distance;
  unchanged   otherwise.

Runs pair up by seed when both sides ran the same seeds, otherwise in file
name order. One row is printed per workload, its verdict the worst of its
metrics' (regressed, then unresolved, then improved, then unchanged); a
workload whose change runs failed or answered wrongly more often than the
parent's is regressed whatever its timings. The exit status is 1 when any
workload regressed.
"""

import json
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SEVERITY = ["unchanged", "improved", "unresolved", "regressed"]


def load_runs(directory):
    """Untraced bench_e2e records in `directory`, grouped by workload."""
    runs = defaultdict(list)
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            continue
        with open(path) as f:
            for line in f:
                try:
                    record = json.loads(line)
                except ValueError:
                    continue
                if not isinstance(record, dict) or record.get("bench") != "bench_e2e":
                    continue
                if record["trace"]:
                    continue
                if record["sample_count"] != len(record["samples_ms"]):
                    sys.exit(f"{path}: sample_count does not match samples_ms")
                runs[record["workload"]].append(record)
    return runs


def errors(records):
    """Failed queries plus wrong answers over all runs."""
    return sum(r["failed"] + r["wrong"] for r in records)


def paired(parent, change):
    if sorted(r["seed"] for r in parent) == sorted(r["seed"] for r in change):
        parent = sorted(parent, key=lambda r: r["seed"])
        change = sorted(change, key=lambda r: r["seed"])
    return list(zip(parent, change))


def verdict(spec, parent, change, pairs):
    """(verdict, relative change of the median) for one metric's values."""
    if len(parent) < 2 or len(change) < 2:
        return "unresolved", 0.0
    lower = spec["better"] == "lower"

    def beats(a, b):
        return a < b if lower else a > b

    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q = statistics.quantiles(parent, n=4)
    c_q = statistics.quantiles(change, n=4)
    p_iqr = p_q[2] - p_q[0]
    delta = (c_med - p_med) / p_med
    worse = delta if lower else -delta
    every_run_better = all(beats(c, p) for c in change for p in parent)
    too_noisy = max(p_iqr / p_med, (c_q[2] - c_q[0]) / c_med) > spec["bound"]
    if too_noisy and not every_run_better:
        return "unresolved", delta
    if worse > spec["bound"]:
        return "regressed", delta
    wins = sum(1 for p, c in pairs if beats(c, p))
    if wins >= 0.9 * len(pairs) and abs(c_med - p_med) > p_iqr:
        return "improved", delta
    return "unchanged", delta


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = spec["end_to_end"]
    parent_runs, change_runs = load_runs(argv[1]), load_runs(argv[2])

    header = ["workload"] + [m["name"] for m in metrics] + ["errors", "verdict"]
    rows = [header]
    any_regressed = False
    for workload in [w["name"] for w in spec["workloads"]]:
        parent, change = parent_runs.get(workload, []), change_runs.get(workload, [])
        pairs = [(p["metrics"], c["metrics"]) for p, c in paired(parent, change)]
        cells, worst = [], "unchanged"
        for m in metrics:
            name = m["name"]
            p_vals = [r["metrics"][name]["value"] for r in parent]
            c_vals = [r["metrics"][name]["value"] for r in change]
            value_pairs = [(p[name]["value"], c[name]["value"]) for p, c in pairs]
            v, delta = verdict(m, p_vals, c_vals, value_pairs)
            cells.append(f"{v} ({delta * 100:+.1f}%)")
            worst = max(worst, v, key=SEVERITY.index)
        p_err, c_err = errors(parent), errors(change)
        if c_err > p_err:
            worst = "regressed"
        any_regressed |= worst == "regressed"
        rows.append([f"{workload} ({len(parent)}/{len(change)} runs)"] + cells +
                    [f"{p_err}/{c_err}", worst])

    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return 1 if any_regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
