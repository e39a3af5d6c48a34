#!/usr/bin/env python3
"""Summarise or compare sets of perfbench results.

    python3 perfbench/compare.py RESULTS            # spread of one set
    python3 perfbench/compare.py BASE NEW           # NEW against BASE

RESULTS, BASE and NEW are result directories written by perfbench/run.py
(.bench_build/perfbench/results, holding <workload>/seed<N>-trace0.json);
copy one aside before measuring the other commit. For every workload and
end-to-end metric the script prints the median over seeds and the spread,
(Q3 - Q1) / median with statistics.quantiles(n=4). With two sets it also
prints the change of the median, in the metric's worse direction, and marks
it WORSE when it exceeds the metric's bound in BENCHMARK.json.

Results are comparable only when measured on the same machine and build:
the script refuses (exit 2) when the environment blocks differ in anything
but the code under test (git_sha, source_digest). Exit 1 when a metric is
worse than its bound, or a run was incorrect; 0 otherwise.
"""

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
CODE_IDENTITY = {"git_sha", "source_digest"}


def load(results_dir):
    """{workload: [record, ...]} of the untraced runs under `results_dir`."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(results_dir, "*", "seed*-trace0.json"))):
        with open(path) as f:
            record = json.load(f)
        runs.setdefault(record["workload"], []).append(record)
    return runs


def machine(record):
    return {k: v for k, v in record["environment"].items() if k not in CODE_IDENTITY}


def summary(values):
    median = statistics.median(values)
    if len(values) < 2:
        return median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    sets = [load(d) for d in argv[1:]]
    if not sets[0]:
        print(f"compare.py: no results under {argv[1]}", file=sys.stderr)
        return 2

    envs = {json.dumps(machine(r), sort_keys=True) for s in sets for rs in s.values() for r in rs}
    if len(envs) > 1:
        print("compare.py: refusing to compare results from different environments:",
              file=sys.stderr)
        for e in sorted(envs):
            print("  " + e, file=sys.stderr)
        return 2

    status = 0
    for workload in sorted(sets[0]):
        runs = [s.get(workload, []) for s in sets]
        if not all(runs):
            print(f"{workload}: missing from one set")
            status = 1
            continue
        bad = sum(not r["result"]["correct"] for rs in runs for r in rs)
        print(f"{workload}: {'/'.join(str(len(rs)) for rs in runs)} runs"
              + (f", {bad} INCORRECT" if bad else ""))
        status |= 1 if bad else 0
        for m in metrics:
            name, bound = m["name"], m["bound"]
            cols = []
            medians = []
            for rs in runs:
                median, spread = summary([r["result"]["metrics"][name]["value"] for r in rs])
                medians.append(median)
                flag = "" if name == "setup_s" or spread <= bound / 3 else (
                    " noisy" if spread <= bound else " NOISY")
                cols.append(f"{median:14.6g} {m['unit']:<4} spread {spread:6.1%}{flag}")
            line = f"  {name:14s} " + " | ".join(cols)
            if len(medians) == 2:
                change = (medians[1] - medians[0]) / medians[0]
                worse = change if m["better"] == "lower" else -change
                line += f" | worse by {worse:+6.1%} (bound {bound:.0%})"
                if worse > bound:
                    line += " WORSE"
                    status = 1
            print(line)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
