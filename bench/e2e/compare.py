#!/usr/bin/env python3
"""Compares sets of end-to-end benchmark runs.

Usage:
    compare.py A1.json A2.json ... [-- B1.json B2.json ...]

Each file is one run written by `run.sh --json`. For every (workload,
metric) pair the script prints each set's median, first and third
quartiles, and spread (the distance between the quartiles as a share of
the median). With one set it flags every spread wider than the metric's
bound in BENCHMARK.json (setup_s excepted: its bound only limits how far a
median may move). With two sets it also flags every pair whose medians
differ by more than the bound: "worse" when B is worse than A, "better"
when it is better. The exit code is 1 when anything is flagged worse, or
too wide with one set.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def load_runs(paths):
    """(workload, metric) -> list of values, plus the set's tuner picks."""
    values = defaultdict(list)
    picks = defaultdict(list)
    for path in paths:
        run = json.loads(Path(path).read_text())
        for name, metric in run["metrics"].items():
            values[(run["workload"], name)].append(metric["value"])
        picks[run["workload"]].append(run.get("tuner_picks", []))
    return values, picks


def summary(vals):
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return q1, med, q3


def spread(vals):
    q1, med, q3 = summary(vals)
    return (q3 - q1) / med if med else 0.0


def main(argv):
    if "--" in argv:
        cut = argv.index("--")
        set_a, set_b = argv[:cut], argv[cut + 1:]
    else:
        set_a, set_b = argv, []
    if not set_a:
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads(
        (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    spec = {m["name"]: m for m in bench["end_to_end"]}

    a, picks_a = load_runs(set_a)
    b, _ = load_runs(set_b) if set_b else ({}, {})
    flagged = False
    head = f"{'workload':14} {'metric':34} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7}"
    if set_b:
        head += f" {'B median':>12} {'B spread':>8} {'change':>8}"
    print(head)
    for key in sorted(a):
        workload, name = key
        vals = a[key]
        q1, med, q3 = summary(vals)
        line = f"{workload:14} {name:34} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread(vals):7.3f}"
        note = ""
        m = spec.get(name)
        if set_b and key in b:
            bmed = summary(b[key])[1]
            change = (bmed - med) / med if med else 0.0
            line += f" {bmed:12.6g} {spread(b[key]):8.3f} {change:+8.3f}"
            if m:
                worse = change if m["better"] == "lower" else -change
                if worse > m["bound"]:
                    note, flagged = "  WORSE beyond bound", True
                elif -worse > m["bound"]:
                    note = "  better beyond bound"
        elif m and name != "setup_s" and spread(vals) > m["bound"]:
            note, flagged = "  SPREAD beyond bound", True
        print(line + note)
    for workload, runs in sorted(picks_a.items()):
        distinct = {tuple(r) for r in runs}
        print(f"{workload}: {len(distinct)} distinct tuner pick set(s) "
              f"over {len(runs)} run(s)")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
