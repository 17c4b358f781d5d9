#!/usr/bin/env python3
"""Compare two sets of benchmark runs.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds result files written by run.py (results/*.json under
the build directory; copy them aside per commit). For every workload x
metric present on both sides the tool prints each side's median and
quartiles and the change of the medians, and marks:

  COUNT   a count that differs at all between or within the sides: the work
          counters are deterministic, so any difference is a real change
  WORSE   an end-to-end metric whose median got worse by more than its
          bound in BENCHMARK.json
  better  an end-to-end metric whose median improved by more than its bound
  moved   a per-layer time that moved by more than the largest end-to-end
          time bound (per-layer metrics have no bound of their own)
  PANEL   a panel digest that differs between runs: the panels changed

Exits 1 when anything is marked COUNT, WORSE or PANEL.
"""

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIME_UNITS = ("s", "ms", "us")


def load(directory):
    """{workload: {"metrics": {name: (unit, [values])}, "digests": set}}."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            try:
                result = json.load(f)
            except ValueError:
                continue
        if "workload" not in result or "metrics" not in result:
            continue  # e.g. a trace file
        side = runs.setdefault(result["workload"], {"metrics": {}, "digests": set()})
        for name, m in result["metrics"].items():
            side["metrics"].setdefault(name, (m["unit"], []))[1].append(m["value"])
        side["digests"].add(json.dumps(result.get("digests", {}), sort_keys=True))
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layer = {m["name"]: m for m in spec["per_layer"]}
    time_bound = max([m["bound"] for m in spec["end_to_end"]
                      if m["unit"] in TIME_UNITS] or [0.25])
    base, new = load(sys.argv[1]), load(sys.argv[2])
    bad = False
    for workload in sorted(set(base) & set(new)):
        print(f"== {workload}")
        print(f"  {'metric':30s} {'base q1/med/q3':>32s} {'new q1/med/q3':>32s} "
              f"{'change':>8s}")
        b_side, n_side = base[workload], new[workload]
        for name in sorted(set(b_side["metrics"]) & set(n_side["metrics"])):
            unit, b_vals = b_side["metrics"][name]
            _, n_vals = n_side["metrics"][name]
            b_q, n_q = quartiles(b_vals), quartiles(n_vals)
            change = (n_q[1] - b_q[1]) / b_q[1] if b_q[1] else 0.0
            mark = ""
            if unit == "count":
                if len(set(b_vals) | set(n_vals)) > 1:
                    mark = "COUNT"
            elif name in e2e:
                m = e2e[name]
                worse = change if m["better"] == "lower" else -change
                if worse > m["bound"]:
                    mark = "WORSE"
                elif -worse > m["bound"]:
                    mark = "better"
            elif unit in TIME_UNITS and name in layer and abs(change) > time_bound:
                mark = "moved"
            bad |= mark in ("COUNT", "WORSE")
            fmt = lambda q: "/".join(f"{v:.4g}" for v in q)
            print(f"  {name:30s} {fmt(b_q):>32s} {fmt(n_q):>32s} "
                  f"{100 * change:+7.1f}% {unit:6s} {mark}")
        digests = b_side["digests"] | n_side["digests"]
        if len(digests) > 1:
            bad = True
            print(f"  PANEL digests differ across runs: {sorted(digests)}")
        else:
            print(f"  panels identical in every run: {next(iter(digests))}")
    only = sorted(set(base) ^ set(new))
    if only:
        print(f"workloads on one side only: {only}")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
