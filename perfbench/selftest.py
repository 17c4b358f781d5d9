#!/usr/bin/env python3
"""Tiny-scale self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json through run.py at --scale tiny, once
untraced and once traced, and checks that the last line has exactly the
keys correct/attempted/failed/metrics, that the run is correct, and that
every named metric is printed with its unit. Then runs each workload with
--corrupt-panel and checks that the damaged panel trips the correctness
check. Exits 1 if any of this fails, 0 otherwise.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--scale", "tiny", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        return None, f"exit {proc.returncode}: {proc.stderr[-500:]}"
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), ""
    except (IndexError, ValueError):
        return None, "no JSON result line"


def check_result(result, expected):
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"not correct: failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    metrics = result.get("metrics", {})
    names = [m["name"] for m in expected]
    if sorted(metrics) != sorted(names):
        problems.append(f"metric names {sorted(metrics)} != {sorted(names)}")
    for m in expected:
        got = metrics.get(m["name"])
        if got is None:
            continue
        value = got.get("value")
        if got.get("unit") != m["unit"]:
            problems.append(f"{m['name']}: unit {got.get('unit')!r} != {m['unit']!r}")
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            problems.append(f"{m['name']}: value {value!r} is not a number")
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, error = run(workload, trace)
            where = f"{workload} trace={trace}"
            if result is None:
                problems.append(f"{where}: {error}")
                continue
            problems += [f"{where}: {p}" for p in check_result(result, spec[key])]
            print(f"ok   {where}: {len(result['metrics'])} metrics, "
                  f"{result['attempted']} checks")
        result, error = run(workload, 0, ["--corrupt-panel"])
        where = f"{workload} --corrupt-panel"
        if result is None:
            problems.append(f"{where}: {error}")
        elif result["correct"] or result["failed"] < 1:
            problems.append(f"{where}: corrupted panel passed the check")
        else:
            print(f"ok   {where}: caught ({result['failed']} failed)")
    for p in problems:
        print(f"FAIL {p}")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
