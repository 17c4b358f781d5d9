#!/usr/bin/env python3
"""Build the benchmark from source, run one workload, print its metrics.

    python3 perfbench/run.py --workload mine_select --seed 1 --seconds 20 --trace 0

Builds perfbench/ (and the library under it) in Release mode into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench, relative to the
repository root), runs the perfbench binary on the named workload, and
writes a result file stamped with provenance into the build directory's
results/ folder. The last line of stdout is one JSON object with exactly
the keys "correct", "attempted", "failed" and "metrics"; the metrics are
the end-to-end metrics of BENCHMARK.json with --trace 0 and its per-layer
metrics with --trace 1. See perfbench/README.md.

Extra flags for the self-test: --scale tiny shrinks every workload and
--corrupt-panel damages the first panel so the correctness check must trip.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    """Configures (once) and builds the perfbench target; returns its path."""
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "build.log")
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for step in steps:
            try:
                code = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                fail(f"build step {step[:2]} failed: {e}")
            if code != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail(f"build failed (log: {log_path})")
    return os.path.join(out_dir, "perfbench")


def cmake_cache(out_dir, key):
    try:
        with open(os.path.join(out_dir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def git_provenance():
    """(sha, dirty) of the checkout, or ("unknown", None) outside git."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        status = subprocess.run(
            ["git", "-C", ROOT, "status", "--porcelain", "--untracked-files=no"],
            capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown", None
    if sha.returncode != 0 or status.returncode != 0:
        return "unknown", None
    return sha.stdout.strip(), bool(status.stdout.strip())


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--corrupt-panel", action="store_true")
    args = parser.parse_args()

    for needed in ("CMakeLists.txt", "src/CMakeLists.txt", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} missing: run from a full checkout of the repository")
    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    expected = spec["per_layer" if args.trace else "end_to_end"]

    out_dir = build_dir()
    binary = build(out_dir)
    data_dir = os.path.join(out_dir, "data")
    results_dir = os.path.join(out_dir, "results")
    os.makedirs(data_dir, exist_ok=True)
    os.makedirs(results_dir, exist_ok=True)
    stamp = f"{args.workload}-s{args.seed}-t{args.trace}-{int(time.time() * 1000)}"
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", args.scale]
    if args.trace:
        cmd += ["--trace-out", os.path.join(results_dir, stamp)]
    if args.corrupt_panel:
        cmd.append("--corrupt-panel")

    started = time.time()
    try:
        proc = subprocess.run(cmd, cwd=data_dir, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload {args.workload} exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"perfbench exited with {proc.returncode}")
    try:
        raw = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        fail("perfbench printed no result")

    missing = [m["name"] for m in expected if m["name"] not in raw["metrics"]]
    wrong_unit = [m["name"] for m in expected if m["name"] in raw["metrics"]
                  and raw["metrics"][m["name"]]["unit"] != m["unit"]]
    if missing or wrong_unit:
        fail(f"metrics missing {missing} or with the wrong unit {wrong_unit}")

    prov = raw["provenance"]
    prov["git_sha"], prov["git_dirty"] = git_provenance()
    prov["cmake_build_type"] = cmake_cache(out_dir, "CMAKE_BUILD_TYPE")
    prov["cxx_compiler"] = cmake_cache(out_dir, "CMAKE_CXX_COMPILER")
    prov["suspect_build"] = (prov["build_type"] not in ("Release", "RelWithDebInfo")
                             or bool(prov["sanitize"]) or not prov["ndebug"])
    raw["run_seconds"] = args.seconds
    raw["wall_s"] = time.time() - started
    result_path = os.path.join(results_dir, stamp + ".json")
    with open(result_path, "w") as f:
        json.dump(raw, f, indent=1, sort_keys=True)

    if prov["suspect_build"]:
        print(f"WARNING: timings from a {prov['build_type']} build "
              f"(sanitize={prov['sanitize']!r}, ndebug={prov['ndebug']}) "
              "are not comparable")
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"attempted={raw['attempted']} failed={raw['failed']} "
          f"git={prov['git_sha'][:12]}{'+dirty' if prov['git_dirty'] else ''} "
          f"build={prov['build_type']} nproc={prov['nproc']}")
    for failure in raw["failures"]:
        print(f"  FAILED: {failure}")
    for name, m in raw["metrics"].items():
        print(f"  {name:30s} {m['value']:.6g} {m['unit']}")
    for label, digest in sorted(raw["digests"].items()):
        print(f"  panel {label:10s} digest {digest}")
    print(f"  result file: {os.path.relpath(result_path, ROOT)}")

    names = [m["name"] for m in expected]
    print(json.dumps({
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {n: raw["metrics"][n] for n in names},
    }))


if __name__ == "__main__":
    main()
