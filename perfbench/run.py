#!/usr/bin/env python3
"""Builds and runs the repository benchmark (perfbench).

Run from the repository root:

    python3 perfbench/run.py --workload hcci-compress --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --smoke      # every workload, seconds-long, checks on
    python3 perfbench/run.py --test       # the benchmark's metric-math tests

The C++ benchmark is configured and built on first use into
.bench_build/perfbench (Release, against the library sources in src/).
Build output goes to stderr; the benchmark's report goes to stdout, and its
last line is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ["hcci-compress", "dist-p4", "stream-append", "serve-zipf"]
RUN_TIMEOUT_S = 170  # one run must end within 180 s, build excluded


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/; "
             "run from a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cfg = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cfg, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", BUILD, "-j", jobs, "--target", *targets]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")


def declared_metrics(trace):
    """The result line's metric names for this mode, from BENCHMARK.json."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_one(workload, seed, seconds, trace, smoke=False):
    """Runs one workload; returns (exit code, stdout lines, parsed result
    line or None)."""
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    if smoke:
        cmd += ["--smoke", "1"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired as e:  # run() kills and reaps the child
        sys.stdout.write(e.stdout or "")
        fail(f"{workload} exceeded {RUN_TIMEOUT_S} s", 1)
    lines = proc.stdout.rstrip("\n").split("\n")
    result = None
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        pass
    return proc.returncode, lines, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload briefly with all checks")
    ap.add_argument("--test", action="store_true",
                    help="build and run the metric-math tests")
    args = ap.parse_args()

    if args.test:
        build(["perfbench_test"])
        sys.exit(subprocess.run([os.path.join(BUILD, "perfbench_test")]).returncode)

    build(["perfbench"])
    if args.smoke:
        bad = 0
        for w in WORKLOADS:
            for trace in (0, 1):
                code, lines, res = run_one(w, args.seed, 1, trace, smoke=True)
                ok = code == 0 and res is not None and res["correct"]
                bad += not ok
                summary = (f"attempted={res['attempted']} failed={res['failed']}"
                           if res else "no result line")
                print(f"smoke {w:14s} trace={trace} "
                      f"{'ok' if ok else 'FAIL'} {summary}")
        sys.exit(1 if bad else 0)

    if args.workload is None:
        fail("--workload is required (or --smoke / --test)")
    code, lines, res = run_one(args.workload, args.seed, args.seconds,
                               args.trace == 1)
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()
    if code != 0 or res is None:
        fail(f"benchmark exited with {code}", code or 1)
    names = declared_metrics(args.trace == 1)
    if names is not None and list(res["metrics"]) != names:
        fail("reported metrics differ from BENCHMARK.json", 1)


if __name__ == "__main__":
    main()
