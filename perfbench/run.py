#!/usr/bin/env python3
"""Runs one workload of the MATEX repository benchmark.

    python3 perfbench/run.py --workload dist_cold|serve_warm|serve_cold \
        --seed N --seconds S --trace 0|1

Builds the harness (perfbench/harness, a Cargo package that links the
workspace crates by path) into $CARGO_TARGET_DIR (default .bench_build),
runs it, and relays its report. The harness generates every input from
the seed, checks every output, and prints one JSON result as its last
stdout line; this script re-checks that line against BENCHMARK.json
(every end-to-end metric with --trace 0, every per-layer metric with
--trace 1) and exits non-zero without a result if anything is off.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "harness", "Cargo.toml")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]

    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail("harness build failed")
    binary = os.path.join(ROOT, target, "release", "matex-perfbench")

    work_dir = os.path.join(ROOT, ".bench_work")
    try:
        run = subprocess.run(
            [
                binary,
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
                "--work-dir", work_dir,
            ],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail(f"harness did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = run.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if run.returncode != 0:
        fail(f"harness exited with code {run.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("harness printed no JSON result")
    if set(result) != {"correct", "attempted", "failed", "metrics"} or result["correct"] is not True:
        fail("harness result is malformed or not correct")
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got.get("unit") != m["unit"]:
            fail(f"metric {m['name']} missing or not in {m['unit']}")
    if set(result["metrics"]) != {m["name"] for m in wanted}:
        fail("harness reported metrics BENCHMARK.json does not list")
    print(lines[-1])


if __name__ == "__main__":
    main()
