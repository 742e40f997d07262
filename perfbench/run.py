#!/usr/bin/env python3
"""Repo benchmark for the Bamboo pipeline.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cli_exec --seed 1 --seconds 40 --trace 0

Builds the Bamboo sources and the benchmark harness (perfbench/harness.cpp)
into .bench_build/perfbench, runs one workload, and prints as its last line
one JSON object: {"correct", "attempted", "failed", "metrics"}. The line
before it carries the host, the load budget and the deterministic figures.
Exits 0 only when every output matched its reference and no deterministic
figure drifted. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("synth62", "cli_exec", "serve_warm")
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "perfbench")
# A run measures for --seconds, then checks outputs; 180 s is the hard cap.
HARNESS_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configures and builds the harness and the bamboo CLI from source."""
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, *generator,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "-j", jobs],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build failed: " + " ".join(step))
    harness = os.path.join(BUILD_DIR, "perfbench_harness")
    bamboo = os.path.join(BUILD_DIR, "bamboo", "driver", "bamboo")
    return harness, bamboo


def run_harness(args, harness, bamboo, out_dir):
    cmd = [harness, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", ".", "--bamboo", bamboo, "--out", out_dir]
    # Own process group, so a timeout also stops the server it started.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{args.workload} did not finish within {HARNESS_TIMEOUT_S} s")
    lines = out.strip().splitlines()
    if not lines:
        fail(f"harness exited {proc.returncode} without a result",
             proc.returncode or 1)
    return json.loads(lines[-1])


def binary_digest(paths):
    digest = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as f:
            for chunk in iter(lambda: f.read(1 << 20), b""):
                digest.update(chunk)
    return digest.hexdigest()


def check_across_runs(result, args, binaries):
    """Compares the deterministic figures with earlier runs of the same
    binaries, workload and seed; returns the names that drifted."""
    record_dir = os.path.join(BUILD_DIR, "determinism")
    os.makedirs(record_dir, exist_ok=True)
    path = os.path.join(record_dir, f"{args.workload}-seed{args.seed}.json")
    digest = binary_digest(binaries)
    values = dict(result["deterministic"])
    drifted = []
    if os.path.exists(path):
        with open(path) as f:
            record = json.load(f)
        if record.get("binaries") == digest:
            old = record["values"]
            drifted = [k for k in values if k in old and old[k] != values[k]]
            values = {**old, **values}
    with open(path, "w") as f:
        json.dump({"binaries": digest, "values": values}, f)
    return drifted


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1", 2)

    harness, bamboo = build()
    out_dir = os.path.join(BUILD_DIR, "out")
    os.makedirs(out_dir, exist_ok=True)
    result = run_harness(args, harness, bamboo, out_dir)

    correct = result["correct"]
    failed = result["failed"]
    drifted = check_across_runs(result, args, [harness, bamboo])
    if drifted:
        correct = False
        failed = result["attempted"]
        result["info"]["problems"].append(
            "deterministic figures drifted from an earlier run: " +
            ", ".join(drifted))

    print(json.dumps({"info": result["info"],
                      "deterministic": result["deterministic"]}))
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": failed, "metrics": result["metrics"]}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
