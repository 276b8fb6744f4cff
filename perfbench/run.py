#!/usr/bin/env python3
"""Build and run the repository benchmark.

One run:
    python3 perfbench/run.py --workload storage --seed 42 --seconds 50 --trace 0

Steadiness self-check (each workload run N times, each on another seed,
then the median and quartiles of every end-to-end metric):
    python3 perfbench/run.py --steadiness 10 [--workload NAME ...] [--seconds S]

Run from the root of a checkout. The benchmark crate is built in
release mode, offline, into $CARGO_TARGET_DIR (default `.bench_build`).
The last line of stdout of a run is its JSON result. See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["storage", "storage-net-disk", "sched-net-disk"]
# A run that has not finished by then is stopped and counts as failed.
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Builds the benchmark binary and returns its path."""
    manifest = os.path.join(HERE, "Cargo.toml")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    for crate in ("core", "dfs", "sched", "net", "disk"):
        if not os.path.isfile(os.path.join(ROOT, "crates", crate, "Cargo.toml")):
            fail(f"crates/{crate} is missing: run from the root of a full checkout")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    # Cargo's own output goes to stderr, so stdout stays the result.
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if proc.returncode != 0:
        fail(f"build failed (exit {proc.returncode})")
    binary = os.path.join(target, "release", "perfbench")
    if not os.path.isfile(binary):
        fail(f"build produced no {binary}")
    return binary


def run_once(binary, workload, seed, seconds, trace, echo=True):
    """Runs one workload; returns the parsed result line."""
    cmd = [
        binary,
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--reference-dir", os.path.join(HERE, "reference"),
        "--out-dir", os.path.join(HERE, "out"),
    ]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} seed {seed} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if echo:
        for line in lines[:-1]:
            print(line)
    if proc.returncode != 0 or not lines:
        fail(f"{workload} seed {seed} exited {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{workload} seed {seed}: last line is not JSON: {lines[-1]!r}")
    if set(result) != RESULT_KEYS:
        fail(f"{workload} seed {seed}: result keys {sorted(result)}")
    return result, lines[-1]


def steadiness(binary, workloads, runs, seconds, first_seed):
    """Runs each workload `runs` times on consecutive seeds and prints
    the median, quartiles and spread ((q3 - q1) / median) per metric."""
    for workload in workloads:
        values = {}
        for i in range(runs):
            seed = first_seed + i
            result, _ = run_once(binary, workload, seed, seconds, 0, echo=False)
            if not result["correct"] or result["failed"]:
                fail(f"{workload} seed {seed}: {result['failed']} failed tasks")
            # The run's record holds every end-to-end metric, also those
            # the result line leaves out.
            record = os.path.join(HERE, "out", f"{workload}-seed{seed}-trace0.json")
            with open(record) as f:
                metrics = json.load(f)["metrics"]
            for name, m in metrics.items():
                values.setdefault(name, []).append(m["value"])
            summary = " ".join(f"{k}={v[-1]:.4g}" for k, v in values.items())
            print(f"{workload} seed {seed}: {summary}", flush=True)
        for name, v in values.items():
            q1, q2, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            print(f"{workload:<18} {name:<18} median {med:12.5g}  q1 {q1:12.5g}  "
                  f"q3 {q3:12.5g}  spread {(q3 - q1) / med:.4f}", flush=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=50)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--steadiness", type=int, metavar="N",
                    help="run each workload N times on seeds SEED, SEED+1, ...")
    args = ap.parse_args()
    binary = build()
    if args.steadiness:
        steadiness(binary, args.workload or WORKLOADS, args.steadiness, args.seconds, args.seed)
        return
    if not args.workload or len(args.workload) != 1:
        fail("give exactly one --workload")
    _, line = run_once(binary, args.workload[0], args.seed, args.seconds, args.trace)
    print(line)


if __name__ == "__main__":
    main()
