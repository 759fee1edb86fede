#!/usr/bin/env python3
"""Build the perfbench harness from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload census --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --selftest

The harness (perfbench/main.exe) prints a summary and, as its last line,
one JSON object {correct, attempted, failed, metrics}.  This wrapper
builds it with dune, relays its output, and checks that the metric names
in that last line are exactly the ones BENCHMARK.json declares for the
run's mode (end_to_end untraced, per_layer traced).
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")
BUILD_TIMEOUT_S = 870
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    return 1


def dune():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    return None


def build():
    cmd = dune()
    if cmd is None:
        return fail("dune not found")
    # no shared build cache: the build reads and writes only the checkout
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(cmd + ["build", "--root", ".", "./perfbench/main.exe"],
                           env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail("build timed out")
    return 0 if r.returncode == 0 else fail("build failed")


def expected_names(trace):
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    return {m["name"] for m in bench["per_layer" if trace else "end_to_end"]}


def main():
    # On SIGTERM, unwind through subprocess.run, which kills and reaps
    # the child it is waiting on.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")

    # The benchmark measures the repository's own library, built here
    # from source; a directory without it has nothing to measure.
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune"), "BENCHMARK.json"):
        if not os.path.exists(need):
            return fail(f"{need} not found; run from the repository root")
    rc = build()
    if rc:
        return rc

    if args.selftest:
        cmd = [EXE, "--selftest"]
    else:
        cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail(f"harness exceeded {RUN_TIMEOUT_S} s")
    lines = r.stdout.splitlines()
    if args.selftest or r.returncode != 0 or not lines:
        sys.stdout.write(r.stdout)
        return r.returncode or (0 if args.selftest else fail("no output"))

    try:
        result = json.loads(lines[-1])
        names = set(result["metrics"])
    except (ValueError, KeyError, TypeError) as e:
        return fail(f"unreadable result line: {e}")
    want = expected_names(args.trace == 1)
    if names != want:
        return fail(f"metrics differ from BENCHMARK.json: missing {sorted(want - names)}, "
                    f"extra {sorted(names - want)}")
    sys.stdout.write(r.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
