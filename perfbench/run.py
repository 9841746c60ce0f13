#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fig5-cold --seed 42 --seconds 58 --trace 0

Builds perfbench/perfbench.exe in the release profile under .bench_build/,
runs it, and prints its result as the last line of stdout: one JSON object
with the keys correct, attempted, failed and metrics.  --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones (and writes a Chrome trace
to .perfbench/).  Exits non-zero, without a result, when the build or the
run fails; exits 1 after printing the result when an output was wrong.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

WORKLOADS = ("fig5-cold", "fig7-cold", "serve-sweep")
BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
# One run must end within 180 s; the build before the first run has its own.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def dune():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    return None


def build():
    if not os.path.isfile("dune-project"):
        log("no dune-project here: run from the root of a checkout")
        return False
    cmd = dune()
    if cmd is None:
        log("dune not found")
        return False
    # The shared build cache lives outside the checkout; keep it out.
    cmd += ["build", "--root", ".", "--build-dir", BUILD_DIR, "--cache=disabled",
            "--profile", "release", "./perfbench/perfbench.exe"]
    try:
        r = subprocess.run(cmd, stdin=subprocess.DEVNULL, stdout=sys.stderr,
                           stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("build timed out")
        return False
    return r.returncode == 0 and os.path.isfile(EXE)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=58)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true",
                    help="store this run's outputs in perfbench/reference.txt")
    args = ap.parse_args()

    t0 = time.monotonic()
    if not build():
        log("build failed")
        return 2
    log(f"build: {time.monotonic() - t0:.1f} s")

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", f"{args.seconds:g}", "--trace", str(args.trace)]
    if args.record_reference:
        cmd.append("--record-reference")
    try:
        p = subprocess.run(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                           stderr=sys.stderr, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 3
    lines = [l for l in p.stdout.splitlines() if l.strip()]
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        log(f"no result (exit code {p.returncode})")
        return 4
    # Earlier lines (the run's workload seed and exact-counter list) first;
    # the result is the last line.
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result), flush=True)
    if p.returncode != 0 or not result["correct"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
