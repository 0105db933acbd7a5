#!/usr/bin/env python3
"""Builds and runs the open-loop DS-SMR benchmark.

Usage (from the repository root):

    python3 openloop/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds openloop/ (which compiles the simulator from src/) in Release mode
under $CARGO_TARGET_DIR/openloop (default .bench_build/openloop), then runs
one benchmark process. The last line of standard output is the benchmark's
JSON result; build output goes to standard error. The exit status is the
benchmark's: 0 when every correctness check passed, non-zero otherwise (and
non-zero with no result when the build fails).
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("post-local", "timeline-hash", "post-scaleout")


def run_checked(cmd, env=None):
    """Runs `cmd` with its output on stderr; returns its exit status."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def build(build_dir):
    # Keep the compiler's temporary files inside the build tree too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        status = run_checked(["cmake", "-S", HERE, "-B", build_dir,
                              "-DCMAKE_BUILD_TYPE=Release"], env)
        if status != 0:
            return False
    jobs = str(min(os.cpu_count() or 1, 4))
    status = run_checked(["cmake", "--build", build_dir, "--target", "openloop_bench",
                          "-j", jobs], env)
    return status == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds in 1..600")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "openloop")
    if not build(build_dir):
        print("openloop: build failed", file=sys.stderr)
        return 3

    cmd = [os.path.join(build_dir, "openloop_bench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        cmd += ["--spans-out",
                os.path.join(build_dir, f"spans-{args.workload}-{args.seed}.json")]
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
