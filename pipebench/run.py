#!/usr/bin/env python3
"""Build and run the whole-pipeline benchmark.

Usage (from the root of a checkout):

    python3 pipebench/run.py --workload explore|fleet|grid --seed N \
        --seconds S --trace 0|1
    python3 pipebench/run.py --selftest

The script configures and builds the CMake project in this directory
(Release) under $CARGO_TARGET_DIR/pipebench, default .bench_build/pipebench,
then runs the pipebench binary with the given arguments. Snapshots the
benchmark writes go to $CARGO_TARGET_DIR/pipebench-work. The binary's
standard output is passed through; its last line is the result JSON. When
the build or the run fails, nothing is printed on standard output and the
exit code is non-zero.
"""

import argparse
import json
import os
import subprocess
import sys
import time

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message, code=1):
    print(f"pipebench: {message}", file=sys.stderr)
    sys.exit(code)


def build(package, build_dir, log_path, deadline):
    """Configure and build the pipebench target (incremental after the first run)."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", package, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "--target", "pipebench", "-j", jobs]]
    with open(log_path, "w") as log:
        for cmd in steps:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                fail("build timed out")
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=remaining).returncode
            except subprocess.TimeoutExpired:
                fail("build timed out")
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    tail = f.read()[-4000:]
                fail(f"build failed ({' '.join(cmd)}):\n{tail}")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=["explore", "fleet", "grid"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    start = time.monotonic()
    package = os.path.dirname(os.path.abspath(__file__))
    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(build_root, "pipebench")
    workdir = os.path.join(build_root, "pipebench-work")
    os.makedirs(build_dir, exist_ok=True)
    build(package, build_dir, os.path.join(build_root, "pipebench-build.log"),
          start + BUILD_TIMEOUT_S)

    binary = os.path.join(build_dir, "pipebench")
    if args.selftest:
        cmd = [binary, "--selftest", "--workdir", workdir]
    else:
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", workdir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(f"pipebench exited with code {proc.returncode}", proc.returncode)
    if not args.selftest:
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            sys.stderr.write(proc.stdout)
            fail("the last output line is not a JSON result")
        if set(result) != RESULT_KEYS:
            sys.stderr.write(proc.stdout)
            fail("the result line has unexpected keys")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
