#!/usr/bin/env python3
r"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload plan_exact --seed 1 --seconds 30 \
        --trace 0

Run it from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build), relative to the checkout root; the first run
configures and builds it (about a minute on 4 cores), later runs only
re-check it. Build output goes to standard error, so the last line of
standard output is the workload's JSON result. The exit code is the
workload's: 0 only when every output checked out.
"""

import argparse
import fcntl
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("plan_exact", "popsim_fleet", "serve_adaptive")
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 175


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return path if path.is_absolute() else ROOT / path


def cached_source_dir(build):
    cache = build / "CMakeCache.txt"
    if not cache.is_file():
        return None
    for line in cache.read_text(errors="replace").splitlines():
        if line.startswith("CMAKE_HOME_DIRECTORY:"):
            return line.split("=", 1)[1]
    return None


def run_step(cmd, timeout):
    """Runs a build step with its output on stderr; True when it succeeded."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout).returncode == 0
    except subprocess.TimeoutExpired:
        print(f"run.py: timed out: {' '.join(cmd)}", file=sys.stderr)
        return False


def build(build):
    """Configures (once) and builds the perfbench binary; its path or None."""
    cached = cached_source_dir(build)
    if cached is not None and Path(cached).resolve() != HERE:
        # A build tree configured for another checkout location.
        (build / "CMakeCache.txt").unlink()
    if cached_source_dir(build) is None:
        if not run_step(["cmake", "-S", str(HERE), "-B", str(build),
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                        BUILD_TIMEOUT_S):
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if not run_step(["cmake", "--build", str(build), "--target", "perfbench",
                     "-j", jobs], BUILD_TIMEOUT_S):
        return None
    return build / "perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds in 1..600")

    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        print(f"run.py: no library sources under {ROOT}; nothing to build",
              file=sys.stderr)
        return 2

    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    # Concurrent runs in one checkout share the build tree: build under a lock.
    with open(out / "perfbench.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        binary = build(out)
    if binary is None:
        print("run.py: build failed", file=sys.stderr)
        return 3

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(out)]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: {args.workload} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
