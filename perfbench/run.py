#!/usr/bin/env python3
"""Builds and runs the slpspan benchmark (perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload serve --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --self-test          # the oracle's own tests

The first call configures and builds perfbench/ (which builds the library
from the repository's sources) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; later calls rebuild incrementally. Build output goes
to stderr, so the last line of stdout is the benchmark's JSON result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        sys.exit("perfbench: no library sources next to perfbench/; run from a checkout")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", out, "-j", jobs, "--target", target],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, target)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=["serve", "corpus", "restart"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--saturate", type=float, default=0,
                    help="only measure the closed-loop saturation rate of the "
                         "workload's wire mix for this many seconds")
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the oracle's tests")
    args = ap.parse_args()

    try:
        if args.self_test:
            sys.exit(subprocess.run([build("perfbench_oracle_test")]).returncode)
        if not args.workload:
            ap.error("--workload is required")
        binary = build("perfbench")
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit(f"perfbench: build failed: {e}")

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.saturate > 0:
        cmd += ["--saturate", str(args.saturate)]
    # A run measures about --seconds plus a few seconds of set-up.
    timeout_s = 2 * max(args.seconds, args.saturate) + 60
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=timeout_s)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {timeout_s:.0f} s")
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
