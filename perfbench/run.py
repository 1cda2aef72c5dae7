#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload banking-hot --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --test        # build and run the ledger tests

Run from the root of a source tree. The first call configures and builds the
benchmark package (perfbench/CMakeLists.txt, which pulls in the engine tree)
in $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable
is unset; later calls rebuild incrementally. The last line of standard output
is the run's JSON result; build output and progress go to standard error.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("banking-hot", "tpcc-mix")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(targets):
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            # Leave no half-configured tree behind for the next call.
            cache = os.path.join(out, "CMakeCache.txt")
            if os.path.exists(cache):
                os.remove(cache)
            return None
    cmd = ["cmake", "--build", out, "-j", jobs, "--target"] + targets
    if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
        return None
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--threads", type=int, default=0,
                    help="worker threads (default: one per core but one, "
                         "at most 3)")
    ap.add_argument("--test", action="store_true",
                    help="build and run the ledger tests instead")
    args = ap.parse_args()

    if args.test:
        out = build(["perfbench_ledger_test"])
        if out is None:
            return 1
        return subprocess.call([os.path.join(out, "perfbench_ledger_test")])
    if args.workload is None:
        ap.error("--workload is required")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    out = build(["perfbench"])
    if out is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    run_dir = os.path.join(out, "runs")
    os.makedirs(run_dir, exist_ok=True)
    cmd = [
        os.path.join(out, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out-dir", run_dir,
        "--threads", str(args.threads),
    ]
    return subprocess.call(cmd)


if __name__ == "__main__":
    sys.exit(main())
