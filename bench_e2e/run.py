#!/usr/bin/env python3
"""Builds bench_e2e from this checkout's sources, then runs one workload.

    python3 bench_e2e/run.py --workload archive --seed 1 --seconds 20 --trace 0

Run from the root of the checkout. The build tree is $CARGO_TARGET_DIR when
set, else .bench_build; the first run configures and builds it (about a
minute on four cores), later runs only rebuild what changed. With --trace 1
the span tree is written to <build tree>/traces/<workload>-seed<N>.json.
--workload all runs the four workloads one after another, each in its own
process. The last line of standard output is the workload's JSON result;
build output goes to standard error. Exits non-zero, without a result, when
the build fails (for example when the checkout has no src/).
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ["broadcast", "archive", "live", "features"]
HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    """Configures (once) and builds the benchmark; True on success."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir])
    steps.append(["cmake", "--build", build_dir, "--target", "bench_e2e",
                  "-j", "4"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    if not build(build_dir):
        print("bench_e2e: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(build_dir, "bench_e2e")
    status = 0
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        command = [binary, "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", args.trace]
        if args.trace == "1":
            traces = os.path.join(build_dir, "traces")
            os.makedirs(traces, exist_ok=True)
            command += ["--trace-out", os.path.join(
                traces, "%s-seed%d.json" % (workload, args.seed))]
        sys.stdout.flush()
        status = subprocess.run(command).returncode or status
    return status


if __name__ == "__main__":
    sys.exit(main())
