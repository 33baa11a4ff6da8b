#!/usr/bin/env python3
"""Builds and runs the Musketeer wall-clock benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload suite|dag1000|http_mix \
        --seed N --seconds S --trace 0|1

The first call configures and builds perfbench/ (the repository's src/
libraries plus the benchmark binary, Release) into build-perfbench/ at the
repository root; later calls rebuild only what changed. Build output goes to
standard error. The benchmark's own output is relayed unchanged: its last
line is the JSON result. A traced run also writes its spans to
build-perfbench/spans-<workload>-seed<N>.json.

Exits non-zero, without a result line, when the build fails (for instance
when src/ is missing) or the benchmark does.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, "build-perfbench")
BINARY = os.path.join(BUILD_DIR, "musketeer_perfbench")


def build():
    """Configures (once) and builds the benchmark; returns True on success."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                     BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            # A half-configured tree would be taken as configured next time.
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    return subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                          stdout=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["suite", "dag1000", "http_mix"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--small", action="store_true",
                        help="tiny inputs (the benchmark's smoke checks)")
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="perturb every reference so results must fail")
    args = parser.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--spans-out", os.path.join(
            BUILD_DIR, "spans-%s-seed%d.json" % (args.workload, args.seed))]
    if args.small:
        command.append("--small")
    if args.corrupt_reference:
        command.append("--corrupt-reference")
    sys.stdout.flush()
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
