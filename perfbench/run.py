#!/usr/bin/env python3
"""Run one benchmark workload of the CODIC simulator.

    python3 perfbench/run.py --workload secdealloc_mix --seed 1 \
        --seconds 30 --trace 0

Builds perfbench/ (a CMake package over the repository's src/) in
Release mode under .bench_build/perfbench the first time, rebuilds it
when sources changed, then runs codic_perfbench. Build output goes to
stderr; the benchmark's report goes to stdout, whose last line is the
JSON result. See perfbench/README.md for workloads and metrics.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("secdealloc_mix", "puf_jaccard", "fleet_serve")


def build():
    """Configure once, then let the build tool decide what is stale."""
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", PACKAGE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not os.path.isfile(os.path.join(ROOT, "src", "secdealloc",
                                       "evaluate.h")):
        sys.exit("perfbench: the simulator sources (src/) are missing")
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit("perfbench: build failed: %s" % err)

    sys.stdout.flush()
    result = subprocess.run(
        [os.path.join(BUILD, "codic_perfbench"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        check=False)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
