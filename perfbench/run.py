#!/usr/bin/env python3
"""Build the admission benchmark from source, then run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload churn --seed 1 --seconds 10 --trace 0

The first run configures and builds perfbench/ (and the ubac libraries it
links from src/) into .bench_build/ as a Release build; later runs only
rebuild what changed. Build output goes to stderr, so the benchmark's own
last stdout line stays its JSON result. Exits non-zero without a result
when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")


def build():
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        subprocess.run(
            ["cmake", "-G", "Unix Makefiles", "-S", HERE, "-B", BUILD,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "perfbench", "-j",
         str(max(1, min(4, os.cpu_count() or 1)))],
        check=True, stdout=sys.stderr, stderr=sys.stderr)


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    sys.stdout.flush()
    # The benchmark replaces this process, so no child outlives a kill.
    os.execv(BINARY, [BINARY] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
