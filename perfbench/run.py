#!/usr/bin/env python3
"""Build and run the host-measured trap benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload hot_loop|tool_fleet|paper_suite \
        --seed N --seconds S --trace 0|1

Builds perfbench/main.exe with dune (release profile, build directory
.bench_build, no shared cache) and runs it with the same arguments. Build
output goes to stderr; the last stdout line is the benchmark's JSON result.
"""

import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
RUN_TIMEOUT_S = 170


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.stderr.write("perfbench: run from the repository root (no dune-project or lib/ here)\n")
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = ["dune", "build", "--root", ".", "--profile", "release",
             "--build-dir", BUILD_DIR, "./perfbench/main.exe"]
    if subprocess.run(build, stdout=sys.stderr, env=env).returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return 1
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
    try:
        return subprocess.run([exe] + sys.argv[1:], timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1


if __name__ == "__main__":
    sys.exit(main())
