#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload stream|colocated|replay \\
        [--seed N] [--seconds S] [--trace 0|1] [--size full|small]

Run it from the repository root. It builds perfbench/ (the benchmark
plus the simulator sources from src/) in Release mode into the
directory named by $CARGO_TARGET_DIR, or .bench_build when that is
unset, then runs the benchmark binary with the given arguments. The
binary's last line of standard output is the result JSON; build output
goes to standard error. Exits non-zero, printing no result, when the
build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    """Configure (once) and build the benchmark; exit on failure."""
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "hoppbench"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    if not os.path.isfile(os.path.join(HERE, "..", "src", "runner",
                                       "machine.hh")):
        sys.exit("perfbench: the simulator sources (src/) are missing")
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or ".bench_build")
    build(build_dir)
    scratch = os.path.join(build_dir, "scratch")
    os.makedirs(scratch, exist_ok=True)
    binary = os.path.join(build_dir, "hoppbench")
    proc = subprocess.run([binary] + sys.argv[1:] + ["--scratch", scratch])
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
