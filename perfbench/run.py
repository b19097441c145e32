#!/usr/bin/env python3
"""Builds the repo benchmark and runs one workload.

    python3 perfbench/run.py --workload paper_city --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The benchmark is configured and built with
CMake from perfbench/CMakeLists.txt (against the library sources in src/)
into the build directory named by $CARGO_TARGET_DIR, or .bench_build when
it is unset; a warm build directory makes this step a no-op. Build output
goes to stderr, so the last line of stdout is the benchmark's JSON result.
The exit code is the benchmark's: non-zero when the build or any output
check fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(out):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", out, "--target", "perfbench", "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main():
    out = build_dir()
    if not build(out):
        return 1
    binary = os.path.join(out, "perfbench")
    scratch = os.path.join(out, "scratch")
    result = subprocess.run([binary] + sys.argv[1:] + ["--scratch", scratch])
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
