#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark for uncertain-stream queries.

    python3 ucbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 ucbench/run.py --selftest      # the benchmark's own helper tests

Run from the repository root. The program is built from source first: the
repository's CMakeLists.txt builds the `usp` library into
.bench_build/usp (Release), then ucbench/CMakeLists.txt builds the
benchmark against it into .bench_build/ucbench. Build output goes to
stderr, so the last line of stdout is the benchmark's JSON result. The
library is always configured with its defaults (USP_FORCE_SCALAR=OFF); run
with USP_SIMD=scalar in the environment to measure the scalar kernel tier.

Exits non-zero, without a result line, when the program cannot be built
(for instance in a directory that holds only the benchmark).
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 175


def run_quiet(cmd):
    """Runs a build step with its output on stderr; True on success."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def build(targets):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        print("ucbench: no program source next to the benchmark "
              "(expected CMakeLists.txt and src/ at %s)" % ROOT, file=sys.stderr)
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    usp_build = os.path.join(BUILD, "usp")
    bench_build = os.path.join(BUILD, "ucbench")
    steps = [
        ["cmake", "-S", ROOT, "-B", usp_build, "-DCMAKE_BUILD_TYPE=Release",
         "-DUSP_FORCE_SCALAR=OFF"],
        ["cmake", "--build", usp_build, "--target", "usp", "-j", jobs],
        ["cmake", "-S", HERE, "-B", bench_build, "-DCMAKE_BUILD_TYPE=Release",
         "-DUSP_BUILD_DIR=" + usp_build],
        ["cmake", "--build", bench_build, "-j", jobs, "--target"] + targets,
    ]
    for step in steps:
        if not run_quiet(step):
            print("ucbench: build step failed: %s" % " ".join(step), file=sys.stderr)
            return False
    return True


def main(argv):
    selftest = "--selftest" in argv
    if not build(["ucbench_tests"] if selftest else ["ucbench"]):
        return 3
    binary = os.path.join(BUILD, "ucbench",
                          "ucbench_tests" if selftest else "ucbench")
    cmd = [binary] if selftest else [binary] + argv + [
        "--out-dir", os.path.join(ROOT, ".bench_out")]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("ucbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
