#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <screen|calibrate|serve|fleet> \
        --seed <n> --seconds <s> --trace <0|1>

The first call configures and compiles the library from src/ together
with the benchmark program (CMake, Release) into .bench_build/perfbench;
later calls only rebuild what changed. Build output goes to standard
error, so the last line of standard output is the program's JSON result.
The exit code is the program's: 0 when every correctness check passed,
1 when one failed, 2 on a usage, build or set-up error.
"""

import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "advh_perfbench")
RUN_TIMEOUT_S = 175


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    for needed in ("src", "advh_models"):
        if not os.path.isdir(os.path.join(ROOT, needed)):
            fail("no %s/ next to perfbench/; run from a full checkout" % needed)
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr)
        except OSError as e:
            fail("cannot run %s: %s" % (cmd[0], e))
        if done.returncode != 0:
            fail("build step failed: " + " ".join(cmd))


def main():
    build()
    sys.stdout.flush()
    child = subprocess.Popen([BINARY] + sys.argv[1:], cwd=ROOT)
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 2
    finally:
        if child.poll() is None:
            child.send_signal(signal.SIGKILL)
            child.wait()


if __name__ == "__main__":
    sys.exit(main())
