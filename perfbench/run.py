#!/usr/bin/env python3
"""Builds the benchmark program from this checkout's sources, then runs it.

    python3 perfbench/run.py --workload gen_mix --seed 7 --seconds 20 --trace 0

Run from the root of a checkout. The build goes to .bench_build/perfbench
(configured once, then an incremental build on every call); build output
goes to stderr so that the last line of stdout is the program's JSON
result. Every argument is handed to the program unchanged, plus the
directory the traced run writes its spans to. The exit code is the
program's, or 1 when the build fails.
"""
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
TRACES = os.path.join(BUILD_ROOT, "traces")
JOBS = "4"


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no ThermoSched sources (src/CMakeLists.txt) in "
              "this checkout", file=sys.stderr)
        return False
    tmp = os.path.join(BUILD_ROOT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    # Keep compiler scratch files and any compiler cache inside the checkout.
    env = dict(os.environ, TMPDIR=tmp, CCACHE_DISABLE="1")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                     BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", JOBS])
    for step in steps:
        if subprocess.run(step, cwd=ROOT, env=env, stdout=sys.stderr).returncode:
            print("perfbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return True


def main():
    if not build():
        return 1
    os.makedirs(TRACES, exist_ok=True)
    return subprocess.run([BINARY] + sys.argv[1:] + ["--trace-dir", TRACES],
                          cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
