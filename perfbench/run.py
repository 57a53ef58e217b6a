#!/usr/bin/env python3
"""The repository benchmark: build perfbench from source, then run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: solve-large, coop-rounds, cluster-stream (see BENCHMARK.json for
why each one exists). The build uses CMake with the program's default build
type and lives in .bench_build/perfbench under the repository root; its output
goes to stderr, so the last line of standard output is the benchmark's JSON
result. Journals, replica files and the span file of a traced run go to
.bench_build/perfbench/work.

The exit status is the benchmark's: 0 only when the build succeeded and every
result the program returned passed its checks.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def step(cmd):
    """Runs one build command with its output on stderr; True on success."""
    try:
        return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode == 0
    except OSError as err:
        print(f"perfbench: cannot run {cmd[0]}: {err}", file=sys.stderr)
        return False


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        if not step(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD]):
            return False
    return step(["cmake", "--build", BUILD, "--target", "perfbench", "-j", "4"])


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [os.path.join(BUILD, "perfbench"), "--work-dir", os.path.join(BUILD, "work")]
    return subprocess.run(cmd + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
