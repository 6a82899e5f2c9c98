#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

usage: python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from anywhere; the repository root is the parent of this file's
directory. The build goes through dune with its shared cache disabled,
so nothing is written outside the repository. All build output goes to
standard error; standard output carries only the benchmark's report,
whose last line is the JSON result. See perfbench/README.md.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGET = "perfbench/bench.exe"
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")

# The first run of a checkout builds every library the benchmark links.
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 175


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def run(cmd, timeout, **kw):
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=timeout, **kw).returncode
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (os.path.basename(cmd[0]), timeout))


def main():
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("no %s under %s: not a checkout of the repository" % (needed, ROOT))
    dune = shutil.which("dune")
    if dune is None:
        fail("dune is not on PATH")
    env = dict(os.environ, DUNE_CACHE="disabled")
    if run([dune, "build", "--root", ROOT, TARGET], BUILD_TIMEOUT_S,
           env=env, stdout=sys.stderr) != 0:
        fail("build failed")
    sys.stdout.flush()
    sys.exit(run([EXE] + sys.argv[1:], RUN_TIMEOUT_S))


if __name__ == "__main__":
    main()
