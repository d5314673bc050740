#!/usr/bin/env python3
"""Build and run the round benchmark from the repository root.

    python3 perfbench/run.py --workload conv-tcp --seed 1 --seconds 20 --trace 0

The benchmark is its own dune project, perfbench/ocaml.  This script
links the repository's lib/ and bin/ into it and builds its main.exe and
the vuvuzela-server daemon from source with dune, rooted there, so the
repository's own build never compiles the benchmark.  Then it runs one
workload; every argument is passed to the benchmark, and its last line
of output is the JSON result.  Exits non-zero without a result when the
sources are missing or do not build.
"""

import os
import signal
import subprocess
import sys

ROOT = os.path.join("perfbench", "ocaml")
SOURCES = ["lib", "bin"]
BUILD_TARGETS = ["./main.exe", "./bin/server_main.exe"]
EXE = os.path.join(ROOT, "_build", "default", "main.exe")
RUN_TIMEOUT_S = 170


def link_sources():
    """Link lib/ and bin/ into the benchmark's dune root (once)."""
    for name in SOURCES:
        link = os.path.join(ROOT, name)
        if not os.path.islink(link):
            os.symlink(os.path.join("..", "..", name), link)


def main():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and all(os.path.isdir(d) for d in SOURCES)):
        print("perfbench: run from the repository root: lib/, bin/ or %s is missing" % ROOT,
              file=sys.stderr)
        return 2
    link_sources()
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(["dune", "build", "--root", ROOT] + BUILD_TARGETS,
                           stdout=sys.stderr, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    # The benchmark and the daemons it spawns share a new process group,
    # so a timeout takes all of them down.
    proc = subprocess.Popen([EXE] + sys.argv[1:], start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: timed out after %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return 3


if __name__ == "__main__":
    sys.exit(main())
