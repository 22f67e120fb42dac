#!/usr/bin/env python3
"""Build the benchmark and the server from this checkout, then run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The build goes to .bench_build (release
profile, with dune's shared cache off so that nothing is written outside
the checkout); its output goes to stderr so that stdout carries only the
benchmark's result lines. See perfbench/README.md.
"""
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGETS = ["bin/serve.exe", "perfbench/nsbench.exe"]


def main():
    if not (os.path.isfile("dune-project") and os.path.isfile("bin/serve.ml")):
        sys.stderr.write("run.py: run from the root of a neuroselect checkout\n")
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "release",
         "--build-dir", BUILD_DIR] + TARGETS,
        stdout=sys.stderr, stderr=sys.stderr,
        env=dict(os.environ, DUNE_CACHE="disabled"))
    if build.returncode != 0:
        sys.stderr.write("run.py: build failed\n")
        return 2
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "nsbench.exe")
    server = os.path.join(BUILD_DIR, "default", "bin", "serve.exe")
    args = [exe, "--server", server] + sys.argv[1:]
    sys.stdout.flush()
    os.execv(exe, args)


if __name__ == "__main__":
    sys.exit(main())
