#!/usr/bin/env python3
"""Build and run the gobeagle benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The Go program in perfbench/ is built from source into .bench_build/ with the
Go build cache, module cache, temporary files and Go configuration kept under
that directory, so a run reads and writes only inside the checkout. Arguments
are passed through to the program; its output (human-readable lines, then one
JSON result line) goes to standard output. The exit status is the program's, or
non-zero when the build fails, in which case no result is printed.
"""
import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
TMP = os.path.join(BUILD, "tmp")

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def go_env():
    env = dict(os.environ)
    env.update({
        "GOTMPDIR": TMP,
        "TMPDIR": TMP,
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOMODCACHE": os.path.join(BUILD, "gomodcache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "-mod=readonly",
        "CGO_ENABLED": "0",
    })
    return env


def build():
    os.makedirs(TMP, exist_ok=True)
    try:
        proc = subprocess.run(
            ["go", "build", "-o", BINARY, "."],
            cwd=HERE, env=go_env(), stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        sys.stderr.write("perfbench: build failed: %s\n" % err)
        return False
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace"))
        sys.stderr.write("perfbench: build failed\n")
        return False
    return True


def main():
    if not build():
        return 1
    try:
        proc = subprocess.run([BINARY] + sys.argv[1:], env=go_env(), timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
