#!/usr/bin/env python3
"""Build the repository benchmark from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 10 --trace 0

The Go build cache, module cache and binary live under .bench_build/ in the
current directory, so nothing outside it is written. Every argument is
passed to the benchmark binary; its exit code is this script's exit code.
"""
import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench", "perfbench")


def build_env():
    env = dict(os.environ)
    env.pop("GOFLAGS", None)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOMODCACHE": os.path.join(BUILD, "gopath", "pkg", "mod"),
        # The go command's telemetry counters live under the config dir.
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOTOOLCHAIN": "local",
        "CGO_ENABLED": "0",
    })
    return env


def main():
    os.makedirs(os.path.dirname(BINARY), exist_ok=True)
    built = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=build_env(),
                           stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    return subprocess.run([BINARY] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
