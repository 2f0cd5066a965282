#!/usr/bin/env python3
"""Build the perfbench binary from this checkout and run it.

Run from the repository root:

    python3 perfbench/run.py --workload paper-eval --seed 1 --seconds 20 --trace 0

Every argument is passed to the binary (see main.go). The Go build cache,
temporary files and the binary all live under .bench_build/ in the
checkout, so the benchmark reads and writes nothing outside it.
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.pop("OVERLAP_WORKERS", None)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOTMPDIR=os.path.join(build, "tmp"),
        GOPATH=os.path.join(build, "gopath"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOWORK="off",
        GOFLAGS="",
        GOPROXY="off",
        CGO_ENABLED="0",
    )
    for d in ("gocache", "tmp", "gopath", "config"):
        os.makedirs(os.path.join(build, d), exist_ok=True)
    binary = os.path.join(build, "perfbench")
    # The module replaces commoverlap with the checkout root; outside a
    # checkout this build fails, and so does the benchmark.
    built = subprocess.run(["go", "build", "-o", binary + ".new", "."],
                           cwd=here, env=env, stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    os.replace(binary + ".new", binary)
    return subprocess.run([binary] + sys.argv[1:], cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
