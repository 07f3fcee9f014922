#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload proxy-small --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --repeat 10 --seconds 30

Every argument is passed to the perfbench binary (see main.go). The Go
build cache, temporary files, the binary and the traced runs' span files
are kept under the build directory, $CARGO_TARGET_DIR or .bench_build in
the checkout, so the run writes nothing outside the checkout.
"""

import os
import subprocess
import sys

RUN_TIMEOUT_S = 175


def main():
    bench = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench)
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        XDG_CACHE_HOME=os.path.join(build, "cache"),
        GOTMPDIR=os.path.join(build, "tmp"),
        TMPDIR=os.path.join(build, "tmp"),
        GOTOOLCHAIN="local",
        GOFLAGS="",
        GOPROXY="off",
        GOWORK="off",
    )
    os.makedirs(env["TMPDIR"], exist_ok=True)
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(
        ["go", "build", "-o", binary, "."], cwd=bench, env=env,
        stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 2
    args = sys.argv[1:]
    if "--out" not in args and "-out" not in args:
        args += ["--out", os.path.join(build, "spans")]
    repeat = any(a.lstrip("-").split("=")[0] == "repeat" for a in args)
    timeout = None if repeat else RUN_TIMEOUT_S
    try:
        return subprocess.run([binary] + args, cwd=root, env=env, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        print("run.py: run exceeded %ds" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
