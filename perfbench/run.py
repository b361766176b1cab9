#!/usr/bin/env python3
"""Build the benchmark and swpfd from source, then run the benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper-direct --seed 1 --seconds 20 --trace 0

Every argument is passed on to the benchmark program (perfbench/main.go).
Build outputs, the Go build cache and the benchmark's scratch files all go
under $CARGO_TARGET_DIR (default .bench_build) in the repository, so a run
reads and writes nothing outside it.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    bindir = os.path.join(build, "bin")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        HOME=os.path.join(build, "home"),
        GOFLAGS="-mod=readonly",
        GOWORK="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        CGO_ENABLED="0",
    )
    os.makedirs(env["HOME"], exist_ok=True)
    targets = [("perfbench", "."), ("swpfd", "repro/cmd/swpfd")]
    for name, pkg in targets:
        out = os.path.join(bindir, name)
        proc = subprocess.run(["go", "build", "-o", out, pkg], cwd=HERE, env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(f"run.py: building {name} failed:\n{proc.stdout}")
            return 1
    argv = [os.path.join(bindir, "perfbench"), *sys.argv[1:],
            "--swpfd", os.path.join(bindir, "swpfd"),
            "--out", os.path.join(build, "perfbench"),
            "--digests", os.path.join(HERE, "digests.json")]
    os.chdir(ROOT)
    os.execve(argv[0], argv, env)
    return 1  # not reached


if __name__ == "__main__":
    sys.exit(main())
