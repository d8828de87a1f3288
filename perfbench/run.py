#!/usr/bin/env python3
"""Build the GNN-DSE end-to-end benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload dse-sweep --seed 1 --seconds 10 --trace 0

The benchmark is a Rust package of its own (perfbench/Cargo.toml) that
depends on the repository's crates by path. This script builds it in release
mode (into $CARGO_TARGET_DIR, or .bench_build when unset) and then runs the
binary with the same arguments. Build output goes to stderr; the benchmark's
standard output, whose last line is the JSON result, passes through
unchanged. Any build failure exits non-zero without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "gdse-perfbench")
    # Scratch files (the served model artifact) live next to the build
    # output, inside the checkout.
    work = os.path.join(target, "perfbench-work")
    args = [binary, "--work-dir", work] + sys.argv[1:]
    return subprocess.run(args, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
