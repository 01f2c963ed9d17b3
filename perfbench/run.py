#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage (from the repository root):
    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds `perfbench/` (its own Cargo workspace, path dependencies on
`crates/*`) in release mode, offline, into `$CARGO_TARGET_DIR` (default
`perfbench/target`), then runs the binary with the same arguments. The
binary's standard output, whose last line is the JSON result, is passed
through; build output goes to standard error. Exits non-zero, without a
result, when the build or the run fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    manifest = os.path.join(HERE, "Cargo.toml")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(os.path.abspath(target), "release", "perfbench")
    run = subprocess.run([binary] + sys.argv[1:])
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
