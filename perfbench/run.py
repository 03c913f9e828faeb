#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build) under
perfbench/; later runs reuse it. Every argument is handed to the
odtn_perfbench binary, which validates it strictly (exit 2 on bad input)
and prints the result JSON as the last line of standard output. Traced
runs (--trace 1) also write their span log next to the build.
"""

import os
import subprocess
import sys


def build(build_dir: str) -> str:
    source = os.path.dirname(os.path.abspath(__file__))
    binary = os.path.join(build_dir, "perfbench", "odtn_perfbench")
    cache = os.path.join(build_dir, "perfbench", "CMakeCache.txt")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Build output goes to stderr: stdout carries only the benchmark result.
    if not os.path.exists(cache):
        subprocess.run(
            ["cmake", "-S", source, "-B", os.path.dirname(binary)],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", os.path.dirname(binary), "--target",
         "odtn_perfbench", "-j", jobs],
        stdout=sys.stderr, check=True)
    return binary


def main() -> int:
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    # Traced runs write their span log here unless the caller names a file.
    spans = os.path.join(build_dir, "perfbench", "spans.csv")
    return subprocess.run([binary, "--spans-out", spans] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
