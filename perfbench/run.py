#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload zipf_ingest --seed 1 --seconds 20 --trace 0

Run from the repository root. The first run configures and builds the dwrs
library and the benchmark from source (Release) into $CARGO_TARGET_DIR, or
.bench_build when that is unset; later runs rebuild only what changed.
The benchmark's stdout is passed through; its last line is the JSON result.
Build output goes to stderr. Exits non-zero if the build or any output
check fails.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("zipf_ingest", "fanout_live", "durable_sessions")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def git_commit(root):
    if not (root / ".git").exists() or shutil.which("git") is None:
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def build(root, build_dir):
    steps = [["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(build_dir), "-j", "4", "--target",
              "perfbench"]]
    for cmd in steps:
        done = subprocess.run(cmd, cwd=root, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build(root, build_dir)
    out_dir = build_dir / "out"
    cmd = [str(build_dir / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--commit", git_commit(root),
           "--out-dir", str(out_dir)]
    sys.stdout.flush()
    try:
        done = subprocess.run(cmd, cwd=root, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # A round normally takes well under 3 s; a run this late is stuck
        # (README.md, "Finding: engine scheduler hang").
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
