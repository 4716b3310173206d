#!/usr/bin/env python3
"""End-to-end benchmark of the USTL consolidation service.

Builds the library and the benchmark program from source into
.bench_build/ at the repository root, then runs one workload:

    python3 perfbench/run.py --workload paper3_parallel --seed 7 \
        --seconds 50 --trace 0

The last line of standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
and writes the spans to .bench_build/traces/<workload>-seed<seed>.json.
See perfbench/README.md for the workloads and the metric definitions.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("paper3_serial", "paper3_parallel", "small_stream")
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "perfbench"
BINARY = BUILD_DIR / "ustl_perfbench"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally; output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as error:
            log(f"build step failed: {error}")
            return False
        if done.returncode != 0:
            log(f"build step failed ({done.returncode}): {' '.join(step)}")
            return False
    return BINARY.exists()


def git_commit():
    """HEAD of the repository this checkout is, or "unknown"."""
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2:
        return "unknown"
    if Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def source_sha256():
    """Hash of the library and benchmark sources, for checkouts without git."""
    digest = hashlib.sha256()
    for base in (ROOT / "src", BENCH_DIR):
        for path in sorted(base.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not (ROOT / "src").is_dir():
        log(f"no library sources at {ROOT / 'src'}; nothing to benchmark")
        return 1
    if not build():
        return 1

    command = [str(BINARY), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--work-dir", str(BUILD_ROOT / "work"),
               "--trace-dir", str(BUILD_ROOT / "traces"),
               "--commit", git_commit(),
               "--source-sha256", source_sha256()]
    try:
        done = subprocess.run(command, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"benchmark exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
