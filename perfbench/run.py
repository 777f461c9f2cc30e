#!/usr/bin/env python3
"""Build the uvmsim benchmark and run one workload.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from anywhere inside a checkout. It builds perfbench/ (which compiles
the library from src/) into .bench_build/perfbench at the repository root,
then runs the harness once and passes its output through: the last line of
stdout is the result JSON. When perfbench/goldens.json pins the result digest
for the workload and seed, the harness checks every simulation against it.

Exit code: the harness's (0 correct, 1 a simulation failed or mismatched,
2 refused); 1 when the build fails, without a result line.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
HARNESS = os.path.join(BUILD, "uvmbench")
WORKLOADS = ("random-oversub", "random-oversub-gpudriven", "sgemm-resident")
# A run never takes longer than this; a hang is killed, not waited out.
HARNESS_TIMEOUT_S = 170


def build():
    """Configures once, then builds incrementally. Output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "uvmbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def commit():
    """The checkout's commit, or "unknown" outside a git work tree."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12",
                              "HEAD"], capture_output=True, text=True,
                             check=True)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def golden(workload, seed):
    with open(os.path.join(HERE, "goldens.json")) as f:
        return json.load(f).get(workload, {}).get(str(seed))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=int, default=1,
                   help="divide both sizes by this (smoke runs; no golden)")
    a = p.parse_args()
    if a.seed < 0 or a.seconds < 0:
        p.error("--seed and --seconds must be non-negative")

    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 1

    cmd = [HARNESS, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--scale", str(a.scale), "--commit", commit()]
    expect = golden(a.workload, a.seed) if a.scale == 1 else None
    if expect is not None:
        cmd += ["--expect-digest", expect]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=HARNESS_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: harness exceeded {HARNESS_TIMEOUT_S} s",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
