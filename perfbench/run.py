#!/usr/bin/env python3
"""Build the CQoS benchmark from source if needed, then run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The build goes to the directory
named by CARGO_TARGET_DIR (relative to the checkout root), default
.bench_build; build output goes to standard error, so the last line of
standard output is the benchmark's JSON result. Exits non-zero without a
result when the CQoS sources are missing, the build fails or the workload
is unknown (the benchmark binary rejects it with exit code 2).
"""
import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170


def fail(msg, code):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "sim", "cluster.h")):
        fail(f"CQoS sources not found under {ROOT}/src", 2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", out, "-j", jobs],
    ]
    if os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps = steps[1:]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd), 3)
    return os.path.join(out, "cqos_perfbench")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    p.add_argument("--inject-servant-us", type=float, default=0.0,
                   help="busy-wait added to every servant dispatch "
                        "(used by steadiness.py to show the gate bites)")
    a = p.parse_args()

    out = build_dir()
    binary = build(out)
    cmd = [binary, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace)]
    if a.inject_servant_us > 0:
        cmd += ["--inject-servant-us", str(a.inject_servant_us)]
    if a.trace:
        traces = os.path.join(out, "traces")
        os.makedirs(traces, exist_ok=True)
        # One file per workload, overwritten by its next traced run.
        cmd += ["--trace-out", os.path.join(traces, f"{a.workload}.spans")]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 4)


if __name__ == "__main__":
    sys.exit(main())
