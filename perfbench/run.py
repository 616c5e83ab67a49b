#!/usr/bin/env python3
"""The repository benchmark: builds perfbench_runner and runs one workload.

    python3 perfbench/run.py --workload attack|serve-read|serve-write \
        [--seed 42] [--seconds 55] [--trace 0|1] [--scale full|tiny]

Run it from the root of a checkout. It builds the library sources in
src/ together with perfbench/runner.cc into .bench_build/perfbench (CMake,
Release), runs the workload, passes the runner's report through, and
prints as its last line one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer
metrics; the traced run also writes a Chrome trace into the build
directory and validates it with tools/check_trace_json.py.

Exit status: 0 when every output check passed, 1 when a check failed,
2 when the checkout cannot be built or run (no result is printed then).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUNNER = os.path.join(BUILD_DIR, "perfbench_runner")
TRACE_CHECKER = os.path.join(ROOT, "tools", "check_trace_json.py")
RUN_TIMEOUT_S = 170


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        die(f"no library sources: {os.path.join(ROOT, 'src')} is missing")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", BUILD_DIR,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD_DIR, "-j", jobs]]
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the report.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            die(f"build step failed ({proc.returncode}): {' '.join(cmd)}")


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def check_trace(path):
    """Runs tools/check_trace_json.py on the trace; returns (ok, message)."""
    if not os.path.isfile(TRACE_CHECKER):
        return False, f"{TRACE_CHECKER} not found"
    proc = subprocess.run([sys.executable, TRACE_CHECKER, path],
                          capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    msg = (proc.stdout + proc.stderr).strip().replace("\n", " | ")
    return proc.returncode == 0, msg


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["attack", "serve-read", "serve-write"])
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=55)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--scale", choices=["full", "tiny"], default="full")
    args = ap.parse_args()

    build()
    trace_out = os.path.join(
        BUILD_DIR, f"trace-{args.workload}-seed{args.seed}.json")
    cmd = [RUNNER, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--scale={args.scale}", f"--trace-out={trace_out}",
           f"--commit={git_commit()}"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"runner exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(proc.stdout)
        die(f"runner exited {proc.returncode} without a result line")
    for line in lines[:-1]:
        print(line)

    rc = proc.returncode
    if args.trace == 1:
        ok, msg = check_trace(trace_out)
        print(f"check {'ok' if ok else 'FAIL'} tools/check_trace_json.py "
              f"accepts {os.path.relpath(trace_out, ROOT)}: {msg}")
        if not ok:
            result["correct"] = False
            rc = rc or 1
    print(json.dumps(result))
    sys.stdout.flush()
    return rc


if __name__ == "__main__":
    sys.exit(main())
