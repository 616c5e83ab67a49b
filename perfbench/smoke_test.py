#!/usr/bin/env python3
"""Tiny-scale smoke test of every workload run.py accepts.

    python3 perfbench/smoke_test.py

For each workload it runs perfbench/run.py --scale tiny, untraced and
traced, and asserts:

  * exit status 0, and the last line is one JSON object with exactly the
    keys correct, attempted, failed and metrics, with correct true,
    attempted >= 1 and failed == 0;
  * the metric names and units are exactly BENCHMARK.json's end_to_end
    list (untraced) or per_layer list (traced), in that order, and every
    value is finite; every end-to-end value is positive;
  * every "check" line reads ok; the traced run printed one overhead
    line per end-to-end metric and its trace passed
    tools/check_trace_json.py.

Last it copies BENCHMARK.json and perfbench/ alone into an empty
directory under .bench_build and asserts that the benchmark fails there
without printing a result.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(cwd, workload, trace, scale="tiny"):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--scale", scale]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def check_run(spec, workload, trace):
    proc = run(ROOT, workload, trace)
    where = f"{workload} trace={trace}"
    lines = proc.stdout.strip().splitlines()
    assert proc.returncode == 0, (
        f"{where}: exit {proc.returncode}\n{proc.stdout[-3000:]}"
        f"{proc.stderr[-3000:]}")
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], (
        f"{where}: result keys {sorted(result)}")
    assert result["correct"] is True, f"{where}: correct is false"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0, f"{where}: {result['failed']} ops failed"
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    got = [(k, v["unit"]) for k, v in result["metrics"].items()]
    assert got == [(m["name"], m["unit"]) for m in wanted], (
        f"{where}: metrics {got}")
    for name, m in result["metrics"].items():
        assert sorted(m) == ["unit", "value"], f"{where}: {name} keys {m}"
        assert math.isfinite(m["value"]), f"{where}: {name} = {m['value']}"
        if not trace:
            assert m["value"] > 0, f"{where}: {name} = {m['value']}"
    checks = [line for line in lines if line.startswith("check ")]
    assert checks, f"{where}: no output checks ran"
    failed = [line for line in checks if not line.startswith("check ok")]
    assert not failed, f"{where}: {failed}"
    if trace:
        overheads = [line.split()[1] for line in lines
                     if line.startswith("overhead ")]
        assert overheads == [m["name"] for m in spec["end_to_end"]], (
            f"{where}: overhead lines {overheads}")
        assert any("check_trace_json.py" in line for line in checks)
    print(f"smoke: {where}: {len(got)} metrics, {len(checks)} checks ok")


def check_bare_directory():
    bare = os.path.join(ROOT, ".bench_build", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, "attack", 0, scale="full")
    shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, "benchmark succeeded without src/"
    for line in proc.stdout.splitlines():
        assert not line.startswith("{"), f"printed a result: {line}"
    print(f"smoke: bare directory fails with exit {proc.returncode}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    # serve-write is runnable but not in BENCHMARK.json (see README.md).
    for workload in ("attack", "serve-read", "serve-write"):
        for trace in (0, 1):
            check_run(spec, workload, trace)
    check_bare_directory()
    print("smoke: ok")


if __name__ == "__main__":
    main()
