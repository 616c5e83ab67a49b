#!/usr/bin/env python3
"""Steadiness check and paired comparison for the repository benchmark.

Runs one workload k times, each run with its own seed, and prints for
every metric its median, first and third quartile, and spread (the
distance between the quartiles as a share of the median, from
statistics.quantiles(values, n=4)). A metric whose spread exceeds its
bound in BENCHMARK.json is flagged OVER; one above a third of its bound
is flagged wide.

    python3 perfbench/steady.py --workload serve-read --runs 10
    python3 perfbench/steady.py --workload attack --runs 10 \
        --checkout ../parent --checkout .

With two --checkout directories the runs are paired: each seed runs on
both checkouts, alternating which goes first, and the report adds, per
metric, the second checkout's median against the first's, how many
pairs the second won, and a verdict: "gain" when it won at least nine
tenths of the pairs and the medians differ by more than the first
checkout's quartile distance, "worse" when its median is worse than the
first's by more than the bound, otherwise "same/unresolved".
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_spec(checkout):
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def run_once(checkout, workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
        raise SystemExit(f"run failed in {checkout} (seed {seed}, "
                         f"exit {proc.returncode})")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"output checks failed in {checkout} (seed {seed})")
    return {k: v["value"] for k, v in result["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1,
                    help="run i uses seed seed0 + i")
    ap.add_argument("--seconds", type=float, default=None,
                    help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--checkout", action="append", default=None,
                    help="checkout root to run in (repeat for a pair)")
    ap.add_argument("--out", help="write every run's metrics here as JSON")
    args = ap.parse_args()

    checkouts = [os.path.abspath(c) for c in
                 (args.checkout or [os.path.dirname(HERE)])]
    if len(checkouts) > 2:
        raise SystemExit("at most two checkouts")
    spec = load_spec(checkouts[0])
    with open(os.path.join(checkouts[0], "BENCHMARK.json")) as f:
        seconds = args.seconds or json.load(f)["run_seconds"]

    runs = {c: [] for c in checkouts}
    for i in range(args.runs):
        seed = args.seed0 + i
        order = checkouts if i % 2 == 0 else checkouts[::-1]
        for c in order:
            runs[c].append(run_once(c, args.workload, seed, seconds,
                                    args.trace))
        print(f"run {i + 1}/{args.runs} seed {seed} done", file=sys.stderr)

    if args.out:
        with open(args.out, "w") as f:
            json.dump({c: runs[c] for c in checkouts}, f, indent=1)

    for c in checkouts:
        print(f"== {args.workload} in {c}: {args.runs} runs")
        print(f"{'metric':40s} {'median':>14s} {'q1':>14s} {'q3':>14s} "
              f"{'spread':>8s} {'bound':>6s}")
        for name in runs[c][0]:
            values = [r[name] for r in runs[c]]
            q1, med, q3 = quartiles(values)
            s = spread(values)
            bound = spec.get(name, {}).get("bound")
            flag = ""
            if bound is not None and s > bound:
                flag = "OVER"
            elif bound is not None and s > bound / 3:
                flag = "wide"
            print(f"{name:40s} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{s:8.4f} {bound if bound is not None else '-':>6} {flag}")

    if len(checkouts) == 2:
        base, change = checkouts
        print(f"== paired: {change} against {base}")
        for name in runs[base][0]:
            m = spec.get(name, {})
            lower = m.get("better", "lower") == "lower"
            b = [r[name] for r in runs[base]]
            x = [r[name] for r in runs[change]]
            wins = sum(1 for bv, xv in zip(b, x)
                       if (xv < bv if lower else xv > bv))
            bq1, bmed, bq3 = quartiles(b)
            xmed = statistics.median(x)
            ratio = xmed / bmed if bmed else float("inf")
            worse = (ratio - 1) if lower else (1 - ratio)
            verdict = "same/unresolved"
            if wins >= 0.9 * len(b) and abs(xmed - bmed) > (bq3 - bq1):
                verdict = "gain"
            if m.get("bound") is not None and worse > m["bound"]:
                verdict = "worse"
            print(f"{name:40s} {bmed:14.6g} -> {xmed:14.6g} "
                  f"x{ratio:7.4f} wins {wins}/{len(b)} {verdict}")


if __name__ == "__main__":
    main()
