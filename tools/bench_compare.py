#!/usr/bin/env python3
"""Compare two google-benchmark JSON files and fail on regressions.

Guards the attack-construction throughput trajectory
(BENCH_attack_throughput.json) PR-over-PR: a fresh run of
bench_attack_throughput is diffed against the committed baseline and the
script exits non-zero when the incremental engines regress by more than
the threshold.

Two metrics:

  speedup (default): for every *_Incremental benchmark, find its
    *_Reference sibling *within the same file* and compute
    speedup = reference_time / incremental_time. Speedups are
    machine-independent (both sides ran on the same box), so a fresh CI
    run is comparable to a baseline recorded on different hardware. A
    regression means the incremental engine lost ground against the
    rebuild-per-round reference.

  time: directly compare real_time per benchmark name. Only meaningful
    when both files come from the same machine class; used for local
    before/after checks.

A google-benchmark file recorded with --benchmark_repetitions carries a
"_median" aggregate per benchmark; those medians are compared, since a
single repetition of a short benchmark swings by more than the
threshold between runs. Benchmarks without aggregates are compared by
their single entry (the committed baseline records one chosen
repetition per benchmark).

Benchmarks present in only one file are reported but never fatal (the
suite grows over time). No benchmark present in both files is fatal: a
rename on one side would otherwise switch the gate off silently. Usage:

  tools/bench_compare.py BASELINE.json FRESH.json \
      [--threshold 0.20] [--metric speedup|time] [--filter REGEX]
"""

import argparse
import json
import re
import statistics
import sys


def load_benchmarks(path):
    """name -> metric for every entry of a benchmark or serving report.

    google-benchmark JSON ("benchmarks" array): real_time per benchmark,
    its "_median" aggregate's when the file has one, else its entry's
    (with repetitions but no aggregate, the median over them).

    bench_serving report ("configs" array): one entry per
    workload/backend/variant, valued at the *mean work per op* — the
    deterministic latency proxy (probes/comparisons). Work totals for
    insert-free mixes are bit-reproducible across machines and thread
    counts, so --metric time over serving reports gates real serving
    regressions without wall-clock noise (gate read-only mixes via
    --filter; insert-bearing mixes race on backend state).
    """
    with open(path) as f:
        data = json.load(f)
    out = {}
    if "configs" in data:
        for cfg in data["configs"]:
            name = f"{cfg['workload']}/{cfg['backend']}/{cfg['variant']}"
            # Sharded arms (PR 6) share workload/backend/variant names
            # with the single-backend runs; suffix the shard count so
            # they pair only with their own kind across files.
            if cfg.get("num_shards", 1) != 1:
                name += f"/s{cfg['num_shards']}"
            out[name] = float(cfg["work"]["mean"])
        return out
    medians = {}
    runs = {}
    for bench in data.get("benchmarks", []):
        name = bench.get("run_name", bench["name"])
        if bench.get("run_type") == "aggregate":
            if bench.get("aggregate_name") == "median":
                medians[name] = float(bench["real_time"])
            continue
        runs.setdefault(name, []).append(float(bench["real_time"]))
    for name, times in runs.items():
        out[name] = medians.get(name, statistics.median(times))
    return out


def reference_sibling(name, benchmarks):
    """Maps BM_X_Incremental/args to its BM_X_Reference entry.

    The incremental configs may carry trailing args the reference lacks
    (num_threads since PR 2, the argmax prune flag since PR 3); try the
    full arg list first, then drop trailing args one at a time until a
    reference entry matches.
    """
    if "_Incremental" not in name:
        return None
    parts = name.replace("_Incremental", "_Reference").split("/")
    while parts:
        candidate = "/".join(parts)
        if candidate in benchmarks:
            return candidate
        parts.pop()
    return None


def speedups(benchmarks):
    """name -> reference_time / incremental_time for paired entries."""
    out = {}
    for name, time in benchmarks.items():
        ref = reference_sibling(name, benchmarks)
        if ref is not None and time > 0:
            out[name] = benchmarks[ref] / time
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("fresh")
    parser.add_argument("--threshold", type=float, default=0.20,
                        help="fatal relative regression (0.20 = 20%%)")
    parser.add_argument("--metric", choices=("speedup", "time"),
                        default="speedup")
    parser.add_argument("--filter", default="Incremental",
                        help="regex; only matching benchmarks are gated")
    args = parser.parse_args()

    baseline = load_benchmarks(args.baseline)
    fresh = load_benchmarks(args.fresh)
    pattern = re.compile(args.filter)

    if args.metric == "speedup":
        base_metric, fresh_metric = speedups(baseline), speedups(fresh)
        better = "x vs reference"
    else:
        # For times, lower is better: invert so "ratio < 1 - threshold
        # means regression" holds for both metrics.
        base_metric = {k: 1.0 / v for k, v in baseline.items() if v > 0}
        fresh_metric = {k: 1.0 / v for k, v in fresh.items() if v > 0}
        better = " (1/ms)"

    shared = sorted(k for k in base_metric if k in fresh_metric
                    and pattern.search(k))
    skipped = sorted(k for k in set(base_metric) ^ set(fresh_metric)
                     if pattern.search(k))

    if not shared:
        print("bench_compare: no overlapping benchmarks match "
              f"'{args.filter}' — nothing to gate", file=sys.stderr)
        for name in skipped:
            print(f"  unpaired: {name}", file=sys.stderr)
        return 1

    failures = []
    for name in shared:
        base, new = base_metric[name], fresh_metric[name]
        ratio = new / base if base > 0 else float("inf")
        status = "ok"
        if ratio < 1.0 - args.threshold:
            status = "REGRESSION"
            failures.append(name)
        print(f"{status:>10}  {name}: {base:.3f} -> {new:.3f}{better} "
              f"({(ratio - 1.0) * 100.0:+.1f}%)")
    for name in skipped:
        print(f"{'unpaired':>10}  {name} (present in one file only)")

    if failures:
        print(f"\nbench_compare: {len(failures)} benchmark(s) regressed "
              f"more than {args.threshold:.0%}:", file=sys.stderr)
        for name in failures:
            print(f"  {name}", file=sys.stderr)
        return 1
    print(f"\nbench_compare: {len(shared)} benchmark(s) within "
          f"{args.threshold:.0%} of baseline")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # e.g. piped into `head`
        sys.exit(0)
