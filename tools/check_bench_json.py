#!/usr/bin/env python3
"""Golden-structure check for the bench_attack_throughput smoke JSON.

Runs the bench binary on a small smoke configuration and asserts the
report shape the rest of the tooling depends on:

  * every incremental entry carries the argmax work counters
    (exact_evals / bound_evals / pruned_gaps / cached_bounds /
    invalidated_gaps / fallback_rounds) plus the threading metadata
    (num_threads, hardware_concurrency);
  * prune on/off and cache on/off siblings of the same configuration
    agree on the attack outcome (ratio_loss) — neither pruning nor the
    tiered bound cache may ever change results;
  * the cache-on arm's bound/exact work stays within a bounded factor
    of the cache-off pre-pass even on dense configs, and the prune-off
    arm does no bound work at all;
  * tools/bench_compare.py can pair every incremental entry with its
    reference sibling and compute speedups (the CI regression gate).

With a second argument — the committed BENCH_attack_throughput.json —
it additionally asserts the committed-trajectory acceptance criteria:

  * every serial (threads = 1) incremental row of the smoke run that
    the committed report also holds reproduces its argmax counters
    (exact_evals, bound_evals, pruned_gaps, cached_bounds,
    invalidated_gaps, fallback_rounds) and its attack outcome exactly —
    the serial scan is deterministic, so any drift is a behaviour
    change of the argmax, not noise;
  * ISSUE 4: on the sparse n=100k insertion configs (uniform and
    log-normal, serial, pruned) the cache-on arm's bound_evals are
    >= 10x below the cache-off arm's;
  * ISSUE 5: the incremental GreedyDeleteCdf at n=100k is >= 10x faster
    (wall-clock) than the rebuild-per-round deletion reference, with
    outcome-identical prune/cache arms.

The update-stream configs (BM_GreedyDeleteCdf_*, BM_GreedyModifyCdf_*)
share the 6-arg (dataset, n, budget, threads, prune, cache) layout and
the full counter contract: the removal argmax's cache mode is the
block-chord tiered scan, whose cached/invalidated counters obey the
same disposition invariant as the insertion tier cache.

Registered as a ctest (bench_attack_json_golden) so the structure is
checked by the tier-1 suite, including the sanitizer matrix. Usage:

  tools/check_bench_json.py /path/to/bench_attack_throughput \
      [BENCH_attack_throughput.json]

Serving-scaling mode (PR 6) gates the committed multi-core scaling
curve instead (registered as the bench_serving_scaling_golden ctest):

  tools/check_bench_json.py --serving-scaling BENCH_serving_scaling.json

It asserts the read-throughput rows are sorted and monotone
non-degrading up to the recording box's core count with >= 0.7x ideal
speedup at the top in-core thread count, and that the insert arms prove
the "no insert pays a retrain" contract (async inline_compactions == 0
with compactions >= 1, sync inline, async worst insert latency below
sync's).

Serving-timeseries mode (PR 7) gates the telemetry sections of the
committed BENCH_serving_smoke.json (bench_serving_timeseries_golden):

  tools/check_bench_json.py --serving-timeseries BENCH_serving_smoke.json

It asserts the time_series rows are contiguous and monotone in time
with nonnegative counter deltas that sum exactly to the totals block
(the sampler's telescoping identity, for counters and histogram counts
alike), that the serving/driver/attack instrument families all moved,
and that the telemetry_overhead arms prove the read path is unchanged
(mean_work_ratio within 3% of 1.0) and the wall-clock cost is bounded
(throughput_ratio >= 0.8 vs the runtime-off arm).

Attack-10M mode (ISSUE 9) gates the committed n=10M scale rows
(bench_attack_10m_golden):

  tools/check_bench_json.py --attack-10m BENCH_attack_throughput.json

It asserts the 10M insertion/deletion rows exist with the full counter
set and that the block-local removal SoA's per-commit touched slots
grew <= 20x from the n=100k deletion row (sqrt(100) = 10x ideal for a
100x larger keyset; a flat-array regression shows ~100x).

Adversarial mode (PR 8) gates the committed BENCH_adversarial.json
(bench_adversarial_golden):

  tools/check_bench_json.py --adversarial BENCH_adversarial.json [--live]

Structural checks (always): the run raced >= 2 driver threads against
the attacker with async compaction only (sync_compaction false,
inline_compactions == 0), at least one victim retrain landed inside
the attack window and the adversary both observed retrains and
replanned; the poisoning-ROI rows are contiguous with a monotone
attacker_ops_cum that telescopes row by row, and the attacker-op
accounting agrees three ways — sum of per-row attacker_ops ==
adversary.inserts + deletes + modifies (the op partition) == the
adversary.* telemetry counter totals. Wall-clock checks (skipped with
--live, for fresh smoke runs on noisy CI boxes): attacked read p99 >=
clean read p99, attacked mean work/op >= clean, and the attack was
sustained (>= 2 ROI rows with attacker ops in them).

The degraded-mode arm (ISSUE 10, --fault-plan=SEED on the bench;
required in the committed artifact, checked when present on --live
smokes): with every rebuild fault-armed to fail, the backend must have
shed inserts at the overlay hard cap with the telescoping identity
exact (backend.shed_inserts == driver.inserts_shed + adversary.shed),
reads must have stayed fully available (read count matches the clean
arm's stream), and after the storm was disarmed every shard recovered
(degraded_shards_end == 0). Committed-only wall-clock floor: degraded
read throughput >= 0.25x the clean arm — availability priced, not
promised.
"""

import json
import os
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_compare  # noqa: E402  (sibling module, after path setup)

GREEDY_INCREMENTAL = "BM_GreedyPoisonCdf_Incremental"
DELETE_INCREMENTAL = "BM_GreedyDeleteCdf_Incremental"
DELETE_REFERENCE = "BM_GreedyDeleteCdf_Reference"
# Greedy-family incremental benches that must carry the full counter
# set (the RMI benches use their own outcome counter names).
COUNTER_BENCHES = (
    GREEDY_INCREMENTAL,
    DELETE_INCREMENTAL,
    "BM_GreedyModifyCdf_Incremental",
)
# Argmax work counters a serial incremental row must reproduce exactly.
PINNED_COUNTERS = (
    "exact_evals",
    "bound_evals",
    "pruned_gaps",
    "cached_bounds",
    "invalidated_gaps",
    "fallback_rounds",
)
REQUIRED_COUNTERS = PINNED_COUNTERS + (
    "num_threads",
    "hardware_concurrency",
    "poisons_per_sec",
    "ratio_loss",
)


def split_args(name):
    """'BM_X/1/100000/1000/1/1/0' -> ('BM_X', (1, 100000, 1000, 1, 1, 0))."""
    parts = name.split("/")
    return parts[0], tuple(int(p) for p in parts[1:])


def sibling(entries, name, arg_index, value):
    """The entry whose name matches `name` except args[arg_index] == value."""
    base, args = split_args(name)
    target = list(args)
    target[arg_index] = value
    for other in entries:
        other_base, other_args = split_args(other)
        if other_base == base and other_args == tuple(target):
            return other
    return None


def outcome(entry):
    """The attack-outcome counter: greedy and RMI configs name it
    differently."""
    return entry.get("ratio_loss", entry.get("rmi_ratio_loss"))


def check_entries(entries, require_pairs):
    """Outcome-identity and counter checks over incremental entries.

    Incremental args are (dataset, n, p_or_models, threads, prune, cache).
    Returns (prune_pairs, cache_pairs).
    """
    prune_pairs = cache_pairs = 0
    for name, entry in entries.items():
        base, args = split_args(name)
        if "_Incremental" not in base or len(args) != 6:
            continue
        prune, cache = args[4], args[5]
        if prune == 0:
            assert entry["bound_evals"] == 0, f"{name} (prune off) scored bounds"
            assert entry["cached_bounds"] == 0 and entry["invalidated_gaps"] == 0, (
                f"{name} (prune off) touched the tier cache counters"
            )
        if prune == 1:
            # A pruned arm that silently degenerates to the exhaustive
            # fallback every round would pass the outcome checks; it
            # must actually score bounds.
            assert entry["bound_evals"] > 0, (
                f"{name} (prune on) never scored a bound"
            )
        if prune == 1 and cache == 0:
            assert entry["cached_bounds"] == 0 and entry["invalidated_gaps"] == 0, (
                f"{name} (cache off) touched the tier cache counters"
            )
        if prune == 1 and cache == 1:
            assert entry["cached_bounds"] + entry["invalidated_gaps"] > 0, (
                f"{name} (cache on) never dispositioned a gap"
            )
        # Prune pair: same config, prune flipped (cache-off arms).
        if prune == 1 and cache == 0:
            off_name = sibling(entries, name, 4, 0)
            if off_name is not None:
                off = entries[off_name]
                prune_pairs += 1
                assert outcome(entry) == outcome(off), (
                    f"pruning changed the attack outcome: {name}"
                )
                assert entry["exact_evals"] <= off["exact_evals"], (
                    f"pruning increased exact evaluations: {name}"
                )
        # Cache pair: same pruned config, cache flipped.
        if prune == 1 and cache == 1:
            off_name = sibling(entries, name, 5, 0)
            if off_name is not None:
                off = entries[off_name]
                cache_pairs += 1
                assert outcome(entry) == outcome(off), (
                    f"the bound cache changed the attack outcome: {name}"
                )
                # Dense configs (few gaps, few skippable tiers) may pay
                # a bounded overhead; the >= 10x sparse win is asserted
                # on the committed baseline below.
                assert entry["bound_evals"] <= off["bound_evals"] * 2, (
                    f"the tiered cache blew up bound work: {name}"
                )
                assert entry["exact_evals"] <= off["exact_evals"] * 2, (
                    f"the tiered cache blew up exact evaluations: {name}"
                )
    if require_pairs:
        assert prune_pairs > 0, "no prune on/off sibling pair found"
        assert cache_pairs > 0, "no cache on/off sibling pair found"
    return prune_pairs, cache_pairs


def load_entries(path_or_report):
    if isinstance(path_or_report, str):
        with open(path_or_report) as f:
            report = json.load(f)
    else:
        report = path_or_report
    return {
        b["name"]: b
        for b in report.get("benchmarks", [])
        if b.get("run_type") != "aggregate"
    }


def check_pinned_counters(fresh, path):
    """Serial incremental rows of the fresh run match the committed ones.

    Rows are (dataset, n, budget, threads, prune, cache); only
    threads == 1 rows are compared, because a pooled scan's counters
    depend on the recording machine's core count.
    """
    committed = load_entries(path)
    pinned = 0
    for name, entry in fresh.items():
        base, args = split_args(name)
        if "_Incremental" not in base or len(args) != 6 or args[3] != 1:
            continue
        if name not in committed:
            continue
        want = committed[name]
        for counter in PINNED_COUNTERS:
            assert entry[counter] == want[counter], (
                f"{name}: {counter} {entry[counter]} differs from the "
                f"committed {want[counter]}"
            )
        assert outcome(entry) == outcome(want), (
            f"{name}: outcome {outcome(entry)} differs from the committed "
            f"{outcome(want)}"
        )
        pinned += 1
    assert pinned > 0, "no serial incremental row to pin against the baseline"
    print(f"pinned counters OK: {pinned} serial incremental rows match")


def check_committed_baseline(path):
    """Committed-trajectory acceptance gates (ISSUE 4 + ISSUE 5)."""
    entries = load_entries(path)
    sparse = [
        f"{GREEDY_INCREMENTAL}/{dataset}/100000/1000/1/1/1"
        for dataset in (1, 2)  # kUniform, kLogNormal
    ]
    checked = 0
    for name in sparse:
        assert name in entries, f"committed baseline lacks {name}"
        off_name = sibling(entries, name, 5, 0)
        assert off_name is not None, f"committed baseline lacks {name}'s cache-off arm"
        on, off = entries[name], entries[off_name]
        assert on["bound_evals"] * 10 <= off["bound_evals"], (
            f"committed baseline: cache-on bound_evals not >=10x below "
            f"cache-off for {name} ({on['bound_evals']} vs {off['bound_evals']})"
        )
        assert on["ratio_loss"] == off["ratio_loss"], (
            f"committed baseline: cache changed the outcome for {name}"
        )
        checked += 1

    # ISSUE 5: deletion on the incremental engine >= 10x the
    # rebuild-per-round reference wall-clock at n=100k, outcomes
    # identical across the prune/cache arms.
    deletion_gates = 0
    for dataset in (1, 2):  # kUniform, kLogNormal
        inc_name = f"{DELETE_INCREMENTAL}/{dataset}/100000/200/1/1/1"
        ref_name = f"{DELETE_REFERENCE}/{dataset}/100000/200"
        assert inc_name in entries, f"committed baseline lacks {inc_name}"
        assert ref_name in entries, f"committed baseline lacks {ref_name}"
        inc_time = float(entries[inc_name]["real_time"])
        ref_time = float(entries[ref_name]["real_time"])
        assert inc_time * 10 <= ref_time, (
            f"committed baseline: incremental deletion not >=10x faster "
            f"than the reference for dataset {dataset} "
            f"({inc_time:.3f} vs {ref_time:.3f})"
        )
        assert (
            entries[inc_name]["ratio_loss"] == entries[ref_name]["ratio_loss"]
        ), f"committed baseline: deletion outcome drifted for {inc_name}"
        deletion_gates += 1

    check_entries(entries, require_pairs=True)
    print(
        f"committed baseline OK: {checked} sparse cache pairs >= 10x, "
        f"{deletion_gates} deletion wall-clock gates >= 10x"
    )


def check_serving_scaling(path):
    """Gate for the committed BENCH_serving_scaling.json (PR 6)."""
    with open(path) as f:
        report = json.load(f)
    env = report["environment"]
    hw = int(env["hardware_concurrency"])
    assert hw >= 1, "scaling report lacks hardware_concurrency"

    rows = report["read_scaling"]
    assert rows, "scaling report has no read_scaling rows"
    threads = [int(r["threads"]) for r in rows]
    assert threads == sorted(set(threads)), (
        f"read_scaling rows must be sorted by distinct thread count: {threads}"
    )
    assert threads[0] == 1, "read_scaling must include the 1-thread baseline"
    for row in rows:
        assert float(row["reads_per_sec"]) > 0, (
            f"non-positive throughput at {row['threads']} threads"
        )
        assert int(row["read_latency_ns"]["count"]) > 0, (
            f"empty read latency histogram at {row['threads']} threads"
        )
    # Work totals are the machine-independent identity check: the same
    # read-only stream must do the same probes at every thread count.
    works = {int(r["total_work"]) for r in rows}
    assert len(works) == 1, f"read work drifted across thread counts: {works}"

    # Gate only the rows that fit the recording box: oversubscribed rows
    # (threads > hardware_concurrency) document the trend but time-slice
    # one core and cannot be held to scaling floors.
    in_core = [r for r in rows if int(r["threads"]) <= hw]
    assert in_core, "no read_scaling row fits the recording machine"
    for prev, cur in zip(in_core, in_core[1:]):
        prev_tput = float(prev["reads_per_sec"])
        cur_tput = float(cur["reads_per_sec"])
        assert cur_tput >= prev_tput * 0.9, (
            f"read throughput degraded from {prev['threads']} to "
            f"{cur['threads']} threads: {prev_tput:.0f} -> {cur_tput:.0f}"
        )
    base = float(in_core[0]["reads_per_sec"])
    top = in_core[-1]
    top_threads = int(top["threads"])
    speedup = float(top["reads_per_sec"]) / base
    assert speedup >= 0.7 * top_threads, (
        f"speedup at {top_threads} in-core threads is {speedup:.2f}x, "
        f"below the 0.7x-ideal floor ({0.7 * top_threads:.2f}x)"
    )

    arms = {a["mode"]: a for a in report["insert_arms"]}
    assert "async" in arms and "sync" in arms, (
        f"insert arms must cover async and sync: {sorted(arms)}"
    )
    for arm in arms.values():
        assert int(arm["inserts"]) > 0, f"{arm['mode']} arm ran no inserts"
        assert int(arm["insert_failures"]) == 0, (
            f"{arm['mode']} arm dropped inserts"
        )
        assert int(arm["compactions"]) >= 1, (
            f"{arm['mode']} arm never compacted — the insert mix is too light"
        )
    assert int(arms["async"]["inline_compactions"]) == 0, (
        "async arm charged a compaction to an inserting thread"
    )
    assert int(arms["sync"]["inline_compactions"]) >= 1, (
        "sync arm never compacted inline — escape hatch broken"
    )
    # Latency evidence: the async arm's *mean* insert must beat the
    # sync arm's retrain-amortized mean. The worst case is reported but
    # not gated — on an oversubscribed recorder (1 driver thread per
    # core plus the maintenance thread) a single preemption during a
    # background rebuild can land in one async insert, and that noise
    # would flake re-records; the deterministic inline_compactions == 0
    # counter above is the real "no insert pays a retrain" proof.
    async_max = int(arms["async"]["insert_latency_ns"]["max"])
    sync_max = int(arms["sync"]["insert_latency_ns"]["max"])
    assert async_max > 0 and sync_max > 0, "insert arm recorded no latency"
    async_mean = float(arms["async"]["insert_latency_ns"]["mean"])
    sync_mean = float(arms["sync"]["insert_latency_ns"]["mean"])
    assert 0 < async_mean < sync_mean, (
        f"async mean insert ({async_mean:.0f} ns) must beat the sync "
        f"arm's retrain-amortized mean ({sync_mean:.0f} ns)"
    )

    print(
        f"serving scaling OK: {len(rows)} thread counts "
        f"({len(in_core)} in-core on a {hw}-core recorder), "
        f"{speedup:.2f}x speedup at {top_threads} thread(s), async mean "
        f"insert {async_mean:.0f} ns vs sync {sync_mean:.0f} ns"
    )


def check_serving_timeseries(path):
    """Gate for the telemetry sections of BENCH_serving_smoke.json (PR 7)."""
    with open(path) as f:
        report = json.load(f)
    assert report.get("configs"), "serving report has no configs"

    ts = report.get("time_series")
    assert ts is not None, "serving report lacks the time_series section"
    rows = ts["rows"]
    assert rows, "time_series has no rows"

    counter_sums = {}
    hist_sums = {}
    prev_end = rows[0]["t_start_ns"]
    for i, row in enumerate(rows):
        assert row["t_start_ns"] == prev_end, (
            f"row {i} is not contiguous with its predecessor "
            f"({row['t_start_ns']} != {prev_end})"
        )
        assert row["t_end_ns"] >= row["t_start_ns"], (
            f"row {i} has a negative-duration interval"
        )
        prev_end = row["t_end_ns"]
        for name, delta in row["counters"].items():
            assert delta >= 0, f"row {i}: counter {name} went backwards"
            counter_sums[name] = counter_sums.get(name, 0) + delta
        for name, hist in row["histograms"].items():
            assert hist["count"] >= 0, f"row {i}: histogram {name} negative"
            hist_sums[name] = hist_sums.get(name, 0) + hist["count"]

    # The telescoping identity: per-interval deltas sum exactly to the
    # run totals, for counters and histogram counts alike.
    totals = ts["totals"]
    assert counter_sums == totals["counters"], (
        "interval counter deltas do not sum to totals: "
        f"{counter_sums} vs {totals['counters']}"
    )
    for name, count in totals["histogram_counts"].items():
        assert hist_sums.get(name, 0) == count, (
            f"interval histogram counts for {name} do not sum to the "
            f"total ({hist_sums.get(name, 0)} vs {count})"
        )

    # Every instrumented engine actually moved during the matrix run.
    for family in ("serving.", "driver.", "attack."):
        moved = sum(v for k, v in counter_sums.items() if k.startswith(family))
        assert moved > 0, f"no {family}* counter moved across the whole run"

    overhead = report.get("telemetry_overhead")
    assert overhead is not None, "serving report lacks telemetry_overhead"
    work_ratio = float(overhead["mean_work_ratio"])
    assert abs(work_ratio - 1.0) <= 0.03, (
        f"telemetry changed read-path work: mean_work_ratio {work_ratio}"
    )
    tput_ratio = float(overhead["throughput_ratio"])
    assert tput_ratio >= 0.8, (
        f"telemetry-enabled read throughput fell below the 0.8x budget "
        f"vs the runtime-off arm ({tput_ratio:.3f})"
    )

    print(
        f"serving time-series OK: {len(rows)} rows, "
        f"{len(counter_sums)} counters telescoping to totals, "
        f"work ratio {work_ratio:.4f}, throughput ratio {tput_ratio:.3f}"
    )


def check_adversarial(path, live):
    """Gate for the committed BENCH_adversarial.json (PR 8 + ISSUE 10).

    With live=True (a fresh smoke run on a CI box) only the structural
    and accounting identities are asserted; the wall-clock degradation
    floors are reserved for the committed artifact. The committed
    artifact must additionally carry the --fault-plan degraded arm,
    whose shed-telescoping / read-availability / full-recovery
    invariants are checked whenever the section is present.
    """
    with open(path) as f:
        report = json.load(f)
    env = report["environment"]
    assert int(env["num_threads"]) >= 2, (
        "the adversarial run must race >= 2 legitimate driver threads"
    )
    assert not env["sync_compaction"], (
        "the adversarial run must use async compaction (no escape hatch)"
    )

    attacked = report["attacked"]
    assert int(attacked["inline_compactions"]) == 0, (
        "attacked arm charged a compaction to a foreground thread"
    )
    assert int(attacked["compactions"]) >= 1, (
        "no victim retrain landed inside the attack window — the stream "
        "is too light to exercise the retrain-and-replan loop"
    )
    assert int(attacked["reads"]) > 0, "attacked arm served no reads"
    assert int(report["clean"]["reads"]) > 0, "clean arm served no reads"

    adv = report["adversary"]
    op_total = int(adv["inserts"]) + int(adv["deletes"]) + int(adv["modifies"])
    assert op_total > 0, "the adversary landed no operations"
    assert int(adv["replans"]) >= 1, (
        "the adversary never replanned — retrain awareness is broken"
    )
    assert int(adv["retrains_observed"]) >= 1, (
        "the adversary never observed a retrain at its poll points"
    )
    assert int(adv["live_poison_keys"]) > 0, "no poison keys survived"

    # Attacker-op accounting, identity 1: the adversary.* telemetry
    # counter totals must equal the result struct's op partition.
    totals = report["time_series"]["totals"]["counters"]
    for name, expect in (
        ("adversary.inserts", int(adv["inserts"])),
        ("adversary.deletes", int(adv["deletes"])),
        ("adversary.modifies", int(adv["modifies"])),
        ("adversary.rejected", int(adv["rejected"])),
        ("adversary.replans", int(adv["replans"])),
    ):
        assert totals.get(name, 0) == expect, (
            f"telemetry total {name}={totals.get(name, 0)} disagrees with "
            f"the adversary result ({expect})"
        )

    rows = report["roi"]["rows"]
    assert rows, "the report has no poisoning-ROI rows"
    prev_end = rows[0]["t_start_ns"]
    cum = 0
    row_ops = row_rejected = row_replans = row_compactions = 0
    for i, row in enumerate(rows):
        assert row["t_start_ns"] == prev_end, (
            f"ROI row {i} is not contiguous with its predecessor"
        )
        assert row["t_end_ns"] >= row["t_start_ns"], (
            f"ROI row {i} has a negative-duration interval"
        )
        prev_end = row["t_end_ns"]
        ops = int(row["attacker_ops"])
        assert ops >= 0, f"ROI row {i}: attacker_ops went backwards"
        cum += ops
        assert int(row["attacker_ops_cum"]) == cum, (
            f"ROI row {i}: attacker_ops_cum does not telescope "
            f"({row['attacker_ops_cum']} vs {cum})"
        )
        row_ops += ops
        row_rejected += int(row["attacker_rejected"])
        row_replans += int(row["replans"])
        row_compactions += int(row["compactions"])
        if int(row["reads"]) > 0:
            assert int(row["read_p99_ns"]) > 0, (
                f"ROI row {i} sampled reads but recorded no p99"
            )

    # Identity 2: per-row attacker ops sum to the op partition (which
    # identity 1 already tied to the telemetry totals).
    assert row_ops == op_total, (
        f"ROI rows account for {row_ops} attacker ops but the adversary "
        f"executed {op_total}"
    )
    assert row_rejected == int(adv["rejected"]), (
        "per-row rejected deltas do not telescope to the adversary total"
    )
    assert row_replans == int(adv["replans"]), (
        "per-row replan deltas do not telescope to the adversary total"
    )
    assert row_compactions == int(attacked["compactions"]), (
        f"per-row compaction deltas ({row_compactions}) do not telescope "
        f"to the attack-window total ({attacked['compactions']})"
    )

    # The degraded-mode arm (ISSUE 10): required on the committed
    # artifact, checked whenever present. Reads must never shed — the
    # degraded arm serves the exact same read stream as the clean arm —
    # and the shed ledger must telescope exactly across every caller.
    degraded = report.get("degraded")
    if not live:
        assert degraded is not None, (
            "committed report lacks the --fault-plan degraded arm"
        )
    if degraded is not None:
        assert int(degraded["reads"]) > 0, "degraded arm served no reads"
        assert int(degraded["reads"]) == int(report["clean"]["reads"]), (
            f"degraded arm served {degraded['reads']} reads vs the clean "
            f"arm's {report['clean']['reads']} — reads are never shed, so "
            "the full stream must have been answered"
        )
        backend = degraded["backend"]
        deg_adv = degraded["adversary"]
        shed_total = int(backend["shed_inserts"])
        assert shed_total > 0, (
            "degraded arm shed nothing — the fault plan never drove the "
            "overlay into its hard cap, so admission control went untested"
        )
        assert shed_total == (
            int(degraded["inserts_shed"]) + int(deg_adv["shed"])
        ), (
            f"shed ledger does not telescope: backend shed {shed_total} "
            f"but driver+adversary account for "
            f"{int(degraded['inserts_shed']) + int(deg_adv['shed'])}"
        )
        assert int(degraded["insert_failures"]) >= int(
            degraded["inserts_shed"]
        ), (
            "driver recorded fewer insert failures than sheds — a shed "
            "insert must surface as a failed op, not a silent success"
        )
        assert int(backend["degraded_shards_end"]) == 0, (
            f"{backend['degraded_shards_end']} shard(s) still degraded "
            "after the storm was disarmed and drained — recovery is broken"
        )
        if not live:
            assert int(backend["compaction_giveups"]) >= 1, (
                "committed degraded arm recorded no compaction give-ups — "
                "the fault plan never collapsed maintenance"
            )
            clean_tput = float(report["clean"]["throughput_ops_per_sec"])
            deg_tput = float(degraded["throughput_ops_per_sec"])
            assert deg_tput >= 0.25 * clean_tput, (
                f"committed degraded arm throughput ({deg_tput:.0f} ops/s) "
                f"fell below the 0.25x availability floor vs the clean arm "
                f"({clean_tput:.0f} ops/s)"
            )

    if not live:
        clean_p99 = int(report["roi"]["clean_read_p99_ns"])
        attacked_p99 = int(report["roi"]["attacked_read_p99_ns"])
        assert clean_p99 > 0, "committed run recorded no clean read p99"
        assert attacked_p99 >= clean_p99, (
            f"committed run: poisoned read p99 ({attacked_p99} ns) below "
            f"the clean baseline ({clean_p99} ns) — the attack did nothing"
        )
        assert float(report["roi"]["mean_work_ratio"]) >= 1.0, (
            "committed run: attacked mean work/op below the clean arm's"
        )
        active = sum(1 for r in rows if int(r["attacker_ops"]) > 0)
        assert active >= 2, (
            f"committed run: attack confined to {active} interval(s) — "
            "not a sustained stream racing live traffic"
        )

    mode = "live" if live else "committed"
    deg_note = (
        f", degraded arm: {degraded['backend']['shed_inserts']} sheds "
        f"telescoping, full recovery"
        if degraded is not None
        else ""
    )
    print(
        f"adversarial {mode} OK: {len(rows)} ROI rows, {op_total} attacker "
        f"ops telescoping (rows == result == telemetry), "
        f"{row_compactions} mid-attack retrains, {adv['replans']} replans, "
        f"p99 ratio {float(report['roi']['p99_ratio']):.2f}{deg_note}"
    )


def check_attack_10m(path):
    """Gate for the committed n=10M scale rows (ISSUE 9).

    Usage: tools/check_bench_json.py --attack-10m BENCH_attack_throughput.json

    Asserts the committed full-run JSON carries the n=10M insertion and
    deletion rows with the full argmax counter set, that the deletion
    rows surface the block-local removal-SoA commit accounting
    (rem_touched_slots / rem_commits), and that the per-commit touched
    slots grew sublinearly from n=100k to n=10M: the ideal O(sqrt(n))
    ratio is sqrt(100) = 10x for a 100x larger keyset, gated at <= 20x
    (2x slack for block-count rounding); a flat-array regression would
    show ~100x and fail loudly.
    """
    entries = load_entries(path)
    big_insert = f"{GREEDY_INCREMENTAL}/1/10000000/200/1/1/1"
    big_delete = f"{DELETE_INCREMENTAL}/1/10000000/200/1/1/1"
    small_delete = f"{DELETE_INCREMENTAL}/1/100000/200/1/1/1"
    for name in (big_insert, big_delete, small_delete):
        assert name in entries, f"committed baseline lacks the scale row {name}"
    for name in (big_insert, big_delete):
        entry = entries[name]
        for counter in REQUIRED_COUNTERS:
            assert counter in entry, f"{name} is missing counter {counter}"
        assert float(entry["ratio_loss"]) > 1.0, (
            f"{name}: the attack did not degrade the loss at n=10M"
        )
        assert float(entry["bound_evals"]) > 0, (
            f"{name}: the pruned argmax never scored a bound at n=10M"
        )

    def per_commit(name):
        entry = entries[name]
        for counter in ("rem_touched_slots", "rem_commits"):
            assert counter in entry, f"{name} is missing counter {counter}"
        commits = float(entry["rem_commits"])
        assert commits > 0, f"{name}: no removal commits recorded"
        return float(entry["rem_touched_slots"]) / commits

    small = per_commit(small_delete)
    big = per_commit(big_delete)
    assert small > 0, f"{small_delete}: zero per-commit touched slots"
    ratio = big / small
    assert ratio <= 20.0, (
        f"block-local removal commits are no longer O(sqrt(n)): per-commit "
        f"touched slots grew {ratio:.1f}x from n=100k ({small:.0f}) to "
        f"n=10M ({big:.0f}); the sqrt scaling bound is 10x (gated at 20x)"
    )
    print(
        f"attack 10M OK: scale rows present, per-commit touched slots "
        f"{small:.0f} @ 100k -> {big:.0f} @ 10M ({ratio:.1f}x, "
        f"sqrt bound 10x, gate 20x)"
    )


def main():
    if len(sys.argv) == 3 and sys.argv[1] == "--serving-scaling":
        check_serving_scaling(sys.argv[2])
        return 0
    if len(sys.argv) == 3 and sys.argv[1] == "--serving-timeseries":
        check_serving_timeseries(sys.argv[2])
        return 0
    if len(sys.argv) == 3 and sys.argv[1] == "--attack-10m":
        check_attack_10m(sys.argv[2])
        return 0
    if len(sys.argv) in (3, 4) and sys.argv[1] == "--adversarial":
        assert len(sys.argv) == 3 or sys.argv[3] == "--live", (
            f"unknown --adversarial option {sys.argv[3]}"
        )
        check_adversarial(sys.argv[2], live=len(sys.argv) == 4)
        return 0
    if len(sys.argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    bench = sys.argv[1]

    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "smoke.json")
        subprocess.run(
            [
                bench,
                # Dense n=10^4 configs only (insertion, deletion,
                # modification prune/cache arms + references, and the
                # RMI attack, whose per-model scans take the excluded-key
                # small-tier path): cheap enough for sanitizer builds.
                # The trailing slash anchors the arg — google-benchmark
                # filters are unanchored partial-match regexes, and a
                # bare /0/10000 would also match the ~2 s/iter n=100000
                # configs.
                "--benchmark_filter="
                "BM_Greedy(Poison|Delete|Modify)Cdf.*/0/10000/"
                "|BM_PoisonRmi_Incremental/0/10000/20/",
                "--benchmark_min_time=0.05",
                "--benchmark_out=" + out,
                "--benchmark_out_format=json",
            ],
            check=True,
        )
        with open(out) as f:
            report = json.load(f)

    entries = load_entries(report)
    assert entries, "smoke run produced no benchmark entries"
    assert "hardware_concurrency" in report.get("context", {}), (
        "context must record hardware_concurrency"
    )

    incremental = {
        k: v
        for k, v in entries.items()
        if any(bench in k for bench in COUNTER_BENCHES)
    }
    assert incremental, "no greedy-family incremental entries in the smoke run"
    for bench in COUNTER_BENCHES:
        assert any(bench in k for k in incremental), (
            f"no {bench} entries in the smoke run"
        )
    for name, entry in incremental.items():
        for counter in REQUIRED_COUNTERS:
            assert counter in entry, f"{name} is missing counter {counter}"

    prune_pairs, cache_pairs = check_entries(entries, require_pairs=True)

    # The CI regression gate must be able to pair and rate every
    # incremental entry despite the extra trailing args.
    times = {k: float(v["real_time"]) for k, v in entries.items()}
    speedups = bench_compare.speedups(times)
    missing = [k for k in incremental if k not in speedups]
    assert not missing, f"bench_compare cannot pair: {missing}"

    print(
        f"bench JSON golden OK: {len(incremental)} incremental entries, "
        f"{prune_pairs} prune pair(s), {cache_pairs} cache pair(s), "
        f"{len(speedups)} speedup(s)"
    )

    if len(sys.argv) == 3:
        check_pinned_counters(entries, sys.argv[2])
        check_committed_baseline(sys.argv[2])
    return 0


if __name__ == "__main__":
    sys.exit(main())
