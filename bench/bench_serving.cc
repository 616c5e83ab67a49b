// End-to-end serving benchmark: what does a poisoned RMI cost a
// query-serving process? Runs every workload mix (read-only uniform,
// zipfian read-heavy, range scan, read/insert mix) against every backend
// (RMI, B+Tree, binary search) in clean and poisoned variants, and emits
// one JSON report with per-config p50/p95/p99 latency, throughput, and
// the exact work model — plus poisoned/clean comparison rows.
//
// The poisoned variant serves K ∪ P where P comes from PoisonRmi
// (Algorithm 2) at --poison-pct. The B+Tree and binary-search backends
// also serve the poisoned keyset: they are the controls whose cost is
// insensitive to the injected keys, isolating the learned index's
// vulnerability in the same report.
//
// Flags:
//   --keys=100000      legitimate keys n
//   --ops=200000       operations per configuration
//   --threads=0        driver shards (0 = hardware_concurrency)
//   --poison-pct=10    poisoning percentage φ·100
//   --model-size=500   keys per second-stage model
//   --seed=42
//   --out=serving_report.json
//   --sample-every=1   record latency for every k-th op (batched timing;
//                      work accounting is unaffected)
//   --compact-threshold=0  overlay size that triggers an overlay-into-
//                      base merge + substrate retrain (0 = never; the
//                      delta-merge knob for insert-heavy runs)
//   --num-shards=1     key-range serving shards (matrix mode; the
//                      sharded smoke arms below always run at 4)
//   --read-group=1     batched read dispatch width (LookupBatch +
//                      prefetch); 1 = scalar dispatch
//   --sync-compaction  run compactions inline on inserting threads
//                      (escape hatch; default is the maintenance thread)
//   --smoke            capped CI configuration (small n/ops, 2 threads)
//   --telemetry-interval-ms=0  background sampling period for the
//                      report's time_series section; 0 keeps the
//                      sampler boundary-driven (one forced interval
//                      after poisoning and after every config), which
//                      is the deterministic row count CI gates
//   --trace-out=PATH   write a Chrome trace_event JSON (chrome://tracing
//                      / ui.perfetto.dev) of the run's spans: compaction
//                      causes, driver runs, attack rounds. Empty = off.
//
// Adversarial mode: --adversarial switches to the adversary-in-the-loop
// study (the §V threat model end to end). Two arms on the same sharded
// async-compaction RMI backend and the same zipfian read-heavy driver
// stream: a clean baseline, then a run where the online adversary
// (workload/adversary.h) constructs its insert/delete/modify stream
// with the incremental loss landscapes and replays it through the live
// write path on a dedicated thread — racing the driver, overlay
// growth, compactions, and retrains, and replanning whenever it
// observes a retrain. The report (--out, default BENCH_adversarial.json)
// carries per-interval poisoning-ROI rows (p99 degradation per attacker
// op over the telemetry time series) gated by
// tools/check_bench_json.py --adversarial. Extra knobs:
//   --adv-ops=2400       attack ops (smoke: 300)
//   --adv-delete-frac=0.15 / --adv-modify-frac=0.15
//   --adv-pace-ns=100000 sleep between attack ops, spreading the stream
//                        across the serving window
//   --fault-plan=SEED    adds the degraded-mode arm (ISSUE 10): the same
//                        streams against a backend whose rebuild path is
//                        fault-armed (seeded FaultPlan) into maintenance
//                        collapse, with the overlay hard cap shedding
//                        inserts. 0 (default) skips the arm. The gate
//                        checks reads stayed available, sheds telescope
//                        (backend == driver + adversary), and every
//                        shard recovered after the storm.
//
// Scaling mode: --threads-sweep=1,2,4[,...] switches to the multi-core
// scaling study instead of the clean-vs-poisoned matrix. For each
// thread count it replays the same read-only stream against a fresh
// sharded RMI backend (reads/sec, p50/p99), then runs the insert-heavy
// mix twice — async and sync compaction — recording the compaction
// counters and insert latency histograms. Output (--out, default
// BENCH_serving_scaling.json) is the committed curve that
// tools/check_bench_json.py --serving-scaling gates.

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "attack/rmi_poisoner.h"
#include "common/fault.h"
#include "common/flags.h"
#include "common/rng.h"
#include "common/table.h"
#include "common/telemetry.h"
#include "data/generators.h"
#include "data/keyset.h"
#include "workload/adversary.h"
#include "workload/query_driver.h"
#include "workload/search_backend.h"
#include "workload/serving_report.h"
#include "workload/workload.h"

namespace lispoison {
namespace {

struct Variant {
  const char* name;
  const KeySet* keyset;
};

/// The multi-core scaling study (--threads-sweep): read throughput per
/// driver thread count on the sharded backend plus the async-vs-sync
/// insert arms. Emits the ScalingReport JSON the tier-1 golden gate
/// checks.
int RunScaling(const FlagParser& flags, std::vector<std::int64_t> sweep) {
  const bool smoke = flags.GetBool("smoke");
  const std::int64_t n = flags.GetInt("keys", smoke ? 20000 : 100000);
  const std::int64_t ops = flags.GetInt("ops", smoke ? 20000 : 200000);
  const std::int64_t model_size = flags.GetInt("model-size", 500);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(flags.GetInt("seed", 42));
  const std::int64_t compact_threshold =
      flags.GetInt("compact-threshold", 512);
  const int read_group =
      static_cast<int>(flags.GetInt("read-group", 16));
  const std::string out_path =
      flags.GetString("out", "BENCH_serving_scaling.json");

  std::sort(sweep.begin(), sweep.end());
  sweep.erase(std::unique(sweep.begin(), sweep.end()), sweep.end());
  if (sweep.empty() || sweep.front() < 1) {
    std::fprintf(stderr, "--threads-sweep needs positive thread counts\n");
    return 1;
  }
  const int max_threads = static_cast<int>(sweep.back());
  // Shard per core (well, per swept thread) unless pinned explicitly.
  int num_shards = static_cast<int>(flags.GetInt("num-shards", 0));
  if (num_shards <= 0) num_shards = max_threads;

  Rng rng(seed);
  auto clean_or = GenerateUniform(n, KeyDomain{0, 100 * n}, &rng);
  if (!clean_or.ok()) {
    std::fprintf(stderr, "keyset generation failed: %s\n",
                 clean_or.status().ToString().c_str());
    return 1;
  }
  const KeySet clean = *clean_or;

  ScalingReport report;
  report.hardware_concurrency =
      static_cast<std::int64_t>(std::thread::hardware_concurrency());
  report.keys = n;
  report.ops = ops;
  report.num_shards = num_shards;
  report.read_group = read_group;
  report.compact_threshold = compact_threshold;
  report.seed = seed;

  const WorkloadSpec read_spec = ReadOnlyUniformWorkload(seed);
  const WorkloadSpec insert_spec = InsertHeavyWorkload(seed);
  report.read_workload = read_spec.name;
  report.insert_workload = insert_spec.name;

  auto read_ops_or = GenerateOperations(read_spec, clean, ops);
  if (!read_ops_or.ok()) {
    std::fprintf(stderr, "read workload generation failed: %s\n",
                 read_ops_or.status().ToString().c_str());
    return 1;
  }

  TextTable table;
  table.SetHeader({"threads", "reads/s", "p50 ns", "p99 ns"});
  for (const std::int64_t t : sweep) {
    BackendOptions backend_opts;
    backend_opts.rmi.target_model_size = model_size;
    backend_opts.num_shards = num_shards;
    auto backend_or = CreateBackend(BackendKind::kRmi, clean, backend_opts);
    if (!backend_or.ok()) {
      std::fprintf(stderr, "backend build failed: %s\n",
                   backend_or.status().ToString().c_str());
      return 1;
    }
    DriverOptions driver_opts;
    driver_opts.num_threads = static_cast<int>(t);
    driver_opts.read_group = read_group;
    driver_opts.latency_sample_every = flags.GetInt("sample-every", 1);
    auto result_or = RunWorkload(backend_or->get(), *read_ops_or, driver_opts);
    if (!result_or.ok()) {
      std::fprintf(stderr, "driver run failed: %s\n",
                   result_or.status().ToString().c_str());
      return 1;
    }
    ScalingRow row;
    row.threads = static_cast<int>(t);
    row.result = std::move(*result_or);
    table.AddRow({TextTable::Fmt(static_cast<std::int64_t>(t)),
                  TextTable::Fmt(static_cast<std::int64_t>(
                      row.result.ThroughputOpsPerSec())),
                  TextTable::Fmt(row.result.read_latency.P50()),
                  TextTable::Fmt(row.result.read_latency.P99())});
    report.read_rows.push_back(std::move(row));
  }
  table.Print(std::cout);

  // Insert arms at the top swept thread count: the same insert-heavy
  // stream against async (maintenance-thread) and sync (inline)
  // compaction. The committed counters prove no async insert ever paid
  // a retrain; the sync arm is the cost of NOT having the maintenance
  // thread.
  auto insert_ops_or = GenerateOperations(insert_spec, clean, ops);
  if (!insert_ops_or.ok()) {
    std::fprintf(stderr, "insert workload generation failed: %s\n",
                 insert_ops_or.status().ToString().c_str());
    return 1;
  }
  for (const bool sync : {false, true}) {
    BackendOptions backend_opts;
    backend_opts.rmi.target_model_size = model_size;
    backend_opts.num_shards = num_shards;
    backend_opts.compact_threshold = compact_threshold;
    backend_opts.sync_compaction = sync;
    auto backend_or = CreateBackend(BackendKind::kRmi, clean, backend_opts);
    if (!backend_or.ok()) {
      std::fprintf(stderr, "backend build failed: %s\n",
                   backend_or.status().ToString().c_str());
      return 1;
    }
    DriverOptions driver_opts;
    driver_opts.num_threads = max_threads;
    driver_opts.read_group = read_group;
    auto result_or =
        RunWorkload(backend_or->get(), *insert_ops_or, driver_opts);
    if (!result_or.ok()) {
      std::fprintf(stderr, "insert arm failed: %s\n",
                   result_or.status().ToString().c_str());
      return 1;
    }
    (*backend_or)->WaitForMaintenance();
    InsertArmResult arm;
    arm.mode = sync ? "sync" : "async";
    arm.threads = max_threads;
    arm.compactions = (*backend_or)->compactions();
    arm.inline_compactions = (*backend_or)->inline_compactions();
    arm.max_publish_overlay = (*backend_or)->max_publish_overlay();
    arm.result = std::move(*result_or);
    std::printf(
        "insert arm %-5s: %lld compactions (%lld inline), max insert "
        "%lld ns, max publish overlay %lld\n",
        arm.mode.c_str(), static_cast<long long>(arm.compactions),
        static_cast<long long>(arm.inline_compactions),
        static_cast<long long>(arm.result.insert_latency.max()),
        static_cast<long long>(arm.max_publish_overlay));
    report.insert_arms.push_back(std::move(arm));
  }

  const Status st = report.WriteJsonFile(out_path);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("\nwrote %s (%zu thread counts, %zu insert arms)\n",
              out_path.c_str(), report.read_rows.size(),
              report.insert_arms.size());
  return 0;
}

/// The adversary-in-the-loop study (--adversarial): clean baseline arm,
/// then the same driver stream with the online attacker racing it
/// through the live write path. Emits the AdversarialReport JSON the
/// tier-1 --adversarial golden gate checks.
int RunAdversarial(const FlagParser& flags) {
  const bool smoke = flags.GetBool("smoke");
  const std::int64_t n = flags.GetInt("keys", smoke ? 20000 : 100000);
  const std::int64_t ops = flags.GetInt("ops", smoke ? 60000 : 400000);
  int threads = static_cast<int>(flags.GetInt("threads", 2));
  if (threads < 2) threads = 2;  // The committed contract: the attacker
                                 // races >= 2 legitimate driver threads.
  const std::int64_t model_size = flags.GetInt("model-size", 500);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(flags.GetInt("seed", 42));
  const std::int64_t compact_threshold =
      flags.GetInt("compact-threshold", 512);
  const int num_shards =
      static_cast<int>(flags.GetInt("num-shards", smoke ? 2 : 4));
  const int read_group = static_cast<int>(flags.GetInt("read-group", 16));
  const std::int64_t interval_ms =
      flags.GetInt("telemetry-interval-ms", smoke ? 10 : 25);
  const std::string out_path =
      flags.GetString("out", "BENCH_adversarial.json");

  AdversaryOptions adv;
  adv.ops = flags.GetInt("adv-ops", smoke ? 300 : 2400);
  adv.delete_fraction = flags.GetDouble("adv-delete-frac", 0.15);
  adv.modify_fraction = flags.GetDouble("adv-modify-frac", 0.15);
  adv.model_size = model_size;
  adv.pace_ns = flags.GetInt("adv-pace-ns", 100000);
  adv.seed = seed + 1;

  Rng rng(seed);
  auto clean_or = GenerateUniform(n, KeyDomain{0, 100 * n}, &rng);
  if (!clean_or.ok()) {
    std::fprintf(stderr, "keyset generation failed: %s\n",
                 clean_or.status().ToString().c_str());
    return 1;
  }
  const KeySet clean = *clean_or;

  const WorkloadSpec spec = ZipfianReadHeavyWorkload(seed);
  auto ops_or = GenerateOperations(spec, clean, ops);
  if (!ops_or.ok()) {
    std::fprintf(stderr, "workload generation failed: %s\n",
                 ops_or.status().ToString().c_str());
    return 1;
  }

  AdversarialReport report;
  report.hardware_concurrency =
      static_cast<std::int64_t>(std::thread::hardware_concurrency());
  report.keys = n;
  report.ops = ops;
  report.num_threads = threads;
  report.num_shards = num_shards;
  report.read_group = read_group;
  report.compact_threshold = compact_threshold;
  report.sync_compaction = false;  // No escape hatch in this study.
  report.seed = seed;
  report.workload = spec.name;
  report.telemetry_interval_ms = interval_ms;

  BackendOptions backend_opts;
  backend_opts.rmi.target_model_size = model_size;
  backend_opts.num_shards = num_shards;
  backend_opts.compact_threshold = compact_threshold;
  backend_opts.sync_compaction = false;

  DriverOptions driver_opts;
  driver_opts.num_threads = threads;
  driver_opts.read_group = read_group;
  driver_opts.latency_sample_every = flags.GetInt("sample-every", 1);

  // Arm 1 — clean baseline: same backend config, same driver stream,
  // no attacker. Its read p99 is the ROI denominator.
  {
    auto backend_or = CreateBackend(BackendKind::kRmi, clean, backend_opts);
    if (!backend_or.ok()) {
      std::fprintf(stderr, "clean backend build failed: %s\n",
                   backend_or.status().ToString().c_str());
      return 1;
    }
    auto result_or = RunWorkload(backend_or->get(), *ops_or, driver_opts);
    if (!result_or.ok()) {
      std::fprintf(stderr, "clean arm failed: %s\n",
                   result_or.status().ToString().c_str());
      return 1;
    }
    (*backend_or)->WaitForMaintenance();
    report.clean_result = std::move(*result_or);
    report.clean_compactions = (*backend_or)->compactions();
  }

  // Arm 2 — adversary in the loop: fresh backend, sampler baselined at
  // the attack window's start, attacker on its own thread racing the
  // driver. Every interval row (and the totals it telescopes to) spans
  // exactly this window.
  {
    auto backend_or = CreateBackend(BackendKind::kRmi, clean, backend_opts);
    if (!backend_or.ok()) {
      std::fprintf(stderr, "attacked backend build failed: %s\n",
                   backend_or.status().ToString().c_str());
      return 1;
    }
    SearchBackend* backend = backend_or->get();

    TelemetrySampler sampler;
    sampler.Start(interval_ms);

    Result<AdversaryResult> adv_result = AdversaryResult{};
    std::thread attacker([&] {
      adv_result = RunOnlineAdversary(backend, clean, adv);
    });
    auto result_or = RunWorkload(backend, *ops_or, driver_opts);
    attacker.join();
    backend->WaitForMaintenance();
    sampler.SampleNow();  // Close the tail interval before stopping.
    sampler.Stop();

    if (!result_or.ok()) {
      std::fprintf(stderr, "attacked arm failed: %s\n",
                   result_or.status().ToString().c_str());
      return 1;
    }
    if (!adv_result.ok()) {
      std::fprintf(stderr, "adversary failed: %s\n",
                   adv_result.status().ToString().c_str());
      return 1;
    }
    report.attacked_result = std::move(*result_or);
    report.adversary = std::move(*adv_result);
    report.attacked_compactions = backend->compactions();
    report.attacked_inline_compactions = backend->inline_compactions();
    report.time_series = sampler.Rows();
    report.telemetry_totals = sampler.TotalsSinceStart();
    for (const auto& c : report.telemetry_totals.counters) {
      if (c.name == "serving.rebuild_failures") {
        report.attacked_rebuild_failures = c.value;
      }
    }
  }
  report.BuildRoiRows();

  // Arm 3 (--fault-plan=SEED) — maintenance collapse: every substrate
  // rebuild fails while the plan is armed, so compactions retry, back
  // off, and give up; overlays grow to the hard cap; shards go degraded
  // and shed inserts. Reads must ride through untouched (lock-free
  // path), and once the storm is disarmed the shards must recover.
  const std::uint64_t fault_seed =
      static_cast<std::uint64_t>(flags.GetInt("fault-plan", 0));
  if (fault_seed != 0) {
    BackendOptions degraded_opts = backend_opts;
    // A tight threshold/cap pair so the collapse actually bites within
    // the smoke window: the cap is what bounds per-insert publish cost
    // (and read-path overlay probes) while maintenance is down.
    degraded_opts.compact_threshold =
        std::max<std::int64_t>(64, compact_threshold / 8);
    degraded_opts.overlay_hard_cap = 2 * degraded_opts.compact_threshold;
    degraded_opts.compaction_max_retries = 2;
    degraded_opts.compaction_backoff_base_us = 200;
    degraded_opts.compaction_backoff_max_us = 5000;
    degraded_opts.watchdog_stall_ms = 100;
    auto backend_or = CreateBackend(BackendKind::kRmi, clean, degraded_opts);
    if (!backend_or.ok()) {
      std::fprintf(stderr, "degraded backend build failed: %s\n",
                   backend_or.status().ToString().c_str());
      return 1;
    }
    SearchBackend* backend = backend_or->get();

    FaultSpec rebuild_storm;
    rebuild_storm.probability = 1.0;  // Total maintenance collapse.
    FaultSpec pool_wedge;
    pool_wedge.probability = 0.3;
    pool_wedge.latency_ns = 5'000'000;  // 5ms dequeue-to-run wedges.
    pool_wedge.fail = false;
    FaultPlan(fault_seed)
        .Arm("compaction.rebuild", rebuild_storm)
        .Arm("pool.task", pool_wedge)
        .Activate();

    DriverOptions degraded_driver_opts = driver_opts;
    degraded_driver_opts.maintenance_deadline_ms = 50;

    Result<AdversaryResult> adv_result = AdversaryResult{};
    std::thread attacker([&] {
      adv_result = RunOnlineAdversary(backend, clean, adv);
    });
    auto result_or = RunWorkload(backend, *ops_or, degraded_driver_opts);
    attacker.join();
    backend->WaitForMaintenance();
    FaultRegistry::Global().DisarmAll();
    if (!result_or.ok()) {
      std::fprintf(stderr, "degraded arm failed: %s\n",
                   result_or.status().ToString().c_str());
      return 1;
    }
    if (!adv_result.ok()) {
      std::fprintf(stderr, "degraded-arm adversary failed: %s\n",
                   adv_result.status().ToString().c_str());
      return 1;
    }

    auto& d = report.degraded;
    d.present = true;
    d.fault_seed = fault_seed;
    d.overlay_hard_cap = degraded_opts.overlay_hard_cap;
    d.compact_threshold = degraded_opts.compact_threshold;
    d.result = std::move(*result_or);
    d.driver_inserts_shed = d.result.inserts_shed;
    d.maintenance_deadline_hits = d.result.maintenance_deadline_hits;
    d.adversary = std::move(*adv_result);
    // Snapshot the accounting identity BEFORE the recovery drain so
    // the committed counters describe the storm alone, not the
    // cleanup after it.
    d.shed_inserts = backend->shed_inserts();
    d.rebuild_retries = backend->rebuild_retries();
    d.compaction_giveups = backend->compaction_giveups();
    // Every failed rebuild attempt either retried or gave the pass up,
    // so the failure total is exactly the sum of the two.
    d.rebuild_failures = d.rebuild_retries + d.compaction_giveups;
    d.compactions = backend->compactions();

    // Recovery drain: with the plan disarmed, compactions succeed
    // again, but a degraded shard whose traffic stopped has nothing
    // left to re-kick it (the give-up cleared the in-flight flag) —
    // KickDegradedShards is the operational primitive for exactly
    // that state.
    for (int round = 0; round < 100 && backend->degraded_shards() > 0;
         ++round) {
      backend->KickDegradedShards();
      backend->WaitForMaintenance();
    }
    d.degraded_shards_end = backend->degraded_shards();

    std::printf(
        "degraded arm (fault plan %llu): %lld sheds "
        "(%lld driver + %lld adversary), %lld retries, %lld give-ups, "
        "%lld deadline hits, degraded shards at end %lld\n",
        static_cast<unsigned long long>(fault_seed),
        static_cast<long long>(d.shed_inserts),
        static_cast<long long>(d.driver_inserts_shed),
        static_cast<long long>(d.adversary.shed),
        static_cast<long long>(d.rebuild_retries),
        static_cast<long long>(d.compaction_giveups),
        static_cast<long long>(d.maintenance_deadline_hits),
        static_cast<long long>(d.degraded_shards_end));
  }

  const double p99_ratio =
      report.clean_result.read_latency.P99() > 0
          ? static_cast<double>(report.attacked_result.read_latency.P99()) /
                static_cast<double>(report.clean_result.read_latency.P99())
          : 0.0;
  std::printf(
      "adversarial: %lld attack ops (%lld ins / %lld del / %lld mod, "
      "%lld rejected), %lld replans after %lld observed retrains\n"
      "  clean read p99 %lld ns -> attacked %lld ns (%.2fx), "
      "work/op %.2f -> %.2f, %lld compactions in window\n",
      static_cast<long long>(report.adversary.ops_planned),
      static_cast<long long>(report.adversary.inserts),
      static_cast<long long>(report.adversary.deletes),
      static_cast<long long>(report.adversary.modifies),
      static_cast<long long>(report.adversary.rejected),
      static_cast<long long>(report.adversary.replans),
      static_cast<long long>(report.adversary.retrains_observed),
      static_cast<long long>(report.clean_result.read_latency.P99()),
      static_cast<long long>(report.attacked_result.read_latency.P99()),
      p99_ratio, report.clean_result.MeanWork(),
      report.attacked_result.MeanWork(),
      static_cast<long long>(report.attacked_compactions));

  const Status st = report.WriteJsonFile(out_path);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s (%zu roi rows)\n", out_path.c_str(),
              report.roi_rows.size());
  return 0;
}

int Run(int argc, char** argv) {
  FlagParser flags(argc, argv);
  const std::vector<std::int64_t> sweep = flags.GetIntList("threads-sweep", {});
  if (!sweep.empty()) return RunScaling(flags, sweep);
  if (flags.GetBool("adversarial")) return RunAdversarial(flags);

  const bool smoke = flags.GetBool("smoke");
  const std::int64_t n = flags.GetInt("keys", smoke ? 20000 : 100000);
  const std::int64_t ops = flags.GetInt("ops", smoke ? 20000 : 200000);
  const int threads =
      static_cast<int>(flags.GetInt("threads", smoke ? 2 : 0));
  const double poison_pct = flags.GetDouble("poison-pct", 10.0);
  const std::int64_t model_size = flags.GetInt("model-size", 500);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(flags.GetInt("seed", 42));
  const std::int64_t compact_threshold =
      flags.GetInt("compact-threshold", 0);
  const std::string out_path =
      flags.GetString("out", "serving_report.json");
  const std::int64_t telemetry_interval_ms =
      flags.GetInt("telemetry-interval-ms", 0);
  const std::string trace_out = flags.GetString("trace-out", "");

  // Telemetry rides the whole run: the sampler baselines before the
  // attack so the poisoning phase lands in the first interval row, and
  // every config boundary forces a row (deterministic even at interval
  // 0, which is what the committed smoke JSON gates).
  if (!trace_out.empty()) TraceSession::Global().Start();
  TelemetrySampler sampler;
  sampler.Start(telemetry_interval_ms);

  Rng rng(seed);
  auto clean_or = GenerateUniform(n, KeyDomain{0, 100 * n}, &rng);
  if (!clean_or.ok()) {
    std::fprintf(stderr, "keyset generation failed: %s\n",
                 clean_or.status().ToString().c_str());
    return 1;
  }
  const KeySet clean = *clean_or;

  std::printf("Poisoning %lld keys at %.1f%% (Algorithm 2)...\n",
              static_cast<long long>(n), poison_pct);
  RmiAttackOptions attack_opts;
  attack_opts.poison_fraction = poison_pct / 100.0;
  attack_opts.model_size = model_size;
  attack_opts.num_threads = threads;
  auto attack_or = PoisonRmi(clean, attack_opts);
  if (!attack_or.ok()) {
    std::fprintf(stderr, "RMI poisoning failed: %s\n",
                 attack_or.status().ToString().c_str());
    return 1;
  }
  auto poisoned_or = clean.Union(attack_or->AllPoisonKeys());
  if (!poisoned_or.ok()) {
    std::fprintf(stderr, "poisoned keyset union failed: %s\n",
                 poisoned_or.status().ToString().c_str());
    return 1;
  }
  const KeySet poisoned = *poisoned_or;
  std::printf("  placed %lld poison keys, attacker RMI ratio loss %.2f\n\n",
              static_cast<long long>(attack_or->total_poison_keys),
              attack_or->rmi_ratio_loss);
  sampler.SampleNow();  // Interval boundary: the attack phase's row.

  ServingReport report;
  report.hardware_concurrency =
      static_cast<std::int64_t>(std::thread::hardware_concurrency());
  report.num_threads = threads;
  report.ops_per_config = ops;
  report.poison_fraction = attack_opts.poison_fraction;

  const std::vector<WorkloadSpec> workloads = {
      ReadOnlyUniformWorkload(seed), ZipfianReadHeavyWorkload(seed),
      RangeScanWorkload(seed), ReadInsertMixWorkload(seed)};
  const std::vector<BackendKind> kinds = {
      BackendKind::kRmi, BackendKind::kBTree, BackendKind::kBinarySearch};
  const std::vector<Variant> variants = {{"clean", &clean},
                                         {"poisoned", &poisoned}};

  const int num_shards = static_cast<int>(flags.GetInt("num-shards", 1));
  const bool sync_compaction = flags.GetBool("sync-compaction");

  DriverOptions driver_opts;
  driver_opts.num_threads = threads;
  driver_opts.latency_sample_every = flags.GetInt("sample-every", 1);
  driver_opts.read_group = static_cast<int>(flags.GetInt("read-group", 1));

  TextTable table;
  table.SetHeader({"workload", "backend", "variant", "ops/s", "p50 ns",
                   "p95 ns", "p99 ns", "mean work"});

  for (const WorkloadSpec& spec : workloads) {
    for (const Variant& variant : variants) {
      // Same seed against each variant's keyset: the same access shape
      // (rank skew, mix) over whichever keys that index actually serves.
      auto ops_or = GenerateOperations(spec, *variant.keyset, ops);
      if (!ops_or.ok()) {
        std::fprintf(stderr, "workload '%s' generation failed: %s\n",
                     spec.name.c_str(), ops_or.status().ToString().c_str());
        return 1;
      }
      for (const BackendKind kind : kinds) {
        BackendOptions backend_opts;
        backend_opts.rmi.target_model_size = model_size;
        backend_opts.compact_threshold = compact_threshold;
        backend_opts.num_shards = num_shards;
        backend_opts.sync_compaction = sync_compaction;
        // A fresh backend per run: insert mixes mutate the overlay.
        auto backend_or = CreateBackend(kind, *variant.keyset, backend_opts);
        if (!backend_or.ok()) {
          std::fprintf(stderr, "backend %s build failed: %s\n",
                       BackendKindName(kind),
                       backend_or.status().ToString().c_str());
          return 1;
        }
        auto result_or = RunWorkload(backend_or->get(), *ops_or, driver_opts);
        if (!result_or.ok()) {
          std::fprintf(stderr, "driver run failed: %s\n",
                       result_or.status().ToString().c_str());
          return 1;
        }
        (*backend_or)->WaitForMaintenance();
        ServingConfigResult config;
        config.workload = spec.name;
        config.backend = (*backend_or)->name();
        config.variant = variant.name;
        config.keys = variant.keyset->size();
        config.seed = seed;
        config.num_shards = (*backend_or)->num_shards();
        config.result = std::move(*result_or);
        table.AddRow({config.workload, config.backend, config.variant,
                      TextTable::Fmt(static_cast<std::int64_t>(
                          config.result.ThroughputOpsPerSec())),
                      TextTable::Fmt(config.result.latency.P50()),
                      TextTable::Fmt(config.result.latency.P95()),
                      TextTable::Fmt(config.result.latency.P99()),
                      TextTable::Fmt(config.result.MeanWork(), 2)});
        report.Add(std::move(config));
        sampler.SampleNow();  // One time-series row per config.
      }
    }
  }

  // Sharded arms: the read-only workload against the 4-shard RMI in
  // both variants, riding in the same report (tools/bench_compare.py
  // names them workload/backend/variant/s4). Only added when the main
  // matrix ran unsharded — a sharded matrix would duplicate them.
  if (num_shards == 1) {
    const WorkloadSpec shard_spec = ReadOnlyUniformWorkload(seed);
    for (const Variant& variant : variants) {
      auto ops_or = GenerateOperations(shard_spec, *variant.keyset, ops);
      if (!ops_or.ok()) {
        std::fprintf(stderr, "workload '%s' generation failed: %s\n",
                     shard_spec.name.c_str(),
                     ops_or.status().ToString().c_str());
        return 1;
      }
      BackendOptions backend_opts;
      backend_opts.rmi.target_model_size = model_size;
      backend_opts.num_shards = 4;
      auto backend_or =
          CreateBackend(BackendKind::kRmi, *variant.keyset, backend_opts);
      if (!backend_or.ok()) {
        std::fprintf(stderr, "sharded backend build failed: %s\n",
                     backend_or.status().ToString().c_str());
        return 1;
      }
      auto result_or = RunWorkload(backend_or->get(), *ops_or, driver_opts);
      if (!result_or.ok()) {
        std::fprintf(stderr, "sharded driver run failed: %s\n",
                     result_or.status().ToString().c_str());
        return 1;
      }
      ServingConfigResult config;
      config.workload = shard_spec.name;
      config.backend = (*backend_or)->name();
      config.variant = variant.name;
      config.keys = variant.keyset->size();
      config.seed = seed;
      config.num_shards = (*backend_or)->num_shards();
      config.result = std::move(*result_or);
      table.AddRow({config.workload + "/s4", config.backend, config.variant,
                    TextTable::Fmt(static_cast<std::int64_t>(
                        config.result.ThroughputOpsPerSec())),
                    TextTable::Fmt(config.result.latency.P50()),
                    TextTable::Fmt(config.result.latency.P95()),
                    TextTable::Fmt(config.result.latency.P99()),
                    TextTable::Fmt(config.result.MeanWork(), 2)});
      report.Add(std::move(config));
      sampler.SampleNow();
    }
  }

  table.Print(std::cout);

  // Telemetry-overhead arms: the same read-only stream against the same
  // RMI backend, first with telemetry recording hot, then with the
  // runtime kill switch off (one relaxed load per Record and nothing
  // else — the LISPOISON_TELEMETRY_DISABLED build removes even that;
  // tests/telemetry_disabled_test.cc covers the compiled-out contract).
  // Work/op is identical by construction (telemetry never touches the
  // work model), which the committed JSON pins at ratio 1.0; the
  // throughput ratio bounds the wall-clock cost of the hot path's
  // relaxed fetch_adds.
  {
    const WorkloadSpec overhead_spec = ReadOnlyUniformWorkload(seed);
    auto ops_or = GenerateOperations(overhead_spec, clean, ops);
    if (!ops_or.ok()) {
      std::fprintf(stderr, "overhead workload generation failed: %s\n",
                   ops_or.status().ToString().c_str());
      return 1;
    }
    BackendOptions backend_opts;
    backend_opts.rmi.target_model_size = model_size;
    auto backend_or = CreateBackend(BackendKind::kRmi, clean, backend_opts);
    if (!backend_or.ok()) {
      std::fprintf(stderr, "overhead backend build failed: %s\n",
                   backend_or.status().ToString().c_str());
      return 1;
    }
    report.telemetry_overhead.present = true;
    report.telemetry_overhead.workload = overhead_spec.name;
    report.telemetry_overhead.backend = (*backend_or)->name();
    // No per-op timing in the overhead arms: the two steady_clock reads
    // per op cost more than the telemetry fetch_add being measured, so
    // timing would drown the signal the throughput ratio is after.
    DriverOptions overhead_opts = driver_opts;
    overhead_opts.measure_latency = false;
    for (const bool enabled : {true, false}) {
      TelemetryRegistry::Global().SetEnabled(enabled);
      auto result_or =
          RunWorkload(backend_or->get(), *ops_or, overhead_opts);
      if (!result_or.ok()) {
        TelemetryRegistry::Global().SetEnabled(true);
        std::fprintf(stderr, "overhead arm failed: %s\n",
                     result_or.status().ToString().c_str());
        return 1;
      }
      (enabled ? report.telemetry_overhead.enabled_arm
               : report.telemetry_overhead.disabled_arm) =
          std::move(*result_or);
    }
    TelemetryRegistry::Global().SetEnabled(true);
    std::printf(
        "telemetry overhead: mean work %.2f (hot) vs %.2f (off), "
        "throughput ratio %.3f\n",
        report.telemetry_overhead.enabled_arm.MeanWork(),
        report.telemetry_overhead.disabled_arm.MeanWork(),
        report.telemetry_overhead.disabled_arm.ThroughputOpsPerSec() > 0
            ? report.telemetry_overhead.enabled_arm.ThroughputOpsPerSec() /
                  report.telemetry_overhead.disabled_arm.ThroughputOpsPerSec()
            : 0.0);
  }

  // Final boundary, then freeze the rows and the totals they sum to.
  // Nothing records between Stop() and TotalsSinceStart(), so the
  // counter/histogram identity the JSON gate checks holds exactly.
  sampler.Stop();
  report.has_telemetry = true;
  report.telemetry_interval_ms = telemetry_interval_ms;
  report.time_series = sampler.Rows();
  report.telemetry_totals = sampler.TotalsSinceStart();

  if (!trace_out.empty()) {
    TraceSession::Global().Stop();
    const Status trace_st = TraceSession::Global().WriteJsonFile(trace_out);
    if (!trace_st.ok()) {
      std::fprintf(stderr, "%s\n", trace_st.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s (%lld trace events, %lld dropped)\n",
                trace_out.c_str(),
                static_cast<long long>(TraceSession::Global().recorded()),
                static_cast<long long>(TraceSession::Global().dropped()));
  }

  const Status st = report.WriteJsonFile(out_path);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("\nwrote %s (%zu configs)\n", out_path.c_str(),
              report.configs.size());
  return 0;
}

}  // namespace
}  // namespace lispoison

int main(int argc, char** argv) { return lispoison::Run(argc, argv); }
