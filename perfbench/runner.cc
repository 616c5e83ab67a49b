// Copyright (c) lispoison authors. Licensed under the MIT license.
//
// The repository benchmark's runner. It times calls into the library's
// public API from outside and prints every metric by name with its
// unit; perfbench/run.py builds it and is the command users run.
//
//   perfbench_runner --workload=attack|serve-read|serve-write --seed=42
//                    --seconds=55 --trace=0|1 [--scale=full|tiny]
//                    [--trace-out=perfbench_trace.json] [--commit=HASH]
//
// A run repeats one *unit* until --seconds have passed (and at least
// Config::min_units times). A unit is set-up (key generation, the
// serve-read PoisonRmi, op-stream generation, CreateBackend), then the
// four attack calls (Config::attack_reps times), then the closed-loop
// serve stream. Every workload runs all three stages, so every run
// reports every end-to-end metric; the workload decides which stage is
// large (see perfbench/README.md). End-to-end values are medians over
// units, attack calls, or driver runs.
//
// --trace=1 runs one untraced and one traced unit (their difference is
// printed as tracing overhead), then a layer pass that replays the
// attack rounds through LossLandscape and probes the index, backend,
// pool and adversary layers one call at a time, and writes the Chrome
// trace. It prints the per-layer metrics instead of the end-to-end ones.
//
// Output lines: "env k=v", "metric name value unit [basis]",
// "check ok|FAIL what", and last one JSON object with the keys
// correct, attempted, failed and metrics. Exit status 1 when a check
// fails or a library call returns an error.

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "attack/deletion_attack.h"
#include "attack/greedy_poisoner.h"
#include "attack/loss_landscape.h"
#include "attack/rmi_poisoner.h"
#include "attack/single_point.h"
#include "common/flags.h"
#include "common/latency_histogram.h"
#include "common/rng.h"
#include "common/telemetry.h"
#include "common/thread_pool.h"
#include "data/generators.h"
#include "data/keyset.h"
#include "index/learned_index.h"
#include "index/rmi.h"
#include "workload/adversary.h"
#include "workload/query_driver.h"
#include "workload/search_backend.h"
#include "workload/workload.h"

namespace lispoison {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double SecondsSince(Clock::time_point a) {
  return SecondsBetween(a, Clock::now());
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

// ---------------------------------------------------------------------------
// Workload configuration.
// ---------------------------------------------------------------------------

// Serving shape shared by every workload: 2 closed-loop driver threads
// with batched reads against a 4-shard backend.
constexpr int kDriverThreads = 2;
constexpr int kReadGroup = 16;
constexpr int kShards = 4;

struct Config {
  std::string workload;

  // Attack stage: serial GreedyPoisonCdf(ins_n, ins_p), serial
  // GreedyDeleteCdf(del_n, del_d), mt_calls pooled GreedyPoisonCdf(mt_n,
  // mt_p) on mt_threads workers, and serial PoisonRmi(rmi_n, model_size,
  // rmi_phi), repeated attack_reps times per unit. Every repetition and
  // every pooled call has its own keysets: the pooled call's work varies
  // 2x between keysets, so its median needs more of them. Keysets of
  // equal size in one repetition are the same keys.
  std::int64_t ins_n = 0, ins_p = 0;
  std::int64_t del_n = 0, del_d = 0;
  std::int64_t mt_n = 0, mt_p = 0;
  int mt_threads = 3;
  int mt_calls = 1;
  std::int64_t rmi_n = 0;
  double rmi_phi = 0.10;
  std::int64_t model_size = 500;
  int attack_reps = 1;

  // Serve stage. The backend serves K_rmi ∪ P when serve_poisoned (the
  // PoisonRmi call then runs in set-up, once per unit, and is the unit's
  // rmi_attack_s), else a clean uniform keyset of serve_n keys. With an
  // adversary, the adversary plans on the lowest quarter of the keys and
  // the stream inserts above it, so no write of one can collide with a
  // write of the other.
  bool serve_poisoned = false;
  std::int64_t serve_n = 0;
  bool read_only = false;       // zipfian reads; else InsertHeavyWorkload
  std::int64_t serve_ops = 0;   // stream length
  int windows = 1;              // read-only: replays of the stream per unit
  std::int64_t compact_threshold = 0;
  std::int64_t adv_ops = 0;     // online adversary racing the driver
  double adv_span_s = 0;        // pace the adversary over this long
  std::int64_t insert_probe_ops = 0;  // read-only streams: insert latency

  int min_units = 3;
  int max_units = 60;
};

Config MakeConfig(const std::string& workload, bool tiny) {
  Config c;
  c.workload = workload;
  const int nproc =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  // One vCPU left free: with one worker per vCPU, a single vCPU slowed
  // by the host stalls every round, and the call ran 2-3x slower for
  // minutes at a time.
  c.mt_threads = std::max(1, std::min(4, nproc) - 1);
  if (workload == "attack") {
    c.ins_n = 1000000, c.ins_p = 2000;
    c.del_n = 1000000, c.del_d = 2000;
    c.mt_n = 200000, c.mt_p = 100;
    c.mt_calls = 3;
    c.rmi_n = 50000;
    c.serve_n = c.rmi_n;
    c.serve_ops = 100000;
    c.compact_threshold = 512;
  } else if (workload == "serve-read") {
    c.ins_n = c.del_n = c.rmi_n = 50000;
    c.ins_p = 2000, c.del_d = 2000;
    c.mt_n = 200000, c.mt_p = 100;
    c.attack_reps = 2;
    c.serve_poisoned = true;
    c.read_only = true;
    c.serve_ops = 1000000;
    c.windows = 3;
    c.insert_probe_ops = 20000;
  } else if (workload == "serve-write") {
    c.ins_n = c.del_n = c.rmi_n = 50000;
    c.ins_p = 2000, c.del_d = 2000;
    c.mt_n = 200000, c.mt_p = 100;
    c.attack_reps = 2;
    c.rmi_phi = 0.02;
    c.serve_n = 1000000;
    c.serve_ops = 300000;
    c.compact_threshold = 512;
    c.adv_ops = 800;
    c.adv_span_s = 0.5;
  } else {
    c.workload.clear();
    return c;
  }
  if (tiny) {
    // Smoke scale: every stage still runs, each in milliseconds.
    const auto shrink = [](std::int64_t v, std::int64_t div,
                           std::int64_t floor) {
      return std::max(floor, v / div);
    };
    c.ins_n = shrink(c.ins_n, 100, 2000), c.ins_p = shrink(c.ins_p, 100, 20);
    c.del_n = shrink(c.del_n, 100, 2000), c.del_d = shrink(c.del_d, 100, 20);
    c.mt_n = shrink(c.mt_n, 100, 2000), c.mt_p = shrink(c.mt_p, 100, 20);
    c.rmi_n = 2000;
    c.model_size = 100;
    c.serve_n = c.serve_n > 0 ? 4000 : 0;
    c.serve_ops = shrink(c.serve_ops, 100, 4000);
    c.windows = 2;
    c.adv_ops = c.adv_ops > 0 ? 60 : 0;
    c.adv_span_s = c.adv_span_s > 0 ? 0.05 : 0;
    c.insert_probe_ops = c.insert_probe_ops > 0 ? 500 : 0;
    c.compact_threshold = c.compact_threshold > 0 ? 64 : 0;
    c.min_units = 2;
    c.max_units = 2;
  }
  return c;
}

// ---------------------------------------------------------------------------
// Output: env lines, metric lines, checks, and the final JSON object.
// ---------------------------------------------------------------------------

class Report {
 public:
  void Env(const std::string& key, const std::string& value) {
    std::printf("env %s=%s\n", key.c_str(), value.c_str());
  }
  void Env(const std::string& key, double value) {
    Env(key, Num(value));
  }

  void Metric(const std::string& name, double value, const std::string& unit,
              const std::string& basis = "") {
    if (!std::isfinite(value)) {
      Check(false, "metric " + name + " is finite");
      value = 0;
    }
    std::printf("metric %s %s %s%s%s\n", name.c_str(), Num(value).c_str(),
                unit.c_str(), basis.empty() ? "" : "  # ", basis.c_str());
    metrics_.push_back({name, value, unit});
  }

  void Check(bool ok, const std::string& what) {
    std::printf("check %s %s\n", ok ? "ok" : "FAIL", what.c_str());
    if (!ok) correct_ = false;
  }

  // A library call returned an error: counted as a failed operation.
  void Error(const std::string& what, const Status& status) {
    ++attempted_, ++failed_;
    Check(false, what + ": " + status.ToString());
  }

  void Ops(std::int64_t attempted, std::int64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  bool correct() const { return correct_; }

  void PrintResult() const {
    std::string out = "{\"correct\": ";
    out += correct_ ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(std::max<std::int64_t>(
                                     attempted_, 1));
    out += ", \"failed\": " + std::to_string(failed_);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const auto& m = metrics_[i];
      if (i > 0) out += ", ";
      out += "\"" + m.name + "\": {\"value\": " + Num(m.value) +
             ", \"unit\": \"" + m.unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
  }

  static std::string Num(double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  bool correct_ = true;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

// ---------------------------------------------------------------------------
// Percentiles.
// ---------------------------------------------------------------------------

// Smallest value the histogram files into bucket `index` or later.
std::int64_t BucketStart(int index) {
  std::int64_t lo = 0, hi = std::numeric_limits<std::int64_t>::max() / 2;
  while (lo < hi) {
    const std::int64_t mid = lo + (hi - lo) / 2;
    if (LatencyHistogram::BucketIndexOf(mid) >= index) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

// Quantile q of h under the histogram's nearest-rank rule, interpolated
// linearly among the ranks that share its bucket. The bucket midpoint
// alone moves in ~3% steps, which would hide any smaller change.
double InterpolatedQuantile(const LatencyHistogram& h, double q) {
  const std::int64_t n = h.count();
  if (n == 0) return 0;
  const auto bucket_of_rank = [&](std::int64_t r) {
    return LatencyHistogram::BucketIndexOf(
        h.ValueAtQuantile((static_cast<double>(r) - 0.5) /
                          static_cast<double>(n)));
  };
  const std::int64_t target = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(
             std::ceil(q * static_cast<double>(n) - 1e-9)));
  const int b = bucket_of_rank(target);
  std::int64_t lo = 1, hi = target;  // First rank in bucket b.
  while (lo < hi) {
    const std::int64_t mid = lo + (hi - lo) / 2;
    if (bucket_of_rank(mid) < b) lo = mid + 1; else hi = mid;
  }
  const std::int64_t first = lo;
  lo = target, hi = n;  // Last rank in bucket b.
  while (lo < hi) {
    const std::int64_t mid = lo + (hi - lo + 1) / 2;
    if (bucket_of_rank(mid) > b) hi = mid - 1; else lo = mid;
  }
  const std::int64_t last = lo;
  const double v_lo = static_cast<double>(BucketStart(b));
  const double v_hi = static_cast<double>(BucketStart(b + 1));
  const double frac = (static_cast<double>(target - first) + 0.5) /
                      static_cast<double>(last - first + 1);
  const double v = v_lo + frac * (v_hi - v_lo);
  return std::max(static_cast<double>(h.min()),
                  std::min(static_cast<double>(h.max()), v));
}

// ---------------------------------------------------------------------------
// One unit: set-up, attack stage, serve stage.
// ---------------------------------------------------------------------------

BackendOptions MakeBackendOptions(const Config& c) {
  BackendOptions o;
  o.rmi.target_model_size = c.model_size;
  o.num_shards = kShards;
  o.compact_threshold = c.compact_threshold;
  o.sync_compaction = false;
  return o;
}

// PoisonRmi runs inline: the library default (one worker per hardware
// thread) dispatches a 3-task ParallelFor per exchange, which is slower
// than one thread on a 4-vCPU host and stalls whenever a vCPU is busy
// elsewhere. The traced run times the default as attack.rmi_pooled_s.
RmiAttackOptions MakeRmiOptions(const Config& c) {
  RmiAttackOptions o;
  o.poison_fraction = c.rmi_phi;
  o.model_size = c.model_size;
  o.num_threads = 1;
  return o;
}

struct Inputs {
  std::uint64_t seed = 0;  // This unit's input seed.
  // Uniform keysets by (size, draw). Repetition r of the attack calls
  // uses draw r; its k-th pooled call uses draw r + k * attack_reps.
  std::map<std::pair<std::int64_t, int>, KeySet> keys;
  KeySet serve_base;       // What the backend serves.
  KeySet serve_clean;      // Its legitimate part.
  KeySet adversary_view;   // The lowest quarter of serve_base.
  std::optional<RmiAttackResult> setup_rmi;
  double setup_rmi_s = 0;
  std::vector<Operation> ops;           // Serve stream.
  std::vector<Operation> probe_ops;     // Insert-latency probe stream.
  std::unique_ptr<SearchBackend> backend;
  double keygen_s = 0, opgen_s = 0, setup_s = 0;
};

// Everything one unit measured, plus what the layer pass reuses.
struct UnitResult {
  double setup_s = 0;
  // One value per call.
  std::vector<double> greedy_insert_s, greedy_delete_s, greedy_insert_mt_s;
  std::vector<double> rmi_attack_s;
  std::vector<double> ops_s, read_p50, read_p99, insert_p50, insert_p99;
  std::int64_t read_samples = 0, insert_samples = 0;

  // The first repetition's results, which the layer pass replays.
  GreedyPoisonResult ins, mt;
  DeletionAttackResult del;
  RmiAttackResult rmi;
  std::vector<std::int64_t> window_work;  // Read-only: per-window totals.
  DriverResult driver;                    // Last driver run.
  double driver_run_s = 0;                // Summed over windows.
  std::optional<AdversaryResult> adversary;
  std::int64_t publishes = 0, retires = 0;
  std::int64_t compactions = 0, publish_overlay_max = 0, rebuild_retries = 0;
  double drain_ms = 0;
  Inputs inputs;
};

// Per-run fixed state: seed, config, output, and the library's serving
// counters read around each serve stage.
struct Bench {
  Config cfg;
  std::uint64_t seed = 42;
  Report* report = nullptr;
  TelemetryCounter* publishes = nullptr;
  TelemetryCounter* retires = nullptr;
};

Status AddUniformKeys(std::int64_t n, int draw, Inputs* in) {
  if (n <= 0 || in->keys.count({n, draw}) > 0) return Status::OK();
  Rng rng = Rng(in->seed).Fork(static_cast<std::uint64_t>(n))
                .Fork(static_cast<std::uint64_t>(draw));
  LISPOISON_ASSIGN_OR_RETURN(KeySet ks,
                             GenerateUniform(n, KeyDomain{0, 100 * n}, &rng));
  in->keys.emplace(std::make_pair(n, draw), std::move(ks));
  return Status::OK();
}

// Input seed of unit `input` in a run with seed `seed`. Each unit of a
// run draws its own inputs, so a run's medians span several keysets:
// the pooled argmax's work alone varies by ~30% between keysets.
std::uint64_t UnitSeed(std::uint64_t seed, int input) {
  return Rng(seed).Fork(static_cast<std::uint64_t>(input)).NextU64();
}

Status Setup(const Bench& b, int unit, Inputs* in) {
  const Config& c = b.cfg;
  TraceSpan span(TraceCategory::kBench, "setup", unit);
  const auto t0 = Clock::now();
  for (int rep = 0; rep < c.attack_reps; ++rep) {
    for (std::int64_t n : {c.ins_n, c.del_n, c.rmi_n}) {
      LISPOISON_RETURN_IF_ERROR(AddUniformKeys(n, rep, in));
    }
    for (int k = 0; k < c.mt_calls; ++k) {
      LISPOISON_RETURN_IF_ERROR(
          AddUniformKeys(c.mt_n, rep + k * c.attack_reps, in));
    }
  }
  LISPOISON_RETURN_IF_ERROR(AddUniformKeys(c.serve_n, 0, in));
  in->keygen_s = SecondsSince(t0);

  if (c.serve_poisoned) {
    TraceSpan rmi_span(TraceCategory::kBench, "poison_rmi", unit);
    const auto t = Clock::now();
    LISPOISON_ASSIGN_OR_RETURN(
        RmiAttackResult rmi,
        PoisonRmi(in->keys.at({c.rmi_n, 0}), MakeRmiOptions(c)));
    in->setup_rmi_s = SecondsSince(t);
    in->serve_clean = in->keys.at({c.rmi_n, 0});
    LISPOISON_ASSIGN_OR_RETURN(in->serve_base,
                               in->serve_clean.Union(rmi.AllPoisonKeys()));
    in->setup_rmi = std::move(rmi);
  } else {
    in->serve_clean = in->keys.at({c.serve_n, 0});
    in->serve_base = in->serve_clean;
  }

  const auto t1 = Clock::now();
  WorkloadSpec spec;
  if (c.read_only) {
    spec.name = "zipfian_read_only";
    spec.read_fraction = 1.0;
    spec.distribution = AccessDistribution::kZipfian;
    spec.zipf_theta = 0.99;
    spec.zipf_scramble = true;
    spec.seed = in->seed;
  } else {
    spec = InsertHeavyWorkload(in->seed);
  }
  LISPOISON_ASSIGN_OR_RETURN(
      in->ops, GenerateOperations(spec, in->serve_base, c.serve_ops));
  if (c.adv_ops > 0) {
    // Split the writers: the adversary sees the lowest quarter of the
    // keys (the first shard), and every stream insert is redrawn from
    // the gaps of the other three quarters.
    const std::int64_t quarter = in->serve_base.size() / kShards;
    LISPOISON_ASSIGN_OR_RETURN(in->adversary_view,
                               in->serve_base.Slice(0, quarter));
    LISPOISON_ASSIGN_OR_RETURN(
        KeySet upper,
        in->serve_base.Slice(quarter, in->serve_base.size() - quarter));
    WorkloadSpec fresh;
    fresh.name = "upper_inserts";
    fresh.read_fraction = 0.0;
    fresh.insert_fraction = 1.0;
    fresh.seed = in->seed + 2;
    const auto inserts = std::count_if(
        in->ops.begin(), in->ops.end(),
        [](const Operation& op) { return op.type == OpType::kInsert; });
    LISPOISON_ASSIGN_OR_RETURN(std::vector<Operation> keys,
                               GenerateOperations(fresh, upper, inserts));
    auto next = keys.begin();
    for (Operation& op : in->ops) {
      if (op.type == OpType::kInsert) op.key = (next++)->key;
    }
  }
  if (c.insert_probe_ops > 0) {
    WorkloadSpec probe;
    probe.name = "insert_probe";
    probe.read_fraction = 0.0;
    probe.insert_fraction = 1.0;
    probe.seed = in->seed + 1;
    LISPOISON_ASSIGN_OR_RETURN(
        in->probe_ops,
        GenerateOperations(probe, in->serve_base, c.insert_probe_ops));
  }
  in->opgen_s = SecondsSince(t1);

  LISPOISON_ASSIGN_OR_RETURN(
      in->backend,
      CreateBackend(BackendKind::kRmi, in->serve_base, MakeBackendOptions(c)));
  in->setup_s = SecondsSince(t0);
  return Status::OK();
}

DriverOptions MakeDriverOptions() {
  DriverOptions o;
  o.num_threads = kDriverThreads;
  o.read_group = kReadGroup;
  o.latency_sample_every = 1;
  return o;
}

// Output checks on the attack results.
void CheckGreedy(const Bench& b, const GreedyPoisonResult& ins,
                 const DeletionAttackResult& del) {
  const Config& c = b.cfg;
  Report& r = *b.report;
  r.Check(static_cast<std::int64_t>(ins.poison_keys.size()) == c.ins_p &&
              ins.RatioLoss() > 1.0,
          "greedy insertion places " + std::to_string(c.ins_p) +
              " keys, ratio loss " + Report::Num(ins.RatioLoss()) + " > 1");
  r.Check(static_cast<std::int64_t>(del.removed_keys.size()) == c.del_d,
          "greedy deletion removes " + std::to_string(c.del_d) + " keys");
}

void CheckRmi(const Bench& b, const RmiAttackResult& rmi) {
  const Config& c = b.cfg;
  Report& r = *b.report;
  const std::int64_t budget = static_cast<std::int64_t>(
      std::floor(c.rmi_phi * static_cast<double>(c.rmi_n)));
  r.Check(rmi.total_poison_keys == budget &&
              static_cast<std::int64_t>(rmi.AllPoisonKeys().size()) ==
                  budget &&
              rmi.rmi_ratio_loss > 1.0,
          "PoisonRmi places its full budget " + std::to_string(budget) +
              ", RMI ratio loss " + Report::Num(rmi.rmi_ratio_loss) + " > 1");
}

// The four attack calls, attack_reps times. A serve-poisoned unit's
// PoisonRmi ran in set-up and is not repeated.
Status AttackStage(const Bench& b, int unit, UnitResult* u) {
  const Config& c = b.cfg;
  Report& r = *b.report;
  const Inputs& in = u->inputs;
  for (int rep = 0; rep < c.attack_reps; ++rep) {
    const auto keys = [&in](std::int64_t n, int draw) -> const KeySet& {
      return in.keys.at({n, draw});
    };
    const int call = unit * c.attack_reps + rep;
    GreedyPoisonResult ins, mt;
    DeletionAttackResult del;
    {
      AttackOptions opts;  // Serial: num_threads = 1.
      TraceSpan span(TraceCategory::kBench, "greedy_insert", call);
      const auto t = Clock::now();
      LISPOISON_ASSIGN_OR_RETURN(
          ins, GreedyPoisonCdf(keys(c.ins_n, rep), c.ins_p, opts));
      u->greedy_insert_s.push_back(SecondsSince(t));
      r.Ops(1, 0);
    }
    {
      AttackOptions opts;
      TraceSpan span(TraceCategory::kBench, "greedy_delete", call);
      const auto t = Clock::now();
      LISPOISON_ASSIGN_OR_RETURN(
          del, GreedyDeleteCdf(keys(c.del_n, rep), c.del_d, {}, opts));
      u->greedy_delete_s.push_back(SecondsSince(t));
      r.Ops(1, 0);
    }
    for (int k = 0; k < c.mt_calls; ++k) {
      AttackOptions opts;
      opts.num_threads = c.mt_threads;
      TraceSpan span(TraceCategory::kBench, "greedy_insert_mt",
                     call * c.mt_calls + k);
      const auto t = Clock::now();
      LISPOISON_ASSIGN_OR_RETURN(
          GreedyPoisonResult pooled,
          GreedyPoisonCdf(keys(c.mt_n, rep + k * c.attack_reps), c.mt_p,
                          opts));
      u->greedy_insert_mt_s.push_back(SecondsSince(t));
      r.Ops(1, 0);
      if (k == 0) mt = std::move(pooled);
    }
    CheckGreedy(b, ins, del);
    std::optional<RmiAttackResult> rmi;
    if (!in.setup_rmi.has_value()) {
      TraceSpan span(TraceCategory::kBench, "poison_rmi", call);
      const auto t = Clock::now();
      LISPOISON_ASSIGN_OR_RETURN(
          rmi, PoisonRmi(keys(c.rmi_n, rep), MakeRmiOptions(c)));
      u->rmi_attack_s.push_back(SecondsSince(t));
    } else if (rep == 0) {
      rmi = *in.setup_rmi;
      u->rmi_attack_s.push_back(in.setup_rmi_s);
    }
    if (rmi.has_value()) {
      CheckRmi(b, *rmi);
      r.Ops(1, 0);
    }
    if (rep == 0) {
      u->ins = std::move(ins);
      u->del = std::move(del);
      u->mt = std::move(mt);
      u->rmi = std::move(*rmi);
    }
  }
  return Status::OK();
}

void AddLatencies(const DriverResult& d, UnitResult* u) {
  u->ops_s.push_back(d.ThroughputOpsPerSec());
  if (d.read_latency.count() > 0) {
    u->read_p50.push_back(InterpolatedQuantile(d.read_latency, 0.50));
    u->read_p99.push_back(InterpolatedQuantile(d.read_latency, 0.99));
    u->read_samples += d.read_latency.count();
  }
  if (d.insert_latency.count() > 0) {
    u->insert_p50.push_back(InterpolatedQuantile(d.insert_latency, 0.50));
    u->insert_p99.push_back(InterpolatedQuantile(d.insert_latency, 0.99));
    u->insert_samples += d.insert_latency.count();
  }
}

// Membership checks after a write stream has drained: every stream
// insert and every live poison is found, every key the adversary
// removed is absent, and the shed ledger telescopes. The adversary
// writes only below the stream's insert range, so it cannot have
// refused or removed a stream insert.
void CheckAfterDrain(const Bench& b, const UnitResult& u,
                     const std::vector<Operation>& ops) {
  const SearchBackend& be = *u.inputs.backend;
  const AdversaryResult none;
  const AdversaryResult& adv = u.adversary ? *u.adversary : none;
  std::int64_t missing = 0, inserts = 0;
  for (const Operation& op : ops) {
    if (op.type != OpType::kInsert) continue;
    ++inserts;
    missing += be.Lookup(op.key).found ? 0 : 1;
  }
  b.report->Check(missing == 0,
                  b.cfg.workload + ": all " + std::to_string(inserts) +
                      " stream inserts found after drain (" +
                      std::to_string(u.driver.insert_failures) +
                      " refused)");
  std::int64_t lost_poison = 0, resurrected = 0;
  for (Key k : adv.live_poison_keys) lost_poison += !be.Lookup(k).found;
  for (Key k : adv.removed_legit_keys) resurrected += be.Lookup(k).found;
  b.report->Check(lost_poison == 0,
                  b.cfg.workload + ": all " +
                      std::to_string(adv.live_poison_keys.size()) +
                      " live adversary poisons found");
  b.report->Check(resurrected == 0,
                  b.cfg.workload + ": all " +
                      std::to_string(adv.removed_legit_keys.size()) +
                      " adversary-removed keys absent");
  b.report->Check(be.shed_inserts() == u.driver.inserts_shed + adv.shed,
                  b.cfg.workload +
                      ": shed_inserts == driver + adversary sheds");
}

Status ServeStage(const Bench& b, int unit, UnitResult* u) {
  const Config& c = b.cfg;
  Report& r = *b.report;
  SearchBackend* be = u->inputs.backend.get();
  const std::vector<Operation>& ops = u->inputs.ops;
  const DriverOptions dopts = MakeDriverOptions();
  const std::int64_t pub0 = b.publishes->Value(), ret0 = b.retires->Value();

  if (c.read_only) {
    for (int w = 0; w < c.windows; ++w) {
      TraceSpan span(TraceCategory::kBench, "serve_window",
                     unit * c.windows + w);
      LISPOISON_ASSIGN_OR_RETURN(u->driver, RunWorkload(be, ops, dopts));
      AddLatencies(u->driver, u);
      u->window_work.push_back(u->driver.total_work);
      u->driver_run_s += u->driver.elapsed_seconds;
      r.Ops(u->driver.total_ops, 0);
      r.Check(u->driver.read_found == u->driver.reads,
              c.workload + " window " + std::to_string(w) + ": " +
                  std::to_string(u->driver.read_found) + "/" +
                  std::to_string(u->driver.reads) + " lookups found");
    }
    r.Check(std::all_of(u->window_work.begin(), u->window_work.end(),
                        [&](std::int64_t w) {
                          return w == u->window_work.front();
                        }),
            c.workload + ": read work total identical across windows");
  } else {
    std::optional<Result<AdversaryResult>> adv;
    std::thread attacker;
    if (c.adv_ops > 0) {
      AdversaryOptions ao;
      ao.ops = c.adv_ops;
      ao.delete_fraction = 0.15;
      ao.modify_fraction = 0.15;
      ao.model_size = c.model_size;
      ao.pace_ns = static_cast<std::int64_t>(c.adv_span_s * 1e9 /
                                             static_cast<double>(c.adv_ops));
      ao.seed = u->inputs.seed + 1;
      const KeySet* base = &u->inputs.adversary_view;
      attacker = std::thread([&adv, be, base, ao] {
        TraceSpan span(TraceCategory::kBench, "adversary", 0);
        adv = RunOnlineAdversary(be, *base, ao);
      });
    }
    Result<DriverResult> d = DriverResult{};
    {
      TraceSpan span(TraceCategory::kBench, "serve_run", unit);
      d = RunWorkload(be, ops, dopts);
    }
    if (attacker.joinable()) attacker.join();
    const auto t = Clock::now();
    {
      TraceSpan span(TraceCategory::kBench, "drain", unit);
      be->WaitForMaintenance();
    }
    u->drain_ms = 1e3 * SecondsSince(t);
    if (!d.ok()) return d.status();
    u->driver = std::move(*d);
    u->driver_run_s = u->driver.elapsed_seconds;
    AddLatencies(u->driver, u);
    r.Ops(u->driver.total_ops, u->driver.insert_failures);
    if (adv.has_value()) {
      if (!adv->ok()) return adv->status();
      u->adversary = std::move(**adv);
      r.Ops(u->adversary->ops_planned,
            u->adversary->rejected + u->adversary->skipped);
    }
    CheckAfterDrain(b, *u, ops);
  }
  u->publishes = b.publishes->Value() - pub0;
  u->retires = b.retires->Value() - ret0;
  u->compactions = be->compactions();
  u->publish_overlay_max = be->max_publish_overlay();
  u->rebuild_retries = be->rebuild_retries();

  if (!u->inputs.probe_ops.empty()) {
    // Insert latency of a read-only workload: an insert-only stream
    // after the timed reads, on the same backend.
    TraceSpan span(TraceCategory::kBench, "insert_probe", unit);
    LISPOISON_ASSIGN_OR_RETURN(DriverResult p,
                               RunWorkload(be, u->inputs.probe_ops, dopts));
    be->WaitForMaintenance();
    if (p.insert_latency.count() > 0) {
      u->insert_p50.push_back(InterpolatedQuantile(p.insert_latency, 0.50));
      u->insert_p99.push_back(InterpolatedQuantile(p.insert_latency, 0.99));
      u->insert_samples += p.insert_latency.count();
    }
    r.Ops(p.total_ops, p.insert_failures);
    std::int64_t missing = 0;
    for (const Operation& op : u->inputs.probe_ops) {
      missing += be->Lookup(op.key).found ? 0 : 1;
    }
    r.Check(p.insert_failures == 0 && missing == 0,
            c.workload + ": all " + std::to_string(p.inserts) +
                " probe inserts accepted and found");
  }
  return Status::OK();
}

// Runs unit `unit` on the inputs of unit `input` (the traced run
// repeats the untraced unit's inputs).
Status RunUnit(const Bench& b, int unit, int input, UnitResult* u) {
  u->inputs.seed = UnitSeed(b.seed, input);
  LISPOISON_RETURN_IF_ERROR(Setup(b, unit, &u->inputs));
  u->setup_s = u->inputs.setup_s;
  LISPOISON_RETURN_IF_ERROR(AttackStage(b, unit, u));
  return ServeStage(b, unit, u);
}

// ---------------------------------------------------------------------------
// End-to-end metrics over units.
// ---------------------------------------------------------------------------

struct EndToEnd {
  std::vector<double> setup_s, greedy_insert_s, greedy_delete_s,
      greedy_insert_mt_s, rmi_attack_s;
  std::vector<double> ops_s, read_p50, read_p99, insert_p50, insert_p99;
  std::int64_t read_samples = 0, insert_samples = 0;
  int units = 0;
  double peak_rss_mb = 0;  // High-water mark when the first unit ended.

  void Add(const UnitResult& u) {
    if (units++ == 0) {
      rusage ru{};
      getrusage(RUSAGE_SELF, &ru);
      peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    }
    setup_s.push_back(u.setup_s);
    const auto append = [](const std::vector<double>& from,
                           std::vector<double>* to) {
      to->insert(to->end(), from.begin(), from.end());
    };
    append(u.greedy_insert_s, &greedy_insert_s);
    append(u.greedy_delete_s, &greedy_delete_s);
    append(u.greedy_insert_mt_s, &greedy_insert_mt_s);
    append(u.rmi_attack_s, &rmi_attack_s);
    append(u.ops_s, &ops_s);
    append(u.read_p50, &read_p50);
    append(u.read_p99, &read_p99);
    append(u.insert_p50, &insert_p50);
    append(u.insert_p99, &insert_p99);
    read_samples += u.read_samples;
    insert_samples += u.insert_samples;
  }

  // name -> (median, unit, basis) in BENCHMARK.json order.
  std::vector<std::pair<std::string, std::pair<double, std::string>>> Values()
      const {
    return {
        {"setup_s", {Median(setup_s), "s"}},
        {"peak_rss_mb", {peak_rss_mb, "MB"}},
        {"greedy_insert_s", {Median(greedy_insert_s), "s"}},
        {"greedy_delete_s", {Median(greedy_delete_s), "s"}},
        {"greedy_insert_mt_s", {Median(greedy_insert_mt_s), "s"}},
        {"rmi_attack_s", {Median(rmi_attack_s), "s"}},
        {"ops_s", {Median(ops_s), "ops/s"}},
        {"read_p50_ns", {Median(read_p50), "ns"}},
        {"read_p99_ns", {Median(read_p99), "ns"}},
        {"insert_p50_ns", {Median(insert_p50), "ns"}},
        {"insert_p99_ns", {Median(insert_p99), "ns"}},
    };
  }

  std::string Basis(const std::string& name) const {
    const auto count = [](const std::vector<double>& v) {
      return std::to_string(v.size());
    };
    if (name == "peak_rss_mb") return "getrusage max RSS after the first unit";
    const std::map<std::string, const std::vector<double>*> calls = {
        {"greedy_insert_s", &greedy_insert_s},
        {"greedy_delete_s", &greedy_delete_s},
        {"greedy_insert_mt_s", &greedy_insert_mt_s},
        {"rmi_attack_s", &rmi_attack_s}};
    if (calls.count(name) > 0) {
      return "median of " + count(*calls.at(name)) + " calls";
    }
    if (name == "ops_s") return "median of " + count(ops_s) + " driver runs";
    if (name == "read_p50_ns" || name == "read_p99_ns") {
      return "median of " + count(read_p50) + " driver runs, " +
             std::to_string(read_samples) + " read samples";
    }
    if (name == "insert_p50_ns" || name == "insert_p99_ns") {
      return "median of " + count(insert_p50) + " driver runs, " +
             std::to_string(insert_samples) + " insert samples";
    }
    return "median of " + std::to_string(units) + " units";
  }
};

// ---------------------------------------------------------------------------
// Layer pass (--trace=1).
// ---------------------------------------------------------------------------

// Every `kSpanEvery`-th round, call or batch gets a kBench span, which
// keeps each thread's trace ring far from overflowing.
constexpr std::int64_t kSpanEvery = 16;

struct ReplayStats {
  std::vector<Key> keys;
  double argmax_s = 0, commit_s = 0;
  std::int64_t rounds = 0, splice_moves = 0;
  std::int64_t touched_slots = 0, commits = 0;
  LossLandscape::ArgmaxStats stats;
};

// Replays GreedyPoisonCdf (remove=false) or GreedyDeleteCdf (remove=true)
// round by round through the landscape's public calls.
Result<ReplayStats> ReplayGreedy(const KeySet& keys, std::int64_t rounds,
                                 bool remove, int threads, const char* name) {
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
  LISPOISON_ASSIGN_OR_RETURN(LossLandscape land,
                             LossLandscape::Create(keys, pool.get()));
  const LossLandscape::ArgmaxOptions argmax = AttackOptions{}.ArgmaxKnobs();
  ReplayStats s;
  s.keys.reserve(static_cast<std::size_t>(rounds));
  const std::int64_t splice0 = land.splice_moves();
  for (std::int64_t i = 0; i < rounds; ++i) {
    const bool traced = i % kSpanEvery == 0;
    std::optional<TraceSpan> round_span;
    if (traced) round_span.emplace(TraceCategory::kBench, name, i);
    auto t = Clock::now();
    Result<LossLandscape::Candidate> best = LossLandscape::Candidate{};
    {
      std::optional<TraceSpan> span;
      if (traced) span.emplace(TraceCategory::kBench, "argmax", i);
      best = remove ? land.FindOptimalRemoval(nullptr, pool.get(), argmax,
                                              &s.stats)
                    : land.FindOptimal(true, nullptr, pool.get(), argmax,
                                       &s.stats);
    }
    auto t2 = Clock::now();
    s.argmax_s += SecondsBetween(t, t2);
    if (!best.ok()) return best.status();
    {
      std::optional<TraceSpan> span;
      if (traced) span.emplace(TraceCategory::kBench, "commit", i);
      LISPOISON_RETURN_IF_ERROR(remove ? land.RemoveKey(best->key)
                                       : land.InsertKey(best->key));
    }
    s.commit_s += SecondsSince(t2);
    s.keys.push_back(best->key);
  }
  s.rounds = rounds;
  s.splice_moves = land.splice_moves() - splice0;
  s.touched_slots = land.removal_commit_touched_slots();
  s.commits = land.removal_commits();
  return s;
}

double PerRound(double total, std::int64_t rounds) {
  return total / static_cast<double>(std::max<std::int64_t>(rounds, 1));
}

double PerRound(std::int64_t total, std::int64_t rounds) {
  return PerRound(static_cast<double>(total), rounds);
}

template <typename F>
double TimePerCall(std::int64_t calls, const char* name, F&& body) {
  // body(i) runs call i; a span wraps every kSpanEvery-th batch of 1024.
  constexpr std::int64_t kBatch = 1024;
  const auto t0 = Clock::now();
  for (std::int64_t first = 0; first < calls; first += kBatch) {
    std::optional<TraceSpan> span;
    if ((first / kBatch) % kSpanEvery == 0) {
      span.emplace(TraceCategory::kBench, name, first);
    }
    const std::int64_t end = std::min(calls, first + kBatch);
    for (std::int64_t i = first; i < end; ++i) body(i);
  }
  return PerRound(SecondsSince(t0), calls);
}

Status LayerPass(const Bench& b, const UnitResult& u) {
  const Config& c = b.cfg;
  Report& r = *b.report;
  const Inputs& in = u.inputs;
  const int nproc =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));

  // --- attack: Create, then the three greedy loops round by round.
  std::vector<double> creates;
  for (int i = 0; i < 3; ++i) {
    TraceSpan span(TraceCategory::kBench, "landscape_create", i);
    const auto t = Clock::now();
    LISPOISON_ASSIGN_OR_RETURN(LossLandscape land,
                               LossLandscape::Create(in.keys.at({c.ins_n, 0})));
    creates.push_back(SecondsSince(t));
    if (land.size() != c.ins_n) return Status::Internal("landscape size");
  }
  LISPOISON_ASSIGN_OR_RETURN(
      ReplayStats ins, ReplayGreedy(in.keys.at({c.ins_n, 0}), c.ins_p, false, 1,
                                    "insert_round"));
  LISPOISON_ASSIGN_OR_RETURN(
      ReplayStats del, ReplayGreedy(in.keys.at({c.del_n, 0}), c.del_d, true, 1,
                                    "remove_round"));
  LISPOISON_ASSIGN_OR_RETURN(
      ReplayStats mt, ReplayGreedy(in.keys.at({c.mt_n, 0}), c.mt_p, false,
                                   c.mt_threads, "insert_mt_round"));
  r.Check(ins.keys == u.ins.poison_keys,
          "traced insertion replay selects GreedyPoisonCdf's sequence");
  r.Check(del.keys == u.del.removed_keys,
          "traced deletion replay selects GreedyDeleteCdf's sequence");
  r.Check(mt.keys == u.mt.poison_keys,
          "traced pooled replay selects the pooled GreedyPoisonCdf sequence");
  r.Ops(3, 0);

  // PoisonRmi with exchanges off, and with the library's default
  // thread count, on the first repetition's keys.
  const KeySet& rmi_keys = in.keys.at({c.rmi_n, 0});
  RmiAttackOptions alloc_opts = MakeRmiOptions(c);
  alloc_opts.max_exchanges = -1;
  double rmi_alloc_s = 0, rmi_pooled_s = 0;
  {
    TraceSpan span(TraceCategory::kBench, "poison_rmi_alloc_only", 0);
    const auto t = Clock::now();
    LISPOISON_ASSIGN_OR_RETURN(RmiAttackResult alloc,
                               PoisonRmi(rmi_keys, alloc_opts));
    rmi_alloc_s = SecondsSince(t);
    r.Ops(1, 0);
  }
  {
    RmiAttackOptions pooled_opts = MakeRmiOptions(c);
    pooled_opts.num_threads = 0;
    TraceSpan span(TraceCategory::kBench, "poison_rmi_pooled", 0);
    const auto t = Clock::now();
    LISPOISON_ASSIGN_OR_RETURN(RmiAttackResult pooled,
                               PoisonRmi(rmi_keys, pooled_opts));
    rmi_pooled_s = SecondsSince(t);
    r.Ops(1, 0);
    r.Check(pooled.AllPoisonKeys() == u.rmi.AllPoisonKeys(),
            "PoisonRmi places the same keys with the default thread count "
            "as inline");
  }

  // --- common: dispatch cost of an empty ParallelFor.
  std::vector<double> dispatch;
  {
    ThreadPool pool(nproc);
    for (int i = 0; i < 2000; ++i) {
      std::optional<TraceSpan> span;
      if (i % kSpanEvery == 0) {
        span.emplace(TraceCategory::kBench, "parallel_for", i);
      }
      const auto t = Clock::now();
      pool.ParallelFor(nproc, [](std::int64_t) {});
      dispatch.push_back(SecondsSince(t));
    }
  }

  // --- index: train one shard's keys, then predict/lookup the stream's reads.
  const KeySet& base = in.serve_base;
  RmiOptions rmi_opts;
  rmi_opts.target_model_size = c.model_size;
  std::vector<double> trains;
  const std::int64_t shard_n = base.size() / kShards;
  LISPOISON_ASSIGN_OR_RETURN(KeySet shard_keys, base.Slice(0, shard_n));
  for (int i = 0; i < 5; ++i) {
    TraceSpan span(TraceCategory::kBench, "learned_index_build", i);
    const auto t = Clock::now();
    LISPOISON_ASSIGN_OR_RETURN(LearnedIndex idx,
                               LearnedIndex::Build(shard_keys, rmi_opts));
    trains.push_back(SecondsSince(t));
    if (idx.size() != shard_n) return Status::Internal("index size");
  }
  LISPOISON_ASSIGN_OR_RETURN(LearnedIndex index,
                             LearnedIndex::Build(base, rmi_opts));
  LISPOISON_ASSIGN_OR_RETURN(LearnedIndex clean_index,
                             LearnedIndex::Build(in.serve_clean, rmi_opts));
  std::vector<Key> reads;
  for (const Operation& op : in.ops) {
    if (op.type == OpType::kRead) reads.push_back(op.key);
    if (reads.size() >= 262144) break;
  }
  const auto nreads = static_cast<std::int64_t>(reads.size());
  std::int64_t sink = 0, probes = 0, index_found = 0;
  const auto read = [&reads](std::int64_t i) {
    return reads[static_cast<std::size_t>(i)];
  };
  const double predict_s =
      TimePerCall(nreads, "rmi_predict", [&](std::int64_t i) {
        sink += index.rmi().PredictPosition(read(i));
      });
  const double lookup_s =
      TimePerCall(nreads, "index_lookup", [&](std::int64_t i) {
        const LookupResult lr = index.Lookup(read(i));
        probes += lr.probes;
        index_found += lr.found;
      });
  r.Check(index_found == nreads, "LearnedIndex finds every read key");
  r.Check(sink >= 0 && sink <= nreads * (base.size() - 1),
          "Rmi::PredictPosition stays inside the key array");

  // --- backend: a fresh backend with the workload's options.
  LISPOISON_ASSIGN_OR_RETURN(
      std::unique_ptr<SearchBackend> probe_be,
      CreateBackend(BackendKind::kRmi, base, MakeBackendOptions(c)));
  std::int64_t be_work = 0, be_found = 0;
  const double be_lookup_s =
      TimePerCall(nreads, "backend_lookup", [&](std::int64_t i) {
        const BackendOpResult br = probe_be->Lookup(read(i));
        be_work += br.work;
        be_found += br.found;
      });
  BackendOpResult group[16];
  const std::int64_t ngroups = nreads / 16;
  const double be_batch_s =
      TimePerCall(ngroups, "backend_lookup_batch", [&](std::int64_t g) {
        probe_be->LookupBatch(&reads[static_cast<std::size_t>(g * 16)], 16,
                              group);
        for (const BackendOpResult& br : group) be_found += br.found;
      }) / 16.0;
  r.Check(be_found == nreads + ngroups * 16,
          "backend Lookup and LookupBatch find every read key");
  std::vector<Key> fresh;
  for (const Operation& op : in.ops) {
    if (op.type == OpType::kInsert) fresh.push_back(op.key);
  }
  for (const Operation& op : in.probe_ops) fresh.push_back(op.key);
  if (fresh.size() > 4096) fresh.resize(4096);
  const auto nfresh = static_cast<std::int64_t>(fresh.size());
  std::int64_t write_errors = 0;
  const auto fresh_key = [&fresh](std::int64_t i) {
    return fresh[static_cast<std::size_t>(i)];
  };
  const double insert_s =
      TimePerCall(nfresh, "backend_insert", [&](std::int64_t i) {
        write_errors += !probe_be->Insert(fresh_key(i)).ok();
      });
  const double remove_s =
      TimePerCall(nfresh, "backend_remove", [&](std::int64_t i) {
        write_errors += !probe_be->Remove(fresh_key(i)).ok();
      });
  probe_be->WaitForMaintenance();
  r.Check(write_errors == 0, "backend probe inserts and removes succeed");
  r.Ops(2 * nfresh, write_errors);

  // --- adversary: the unit's own run, or a short run on a fresh backend.
  AdversaryResult adv;
  if (u.adversary.has_value()) {
    adv = *u.adversary;
  } else {
    LISPOISON_ASSIGN_OR_RETURN(
        std::unique_ptr<SearchBackend> victim,
        CreateBackend(BackendKind::kRmi, base, MakeBackendOptions(c)));
    AdversaryOptions ao;
    ao.ops = std::clamp<std::int64_t>(base.size() / 100, 20, 300);
    ao.model_size = c.model_size;
    ao.seed = in.seed + 1;
    TraceSpan span(TraceCategory::kBench, "adversary_probe", 0);
    LISPOISON_ASSIGN_OR_RETURN(adv,
                               RunOnlineAdversary(victim.get(), base, ao));
    victim->WaitForMaintenance();
    r.Ops(adv.ops_planned, adv.rejected + adv.skipped);
  }

  const std::int64_t pruned =
      ins.stats.pruned_gaps + del.stats.pruned_gaps + mt.stats.pruned_gaps;
  const std::int64_t exact =
      ins.stats.exact_evals + del.stats.exact_evals + mt.stats.exact_evals;
  const auto count = [&r](const char* name, std::int64_t v) {
    r.Metric(name, static_cast<double>(v), "count");
  };
  const auto calls = [](std::int64_t n) {
    return std::to_string(n) + " calls";
  };

  r.Metric("attack.create_ms", 1e3 * Median(creates), "ms",
           "median of 3 Create calls");
  r.Metric("attack.argmax_insert_us", 1e6 * PerRound(ins.argmax_s, ins.rounds),
           "us");
  r.Metric("attack.commit_insert_us", 1e6 * PerRound(ins.commit_s, ins.rounds),
           "us");
  r.Metric("attack.splice_moves_per_commit",
           PerRound(ins.splice_moves, ins.rounds), "moves/commit");
  r.Metric("attack.argmax_remove_us", 1e6 * PerRound(del.argmax_s, del.rounds),
           "us");
  r.Metric("attack.commit_remove_us", 1e6 * PerRound(del.commit_s, del.rounds),
           "us");
  r.Metric("attack.soa_slots_per_commit",
           PerRound(del.touched_slots, del.commits), "slots/commit");
  r.Metric("attack.argmax_insert_mt_us",
           1e6 * PerRound(mt.argmax_s, mt.rounds), "us");
  const std::pair<const char*, const ReplayStats*> replays[] = {
      {"insert", &ins}, {"remove", &del}, {"insert_mt", &mt}};
  for (const auto& [suffix, rs] : replays) {
    r.Metric(std::string("attack.exact_evals_per_round.") + suffix,
             PerRound(rs->stats.exact_evals, rs->rounds), "evals/round");
  }
  for (const auto& [suffix, rs] : replays) {
    r.Metric(std::string("attack.bound_evals_per_round.") + suffix,
             PerRound(rs->stats.bound_evals, rs->rounds), "evals/round");
  }
  r.Metric("attack.pruned_frac", PerRound(pruned, pruned + exact), "frac",
           "pruned / (pruned + exact) over the three replays");
  count("attack.fallback_rounds", ins.stats.fallback_rounds +
                                      del.stats.fallback_rounds +
                                      mt.stats.fallback_rounds);
  r.Metric("attack.rmi_alloc_s", rmi_alloc_s, "s",
           "PoisonRmi with max_exchanges=-1");
  r.Metric("attack.rmi_exchange_s", u.rmi_attack_s.front() - rmi_alloc_s,
           "s", "traced unit's PoisonRmi minus the allocation-only call");
  count("attack.rmi_exchanges", u.rmi.exchanges_applied);
  r.Metric("attack.rmi_pooled_s", rmi_pooled_s, "s",
           "PoisonRmi with num_threads=0 (one worker per hardware thread)");
  r.Metric("common.pool_dispatch_us", 1e6 * Median(dispatch), "us",
           "median of 2000 empty ParallelFor over " + std::to_string(nproc) +
               " tasks");
  r.Metric("data.keygen_s", in.keygen_s, "s");
  r.Metric("data.opgen_s", in.opgen_s, "s");
  r.Metric("index.train_ms", 1e3 * Median(trains), "ms",
           "median of 5 LearnedIndex::Build on " + std::to_string(shard_n) +
               " keys");
  r.Metric("index.predict_ns", 1e9 * predict_s, "ns", calls(nreads));
  r.Metric("index.lookup_ns", 1e9 * lookup_s, "ns", calls(nreads));
  r.Metric("index.probes_per_lookup", PerRound(probes, nreads), "probes/op");
  r.Metric("index.window_mean_slots", index.rmi().MeanErrorWindow(), "slots");
  r.Metric("index.window_mean_slots_clean",
           clean_index.rmi().MeanErrorWindow(), "slots");
  r.Metric("workload.backend.lookup_ns", 1e9 * be_lookup_s, "ns",
           calls(nreads));
  r.Metric("workload.backend.lookup_batch_ns", 1e9 * be_batch_s, "ns",
           "per key, " + std::to_string(ngroups) + " batches of 16");
  r.Metric("workload.backend.work_per_read", PerRound(be_work, nreads),
           "work/op");
  r.Metric("workload.backend.insert_ns", 1e9 * insert_s, "ns", calls(nfresh));
  r.Metric("workload.backend.remove_ns", 1e9 * remove_s, "ns", calls(nfresh));
  r.Metric("workload.backend.publish_overlay_max",
           static_cast<double>(u.publish_overlay_max), "keys");
  count("workload.backend.publishes", u.publishes);
  count("workload.backend.retires", u.retires);
  count("workload.backend.compactions", u.compactions);
  r.Metric("workload.backend.drain_ms", u.drain_ms, "ms");
  count("workload.backend.rebuild_retries", u.rebuild_retries);
  r.Metric("workload.driver.run_s", u.driver_run_s, "s");
  count("workload.driver.insert_failures", u.driver.insert_failures);
  r.Metric("workload.adversary.ms_per_op",
           1e3 * PerRound(adv.elapsed_seconds, adv.ops_planned), "ms",
           u.adversary ? "the traced unit's adversary"
                       : "probe adversary on a fresh backend");
  count("workload.adversary.replans", adv.replans);
  r.Metric("workload.adversary.rebuilt_frac",
           PerRound(adv.models_rebuilt, adv.models_rebuilt + adv.models_kept),
           "frac");
  count("workload.adversary.rejected", adv.rejected);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Environment.
// ---------------------------------------------------------------------------

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    std::string s(reinterpret_cast<const char*>(regs), sizeof(regs));
    s.erase(s.find_last_not_of(std::string(" \0", 2)) + 1);
    s.erase(0, s.find_first_not_of(' '));
    std::replace(s.begin(), s.end(), ' ', '_');
    return s;
  }
#endif
  return "unknown";
}

void PrintEnv(const Bench& b, const std::string& commit, bool trace) {
  const Config& c = b.cfg;
  Report& r = *b.report;
  r.Env("workload", c.workload);
  r.Env("seed", std::to_string(b.seed));
  r.Env("trace", trace ? "1" : "0");
  r.Env("commit", commit.empty() ? "unknown" : commit);
  r.Env("nproc", std::to_string(std::thread::hardware_concurrency()));
  r.Env("cpu", CpuModel());
  r.Env("l2_bytes", std::to_string(sysconf(_SC_LEVEL2_CACHE_SIZE)));
  r.Env("l3_bytes", std::to_string(sysconf(_SC_LEVEL3_CACHE_SIZE)));
  char attack[256];
  std::snprintf(attack, sizeof(attack),
                "insert n=%lld p=%lld; delete n=%lld d=%lld; pooled insert "
                "n=%lld p=%lld threads=%d calls=%d; rmi n=%lld "
                "model_size=%lld phi=%g threads=1; repetitions_per_unit=%d",
                static_cast<long long>(c.ins_n),
                static_cast<long long>(c.ins_p),
                static_cast<long long>(c.del_n),
                static_cast<long long>(c.del_d),
                static_cast<long long>(c.mt_n), static_cast<long long>(c.mt_p),
                c.mt_threads, c.mt_calls, static_cast<long long>(c.rmi_n),
                static_cast<long long>(c.model_size), c.rmi_phi,
                c.attack_reps);
  r.Env("attack", attack);
  char serve[320];
  std::snprintf(serve, sizeof(serve),
                "%s closed-loop driver_threads=%d read_group=%d shards=%d "
                "compact_threshold=%lld ops=%lld windows_per_unit=%d "
                "adversary_ops=%lld%s insert_probe_ops=%lld",
                c.read_only ? "zipfian(0.99,scrambled) read-only"
                            : "InsertHeavyWorkload 50r/50i uniform",
                kDriverThreads, kReadGroup, kShards,
                static_cast<long long>(c.compact_threshold),
                static_cast<long long>(c.serve_ops), c.windows,
                static_cast<long long>(c.adv_ops),
                c.adv_ops > 0 ? " (view: lowest quarter of the keys; "
                                "stream inserts: the rest)"
                              : "",
                static_cast<long long>(c.insert_probe_ops));
  r.Env("serve", serve);
}

void PrintWorkingSet(const Bench& b, const Inputs& in) {
  std::int64_t key_bytes = 0;
  for (const auto& kv : in.keys) {
    key_bytes += kv.second.size() * static_cast<std::int64_t>(sizeof(Key));
  }
  b.report->Env("serve_keys", std::to_string(in.serve_base.size()));
  b.report->Env("working_set_key_bytes", std::to_string(key_bytes));
  b.report->Env("serve_base_bytes",
                std::to_string(in.serve_base.size() *
                               static_cast<std::int64_t>(sizeof(Key))));
  b.report->Env("op_stream_bytes",
                std::to_string((in.ops.size() + in.probe_ops.size()) *
                               sizeof(Operation)));
}

// One serial GreedyPoisonCdf on the pooled phase's inputs: pooled and
// serial insertion must select the same sequence.
void CheckPooledMatchesSerial(const Bench& b, const UnitResult& u) {
  auto serial = GreedyPoisonCdf(u.inputs.keys.at({b.cfg.mt_n, 0}), b.cfg.mt_p);
  if (!serial.ok()) {
    b.report->Error("serial GreedyPoisonCdf on the pooled inputs",
                    serial.status());
    return;
  }
  b.report->Ops(1, 0);
  std::printf("note pooled/serial exact evaluations on the pooled inputs "
              "(n=%lld p=%lld): %lld / %lld = %.1fx\n",
              static_cast<long long>(b.cfg.mt_n),
              static_cast<long long>(b.cfg.mt_p),
              static_cast<long long>(u.mt.argmax_stats.exact_evals),
              static_cast<long long>(serial->argmax_stats.exact_evals),
              static_cast<double>(u.mt.argmax_stats.exact_evals) /
                  static_cast<double>(std::max<std::int64_t>(
                      serial->argmax_stats.exact_evals, 1)));
  b.report->Check(serial->poison_keys == u.mt.poison_keys,
                  "pooled and serial insertion select the same " +
                      std::to_string(b.cfg.mt_p) + " keys");
}

int Main(int argc, char** argv) {
  // Keep freed memory in the process: every unit after the first then
  // reuses pages the first one faulted in, instead of paying first-touch
  // faults whose cost varies with the host.
  mallopt(M_MMAP_THRESHOLD, 1 << 30);
  mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
  FlagParser flags(argc, argv);
  const std::string workload = flags.GetString("workload", "");
  const bool tiny = flags.GetString("scale", "full") == "tiny";
  const bool trace = flags.GetInt("trace", 0) != 0;
  const double seconds = flags.GetDouble("seconds", 55);
  Bench b;
  b.cfg = MakeConfig(workload, tiny);
  if (b.cfg.workload.empty()) {
    std::fprintf(stderr,
                 "unknown --workload '%s' (attack, serve-read, serve-write)\n",
                 workload.c_str());
    return 2;
  }
  b.seed = static_cast<std::uint64_t>(flags.GetInt("seed", 42));
  Report report;
  b.report = &report;
  TelemetryRegistry& telemetry = TelemetryRegistry::Global();
  b.publishes = telemetry.GetCounter("serving.snapshot_publish");
  b.retires = telemetry.GetCounter("serving.snapshot_retire");
  PrintEnv(b, flags.GetString("commit", ""), trace);

  const auto fail = [&](const std::string& what, const Status& s) {
    report.Error(what, s);
    report.PrintResult();
    return 1;
  };

  EndToEnd e2e;
  const auto run_start = Clock::now();
  if (!trace) {
    for (int unit = 0; unit < b.cfg.max_units; ++unit) {
      UnitResult u;
      Status s = RunUnit(b, unit, unit, &u);
      if (!s.ok()) return fail("unit " + std::to_string(unit), s);
      if (unit == 0) {
        PrintWorkingSet(b, u.inputs);
        CheckPooledMatchesSerial(b, u);
      }
      e2e.Add(u);
      std::printf("unit %d setup_s=%.4f greedy_insert_s=%.4f "
                  "greedy_delete_s=%.4f greedy_insert_mt_s=%.4f "
                  "rmi_attack_s=%.4f ops_s=%.0f\n",
                  unit, u.setup_s, Median(u.greedy_insert_s),
                  Median(u.greedy_delete_s), Median(u.greedy_insert_mt_s),
                  Median(u.rmi_attack_s), Median(u.ops_s));
      // Stop when one more unit of the mean length would overrun.
      const double elapsed = SecondsSince(run_start);
      if (e2e.units >= b.cfg.min_units &&
          elapsed * (e2e.units + 1) / e2e.units > seconds) {
        break;
      }
    }
    report.Env("units", std::to_string(e2e.units));
    report.Env("measured_s", SecondsSince(run_start));
    for (const auto& kv : e2e.Values()) {
      report.Metric(kv.first, kv.second.first, kv.second.second,
                    e2e.Basis(kv.first));
    }
    report.PrintResult();
    return report.correct() ? 0 : 1;
  }

  // Traced run: one untraced unit, one traced unit, then the layer pass.
  UnitResult plain;
  Status s = RunUnit(b, 0, 0, &plain);
  if (!s.ok()) return fail("untraced unit", s);
  PrintWorkingSet(b, plain.inputs);
  CheckPooledMatchesSerial(b, plain);
  EndToEnd untraced;
  untraced.Add(plain);

  TraceSession& session = TraceSession::Global();
  session.Start(/*events_per_thread=*/1 << 16);
  UnitResult traced;
  s = RunUnit(b, 1, 0, &traced);
  if (!s.ok()) return fail("traced unit", s);
  EndToEnd traced_e2e;
  traced_e2e.Add(traced);
  if (b.cfg.read_only) {
    report.Check(traced.window_work == plain.window_work,
                 "serve-read: read work totals match between untraced and "
                 "traced runs");
  }
  s = LayerPass(b, traced);
  session.Stop();
  if (!s.ok()) return fail("layer pass", s);

  const auto plain_values = untraced.Values();
  const auto traced_values = traced_e2e.Values();
  for (std::size_t i = 0; i < plain_values.size(); ++i) {
    const double a = plain_values[i].second.first;
    const double t = traced_values[i].second.first;
    std::printf("overhead %s untraced=%s traced=%s diff=%s %s\n",
                plain_values[i].first.c_str(), Report::Num(a).c_str(),
                Report::Num(t).c_str(), Report::Num(t - a).c_str(),
                plain_values[i].second.second.c_str());
  }
  const std::string trace_out =
      flags.GetString("trace-out", "perfbench_trace.json");
  report.Check(session.dropped() == 0,
               "trace ring dropped " + std::to_string(session.dropped()) +
                   " of " + std::to_string(session.recorded()) + " events");
  const Status w = session.WriteJsonFile(trace_out);
  report.Check(w.ok(), "trace written to " + trace_out);
  report.Env("trace_events", std::to_string(session.recorded()));
  report.PrintResult();
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace lispoison

int main(int argc, char** argv) { return lispoison::Main(argc, argv); }
