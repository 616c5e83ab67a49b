// Attack-construction throughput: the incremental landscape engine and
// the parallel RMI poisoner against their pre-refactor rebuild-per-round
// references, on the key distributions the paper evaluates (clustered /
// OSM-like dense runs, log-normal skew, sparse uniform).
//
// Run the acceptance configuration and commit the JSON trajectory:
//   ./bench_attack_throughput --benchmark_out=BENCH_attack_throughput.json \
//       --benchmark_out_format=json
// CI smoke-runs this binary with a small --benchmark_filter +
// --benchmark_min_time cap; the committed JSON comes from a full run.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <utility>

#include "attack/deletion_attack.h"
#include "attack/greedy_poisoner.h"
#include "attack/rmi_poisoner.h"
#include "common/rng.h"
#include "data/generators.h"
#include "data/keyset.h"

namespace lispoison {
namespace {

/// Threads actually used for a num_threads setting (0 = one per core).
double ResolvedThreads(std::int64_t num_threads) {
  if (num_threads > 0) return static_cast<double>(num_threads);
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1.0 : static_cast<double>(hw);
}

/// ROADMAP: every throughput JSON records the machine's core count and
/// the thread setting so multi-core trajectories stay interpretable.
void ReportThreads(benchmark::State& state, std::int64_t num_threads) {
  state.counters["hardware_concurrency"] =
      ResolvedThreads(0);
  state.counters["num_threads"] = ResolvedThreads(num_threads);
}

enum Dataset : std::int64_t {
  kDenseRuns = 0,  // Contiguous ID runs far apart (Section VI's dense
                   // clusters; sequential IDs / timestamps with holes).
  kUniform = 1,    // Sparse uniform over a wide domain.
  kLogNormal = 2,  // The paper's skewed synthetic workload.
};

/// Deterministic keyset cache so every engine benchmarks the same keys.
const KeySet& CachedKeyset(Dataset dataset, std::int64_t n) {
  static std::map<std::pair<std::int64_t, std::int64_t>, KeySet>* cache =
      new std::map<std::pair<std::int64_t, std::int64_t>, KeySet>();
  const auto key = std::make_pair(static_cast<std::int64_t>(dataset), n);
  auto it = cache->find(key);
  if (it != cache->end()) return it->second;
  Rng rng(0xC0FFEE + static_cast<std::uint64_t>(dataset));
  Result<KeySet> ks = Status::Internal("unset");
  switch (dataset) {
    case kDenseRuns: {
      // 50 contiguous runs separated by equally sized holes: long dense
      // stretches with few maximal gaps, the regime of real learned-index
      // keys (sequential IDs, timestamps, OSM latitudes).
      const std::int64_t runs = 50;
      const std::int64_t run_len = n / runs;
      std::vector<Key> keys;
      keys.reserve(static_cast<std::size_t>(n));
      Key cursor = 0;
      for (std::int64_t b = 0; b < runs; ++b) {
        for (std::int64_t i = 0; i < run_len; ++i) keys.push_back(cursor + i);
        cursor += 2 * run_len;  // run, then an equally long hole.
      }
      ks = KeySet::Create(std::move(keys), KeyDomain{0, cursor});
      break;
    }
    case kUniform:
      ks = GenerateUniform(n, KeyDomain{0, 100 * n}, &rng);
      break;
    case kLogNormal:
      ks = GenerateLogNormal(n, KeyDomain{0, 100 * n}, &rng);
      break;
  }
  if (!ks.ok()) {
    std::fprintf(stderr, "keyset generation failed: %s\n",
                 ks.status().message().c_str());
    std::abort();
  }
  return cache->emplace(key, std::move(*ks)).first->second;
}

void ReportGreedy(benchmark::State& state, const GreedyPoisonResult& r,
                  std::int64_t p) {
  state.counters["poisons_per_sec"] = benchmark::Counter(
      static_cast<double>(p), benchmark::Counter::kIsIterationInvariantRate);
  state.counters["ratio_loss"] = r.RatioLoss();
}

/// Argmax work per attack construction (one full greedy run / one RMI
/// attack): exact Theorem 1 evaluations and gaps pruned by the bound
/// scan. Deterministic per configuration, so the committed baseline
/// JSON doubles as the PR-over-PR record of the pruning win.
void ReportArgmax(benchmark::State& state,
                  const LossLandscape::ArgmaxStats& stats) {
  state.counters["exact_evals"] = static_cast<double>(stats.exact_evals);
  state.counters["bound_evals"] = static_cast<double>(stats.bound_evals);
  state.counters["pruned_gaps"] = static_cast<double>(stats.pruned_gaps);
  state.counters["cached_bounds"] =
      static_cast<double>(stats.cached_bounds);
  state.counters["invalidated_gaps"] =
      static_cast<double>(stats.invalidated_gaps);
  state.counters["fallback_rounds"] =
      static_cast<double>(stats.fallback_rounds);
}

void BM_GreedyPoisonCdf_Incremental(benchmark::State& state) {
  const auto dataset = static_cast<Dataset>(state.range(0));
  const std::int64_t n = state.range(1);
  const std::int64_t p = state.range(2);
  const std::int64_t num_threads = state.range(3);
  const bool prune = state.range(4) != 0;
  const KeySet& ks = CachedKeyset(dataset, n);
  AttackOptions options;
  options.num_threads = static_cast<int>(num_threads);
  options.prune_argmax = prune;
  GreedyPoisonResult last;
  for (auto _ : state) {
    auto r = GreedyPoisonCdf(ks, p, options);
    if (!r.ok()) {
      state.SkipWithError(r.status().message().c_str());
      break;
    }
    last = std::move(*r);
    benchmark::DoNotOptimize(last.poisoned_loss);
  }
  ReportGreedy(state, last, p);
  ReportArgmax(state, last.argmax_stats);
  ReportThreads(state, num_threads);
}

void BM_GreedyPoisonCdf_Reference(benchmark::State& state) {
  const auto dataset = static_cast<Dataset>(state.range(0));
  const std::int64_t n = state.range(1);
  const std::int64_t p = state.range(2);
  const KeySet& ks = CachedKeyset(dataset, n);
  GreedyPoisonResult last;
  for (auto _ : state) {
    auto r = GreedyPoisonCdfReference(ks, p);
    if (!r.ok()) {
      state.SkipWithError(r.status().message().c_str());
      break;
    }
    last = std::move(*r);
    benchmark::DoNotOptimize(last.poisoned_loss);
  }
  ReportGreedy(state, last, p);
  ReportThreads(state, 1);
}

// ---------------------------------------------------------------------------
// Update-stream attacks (paper §V): deletion and modification on the
// persistent incremental engine vs the rebuild-per-round references.
// The "poisons"/ratio counters keep the insertion benches' names so the
// golden-structure and compare tooling treats every attack uniformly
// (a "poison" here is one committed removal / relocation).
// ---------------------------------------------------------------------------

void BM_GreedyDeleteCdf_Incremental(benchmark::State& state) {
  const auto dataset = static_cast<Dataset>(state.range(0));
  const std::int64_t n = state.range(1);
  const std::int64_t d = state.range(2);
  const std::int64_t num_threads = state.range(3);
  const bool prune = state.range(4) != 0;
  const KeySet& ks = CachedKeyset(dataset, n);
  AttackOptions options;
  options.num_threads = static_cast<int>(num_threads);
  options.prune_argmax = prune;
  DeletionAttackResult last;
  for (auto _ : state) {
    auto r = GreedyDeleteCdf(ks, d, /*deletable=*/{}, options);
    if (!r.ok()) {
      state.SkipWithError(r.status().message().c_str());
      break;
    }
    last = std::move(*r);
    benchmark::DoNotOptimize(last.attacked_loss);
  }
  state.counters["poisons_per_sec"] = benchmark::Counter(
      static_cast<double>(d), benchmark::Counter::kIsIterationInvariantRate);
  state.counters["ratio_loss"] = last.RatioLoss();
  ReportArgmax(state, last.argmax_stats);
  // Block-local removal-SoA commit cost: the per-commit quotient is the
  // O(sqrt(n)) scaling evidence the --attack-10m gate holds across the
  // n=100k -> n=10M rows.
  state.counters["rem_touched_slots"] =
      static_cast<double>(last.removal_commit_touched_slots);
  state.counters["rem_commits"] =
      static_cast<double>(last.removal_commits);
  ReportThreads(state, num_threads);
}

void BM_GreedyDeleteCdf_Reference(benchmark::State& state) {
  const auto dataset = static_cast<Dataset>(state.range(0));
  const std::int64_t n = state.range(1);
  const std::int64_t d = state.range(2);
  const KeySet& ks = CachedKeyset(dataset, n);
  DeletionAttackResult last;
  for (auto _ : state) {
    auto r = GreedyDeleteCdfReference(ks, d);
    if (!r.ok()) {
      state.SkipWithError(r.status().message().c_str());
      break;
    }
    last = std::move(*r);
    benchmark::DoNotOptimize(last.attacked_loss);
  }
  state.counters["poisons_per_sec"] = benchmark::Counter(
      static_cast<double>(d), benchmark::Counter::kIsIterationInvariantRate);
  state.counters["ratio_loss"] = last.RatioLoss();
  ReportThreads(state, 1);
}

void BM_GreedyModifyCdf_Incremental(benchmark::State& state) {
  const auto dataset = static_cast<Dataset>(state.range(0));
  const std::int64_t n = state.range(1);
  const std::int64_t moves = state.range(2);
  const std::int64_t num_threads = state.range(3);
  const bool prune = state.range(4) != 0;
  const KeySet& ks = CachedKeyset(dataset, n);
  AttackOptions options;
  options.num_threads = static_cast<int>(num_threads);
  options.prune_argmax = prune;
  ModificationAttackResult last;
  for (auto _ : state) {
    auto r = GreedyModifyCdf(ks, moves, /*movable=*/{}, options);
    if (!r.ok()) {
      state.SkipWithError(r.status().message().c_str());
      break;
    }
    last = std::move(*r);
    benchmark::DoNotOptimize(last.attacked_loss);
  }
  state.counters["poisons_per_sec"] = benchmark::Counter(
      static_cast<double>(moves),
      benchmark::Counter::kIsIterationInvariantRate);
  state.counters["ratio_loss"] = last.RatioLoss();
  ReportArgmax(state, last.argmax_stats);
  state.counters["rem_touched_slots"] =
      static_cast<double>(last.removal_commit_touched_slots);
  state.counters["rem_commits"] =
      static_cast<double>(last.removal_commits);
  ReportThreads(state, num_threads);
}

void BM_GreedyModifyCdf_Reference(benchmark::State& state) {
  const auto dataset = static_cast<Dataset>(state.range(0));
  const std::int64_t n = state.range(1);
  const std::int64_t moves = state.range(2);
  const KeySet& ks = CachedKeyset(dataset, n);
  ModificationAttackResult last;
  for (auto _ : state) {
    auto r = GreedyModifyCdfReference(ks, moves);
    if (!r.ok()) {
      state.SkipWithError(r.status().message().c_str());
      break;
    }
    last = std::move(*r);
    benchmark::DoNotOptimize(last.attacked_loss);
  }
  state.counters["poisons_per_sec"] = benchmark::Counter(
      static_cast<double>(moves),
      benchmark::Counter::kIsIterationInvariantRate);
  state.counters["ratio_loss"] = last.RatioLoss();
  ReportThreads(state, 1);
}

void BM_PoisonRmi_Incremental(benchmark::State& state) {
  const auto dataset = static_cast<Dataset>(state.range(0));
  const std::int64_t n = state.range(1);
  const std::int64_t num_models = state.range(2);
  const int num_threads = static_cast<int>(state.range(3));
  const bool prune = state.range(4) != 0;
  const KeySet& ks = CachedKeyset(dataset, n);
  RmiAttackOptions opts;
  opts.poison_fraction = 0.10;
  opts.num_models = num_models;
  opts.num_threads = num_threads;
  opts.prune_argmax = prune;
  for (auto _ : state) {
    auto r = PoisonRmi(ks, opts);
    if (!r.ok()) {
      state.SkipWithError(r.status().message().c_str());
      break;
    }
    benchmark::DoNotOptimize(r->poisoned_rmi_loss);
    state.counters["rmi_ratio_loss"] = r->rmi_ratio_loss;
    state.counters["exchanges"] = static_cast<double>(r->exchanges_applied);
    ReportArgmax(state, r->argmax_stats);
    // The exchange simulations' receiver-side scans, and whether the
    // max_exchanges cap (not epsilon) ended the exchange loop.
    state.counters["xchg_exact_evals"] =
        static_cast<double>(r->exchange_stats.exact_evals);
    state.counters["xchg_bound_evals"] =
        static_cast<double>(r->exchange_stats.bound_evals);
    state.counters["cap_hit"] = r->exchange_cap_hit ? 1 : 0;
  }
  ReportThreads(state, num_threads);
}

void BM_PoisonRmi_Reference(benchmark::State& state) {
  const auto dataset = static_cast<Dataset>(state.range(0));
  const std::int64_t n = state.range(1);
  const std::int64_t num_models = state.range(2);
  const KeySet& ks = CachedKeyset(dataset, n);
  RmiAttackOptions opts;
  opts.poison_fraction = 0.10;
  opts.num_models = num_models;
  for (auto _ : state) {
    auto r = PoisonRmiReference(ks, opts);
    if (!r.ok()) {
      state.SkipWithError(r.status().message().c_str());
      break;
    }
    benchmark::DoNotOptimize(r->poisoned_rmi_loss);
    state.counters["rmi_ratio_loss"] = r->rmi_ratio_loss;
    state.counters["exchanges"] = static_cast<double>(r->exchanges_applied);
  }
  ReportThreads(state, 1);
}

// Acceptance configuration: n=100k, p=1000 greedy; n=100k, 200 models
// RMI. Smaller variants first so CI smoke filters stay cheap. The
// incremental configs carry a num_threads arg (1 = serial argmax, 0 =
// one worker per core) and a prune arg (1 = the branch-and-bound tiered
// scan, 0 = exhaustive) — the prune-off siblings of the sparse configs
// keep the exact_evals and bound_evals reductions measurable
// PR-over-PR from the committed JSON alone (tools/check_bench_json.py
// asserts that the tiered bound_evals stay >= 10x below the exhaustive
// exact_evals on the committed baseline's sparse prune pairs).
BENCHMARK(BM_GreedyPoisonCdf_Incremental)
    ->Unit(benchmark::kMillisecond)
    ->Args({kDenseRuns, 10000, 100, 1, 1})
    ->Args({kDenseRuns, 10000, 100, 1, 0})
    ->Args({kDenseRuns, 100000, 1000, 1, 1})
    ->Args({kLogNormal, 100000, 1000, 1, 1})
    ->Args({kLogNormal, 100000, 1000, 1, 0})
    ->Args({kLogNormal, 100000, 1000, 0, 1})
    // Pooled exhaustive scan: every round's ~100k live gaps reach the
    // fan-out threshold, where the pruned threads = 0 rows stay under
    // it and run the serial scan.
    ->Args({kLogNormal, 100000, 1000, 0, 0})
    ->Args({kUniform, 100000, 1000, 1, 1})
    ->Args({kUniform, 100000, 1000, 1, 0})
    ->Args({kUniform, 100000, 1000, 0, 1})
    // ISSUE 9 scale row: n=10M (no reference sibling — the
    // rebuild-per-round baseline needs O(p*n) work per run and would
    // take hours; the --attack-10m gate instead holds the per-commit
    // counters sublinear against the n=100k rows). Excluded from the
    // CI smoke filter, present in the committed full-run JSON. The
    // pooled sibling's rounds (~357k live gaps each) fan out.
    ->Args({kUniform, 10000000, 200, 1, 1})
    ->Args({kUniform, 10000000, 200, 0, 1});
BENCHMARK(BM_GreedyPoisonCdf_Reference)
    ->Unit(benchmark::kMillisecond)
    ->Args({kDenseRuns, 10000, 100})
    ->Args({kDenseRuns, 100000, 1000})
    ->Args({kLogNormal, 100000, 1000})
    ->Args({kUniform, 100000, 1000});
// Update-stream configs: same 5-arg layout as the insertion attacks
// (dataset, n, budget, threads, prune). The pruned removal argmax is
// the block-chord tiered scan (one bound per ~sqrt(n)-key block,
// per-key re-scoring only in surviving blocks); the deletion gate
// (>= 10x deletion wall-clock vs the rebuild-per-round reference at
// n=100k) is asserted on the committed JSON by
// tools/check_bench_json.py.
BENCHMARK(BM_GreedyDeleteCdf_Incremental)
    ->Unit(benchmark::kMillisecond)
    ->Args({kDenseRuns, 10000, 100, 1, 1})
    ->Args({kDenseRuns, 10000, 100, 1, 0})
    ->Args({kUniform, 100000, 200, 1, 1})
    ->Args({kUniform, 100000, 200, 1, 0})
    ->Args({kUniform, 100000, 200, 0, 1})
    ->Args({kLogNormal, 100000, 200, 1, 1})
    // ISSUE 9 scale row: same d=200 budget as the n=100k rows so the
    // per-commit SoA touched-slot quotient is directly comparable.
    ->Args({kUniform, 10000000, 200, 1, 1});
BENCHMARK(BM_GreedyDeleteCdf_Reference)
    ->Unit(benchmark::kMillisecond)
    ->Args({kDenseRuns, 10000, 100})
    ->Args({kUniform, 100000, 200})
    ->Args({kLogNormal, 100000, 200});
BENCHMARK(BM_GreedyModifyCdf_Incremental)
    ->Unit(benchmark::kMillisecond)
    ->Args({kDenseRuns, 10000, 50, 1, 1})
    ->Args({kDenseRuns, 10000, 50, 1, 0})
    ->Args({kUniform, 100000, 100, 1, 1})
    ->Args({kUniform, 100000, 100, 0, 1});
BENCHMARK(BM_GreedyModifyCdf_Reference)
    ->Unit(benchmark::kMillisecond)
    ->Args({kDenseRuns, 10000, 50})
    ->Args({kUniform, 100000, 100});
// Dense runs saturate the per-model budget at paper scale (most models
// own a fully contiguous span with no interior candidate), so the RMI
// configurations use the paper's skewed and uniform workloads. Their
// prune pairs also gate the exchange phase: tools/check_bench_json.py
// asserts >= 10x fewer xchg_exact_evals with pruning on the committed
// baseline.
BENCHMARK(BM_PoisonRmi_Incremental)
    ->Unit(benchmark::kMillisecond)
    ->Args({kDenseRuns, 10000, 20, 1, 1})
    ->Args({kLogNormal, 100000, 200, 1, 1})
    ->Args({kLogNormal, 100000, 200, 1, 0})
    ->Args({kLogNormal, 100000, 200, 0, 1})
    ->Args({kUniform, 100000, 200, 1, 1})
    ->Args({kUniform, 100000, 200, 1, 0});
BENCHMARK(BM_PoisonRmi_Reference)
    ->Unit(benchmark::kMillisecond)
    ->Args({kDenseRuns, 10000, 20})
    ->Args({kLogNormal, 100000, 200})
    ->Args({kUniform, 100000, 200});

}  // namespace
}  // namespace lispoison

int main(int argc, char** argv) {
  benchmark::AddCustomContext(
      "hardware_concurrency",
      std::to_string(std::thread::hardware_concurrency()));
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
