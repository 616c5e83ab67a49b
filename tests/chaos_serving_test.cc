// Seeded chaos storms against the serving engine: every failure-capable
// subsystem is armed at once (rebuild faults, pool stalls, reclamation
// skips) while writer threads churn and a reader hammers the lock-free
// path, and the harness asserts the invariants the overload-resilience
// design promises:
//
//   1. Membership: every key a writer observed committed is found,
//      every key it removed — or that was shed — is absent. A shed
//      (kResourceExhausted) commits NOTHING.
//   2. Admission control: no shard's overlay ever exceeds
//      overlay_hard_cap, storm or not.
//   3. Availability: reads never block (the WriterMutex tripwire aborts
//      the process if the read path ever takes a lock) and keep
//      completing throughout the storm.
//   4. Accounting: the backend's shed_inserts() telescopes exactly
//      against the sheds its callers observed.
//   5. Recovery: once the storm is disarmed, degraded shards drain back
//      to zero and every compaction threshold is restored to the
//      configured value — the storm leaves no permanent scar.
//
// Same seed => same injected fault sequence (each point's decision
// stream is forked from the plan seed and the point name), so a failing
// seed from CI replays locally. CHAOS_TEST_SEEDS scales the sweep: the
// default is a quick smoke; CI runs 200 (500 under sanitizers).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "common/rng.h"
#include "data/generators.h"
#include "data/keyset.h"
#include "workload/query_driver.h"
#include "workload/search_backend.h"
#include "workload/workload.h"

namespace lispoison {
namespace {

int ChaosSeeds() {
  const char* env = std::getenv("CHAOS_TEST_SEEDS");
  if (env == nullptr) return 20;
  const int n = std::atoi(env);
  return n > 0 ? n : 20;
}

KeySet TestKeys(std::int64_t n, std::uint64_t seed) {
  Rng rng(seed);
  auto ks = GenerateUniform(n, KeyDomain{0, 100 * n}, &rng);
  EXPECT_TRUE(ks.ok());
  return *ks;
}

/// One writer's ground truth, built purely from observed op outcomes.
struct WriterOracle {
  std::map<Key, bool> present;  // Every key ever touched -> live now?
  std::int64_t sheds = 0;
  std::int64_t commits = 0;
};

/// Churns a disjoint key stripe: inserts fresh keys, removes and
/// re-inserts its own committed ones. Every outcome updates the oracle;
/// a shed leaves membership untouched by definition.
void WriterLoop(SearchBackend* backend, std::uint64_t seed, Key stripe_start,
                int ops, std::int64_t overlay_cap, WriterOracle* oracle) {
  Rng rng(seed);
  Key next_fresh = stripe_start;
  std::vector<Key> live;  // Committed and not since removed.
  for (int op = 0; op < ops; ++op) {
    const bool do_insert = live.empty() || rng.NextDouble() < 0.6;
    if (do_insert) {
      const Key k = next_fresh++;
      const Status st = backend->Insert(k);
      if (st.ok()) {
        oracle->present[k] = true;
        oracle->commits += 1;
        live.push_back(k);
      } else {
        // The only legal refusal on a brand-new key is a degraded-mode
        // shed; the key must NOT have been stored.
        ASSERT_EQ(st.code(), StatusCode::kResourceExhausted)
            << st.message();
        oracle->present[k] = false;
        oracle->sheds += 1;
      }
    } else {
      const auto idx = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(live.size()) - 1));
      const Key k = live[idx];
      ASSERT_TRUE(backend->Remove(k).ok()) << "remove of committed key " << k;
      oracle->present[k] = false;
      live[idx] = live.back();
      live.pop_back();
    }
    if (op % 32 == 0) {
      // Invariant 2, probed mid-storm from the lock-free read path.
      for (int s = 0; s < backend->num_shards(); ++s) {
        ASSERT_LE(backend->shard_overlay_size(s), overlay_cap);
      }
    }
  }
}

TEST(ChaosServingTest, SeededStormsPreserveInvariants) {
  const int seeds = ChaosSeeds();
  for (int storm = 0; storm < seeds; ++storm) {
    const std::uint64_t seed = 1000 + static_cast<std::uint64_t>(storm);
    SCOPED_TRACE("storm seed " + std::to_string(seed));

    const std::int64_t n = 4000;
    const KeySet base = TestKeys(n, seed);
    BackendOptions opts;
    opts.rmi.target_model_size = 200;
    opts.num_shards = 2;
    opts.compact_threshold = 48;
    opts.overlay_hard_cap = 96;
    opts.compaction_max_retries = 2;
    opts.compaction_backoff_base_us = 50;
    opts.compaction_backoff_max_us = 400;
    opts.watchdog_stall_ms = 0;  // The watchdog has its own timing test.
    auto made = CreateBackend(BackendKind::kRmi, base, opts);
    ASSERT_TRUE(made.ok()) << made.status().message();
    auto backend = std::move(*made);

    // Arm everything at once: failing rebuilds, a stalling maintenance
    // pool, and skipped reclamation passes.
    FaultSpec rebuild;
    rebuild.probability = 0.3;
    FaultSpec stall;
    stall.probability = 0.2;
    stall.latency_ns = 200'000;  // 0.2ms wedges, not wall-clock blowup.
    stall.fail = false;
    FaultSpec reclaim_skip;
    reclaim_skip.probability = 0.5;
    FaultPlan(seed)
        .Arm("compaction.rebuild", rebuild)
        .Arm("pool.task", stall)
        .Arm("epoch.reclaim", reclaim_skip)
        .Activate();

    // Two writers on disjoint stripes above the base key domain, one
    // reader proving availability (invariant 3: if the read path ever
    // blocked on a writer lock the tripwire aborts the binary). The
    // writers never touch base keys, so every reader lookup must hit.
    constexpr int kWriters = 2;
    constexpr int kOpsPerWriter = 800;
    constexpr std::int64_t kReadsBeforeWriters = 64;
    WriterOracle oracles[kWriters];
    std::atomic<bool> done{false};
    std::atomic<std::int64_t> reads{0};
    std::atomic<std::int64_t> read_misses{0};
    std::thread reader([&] {
      std::size_t i = 0;
      while (!done.load(std::memory_order_acquire)) {
        if (!backend->Lookup(base.keys()[i % base.keys().size()]).found) {
          read_misses.fetch_add(1, std::memory_order_relaxed);
        }
        reads.fetch_add(1, std::memory_order_release);
        i += 17;
      }
    });
    // Latch: the storm starts only once the reader is running, so the
    // reads below overlap the writers instead of depending on how the
    // scheduler orders the threads.
    while (reads.load(std::memory_order_acquire) < kReadsBeforeWriters) {
      std::this_thread::yield();
    }
    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w) {
      const Key stripe = 100 * n + 1000 + static_cast<Key>(w) * 10'000'000;
      writers.emplace_back([&, w, stripe] {
        WriterLoop(backend.get(), seed * 31 + static_cast<std::uint64_t>(w),
                   stripe, kOpsPerWriter, opts.overlay_hard_cap, &oracles[w]);
      });
    }
    for (auto& t : writers) t.join();
    done.store(true, std::memory_order_release);
    reader.join();
    backend->WaitForMaintenance();
    FaultRegistry::Global().DisarmAll();
    EXPECT_GT(reads.load(), 0);
    EXPECT_EQ(read_misses.load(), 0) << "a base key went missing mid-storm";

    // Invariant 4: the backend's shed counter telescopes exactly
    // against what the writers observed — before any recovery traffic.
    std::int64_t observed_sheds = 0;
    for (const WriterOracle& o : oracles) observed_sheds += o.sheds;
    EXPECT_EQ(backend->shed_inserts(), observed_sheds);

    // Invariant 1: membership matches the per-op oracle. No lost
    // commits, no resurrected sheds or removes.
    for (const WriterOracle& o : oracles) {
      for (const auto& [k, live] : o.present) {
        EXPECT_EQ(backend->Lookup(k).found, live) << "key " << k;
      }
    }
    for (int s = 0; s < backend->num_shards(); ++s) {
      EXPECT_LE(backend->shard_overlay_size(s), opts.overlay_hard_cap);
    }

    // Invariant 5: with the storm disarmed, fresh traffic drains every
    // degraded shard and a successful compaction per shard restores the
    // configured threshold. The nudge inserts may themselves shed while
    // a shard is still degraded — shedding re-kicks compaction, which
    // is exactly the recovery mechanism under test.
    auto recovered = [&] {
      if (backend->degraded_shards() != 0) return false;
      for (int s = 0; s < backend->num_shards(); ++s) {
        if (backend->shard_threshold(s) != opts.compact_threshold) {
          return false;
        }
      }
      return true;
    };
    Key nudge = 100 * n + 1000 + kWriters * 10'000'000;
    for (int round = 0; round < 100 && !recovered(); ++round) {
      for (int i = 0; i < 2 * static_cast<int>(opts.compact_threshold); ++i) {
        (void)backend->Insert(nudge++);
      }
      backend->WaitForMaintenance();
    }
    EXPECT_EQ(backend->degraded_shards(), 0);
    for (int s = 0; s < backend->num_shards(); ++s) {
      EXPECT_EQ(backend->shard_threshold(s), opts.compact_threshold);
      EXPECT_FALSE(backend->shard_degraded(s));
    }
  }
}

}  // namespace
}  // namespace lispoison
