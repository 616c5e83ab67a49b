// Differential proof that the incremental GreedyPoisonCdf selects
// byte-identical poison sequences to the pre-refactor rebuild-per-round
// algorithm. Two oracles are compared against: the library's exported
// GreedyPoisonCdfReference, and an independent inline copy of the
// original Algorithm 1 loop kept verbatim in this test so a regression
// in the exported reference cannot mask one in the engine.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "attack/deletion_attack.h"
#include "attack/greedy_poisoner.h"
#include "attack/loss_landscape.h"
#include "common/rng.h"
#include "data/generators.h"
#include "data/keyset.h"

namespace lispoison {
namespace {

/// Verbatim pre-refactor Algorithm 1: rebuild the KeySet and the
/// landscape every round, commit the argmax gap endpoint.
std::vector<Key> InlineReferenceGreedy(const KeySet& keyset, std::int64_t p,
                                       bool interior_only) {
  std::vector<Key> poison_keys;
  std::vector<Key> work = keyset.keys();
  const KeyDomain domain = keyset.domain();
  // The oracle stays on the exhaustive scan — pruning (the default) is
  // exactly what this test must be independent of.
  LossLandscape::ArgmaxOptions exhaustive;
  exhaustive.prune = false;
  for (std::int64_t round = 0; round < p; ++round) {
    auto current = KeySet::Create(work, domain);
    if (!current.ok()) break;
    auto landscape = LossLandscape::Create(*current);
    if (!landscape.ok()) break;
    auto best = landscape->FindOptimal(interior_only, nullptr, nullptr,
                                       exhaustive);
    if (!best.ok()) break;
    const Key kp = best->key;
    work.insert(std::lower_bound(work.begin(), work.end(), kp), kp);
    poison_keys.push_back(kp);
  }
  return poison_keys;
}

void ExpectIdenticalAttacks(const KeySet& keyset, std::int64_t p,
                            bool interior_only) {
  AttackOptions options;
  options.interior_only = interior_only;
  auto fast = GreedyPoisonCdf(keyset, p, options);
  auto reference = GreedyPoisonCdfReference(keyset, p, options);
  ASSERT_TRUE(fast.ok()) << fast.status().message();
  ASSERT_TRUE(reference.ok()) << reference.status().message();

  // Byte-identical selections and bit-identical losses.
  EXPECT_EQ(fast->poison_keys, reference->poison_keys);
  EXPECT_EQ(fast->base_loss, reference->base_loss);
  EXPECT_EQ(fast->poisoned_loss, reference->poisoned_loss);
  ASSERT_EQ(fast->loss_trajectory.size(), reference->loss_trajectory.size());
  for (std::size_t i = 0; i < fast->loss_trajectory.size(); ++i) {
    EXPECT_EQ(fast->loss_trajectory[i], reference->loss_trajectory[i])
        << "round " << i;
  }

  EXPECT_EQ(fast->poison_keys,
            InlineReferenceGreedy(keyset, p, interior_only));
}

/// Every ArgmaxStats counter of two runs. The parallel chunks and the
/// incumbent seeded before fan-out are a pure function of the
/// structure, not of the worker count, so the counters of fanned-out
/// runs agree across pool sizes (they differ from serial, which scans
/// one chunk), and a pooled run whose rounds never fan out has the
/// serial counters.
void ExpectSameStats(const LossLandscape::ArgmaxStats& want,
                     const LossLandscape::ArgmaxStats& got, int threads) {
  EXPECT_EQ(got.rounds, want.rounds) << threads << " threads";
  EXPECT_EQ(got.exact_evals, want.exact_evals) << threads << " threads";
  EXPECT_EQ(got.bound_evals, want.bound_evals) << threads << " threads";
  EXPECT_EQ(got.pruned_gaps, want.pruned_gaps) << threads << " threads";
  EXPECT_EQ(got.cached_bounds, want.cached_bounds) << threads << " threads";
  EXPECT_EQ(got.invalidated_gaps, want.invalidated_gaps)
      << threads << " threads";
  EXPECT_EQ(got.fallback_rounds, want.fallback_rounds)
      << threads << " threads";
}

TEST(GreedyDifferentialTest, UniformKeysInterior) {
  Rng rng(21);
  auto ks = GenerateUniform(500, KeyDomain{0, 49999}, &rng);
  ASSERT_TRUE(ks.ok());
  ExpectIdenticalAttacks(*ks, 50, /*interior_only=*/true);
}

TEST(GreedyDifferentialTest, UniformKeysFullDomain) {
  Rng rng(22);
  auto ks = GenerateUniform(300, KeyDomain{0, 9999}, &rng);
  ASSERT_TRUE(ks.ok());
  ExpectIdenticalAttacks(*ks, 40, /*interior_only=*/false);
}

TEST(GreedyDifferentialTest, LogNormalKeys) {
  Rng rng(23);
  auto ks = GenerateLogNormal(400, KeyDomain{0, 99999}, &rng);
  ASSERT_TRUE(ks.ok());
  ExpectIdenticalAttacks(*ks, 60, /*interior_only=*/true);
}

TEST(GreedyDifferentialTest, ClusteredKeys) {
  Rng rng(24);
  const std::vector<ClusterSpec> clusters = {
      {0.15, 0.02, 1.0}, {0.5, 0.01, 2.0}, {0.85, 0.03, 1.0}};
  auto ks = GenerateClustered(600, KeyDomain{0, 199999}, clusters, &rng);
  ASSERT_TRUE(ks.ok());
  ExpectIdenticalAttacks(*ks, 80, /*interior_only=*/true);
}

TEST(GreedyDifferentialTest, DenseDomainNearSaturation) {
  // Dense keyset: the poisoning range nearly saturates, exercising the
  // single-key-gap and gap-erasure paths.
  Rng rng(25);
  auto ks = GenerateUniform(120, KeyDomain{0, 199}, &rng);
  ASSERT_TRUE(ks.ok());
  ExpectIdenticalAttacks(*ks, 30, /*interior_only=*/true);
}

TEST(GreedyDifferentialTest, EvenlySpacedZeroLossBase) {
  auto ks = GenerateEvenlySpaced(100, KeyDomain{0, 990});
  ASSERT_TRUE(ks.ok());
  ExpectIdenticalAttacks(*ks, 25, /*interior_only=*/true);
}

TEST(GreedyDifferentialTest, ParallelArgmaxIsThreadCountIndependent) {
  // The chunked gap-range scan on the ThreadPool must select the exact
  // poison sequence of the serial scan for every worker count (fixed
  // chunk boundaries, order-independent first-maximum reduction).
  // >= 3 argmax chunks (2048 gaps each), and every round fans out, so
  // the pool reduction really crosses chunk boundaries.
  Rng rng(26);
  auto ks = GenerateUniform(6000, KeyDomain{0, 1199999}, &rng);
  ASSERT_TRUE(ks.ok());
  AttackOptions serial;
  serial.num_threads = 1;
  auto baseline = GreedyPoisonCdf(*ks, 120, serial);
  ASSERT_TRUE(baseline.ok());
  LossLandscape::ArgmaxStats pooled_stats;
  for (const int threads : {2, 3, 8}) {
    AttackOptions parallel;
    parallel.num_threads = threads;
    parallel.argmax_fan_out_units = 0;
    auto got = GreedyPoisonCdf(*ks, 120, parallel);
    ASSERT_TRUE(got.ok()) << got.status().message();
    EXPECT_EQ(got->poison_keys, baseline->poison_keys)
        << threads << " threads";
    EXPECT_EQ(got->base_loss, baseline->base_loss);
    EXPECT_EQ(got->poisoned_loss, baseline->poisoned_loss);
    for (std::size_t i = 0; i < baseline->loss_trajectory.size(); ++i) {
      EXPECT_EQ(got->loss_trajectory[i], baseline->loss_trajectory[i])
          << "round " << i << " with " << threads << " threads";
    }
    if (threads == 2) {
      pooled_stats = got->argmax_stats;
    } else {
      ExpectSameStats(pooled_stats, got->argmax_stats, threads);
    }
  }
  // And the parallel selection still matches the rebuild-per-round
  // oracle end to end.
  EXPECT_EQ(baseline->poison_keys,
            InlineReferenceGreedy(*ks, 120, /*interior_only=*/true));
}

TEST(GreedyDifferentialTest, ParallelArgmaxClusteredKeys) {
  // Clustered keys produce few huge gaps plus many small ones — the
  // chunking layout least like the uniform case.
  Rng rng(27);
  const std::vector<ClusterSpec> clusters = {
      {0.1, 0.01, 1.0}, {0.6, 0.05, 3.0}, {0.9, 0.002, 1.0}};
  auto ks = GenerateClustered(5000, KeyDomain{0, 1999999}, clusters, &rng);
  ASSERT_TRUE(ks.ok());
  AttackOptions serial;
  AttackOptions parallel;
  parallel.num_threads = 4;
  parallel.argmax_fan_out_units = 0;
  auto a = GreedyPoisonCdf(*ks, 60, serial);
  auto b = GreedyPoisonCdf(*ks, 60, parallel);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->poison_keys, b->poison_keys);
  EXPECT_EQ(a->poisoned_loss, b->poisoned_loss);
}

TEST(GreedyDifferentialTest, PooledDeletionIsWorkerCountIndependent) {
  // The removal argmax, fanned out every round over key blocks in
  // chunks of >= 2048 keys: the removed keys match the serial scan, and
  // the counters are the same at every pool size.
  Rng rng(28);
  auto ks = GenerateUniform(6000, KeyDomain{0, 1199999}, &rng);
  ASSERT_TRUE(ks.ok());
  auto serial = GreedyDeleteCdf(*ks, 40);
  ASSERT_TRUE(serial.ok()) << serial.status().message();
  LossLandscape::ArgmaxStats pooled_stats;
  for (const int threads : {2, 3}) {
    AttackOptions parallel;
    parallel.num_threads = threads;
    parallel.argmax_fan_out_units = 0;
    auto got = GreedyDeleteCdf(*ks, 40, /*deletable=*/{}, parallel);
    ASSERT_TRUE(got.ok()) << got.status().message();
    EXPECT_EQ(got->removed_keys, serial->removed_keys)
        << threads << " threads";
    EXPECT_EQ(got->attacked_loss, serial->attacked_loss)
        << threads << " threads";
    if (threads == 2) {
      pooled_stats = got->argmax_stats;
    } else {
      ExpectSameStats(pooled_stats, got->argmax_stats, threads);
    }
  }
}

TEST(GreedyDifferentialTest, PooledScansDoTheSerialExactWork) {
  // Every pooled chunk prunes against one incumbent seeded before the
  // fan-out, so a pooled attack that fans out every round selects the
  // serial sequence with about the serial exact evaluations, for
  // insertion and for deletion. A chunk pruning only against its own
  // best does several times more. At the default threshold these
  // rounds are too small to fan out: the pooled attack is the serial
  // scan, counter for counter.
  const std::int64_t n = 50000;
  const KeyDomain domain{0, 100 * n};
  for (const bool log_normal : {false, true}) {
    const char* keys = log_normal ? "log-normal" : "uniform";
    Rng rng(log_normal ? 30 : 29);
    auto ks = log_normal ? GenerateLogNormal(n, domain, &rng)
                         : GenerateUniform(n, domain, &rng);
    ASSERT_TRUE(ks.ok());
    auto insert = GreedyPoisonCdf(*ks, 100);
    auto remove = GreedyDeleteCdf(*ks, 100);
    ASSERT_TRUE(insert.ok()) << insert.status().message();
    ASSERT_TRUE(remove.ok()) << remove.status().message();
    for (const int threads : {2, 3}) {
      AttackOptions pooled;
      pooled.num_threads = threads;
      auto small_insert = GreedyPoisonCdf(*ks, 100, pooled);
      auto small_remove = GreedyDeleteCdf(*ks, 100, /*deletable=*/{}, pooled);
      ASSERT_TRUE(small_insert.ok()) << small_insert.status().message();
      ASSERT_TRUE(small_remove.ok()) << small_remove.status().message();
      EXPECT_EQ(small_insert->poison_keys, insert->poison_keys)
          << keys << ", " << threads << " threads";
      EXPECT_EQ(small_remove->removed_keys, remove->removed_keys)
          << keys << ", " << threads << " threads";
      ExpectSameStats(insert->argmax_stats, small_insert->argmax_stats,
                      threads);
      ExpectSameStats(remove->argmax_stats, small_remove->argmax_stats,
                      threads);

      pooled.argmax_fan_out_units = 0;
      auto pooled_insert = GreedyPoisonCdf(*ks, 100, pooled);
      auto pooled_remove =
          GreedyDeleteCdf(*ks, 100, /*deletable=*/{}, pooled);
      ASSERT_TRUE(pooled_insert.ok()) << pooled_insert.status().message();
      ASSERT_TRUE(pooled_remove.ok()) << pooled_remove.status().message();
      EXPECT_EQ(pooled_insert->poison_keys, insert->poison_keys)
          << keys << ", " << threads << " threads";
      EXPECT_EQ(pooled_remove->removed_keys, remove->removed_keys)
          << keys << ", " << threads << " threads";
      // At most 1.5x the serial exact evaluations.
      EXPECT_LE(2 * pooled_insert->argmax_stats.exact_evals,
                3 * insert->argmax_stats.exact_evals)
          << keys << " insertion, " << threads << " threads: "
          << pooled_insert->argmax_stats.exact_evals << " pooled vs "
          << insert->argmax_stats.exact_evals << " serial";
      EXPECT_LE(2 * pooled_remove->argmax_stats.exact_evals,
                3 * remove->argmax_stats.exact_evals)
          << keys << " deletion, " << threads << " threads: "
          << pooled_remove->argmax_stats.exact_evals << " pooled vs "
          << remove->argmax_stats.exact_evals << " serial";
    }
  }
}

TEST(GreedyDifferentialTest, ExhaustionErrorsMatch) {
  // Budget exceeding the unoccupied interior: both paths must fail with
  // ResourceExhausted after the same number of committed keys.
  auto ks = KeySet::Create({0, 2, 4, 6, 8}, KeyDomain{0, 8});
  ASSERT_TRUE(ks.ok());
  auto fast = GreedyPoisonCdf(*ks, 10);
  auto reference = GreedyPoisonCdfReference(*ks, 10);
  EXPECT_EQ(fast.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(reference.status().code(), StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace lispoison
