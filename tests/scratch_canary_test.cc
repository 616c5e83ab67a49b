#include "attack/loss_landscape.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "data/generators.h"
#include "data/keyset.h"

namespace lispoison {
namespace {

// The grow-only argmax scratch (EnsureScratchSize) hands the scan
// kernels resize(capacity())-sized buffers whose tail beyond `needed`
// holds stale entries from earlier rounds. The contract is
// indexed-store-before-read on [0, needed) and no reads past needed.
// These tests enforce it two ways:
//
//  * Value canaries (any build): PoisonArgmaxScratchForTesting floods
//    every scratch buffer with NaN / huge sentinels before each argmax
//    call. A read-before-write escape propagates NaN into a bound or a
//    suffix max and the poisoned landscape diverges from its clean
//    twin — losses, keys, or work counters stop matching bit-for-bit.
//
//  * Address canaries (ASan builds): EnsureScratchSize re-poisons the
//    [needed, size) tail after every sizing call, so reading one slot
//    past needed faults immediately instead of returning stale data.
//    Running this same test under -fsanitize=address exercises that
//    path; no separate test body is required.

// The tiered scan (prune on) and the exhaustive scan (prune off).
LossLandscape::ArgmaxOptions MakeOptions(bool prune) {
  LossLandscape::ArgmaxOptions o;
  o.prune = prune;
  return o;
}

TEST(ScratchCanaryTest, PoisonedScratchNeverLeaksIntoInsertionArgmax) {
  Rng rng(51);
  auto ks = GenerateUniform(3000, KeyDomain{0, 300'000}, &rng);
  ASSERT_TRUE(ks.ok());
  for (const bool prune : {true, false}) {
    auto clean = LossLandscape::Create(*ks);
    auto dirty = LossLandscape::Create(*ks);
    ASSERT_TRUE(clean.ok() && dirty.ok());
    const LossLandscape::ArgmaxOptions argmax = MakeOptions(prune);
    LossLandscape::ArgmaxStats clean_stats;
    LossLandscape::ArgmaxStats dirty_stats;
    for (int round = 0; round < 40; ++round) {
      auto want = clean->FindOptimal(/*interior_only=*/true, nullptr,
                                     nullptr, argmax, &clean_stats);
      dirty->PoisonArgmaxScratchForTesting();
      auto got = dirty->FindOptimal(/*interior_only=*/true, nullptr,
                                    nullptr, argmax, &dirty_stats);
      ASSERT_EQ(want.ok(), got.ok()) << "round " << round;
      if (!want.ok()) break;
      ASSERT_EQ(want->key, got->key) << "round " << round;
      ASSERT_EQ(want->loss, got->loss) << "round " << round;
      ASSERT_TRUE(clean->InsertKey(want->key).ok());
      ASSERT_TRUE(dirty->InsertKey(got->key).ok());
    }
    EXPECT_EQ(clean_stats.bound_evals, dirty_stats.bound_evals);
    EXPECT_EQ(clean_stats.exact_evals, dirty_stats.exact_evals);
    EXPECT_EQ(clean_stats.pruned_gaps, dirty_stats.pruned_gaps);
    EXPECT_EQ(clean_stats.cached_bounds, dirty_stats.cached_bounds);
    EXPECT_EQ(clean_stats.invalidated_gaps, dirty_stats.invalidated_gaps);
  }
}

TEST(ScratchCanaryTest, PoisonedScratchNeverLeaksIntoRemovalArgmax) {
  Rng rng(52);
  auto ks = GenerateUniform(4000, KeyDomain{0, 400'000}, &rng);
  ASSERT_TRUE(ks.ok());
  for (const bool prune : {true, false}) {
    auto clean = LossLandscape::Create(*ks);
    auto dirty = LossLandscape::Create(*ks);
    ASSERT_TRUE(clean.ok() && dirty.ok());
    const LossLandscape::ArgmaxOptions argmax = MakeOptions(prune);
    LossLandscape::ArgmaxStats clean_stats;
    LossLandscape::ArgmaxStats dirty_stats;
    for (int round = 0; round < 40; ++round) {
      auto want = clean->FindOptimalRemoval(nullptr, nullptr, argmax,
                                            &clean_stats);
      dirty->PoisonArgmaxScratchForTesting();
      auto got = dirty->FindOptimalRemoval(nullptr, nullptr, argmax,
                                           &dirty_stats);
      ASSERT_EQ(want.ok(), got.ok()) << "round " << round;
      if (!want.ok()) break;
      ASSERT_EQ(want->key, got->key) << "round " << round;
      ASSERT_EQ(want->loss, got->loss) << "round " << round;
      ASSERT_TRUE(clean->RemoveKey(want->key).ok());
      ASSERT_TRUE(dirty->RemoveKey(got->key).ok());
    }
    EXPECT_EQ(clean_stats.bound_evals, dirty_stats.bound_evals);
    EXPECT_EQ(clean_stats.exact_evals, dirty_stats.exact_evals);
    EXPECT_EQ(clean_stats.pruned_gaps, dirty_stats.pruned_gaps);
    EXPECT_EQ(clean_stats.cached_bounds, dirty_stats.cached_bounds);
    EXPECT_EQ(clean_stats.invalidated_gaps, dirty_stats.invalidated_gaps);
  }
}

TEST(ScratchCanaryTest, PoisonSurvivesMixedCommitsAndShrinkingNeeds) {
  // Interleave inserts and removals so the per-round `needed` sizes
  // shrink as well as grow — the shrink direction is where a stale
  // tail entry from a previous (larger) round sits closest to the live
  // prefix and an off-by-one read would go unnoticed without the
  // canary fill.
  Rng rng(53);
  auto ks = GenerateUniform(2500, KeyDomain{0, 200'000}, &rng);
  ASSERT_TRUE(ks.ok());
  auto clean = LossLandscape::Create(*ks);
  auto dirty = LossLandscape::Create(*ks);
  ASSERT_TRUE(clean.ok() && dirty.ok());
  const LossLandscape::ArgmaxOptions argmax;  // The tiered scan (default).
  for (int round = 0; round < 60; ++round) {
    const bool removal = round % 3 == 2;
    if (removal) {
      auto want = clean->FindOptimalRemoval(nullptr, nullptr, argmax);
      dirty->PoisonArgmaxScratchForTesting();
      auto got = dirty->FindOptimalRemoval(nullptr, nullptr, argmax);
      ASSERT_TRUE(want.ok() && got.ok()) << "round " << round;
      ASSERT_EQ(want->key, got->key) << "round " << round;
      ASSERT_EQ(want->loss, got->loss) << "round " << round;
      ASSERT_TRUE(clean->RemoveKey(want->key).ok());
      ASSERT_TRUE(dirty->RemoveKey(got->key).ok());
    } else {
      auto want = clean->FindOptimal(/*interior_only=*/true);
      dirty->PoisonArgmaxScratchForTesting();
      auto got = dirty->FindOptimal(/*interior_only=*/true);
      ASSERT_TRUE(want.ok() && got.ok()) << "round " << round;
      ASSERT_EQ(want->key, got->key) << "round " << round;
      ASSERT_EQ(want->loss, got->loss) << "round " << round;
      ASSERT_TRUE(clean->InsertKey(want->key).ok());
      ASSERT_TRUE(dirty->InsertKey(got->key).ok());
    }
    EXPECT_EQ(clean->BaseLoss(), dirty->BaseLoss()) << "round " << round;
  }
}

}  // namespace
}  // namespace lispoison
