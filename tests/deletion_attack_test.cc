#include "attack/deletion_attack.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "attack/loss_landscape.h"
#include "common/rng.h"
#include "common/stats.h"
#include "data/generators.h"
#include "index/cdf_regression.h"

namespace lispoison {
namespace {

long double DirectLoss(std::vector<Key> keys) {
  std::sort(keys.begin(), keys.end());
  MomentAccumulator acc;
  Rank r = 1;
  for (Key k : keys) acc.Add(k, r++);
  return FitFromMoments(acc).mse;
}

TEST(DeletionAttackTest, RemovesExactlyDStoredKeys) {
  Rng rng(1);
  auto ks = GenerateUniform(100, KeyDomain{0, 999}, &rng);
  ASSERT_TRUE(ks.ok());
  auto result = GreedyDeleteCdf(*ks, 10);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->removed_keys.size(), 10u);
  std::set<Key> unique(result->removed_keys.begin(),
                       result->removed_keys.end());
  EXPECT_EQ(unique.size(), 10u);
  for (Key k : result->removed_keys) EXPECT_TRUE(ks->Contains(k));
}

TEST(DeletionAttackTest, AttackedLossMatchesRetrain) {
  Rng rng(2);
  auto ks = GenerateUniform(80, KeyDomain{0, 799}, &rng);
  ASSERT_TRUE(ks.ok());
  auto result = GreedyDeleteCdf(*ks, 8);
  ASSERT_TRUE(result.ok());
  std::vector<Key> survivors;
  std::set<Key> removed(result->removed_keys.begin(),
                        result->removed_keys.end());
  for (Key k : ks->keys()) {
    if (!removed.count(k)) survivors.push_back(k);
  }
  EXPECT_NEAR(static_cast<double>(result->attacked_loss),
              static_cast<double>(DirectLoss(survivors)),
              1e-6 * std::max(1.0, static_cast<double>(result->attacked_loss)));
}

TEST(DeletionAttackTest, FirstRemovalIsOptimalAgainstBruteForce) {
  Rng rng(3);
  for (int trial = 0; trial < 10; ++trial) {
    auto ks = GenerateUniform(30, KeyDomain{0, 299}, &rng);
    ASSERT_TRUE(ks.ok());
    auto fast = GreedyDeleteCdf(*ks, 1);
    ASSERT_TRUE(fast.ok());
    // Brute force: try every single deletion.
    long double best = 0;
    for (std::int64_t j = 0; j < ks->size(); ++j) {
      std::vector<Key> remaining = ks->keys();
      remaining.erase(remaining.begin() + j);
      best = std::max(best, DirectLoss(remaining));
    }
    EXPECT_NEAR(static_cast<double>(fast->attacked_loss),
                static_cast<double>(best),
                1e-9 * std::max(1.0, static_cast<double>(best)))
        << "trial " << trial;
  }
}

TEST(DeletionAttackTest, DeletionIncreasesLoss) {
  Rng rng(4);
  auto ks = GenerateUniform(200, KeyDomain{0, 1999}, &rng);
  ASSERT_TRUE(ks.ok());
  auto result = GreedyDeleteCdf(*ks, 20);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->RatioLoss(), 1.0);
}

TEST(DeletionAttackTest, RestrictedDeletableSetHonored) {
  Rng rng(5);
  auto ks = GenerateUniform(50, KeyDomain{0, 499}, &rng);
  ASSERT_TRUE(ks.ok());
  std::vector<Key> deletable(ks->keys().begin(), ks->keys().begin() + 10);
  auto result = GreedyDeleteCdf(*ks, 5, deletable);
  ASSERT_TRUE(result.ok());
  std::set<Key> allowed(deletable.begin(), deletable.end());
  for (Key k : result->removed_keys) {
    EXPECT_TRUE(allowed.count(k)) << k;
  }
}

TEST(DeletionAttackTest, BudgetExceedsDeletableFails) {
  Rng rng(6);
  auto ks = GenerateUniform(50, KeyDomain{0, 499}, &rng);
  ASSERT_TRUE(ks.ok());
  std::vector<Key> deletable(ks->keys().begin(), ks->keys().begin() + 3);
  EXPECT_EQ(GreedyDeleteCdf(*ks, 5, deletable).status().code(),
            StatusCode::kResourceExhausted);
}

TEST(DeletionAttackTest, Validation) {
  auto empty = KeySet::Create({}, KeyDomain{0, 10});
  ASSERT_TRUE(empty.ok());
  EXPECT_FALSE(GreedyDeleteCdf(*empty, 1).ok());
  auto tiny = KeySet::Create({1, 2, 3}, KeyDomain{0, 10});
  ASSERT_TRUE(tiny.ok());
  EXPECT_FALSE(GreedyDeleteCdf(*tiny, 0).ok());
  EXPECT_FALSE(GreedyDeleteCdf(*tiny, 2).ok());  // Leaves < 2 keys.
  EXPECT_FALSE(GreedyDeleteCdf(*tiny, 1, {99}).ok());  // Not stored.
}

TEST(ModificationAttackTest, MovesPreserveKeyCount) {
  Rng rng(7);
  auto ks = GenerateUniform(100, KeyDomain{0, 999}, &rng);
  ASSERT_TRUE(ks.ok());
  auto result = GreedyModifyCdf(*ks, 10);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->moves.size(), 10u);
  for (const auto& [from, to] : result->moves) {
    EXPECT_NE(from, to);
  }
}

TEST(ModificationAttackTest, ModificationIncreasesLoss) {
  Rng rng(8);
  auto ks = GenerateUniform(150, KeyDomain{0, 1499}, &rng);
  ASSERT_TRUE(ks.ok());
  auto result = GreedyModifyCdf(*ks, 15);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->RatioLoss(), 1.0);
}

TEST(ModificationAttackTest, ModificationBeatsNothingButCostsNoBudgetGrowth) {
  // A modification adversary never grows |K|: the defender cannot even
  // detect a size anomaly. Verify the final loss corresponds to a keyset
  // of the original size.
  Rng rng(9);
  auto ks = GenerateUniform(60, KeyDomain{0, 599}, &rng);
  ASSERT_TRUE(ks.ok());
  auto result = GreedyModifyCdf(*ks, 6);
  ASSERT_TRUE(result.ok());
  // Replay the moves and retrain.
  std::vector<Key> keys = ks->keys();
  for (const auto& [from, to] : result->moves) {
    keys.erase(std::find(keys.begin(), keys.end(), from));
    keys.insert(std::lower_bound(keys.begin(), keys.end(), to), to);
  }
  EXPECT_EQ(static_cast<std::int64_t>(keys.size()), ks->size());
  EXPECT_NEAR(static_cast<double>(DirectLoss(keys)),
              static_cast<double>(result->attacked_loss),
              1e-6 * std::max(1.0,
                              static_cast<double>(result->attacked_loss)));
}

TEST(ModificationAttackTest, Validation) {
  auto tiny = KeySet::Create({1, 2, 3}, KeyDomain{0, 10});
  ASSERT_TRUE(tiny.ok());
  EXPECT_FALSE(GreedyModifyCdf(*tiny, 1).ok());  // Needs >= 4 keys.
  auto empty = KeySet::Create({}, KeyDomain{0, 10});
  ASSERT_TRUE(empty.ok());
  EXPECT_FALSE(GreedyModifyCdf(*empty, 1).ok());
  auto ok = KeySet::Create({1, 4, 7, 9}, KeyDomain{0, 10});
  ASSERT_TRUE(ok.ok());
  EXPECT_FALSE(GreedyModifyCdf(*ok, 0).ok());
  EXPECT_FALSE(GreedyModifyCdf(*ok, 1, {42}).ok());  // Not stored.
}

// ---------------------------------------------------------------------------
// Seeded differential pins: replay each greedy attack against an
// independent rebuild-per-round reference so the incremental-engine
// refactors (tiered gaps, argmax bound caching) can never silently
// change these outputs.
// ---------------------------------------------------------------------------

/// Exact loss of \p keys with index \p j removed: rebuilt from scratch
/// through the landscape's exact 128-bit arithmetic (bit-identical to
/// DeletionLandscape by shift invariance).
long double RebuiltLossWithout(const std::vector<Key>& keys,
                               std::size_t j, const KeyDomain& domain) {
  std::vector<Key> remaining;
  remaining.reserve(keys.size() - 1);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (i != j) remaining.push_back(keys[i]);
  }
  auto ks = KeySet::Create(std::move(remaining), domain);
  EXPECT_TRUE(ks.ok());
  auto ll = LossLandscape::Create(*ks);
  EXPECT_TRUE(ll.ok());
  return ll->BaseLoss();
}

TEST(DeletionAttackTest, SeededDifferentialAgainstRebuildReference) {
  // 24 seeded cases: the greedy deletion sequence and its per-round
  // losses must bit-match a reference that retrains every candidate
  // removal from scratch each round (first-maximum-in-key-order rule).
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    Rng rng(0xDE1E7E + seed);
    const std::int64_t n = 40 + static_cast<std::int64_t>(seed % 5) * 17;
    const KeyDomain domain{0, 12 * n};
    auto ks = GenerateUniform(n, domain, &rng);
    ASSERT_TRUE(ks.ok());
    const std::int64_t d = 4 + static_cast<std::int64_t>(seed % 3);

    auto fast = GreedyDeleteCdf(*ks, d);
    ASSERT_TRUE(fast.ok()) << "seed " << seed;

    std::vector<Key> work = ks->keys();
    for (std::int64_t round = 0; round < d; ++round) {
      bool have = false;
      std::size_t best_j = 0;
      long double best_loss = 0;
      for (std::size_t j = 0; j < work.size(); ++j) {
        const long double loss = RebuiltLossWithout(work, j, domain);
        if (!have || loss > best_loss) {
          best_j = j;
          best_loss = loss;
          have = true;
        }
      }
      ASSERT_TRUE(have);
      const auto r = static_cast<std::size_t>(round);
      EXPECT_EQ(fast->removed_keys[r], work[best_j])
          << "seed " << seed << " round " << round;
      EXPECT_EQ(fast->loss_trajectory[r], best_loss)
          << "seed " << seed << " round " << round;
      work.erase(work.begin() + static_cast<std::ptrdiff_t>(best_j));
    }
  }
}

TEST(ModificationAttackTest, SeededDifferentialAgainstRebuildReference) {
  // 16 seeded cases: the modification attack couples the deletion
  // landscape with LossLandscape::FindOptimal (default options, i.e.
  // the pruned + tiered argmax); the chosen (from, to) moves must
  // bit-match a reference replay whose re-insertion step runs the
  // exhaustive serial scan on a freshly built landscape.
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    Rng rng(0x40D1F1 + seed);
    const std::int64_t n = 36 + static_cast<std::int64_t>(seed % 4) * 23;
    const KeyDomain domain{0, 14 * n};
    auto ks = GenerateUniform(n, domain, &rng);
    ASSERT_TRUE(ks.ok());
    const std::int64_t moves = 3 + static_cast<std::int64_t>(seed % 3);

    auto fast = GreedyModifyCdf(*ks, moves);
    ASSERT_TRUE(fast.ok()) << "seed " << seed;
    ASSERT_EQ(fast->moves.size(), static_cast<std::size_t>(moves));

    std::vector<Key> work = ks->keys();
    LossLandscape::ArgmaxOptions exhaustive;
    exhaustive.prune = false;
    for (std::int64_t round = 0; round < moves; ++round) {
      // Step 1 reference: best deletion by rebuild-per-candidate.
      bool have = false;
      std::size_t best_j = 0;
      long double best_loss = 0;
      for (std::size_t j = 0; j < work.size(); ++j) {
        const long double loss = RebuiltLossWithout(work, j, domain);
        if (!have || loss > best_loss) {
          best_j = j;
          best_loss = loss;
          have = true;
        }
      }
      ASSERT_TRUE(have);
      const Key moved = work[best_j];
      work.erase(work.begin() + static_cast<std::ptrdiff_t>(best_j));
      // Step 2 reference: best re-insertion via the exhaustive scan.
      auto current = KeySet::Create(work, domain);
      ASSERT_TRUE(current.ok());
      auto ll = LossLandscape::Create(*current);
      ASSERT_TRUE(ll.ok());
      auto best = ll->FindOptimal(true, nullptr, nullptr, exhaustive);
      ASSERT_TRUE(best.ok()) << "seed " << seed << " round " << round;

      const auto r = static_cast<std::size_t>(round);
      EXPECT_EQ(fast->moves[r].first, moved)
          << "seed " << seed << " round " << round;
      EXPECT_EQ(fast->moves[r].second, best->key)
          << "seed " << seed << " round " << round;
      work.insert(std::lower_bound(work.begin(), work.end(), best->key),
                  best->key);
    }
  }
}

TEST(DeletionAttackTest, IncrementalMatchesReferenceAcrossModes) {
  // The incremental engine (persistent landscape + pruned/batched
  // removal argmax) against the retained rebuild-per-round reference:
  // bit-equal removed keys, base/attacked losses and per-round loss
  // trajectories for every prune x thread-count combination,
  // restricted and unrestricted.
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    Rng rng(0xD311D1FF + seed);
    const std::int64_t n = 160 + static_cast<std::int64_t>(seed % 4) * 110;
    const KeyDomain domain{0, 11 * n};
    auto ks = seed % 2 == 0 ? GenerateUniform(n, domain, &rng)
                            : GenerateLogNormal(n, domain, &rng);
    ASSERT_TRUE(ks.ok());
    const std::int64_t d = 10 + static_cast<std::int64_t>(seed % 5);
    std::vector<Key> deletable;
    if (seed % 3 == 0) {
      for (std::int64_t i = 0; i < ks->size(); i += 2) {
        deletable.push_back(ks->at(i));
      }
    }

    auto ref = GreedyDeleteCdfReference(*ks, d, deletable);
    ASSERT_TRUE(ref.ok()) << ref.status().message();
    for (const bool prune : {false, true}) {
      for (const int threads : {1, 3}) {
        AttackOptions options;
        options.prune_argmax = prune;
        options.num_threads = threads;
        auto got = GreedyDeleteCdf(*ks, d, deletable, options);
        ASSERT_TRUE(got.ok()) << got.status().message();
        const auto mode = [&] {
          return " seed " + std::to_string(seed) + " prune " +
                 std::to_string(prune) + " threads " +
                 std::to_string(threads);
        };
        EXPECT_EQ(got->removed_keys, ref->removed_keys) << mode();
        EXPECT_EQ(got->base_loss, ref->base_loss) << mode();
        EXPECT_EQ(got->attacked_loss, ref->attacked_loss) << mode();
        ASSERT_EQ(got->loss_trajectory.size(), ref->loss_trajectory.size());
        for (std::size_t i = 0; i < ref->loss_trajectory.size(); ++i) {
          EXPECT_EQ(got->loss_trajectory[i], ref->loss_trajectory[i])
              << mode() << " round " << i;
        }
      }
    }
  }
}

TEST(ModificationAttackTest, IncrementalMatchesReferenceAcrossModes) {
  // Modification couples the removal argmax with the insertion argmax
  // on one persistent landscape (RemoveKey + InsertKey per move); the
  // chosen (from, to) pairs and loss trajectory must bit-match the
  // rebuild-per-round reference in every mode.
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    Rng rng(0x40D5EED + seed);
    const std::int64_t n = 120 + static_cast<std::int64_t>(seed % 4) * 90;
    const KeyDomain domain{0, 13 * n};
    auto ks = seed % 2 == 0 ? GenerateUniform(n, domain, &rng)
                            : GenerateLogNormal(n, domain, &rng);
    ASSERT_TRUE(ks.ok());
    const std::int64_t moves = 6 + static_cast<std::int64_t>(seed % 4);
    std::vector<Key> movable;
    if (seed % 3 == 0) {
      for (std::int64_t i = 1; i < ks->size(); i += 2) {
        movable.push_back(ks->at(i));
      }
    }

    auto ref = GreedyModifyCdfReference(*ks, moves, movable);
    ASSERT_TRUE(ref.ok()) << ref.status().message();
    for (const bool prune : {false, true}) {
      for (const int threads : {1, 3}) {
        AttackOptions options;
        options.prune_argmax = prune;
        options.num_threads = threads;
        auto got = GreedyModifyCdf(*ks, moves, movable, options);
        ASSERT_TRUE(got.ok()) << got.status().message();
        const auto mode = [&] {
          return " seed " + std::to_string(seed) + " prune " +
                 std::to_string(prune) + " threads " +
                 std::to_string(threads);
        };
        EXPECT_EQ(got->moves, ref->moves) << mode();
        EXPECT_EQ(got->base_loss, ref->base_loss) << mode();
        EXPECT_EQ(got->attacked_loss, ref->attacked_loss) << mode();
        ASSERT_EQ(got->loss_trajectory.size(), ref->loss_trajectory.size());
        for (std::size_t i = 0; i < ref->loss_trajectory.size(); ++i) {
          EXPECT_EQ(got->loss_trajectory[i], ref->loss_trajectory[i])
              << mode() << " round " << i;
        }
      }
    }
  }
}

}  // namespace
}  // namespace lispoison
