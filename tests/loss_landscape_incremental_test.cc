// Differential coverage for the incremental LossLandscape engine: after
// any sequence of InsertKey commits, every query must *bit-match* a
// fresh landscape built on the combined keyset. The loss arithmetic is
// exact 128-bit integers up to the final Theorem 1 ratio, and that ratio
// is shift-invariant bit-for-bit, so EXPECT_EQ on long doubles is the
// correct assertion — any drift is a bookkeeping bug, not round-off.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "attack/loss_landscape.h"
#include "common/rng.h"
#include "data/generators.h"
#include "data/keyset.h"

namespace lispoison {
namespace {

/// Builds a fresh landscape over base ∪ extra.
LossLandscape FreshCombined(const KeySet& base,
                            const std::vector<Key>& extra) {
  auto combined = base.Union(extra);
  EXPECT_TRUE(combined.ok()) << combined.status().message();
  auto ll = LossLandscape::Create(*combined);
  EXPECT_TRUE(ll.ok()) << ll.status().message();
  return *ll;
}

/// Asserts every public query of \p incremental bit-matches \p fresh.
void ExpectLandscapesIdentical(const LossLandscape& incremental,
                               const LossLandscape& fresh,
                               const KeyDomain& domain) {
  ASSERT_EQ(incremental.size(), fresh.size());
  EXPECT_EQ(incremental.BaseLoss(), fresh.BaseLoss());
  EXPECT_EQ(incremental.min_key(), fresh.min_key());
  EXPECT_EQ(incremental.max_key(), fresh.max_key());

  for (const bool interior : {true, false}) {
    EXPECT_EQ(incremental.GapEndpoints(interior),
              fresh.GapEndpoints(interior));

    const auto inc_opt = incremental.FindOptimal(interior);
    const auto fresh_opt = fresh.FindOptimal(interior);
    ASSERT_EQ(inc_opt.ok(), fresh_opt.ok());
    if (inc_opt.ok()) {
      EXPECT_EQ(inc_opt->key, fresh_opt->key);
      EXPECT_EQ(inc_opt->loss, fresh_opt->loss);
    }

    // The pruned argmax must agree with the exhaustive scan on both
    // engines (FindOptimal defaults to pruning; re-check explicitly
    // against the exhaustive reference).
    LossLandscape::ArgmaxOptions exhaustive;
    exhaustive.prune = false;
    const auto inc_ex =
        incremental.FindOptimal(interior, nullptr, nullptr, exhaustive);
    ASSERT_EQ(inc_opt.ok(), inc_ex.ok());
    if (inc_opt.ok()) {
      EXPECT_EQ(inc_opt->key, inc_ex->key);
      EXPECT_EQ(inc_opt->loss, inc_ex->loss);
    }
  }

  // LossAt over the full domain, occupied keys included (both must
  // agree on the error case too).
  for (Key kp = domain.lo; kp <= domain.hi; ++kp) {
    const auto a = incremental.LossAt(kp);
    const auto b = fresh.LossAt(kp);
    ASSERT_EQ(a.ok(), b.ok()) << "key " << kp;
    if (a.ok()) {
      EXPECT_EQ(*a, *b) << "key " << kp;
    } else {
      EXPECT_EQ(a.status().code(), b.status().code()) << "key " << kp;
    }
  }

  const auto sweep_inc = incremental.Sweep(true);
  const auto sweep_fresh = fresh.Sweep(true);
  ASSERT_EQ(sweep_inc.size(), sweep_fresh.size());
  for (std::size_t i = 0; i < sweep_inc.size(); ++i) {
    EXPECT_EQ(sweep_inc[i].first, sweep_fresh[i].first);
    EXPECT_EQ(sweep_inc[i].second, sweep_fresh[i].second);
  }
}

TEST(LossLandscapeIncrementalTest, RandomInsertionsBitMatchFreshBuild) {
  Rng rng(1234);
  const KeyDomain domain{0, 4999};
  auto base = GenerateUniform(300, domain, &rng);
  ASSERT_TRUE(base.ok());
  auto ll = LossLandscape::Create(*base);
  ASSERT_TRUE(ll.ok());

  std::vector<Key> inserted;
  for (int k = 0; k < 64; ++k) {
    // Draw a random unoccupied key anywhere in the domain (including
    // outside the current key range).
    Key kp;
    do {
      kp = rng.UniformInt(domain.lo, domain.hi);
    } while (!ll->LossAt(kp).ok() && ll->LossAt(kp).status().code() ==
                                         StatusCode::kInvalidArgument);
    ASSERT_TRUE(ll->InsertKey(kp).ok()) << "key " << kp;
    inserted.push_back(kp);

    if (k % 8 == 0 || k == 63) {
      ExpectLandscapesIdentical(*ll, FreshCombined(*base, inserted), domain);
    }
  }
}

TEST(LossLandscapeIncrementalTest, GreedySelfInsertionBitMatches) {
  // The greedy attack's own access pattern: repeatedly insert the
  // current optimum. This stresses the gap-splitting path where the
  // inserted key is always a gap endpoint.
  Rng rng(99);
  auto base = GenerateLogNormal(200, KeyDomain{0, 19999}, &rng);
  ASSERT_TRUE(base.ok());
  auto ll = LossLandscape::Create(*base);
  ASSERT_TRUE(ll.ok());

  std::vector<Key> inserted;
  for (int k = 0; k < 40; ++k) {
    auto best = ll->FindOptimal(true);
    ASSERT_TRUE(best.ok());
    ASSERT_TRUE(ll->InsertKey(best->key).ok());
    inserted.push_back(best->key);
  }
  ExpectLandscapesIdentical(*ll, FreshCombined(*base, inserted),
                            base->domain());
}

TEST(LossLandscapeIncrementalTest, InsertOutsideCurrentRangeUpdatesBounds) {
  auto ks = KeySet::Create({100, 110, 120}, KeyDomain{0, 200});
  ASSERT_TRUE(ks.ok());
  auto ll = LossLandscape::Create(*ks);
  ASSERT_TRUE(ll.ok());
  ASSERT_TRUE(ll->InsertKey(50).ok());
  ASSERT_TRUE(ll->InsertKey(150).ok());
  EXPECT_EQ(ll->min_key(), 50);
  EXPECT_EQ(ll->max_key(), 150);
  ExpectLandscapesIdentical(*ll, FreshCombined(*ks, {50, 150}),
                            ks->domain());
}

TEST(LossLandscapeIncrementalTest, InsertRejectsOccupiedAndOutOfDomain) {
  auto ks = KeySet::Create({10, 20}, KeyDomain{0, 30});
  ASSERT_TRUE(ks.ok());
  auto ll = LossLandscape::Create(*ks);
  ASSERT_TRUE(ll.ok());
  EXPECT_EQ(ll->InsertKey(10).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ll->InsertKey(31).code(), StatusCode::kOutOfRange);
  ASSERT_TRUE(ll->InsertKey(15).ok());
  EXPECT_EQ(ll->InsertKey(15).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ll->size(), 3);
}

TEST(LossLandscapeIncrementalTest, SecondMinMaxTrackInsertions) {
  auto ks = KeySet::Create({50, 60, 70}, KeyDomain{0, 100});
  ASSERT_TRUE(ks.ok());
  auto ll = LossLandscape::Create(*ks);
  ASSERT_TRUE(ll.ok());
  EXPECT_EQ(ll->SecondMinKey(), 60);
  EXPECT_EQ(ll->SecondMaxKey(), 60);
  ASSERT_TRUE(ll->InsertKey(40).ok());   // New global min.
  EXPECT_EQ(ll->SecondMinKey(), 50);
  ASSERT_TRUE(ll->InsertKey(45).ok());   // Second smallest now inserted.
  EXPECT_EQ(ll->SecondMinKey(), 45);
  ASSERT_TRUE(ll->InsertKey(80).ok());   // New global max.
  EXPECT_EQ(ll->SecondMaxKey(), 70);
  ASSERT_TRUE(ll->InsertKey(75).ok());
  EXPECT_EQ(ll->SecondMaxKey(), 75);
}

/// Asserts the pruned argmax bit-matches the exhaustive scan on \p ll
/// for both interior settings (skipping settings with no candidates).
void ExpectPrunedMatchesExhaustive(const LossLandscape& ll) {
  LossLandscape::ArgmaxOptions exhaustive;
  exhaustive.prune = false;
  LossLandscape::ArgmaxOptions pruned;
  pruned.prune = true;
  for (const bool interior : {true, false}) {
    const auto want = ll.FindOptimal(interior, nullptr, nullptr, exhaustive);
    const auto got = ll.FindOptimal(interior, nullptr, nullptr, pruned);
    ASSERT_EQ(want.ok(), got.ok()) << "interior " << interior;
    if (!want.ok()) continue;
    EXPECT_EQ(want->key, got->key) << "interior " << interior;
    EXPECT_EQ(want->loss, got->loss) << "interior " << interior;
  }
}

TEST(LossLandscapeIncrementalTest, PrunerSurvivesDuplicateAdjacentKeys) {
  // Consecutive (adjacent) keys leave zero-width gaps between them; the
  // pruner must handle runs where most gaps vanished and the survivors
  // are single-key gaps.
  auto ks = KeySet::Create({10, 11, 12, 13, 20, 21, 22, 30, 31, 32, 33, 34},
                           KeyDomain{0, 40});
  ASSERT_TRUE(ks.ok());
  auto ll = LossLandscape::Create(*ks);
  ASSERT_TRUE(ll.ok());
  ExpectPrunedMatchesExhaustive(*ll);
  // Fill one gap completely and re-check: gap erasure under pruning.
  for (const Key kp : {14, 15, 16, 17, 18, 19}) {
    ASSERT_TRUE(ll->InsertKey(kp).ok());
    ExpectPrunedMatchesExhaustive(*ll);
  }
}

TEST(LossLandscapeIncrementalTest, PrunerSurvivesSingleGapLandscape) {
  // One interior gap; the pruned scan degenerates to top-K on a single
  // entry and must still match exactly, down to the last unoccupied key.
  auto ks = KeySet::Create({100, 200}, KeyDomain{100, 200});
  ASSERT_TRUE(ks.ok());
  auto ll = LossLandscape::Create(*ks);
  ASSERT_TRUE(ll.ok());
  for (int i = 0; i < 99; ++i) {
    ExpectPrunedMatchesExhaustive(*ll);
    auto best = ll->FindOptimal(true);
    if (!best.ok()) break;
    ASSERT_TRUE(ll->InsertKey(best->key).ok());
  }
  // Saturated: both scans must agree on the error too.
  LossLandscape::ArgmaxOptions exhaustive;
  exhaustive.prune = false;
  EXPECT_EQ(ll->FindOptimal(true).status().code(),
            ll->FindOptimal(true, nullptr, nullptr, exhaustive)
                .status()
                .code());
}

TEST(LossLandscapeIncrementalTest, PrunerBreaksTiesLikeTheSerialScan) {
  // Evenly spaced keys: a perfectly symmetric, all-equal-loss landscape
  // (zero base loss, mirrored candidates). Every gap survives the bound
  // (nothing can be pruned at a tie), and the winner must be the serial
  // scan's first maximum in key order — the smallest tied key.
  auto ks = GenerateEvenlySpaced(50, KeyDomain{0, 490});
  ASSERT_TRUE(ks.ok());
  auto ll = LossLandscape::Create(*ks);
  ASSERT_TRUE(ll.ok());
  ExpectPrunedMatchesExhaustive(*ll);
  // Commit a few optima; ties shift as symmetry breaks and restores.
  for (int i = 0; i < 8; ++i) {
    auto best = ll->FindOptimal(true);
    ASSERT_TRUE(best.ok());
    ASSERT_TRUE(ll->InsertKey(best->key).ok());
    ExpectPrunedMatchesExhaustive(*ll);
  }
}

TEST(LossLandscapeIncrementalTest, PrunerHandlesBoundaryGaps) {
  // Non-interior candidates: gaps touching the domain boundaries, below
  // the minimum and above the maximum key. interior_only=false must
  // score them identically (ExpectPrunedMatchesExhaustive covers both
  // settings), including after boundary-extending insertions.
  auto ks = KeySet::Create({40, 45, 50, 60}, KeyDomain{0, 100});
  ASSERT_TRUE(ks.ok());
  auto ll = LossLandscape::Create(*ks);
  ASSERT_TRUE(ll.ok());
  ExpectPrunedMatchesExhaustive(*ll);
  ASSERT_TRUE(ll->InsertKey(0).ok());    // New min at the domain edge.
  ExpectPrunedMatchesExhaustive(*ll);
  ASSERT_TRUE(ll->InsertKey(100).ok());  // New max at the domain edge.
  ExpectPrunedMatchesExhaustive(*ll);
  ASSERT_TRUE(ll->InsertKey(99).ok());   // Boundary gap shrinks to a run.
  ExpectPrunedMatchesExhaustive(*ll);
}

/// PrefixAt at every probe against a brute-force pass over \p all.
void ExpectPrefixStatsMatch(const LossLandscape& ll,
                            const std::vector<Key>& all,
                            const std::vector<Key>& probes) {
  const Key shift = ll.shift();
  for (const Key probe : probes) {
    Rank count = 0;
    Int128 sum = 0;
    for (const Key k : all) {
      if (k < probe) {
        ++count;
        sum += static_cast<Int128>(k) - shift;
      }
    }
    const auto stats = ll.PrefixAt(probe);
    EXPECT_EQ(stats.count_less, count) << "probe " << probe;
    EXPECT_TRUE(stats.prefix_sum == sum) << "probe " << probe;
  }
}

TEST(LossLandscapeIncrementalTest, PrefixStatsMatchBruteForce) {
  // Two keysets: 50 keys on [0, 999], and 2,400 keys on [0, 6 * 10^15],
  // where n * S ~ 1.4e19 > 2^63 puts the landscape outside the magnitude
  // guard (and n^2 S^2 stays inside the Int128 envelope of the loss):
  // the key store keeps no int64 local sums there, and PrefixAt walks
  // one of its ~50 blocks in Int128. Each is checked after
  // inserts and again after removals, at every 13th key of the small
  // domain, or at stored keys, their neighbours and random probes.
  for (const Key hi : {Key{999}, Key{6'000'000'000'000'000}}) {
    const bool wide = hi > 999;
    Rng rng(wide ? 8 : 7);
    const KeyDomain domain{0, hi};
    auto base = GenerateUniform(wide ? 2400 : 50, domain, &rng);
    ASSERT_TRUE(base.ok());
    auto ll = LossLandscape::Create(*base);
    ASSERT_TRUE(ll.ok());
    LossLandscape::ArgmaxStats stats;
    ASSERT_TRUE(ll->FindOptimalRemoval(nullptr, nullptr,
                                       LossLandscape::ArgmaxOptions{}, &stats)
                    .ok());
    ASSERT_EQ(stats.fallback_rounds, wide ? 1 : 0) << "domain hi " << hi;
    std::vector<Key> all = base->keys();
    auto probes = [&] {
      std::vector<Key> out;
      if (!wide) {
        for (Key probe = domain.lo; probe <= domain.hi; probe += 13) {
          out.push_back(probe);
        }
        return out;
      }
      out = {domain.lo, domain.hi};
      for (std::size_t i = 0; i < all.size(); i += 7) {
        out.push_back(all[i]);
        out.push_back(all[i] - 1);
        out.push_back(all[i] + 1);
      }
      for (int i = 0; i < 200; ++i) {
        out.push_back(rng.UniformInt(domain.lo, domain.hi));
      }
      return out;
    };
    for (int k = 0; k < (wide ? 40 : 30); ++k) {
      Key kp;
      do {
        kp = rng.UniformInt(domain.lo, domain.hi);
      } while (std::binary_search(all.begin(), all.end(), kp));
      ASSERT_TRUE(ll->InsertKey(kp).ok());
      all.insert(std::lower_bound(all.begin(), all.end(), kp), kp);
    }
    ExpectPrefixStatsMatch(*ll, all, probes());
    for (int k = 0; k < (wide ? 40 : 10); ++k) {
      const auto victim =
          all.begin() +
          rng.UniformInt(0, static_cast<std::int64_t>(all.size()) - 1);
      ASSERT_TRUE(ll->RemoveKey(*victim).ok());
      all.erase(victim);
    }
    ExpectPrefixStatsMatch(*ll, all, probes());
  }
}

}  // namespace
}  // namespace lispoison
