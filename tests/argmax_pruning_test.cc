// Adversarial differential harness for the pruned argmax engine
// (LossLandscape::ArgmaxOptions): across hundreds of seeded randomized
// landscapes — uniform, log-normal, and zipf-gap key layouts, n up to
// 10^4, with interleaved InsertKey rounds — the pruned scan must return
// a *bit-identical* Candidate (key and long-double loss) to the
// exhaustive reference scan, at every thread count in {1, 2, 7}. The
// harness also pins the no-per-round-allocation property of the
// engine-owned argmax scratch via the realloc counter, and checks the
// RMI exchange simulation's edge-removed argmax (FindOptimalWithoutEdge)
// against a landscape rebuilt without the edge key.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "attack/loss_landscape.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "data/generators.h"
#include "data/keyset.h"

namespace lispoison {
namespace {

constexpr int kCasesPerLayout = 70;  // x3 layouts = 210 differential cases.
constexpr int kRoundsPerCase = 5;    // Interleaved InsertKey commits.

enum class Layout { kUniform, kLogNormal, kZipfGap };

/// Zipf-gap layout: successive gaps drawn log-uniform over ~4 decades,
/// so the landscape mixes a few huge gaps with many near-unit ones —
/// the chunk layout least like the uniform case and the hardest mix for
/// a bound that must separate near-equal losses.
Result<KeySet> GenerateZipfGap(std::int64_t n, Rng* rng) {
  std::vector<Key> keys;
  keys.reserve(static_cast<std::size_t>(n));
  Key cursor = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    const double mag = rng->NextDouble() * 4.0;  // gap in [1, 10^4)
    cursor += 1 + static_cast<Key>(std::pow(10.0, mag));
    keys.push_back(cursor);
  }
  return KeySet::Create(std::move(keys), KeyDomain{0, cursor + 1000});
}

Result<KeySet> MakeKeyset(Layout layout, std::int64_t n, Rng* rng) {
  // Sparse domain (~20 unoccupied keys per key) so gap counts track n
  // and the n = 10^4 cases cross the parallel-chunk threshold.
  const KeyDomain domain{0, 20 * n};
  switch (layout) {
    case Layout::kUniform:
      return GenerateUniform(n, domain, rng);
    case Layout::kLogNormal:
      return GenerateLogNormal(n, domain, rng);
    case Layout::kZipfGap:
      return GenerateZipfGap(n, rng);
  }
  return Status::Internal("unreachable");
}

/// One FindOptimal comparison: the exhaustive serial scan is the ground
/// truth; the pruned scan must bit-match it serially and on every pool,
/// both fanned out every round and at the default fan-out threshold.
/// Fills *out with the winner and returns false when the range is
/// exhausted (both scans must agree on that too).
bool ExpectPrunedMatchesExhaustive(
    const LossLandscape& ll, bool interior_only,
    const std::unordered_set<Key>* excluded,
    const std::vector<ThreadPool*>& pools,
    LossLandscape::Candidate* out) {
  LossLandscape::ArgmaxOptions exhaustive;
  exhaustive.prune = false;
  LossLandscape::ArgmaxOptions pruned;
  pruned.prune = true;

  const auto want =
      ll.FindOptimal(interior_only, excluded, nullptr, exhaustive);
  const auto got_serial =
      ll.FindOptimal(interior_only, excluded, nullptr, pruned);
  EXPECT_EQ(want.ok(), got_serial.ok());
  if (want.ok() && got_serial.ok()) {
    EXPECT_EQ(want->key, got_serial->key);
    EXPECT_EQ(want->loss, got_serial->loss);
  }
  LossLandscape::ArgmaxOptions fanned_out = pruned;
  fanned_out.fan_out_units = 0;
  for (ThreadPool* pool : pools) {
    for (const auto& argmax : {pruned, fanned_out}) {
      const auto got = ll.FindOptimal(interior_only, excluded, pool, argmax);
      EXPECT_EQ(want.ok(), got.ok()) << pool->num_threads() << " threads";
      if (want.ok() && got.ok()) {
        EXPECT_EQ(want->key, got->key) << pool->num_threads() << " threads";
        EXPECT_EQ(want->loss, got->loss)
            << pool->num_threads() << " threads";
      }
    }
  }
  if (!want.ok()) return false;
  *out = *want;
  return true;
}

TEST(ArgmaxPruningTest, DifferentialAcrossLayoutsSizesAndThreadCounts) {
  // Pools for thread counts {2, 7}; count 1 is the serial scan. One pool
  // per count reused across all cases.
  ThreadPool pool2(2);
  ThreadPool pool7(7);
  const std::vector<ThreadPool*> pools = {&pool2, &pool7};

  // n schedule: mostly small-to-mid landscapes (cheap exhaustive
  // oracle), with every 7th case at n = 10^4 so the fanned-out pruned
  // path crosses chunk boundaries (> 2048 gaps) at both pool sizes.
  const std::int64_t kSizes[] = {50, 200, 777, 3000, 10000};

  int checked = 0;
  for (const Layout layout :
       {Layout::kUniform, Layout::kLogNormal, Layout::kZipfGap}) {
    for (int c = 0; c < kCasesPerLayout; ++c) {
      const std::int64_t n =
          (c % 7 == 0) ? 10000 : kSizes[static_cast<std::size_t>(c) % 4];
      Rng rng(0xA11CE + static_cast<std::uint64_t>(layout) * 1000 +
              static_cast<std::uint64_t>(c));
      auto ks = MakeKeyset(layout, n, &rng);
      ASSERT_TRUE(ks.ok()) << ks.status().message();
      auto ll = LossLandscape::Create(*ks);
      ASSERT_TRUE(ll.ok()) << ll.status().message();

      const bool interior = (c % 2 == 0);
      for (int round = 0; round < kRoundsPerCase; ++round) {
        LossLandscape::Candidate best;
        if (!ExpectPrunedMatchesExhaustive(*ll, interior, nullptr, pools,
                                           &best)) {
          break;  // Range exhausted — both scans agreed.
        }
        // Every 8th case also exercises the excluded-key path: without
        // its optimum the pruned scan must find the runner-up exactly.
        if (c % 8 == 0) {
          const std::unordered_set<Key> excluded = {best.key};
          LossLandscape::Candidate runner_up;
          ExpectPrunedMatchesExhaustive(*ll, interior, &excluded, pools,
                                        &runner_up);
        }
        // Interleave: commit the optimum and keep scanning the grown
        // landscape (the greedy attack's own access pattern).
        ASSERT_TRUE(ll->InsertKey(best.key).ok());
        ++checked;
      }
    }
  }
  // 3 layouts x 70 cases x 5 rounds, minus the rare exhausted ranges.
  EXPECT_GE(checked, 200 * kRoundsPerCase / 2);
}

TEST(ArgmaxPruningTest, DifferentialAtHugeKeyMagnitudes) {
  // Keys near +/-2^55: shifted candidates exceed 2^53, so every
  // int64/int128->double conversion in the bound kernels actually
  // rounds — the lossiest regime the admissibility margins must cover
  // (the tiny-domain cases above convert exactly). n stays small so the
  // exact 128-bit aggregates (n^2 * span^2 ~ 2^122) cannot overflow.
  ThreadPool pool2(2);
  ThreadPool pool7(7);
  const std::vector<ThreadPool*> pools = {&pool2, &pool7};
  const Key kHalfSpan = static_cast<Key>(1) << 55;

  int checked = 0;
  for (int c = 0; c < 24; ++c) {
    const std::int64_t n = 40 + (c % 3) * 12;
    Rng rng(0xB16B00 + static_cast<std::uint64_t>(c));
    auto ks = GenerateUniform(n, KeyDomain{-kHalfSpan, kHalfSpan}, &rng);
    ASSERT_TRUE(ks.ok()) << ks.status().message();
    auto ll = LossLandscape::Create(*ks);
    ASSERT_TRUE(ll.ok()) << ll.status().message();
    const bool interior = (c % 2 == 0);
    for (int round = 0; round < kRoundsPerCase; ++round) {
      LossLandscape::Candidate best;
      if (!ExpectPrunedMatchesExhaustive(*ll, interior, nullptr, pools,
                                         &best)) {
        break;
      }
      ASSERT_TRUE(ll->InsertKey(best.key).ok());
      ++checked;
    }
  }
  EXPECT_GE(checked, 24 * kRoundsPerCase / 2);
}

TEST(ArgmaxPruningTest, ScratchDoesNotGrowPerRound) {
  // ROADMAP item: the argmax must not pay an O(G) allocation per round.
  // The scratch buffers grow geometrically, so across 180 further
  // rounds (gap count grows by ~1 per insert) the realloc counter may
  // move only by a handful of doubling events — not once per round.
  Rng rng(0xBEEF);
  auto ks = GenerateUniform(2000, KeyDomain{0, 40000}, &rng);
  ASSERT_TRUE(ks.ok());
  auto ll = LossLandscape::Create(*ks);
  ASSERT_TRUE(ll.ok());

  LossLandscape::ArgmaxOptions pruned;
  pruned.prune = true;
  auto run_rounds = [&](int rounds) {
    for (int i = 0; i < rounds; ++i) {
      auto best = ll->FindOptimal(true, nullptr, nullptr, pruned);
      ASSERT_TRUE(best.ok());
      ASSERT_TRUE(ll->InsertKey(best->key).ok());
    }
  };
  run_rounds(20);
  const std::int64_t warm = ll->argmax_scratch_reallocs();
  EXPECT_GT(warm, 0);  // The buffers were actually used.
  run_rounds(180);
  // 5 scratch buffers, each allowed a few geometric growth events; a
  // per-round allocation would add 5 * 180.
  EXPECT_LE(ll->argmax_scratch_reallocs() - warm, 15)
      << "argmax scratch reallocated per round";
}

TEST(ArgmaxPruningTest, StatsCountersAreCoherent) {
  Rng rng(0xD00D);
  auto ks = GenerateUniform(5000, KeyDomain{0, 100000}, &rng);
  ASSERT_TRUE(ks.ok());
  auto ll = LossLandscape::Create(*ks);
  ASSERT_TRUE(ll.ok());

  LossLandscape::ArgmaxOptions pruned;
  pruned.prune = true;
  LossLandscape::ArgmaxStats with_prune;
  auto a = ll->FindOptimal(true, nullptr, nullptr, pruned, &with_prune);
  ASSERT_TRUE(a.ok());

  LossLandscape::ArgmaxOptions exhaustive;
  exhaustive.prune = false;
  LossLandscape::ArgmaxStats without;
  auto b = ll->FindOptimal(true, nullptr, nullptr, exhaustive, &without);
  ASSERT_TRUE(b.ok());

  std::int64_t in_range = 0;
  ll->ForEachGap(true, [&in_range](Key, Key, Rank, Int128) { ++in_range; });

  EXPECT_EQ(a->key, b->key);
  EXPECT_EQ(a->loss, b->loss);
  EXPECT_EQ(with_prune.rounds, 1);
  EXPECT_EQ(without.rounds, 1);
  EXPECT_EQ(with_prune.fallback_rounds, 0);
  EXPECT_EQ(without.bound_evals, 0);
  EXPECT_EQ(without.pruned_gaps, 0);
  // The point of pruning: far fewer exact evaluations. 3x is a loose
  // floor; this landscape prunes >100x.
  EXPECT_LE(with_prune.exact_evals * 3, without.exact_evals);
  // With nothing excluded, every gap is either pruned or evaluated
  // exactly at one or both endpoints.
  EXPECT_GT(with_prune.pruned_gaps, 0);
  const std::int64_t evaluated = in_range - with_prune.pruned_gaps;
  EXPECT_GE(with_prune.exact_evals, evaluated);
  EXPECT_LE(with_prune.exact_evals, 2 * evaluated);
  EXPECT_EQ(with_prune.cached_bounds + with_prune.invalidated_gaps,
            in_range);
}

TEST(ArgmaxPruningTest, WideDomainsFallBackToExhaustive) {
  // Admissibility envelope: with n1 keys of shifted magnitude <= S the
  // exact aggregates reach n1^2 S^2 / n1^3 S, so for n1 * S >= 2^63
  // the bounds are not provably admissible and the pruned scan must
  // fall back to the exhaustive scan (fallback_rounds) —
  // the regime where PR 3's looser span-only guard would still have
  // pruned against potentially overflowed aggregates. n stays tiny so
  // the exhaustive arithmetic itself is safe (n1^2 S^2 < 2^127).
  const Key kHuge = static_cast<Key>(1) << 60;
  auto ks = KeySet::Create({-kHuge, -kHuge / 3, kHuge / 5, kHuge},
                           KeyDomain{-kHuge, kHuge});
  ASSERT_TRUE(ks.ok());
  auto ll = LossLandscape::Create(*ks);
  ASSERT_TRUE(ll.ok());

  LossLandscape::ArgmaxOptions pruned;
  pruned.prune = true;
  LossLandscape::ArgmaxStats stats;
  auto got = ll->FindOptimal(true, nullptr, nullptr, pruned, &stats);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(stats.fallback_rounds, 1);
  EXPECT_EQ(stats.bound_evals, 0);

  LossLandscape::ArgmaxOptions exhaustive;
  exhaustive.prune = false;
  auto want = ll->FindOptimal(true, nullptr, nullptr, exhaustive);
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(want->key, got->key);
  EXPECT_EQ(want->loss, got->loss);
}

TEST(ArgmaxPruningTest, TieredCountersAreCoherentAndAmortized) {
  // The tiered incremental scan's accounting contract: every round,
  // each gap in the scanned range is either dispositioned by its tier's
  // box bound (cached_bounds) or re-scored individually
  // (invalidated_gaps), and the total bound work stays a fraction of
  // the O(G)-per-round work of the exhaustive scan.
  Rng rng(0xCAC4E);
  auto ks = GenerateUniform(4000, KeyDomain{0, 80000}, &rng);
  ASSERT_TRUE(ks.ok());
  auto ll = LossLandscape::Create(*ks);
  ASSERT_TRUE(ll.ok());

  LossLandscape::ArgmaxOptions tiered;
  tiered.prune = true;
  LossLandscape::ArgmaxOptions exhaustive;
  exhaustive.prune = false;

  auto gaps_in_range = [&]() {
    std::int64_t gaps = 0;
    ll->ForEachGap(true, [&gaps](Key, Key, Rank, Int128) { ++gaps; });
    return gaps;
  };

  LossLandscape::ArgmaxStats total;
  LossLandscape::ArgmaxStats exhaustive_total;
  std::int64_t prev_cached = 0;
  std::int64_t prev_invalid = 0;
  const int kRounds = 48;
  for (int round = 0; round < kRounds; ++round) {
    const std::int64_t in_range = gaps_in_range();
    auto a = ll->FindOptimal(true, nullptr, nullptr, tiered, &total);
    ASSERT_TRUE(a.ok());
    // Coherence: every in-range gap was either tier-dispositioned or
    // re-scored.
    EXPECT_EQ((total.cached_bounds - prev_cached) +
                  (total.invalidated_gaps - prev_invalid),
              in_range)
        << "round " << round;
    // Most gaps must be handled at tier granularity.
    EXPECT_GT(total.cached_bounds - prev_cached,
              total.invalidated_gaps - prev_invalid)
        << "round " << round;
    prev_cached = total.cached_bounds;
    prev_invalid = total.invalidated_gaps;

    // The exhaustive sibling must agree bit-for-bit.
    auto b = ll->FindOptimal(true, nullptr, nullptr, exhaustive,
                             &exhaustive_total);
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->key, b->key);
    EXPECT_EQ(a->loss, b->loss);

    ASSERT_TRUE(ll->InsertKey(a->key).ok());
  }
  EXPECT_EQ(total.fallback_rounds, 0);
  // Amortization: the tiered scan scores one box per tier (~sqrt(G))
  // plus the few surviving tiers per gap, so its total bound work must
  // be far below the one score per candidate endpoint that the
  // exhaustive scan evaluates exactly. 4x is a loose floor — the sparse
  // acceptance configs measure >= 10x per round.
  EXPECT_LT(total.bound_evals * 4, exhaustive_total.exact_evals);
}

/// The brute force behind FindOptimalWithoutEdge: a landscape rebuilt
/// from \p keys (sorted) without \p edge_key over the tight domain of
/// the rest, every gap endpoint outside \p excluded evaluated with
/// LossAt, the first maximum in key order. On a tight domain both
/// interior_only settings offer the same endpoints. Returns false when
/// no candidate remains.
bool RebuiltArgmax(std::vector<Key> keys, Key edge_key, bool interior_only,
                   const std::unordered_set<Key>* excluded,
                   LossLandscape::Candidate* out) {
  keys.erase(std::find(keys.begin(), keys.end(), edge_key));
  auto ks = KeySet::CreateWithTightDomain(std::move(keys));
  EXPECT_TRUE(ks.ok()) << ks.status().message();
  auto ll = LossLandscape::Create(*ks);
  EXPECT_TRUE(ll.ok()) << ll.status().message();
  bool have = false;
  for (const Key kp : ll->GapEndpoints(interior_only)) {
    if (excluded != nullptr && excluded->count(kp) != 0) continue;
    const auto loss = ll->LossAt(kp);
    EXPECT_TRUE(loss.ok());
    if (!have || *loss > out->loss) {
      out->key = kp;
      out->loss = *loss;
      have = true;
    }
  }
  return have;
}

/// Both FindOptimalWithoutEdge scans at both edges against the rebuilt
/// landscape, plus the tiered scan's disposition contract over the gaps
/// it scans. Returns the number of edge scans that found a candidate.
int ExpectEdgeRemovedMatchesRebuilt(const LossLandscape& ll,
                                    const std::vector<Key>& keys,
                                    const std::unordered_set<Key>* excluded) {
  using Edge = LossLandscape::Edge;
  LossLandscape::ArgmaxOptions tiered;
  tiered.prune = true;
  LossLandscape::ArgmaxOptions exhaustive;
  exhaustive.prune = false;
  int found = 0;
  for (const Edge edge : {Edge::kMin, Edge::kMax}) {
    const Key key = edge == Edge::kMin ? keys.front() : keys.back();
    LossLandscape::ArgmaxStats stats;
    const auto got = ll.FindOptimalWithoutEdge(edge, key, excluded, tiered,
                                               &stats);
    const auto ref =
        ll.FindOptimalWithoutEdge(edge, key, excluded, exhaustive);
    for (const bool interior : {true, false}) {
      LossLandscape::Candidate want;
      const bool have = RebuiltArgmax(keys, key, interior, excluded, &want);
      EXPECT_EQ(have, got.ok()) << "interior " << interior;
      EXPECT_EQ(have, ref.ok()) << "interior " << interior;
      if (!have || !got.ok() || !ref.ok()) continue;
      EXPECT_EQ(got->key, want.key) << "interior " << interior;
      EXPECT_EQ(got->loss, want.loss) << "interior " << interior;
      EXPECT_EQ(ref->key, want.key) << "interior " << interior;
      EXPECT_EQ(ref->loss, want.loss) << "interior " << interior;
    }
    found += got.ok() ? 1 : 0;
    // Every gap strictly inside what remains is dispositioned once.
    const Key lo = edge == Edge::kMin ? ll.SecondMinKey() : ll.min_key();
    const Key hi = edge == Edge::kMin ? ll.max_key() : ll.SecondMaxKey();
    std::int64_t in_range = 0;
    ll.ForEachGapInRange(lo + 1, hi - 1,
                         [&in_range](Key, Key, Rank, Int128) { ++in_range; });
    EXPECT_EQ(stats.rounds, 1);
    EXPECT_EQ(stats.fallback_rounds, 0);
    EXPECT_EQ(stats.cached_bounds + stats.invalidated_gaps, in_range);
  }
  return found;
}

TEST(ArgmaxPruningTest, EdgeRemovedArgmaxMatchesRebuiltLandscape) {
  // Layouts: sparse uniform and log-normal keys on a domain with gaps
  // below the minimum and above the maximum (the first tier's front
  // record then lies below a removed minimum); the same keys on their
  // tight domain; keys whose two smallest and two largest are adjacent;
  // an arithmetic progression, whose mirror-image candidates tie
  // exactly; and sparse keys whose edges moved outward through InsertKey
  // and RemoveKey, so the removed minimum is not the shift and its
  // shifted value is not zero. Rounds commit the FindOptimal winner, so
  // later rounds scan tiers with pending deltas.
  enum class EdgeLayout {
    kSparse, kLogNormal, kTight, kAdjacent, kTies, kMovedEdges
  };
  const std::int64_t kSizes[] = {2, 3, 5, 60, 400, 3000};
  int found = 0;
  for (const EdgeLayout layout :
       {EdgeLayout::kSparse, EdgeLayout::kLogNormal, EdgeLayout::kTight,
        EdgeLayout::kAdjacent, EdgeLayout::kTies, EdgeLayout::kMovedEdges}) {
    for (const std::int64_t n : kSizes) {
      Rng rng(0xED6E + static_cast<std::uint64_t>(layout) * 100 +
              static_cast<std::uint64_t>(n));
      const KeyDomain domain{0, 20 * n + 100};
      Result<KeySet> ks = Status::Internal("unset");
      if (layout == EdgeLayout::kTies) {
        std::vector<Key> keys;
        for (std::int64_t i = 0; i < n; ++i) keys.push_back(50 + 7 * i);
        ks = KeySet::CreateWithTightDomain(std::move(keys));
      } else if (layout == EdgeLayout::kLogNormal) {
        ks = GenerateLogNormal(n, KeyDomain{0, 1000 * n + 1000}, &rng);
      } else {
        ks = GenerateUniform(n, KeyDomain{10, 20 * n + 90}, &rng);
        ASSERT_TRUE(ks.ok()) << ks.status().message();
        std::vector<Key> keys = ks->keys();
        if (layout == EdgeLayout::kAdjacent) {
          const Key lo = keys.front();
          const Key hi = keys.back();
          keys.push_back(lo - 1);
          keys.push_back(hi + 1);
        }
        ks = layout == EdgeLayout::kTight
                 ? KeySet::CreateWithTightDomain(std::move(keys))
                 : KeySet::Create(std::move(keys), domain);
      }
      ASSERT_TRUE(ks.ok()) << ks.status().message();
      auto ll = LossLandscape::Create(*ks);
      ASSERT_TRUE(ll.ok()) << ll.status().message();
      std::vector<Key> keys = ks->keys();
      if (layout == EdgeLayout::kMovedEdges) {
        const Key lo = keys.front();
        const Key hi = keys.back();
        ASSERT_TRUE(ll->InsertKey(lo - 7).ok());
        ASSERT_TRUE(ll->InsertKey(hi + 7).ok());
        ASSERT_TRUE(ll->RemoveKey(lo).ok());
        ASSERT_TRUE(ll->RemoveKey(hi).ok());
        keys.front() = lo - 7;
        keys.back() = hi + 7;
      }

      for (int round = 0; round < 4; ++round) {
        found += ExpectEdgeRemovedMatchesRebuilt(*ll, keys, nullptr);
        if (keys.size() >= 2) {
          // Exclusions on the endpoints nearest both edges, whichever
          // key is removed.
          const std::unordered_set<Key> excluded = {
              ll->min_key() + 1, ll->SecondMinKey() + 1,
              ll->max_key() - 1, ll->SecondMaxKey() - 1};
          found += ExpectEdgeRemovedMatchesRebuilt(*ll, keys, &excluded);
        }
        auto best = ll->FindOptimal(true);
        if (!best.ok()) break;
        ASSERT_TRUE(ll->InsertKey(best->key).ok());
        keys.insert(std::lower_bound(keys.begin(), keys.end(), best->key),
                    best->key);
      }
    }
  }
  EXPECT_GT(found, 300);
}

TEST(ArgmaxPruningTest, EdgeRemovedArgmaxNeedsTwoKeys) {
  auto ks = KeySet::Create({40}, KeyDomain{0, 100});
  ASSERT_TRUE(ks.ok());
  auto ll = LossLandscape::Create(*ks);
  ASSERT_TRUE(ll.ok());
  const auto got = ll->FindOptimalWithoutEdge(
      LossLandscape::Edge::kMin, 40, nullptr, LossLandscape::ArgmaxOptions{});
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace lispoison
