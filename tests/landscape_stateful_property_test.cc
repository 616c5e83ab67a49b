// Stateful property harness for the fully dynamic incremental argmax
// engine: hundreds of seeded random operation sequences — InsertKey /
// RemoveKey / ReplaceKey commits, FindOptimal and FindOptimalRemoval
// scans with per-call random interior/thread-count/prune
// settings, occasional excluded-key / restricted-allowed scans and
// duplicate-insert / missing-removal probes — replayed against a
// *flat-vector + full-evaluation oracle* (sorted std::vector<Key> plus
// exact Aggregates arithmetic, no gap structure, no pruning, no
// caching). At every step the engine must return a bit-identical
// candidate (key and long-double loss), and the ArgmaxStats counters
// must satisfy the engine's accounting contracts:
//
//   * prune off      -> no bound work, exact_evals == oracle candidates
//   * prune (tiered) -> cached_bounds + invalidated_gaps == gaps in
//                       the scanned range (every gap is dispositioned
//                       exactly once), zero fallbacks
//   * removal scans  -> every stored key dispositioned exactly once by
//                       its block's chord bound or per-key re-scoring
//                       (cached_bounds + invalidated_gaps == n)
//
// and every InsertKey splice / RemoveKey merge must move O(sqrt(G)) gap
// records, not O(G) — asserted through the engine's splice-work counter
// against the tier cap (a flat-vector splice would move ~G/2 records
// per edit).
//
// The sequence count is env-tunable: PROPERTY_TEST_SEEDS=<n> extends
// the sweep (CI's sanitizer matrix runs an extended range).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <unordered_set>
#include <vector>

#include "attack/loss_landscape.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "data/generators.h"
#include "data/keyset.h"

namespace lispoison {
namespace {

/// Outcome of one oracle scan.
struct OracleScan {
  bool ok = false;
  Key key = 0;
  long double loss = 0;
  std::int64_t gaps_in_range = 0;  ///< Maximal gaps meeting the range.
  std::int64_t candidates = 0;     ///< Non-excluded endpoint evaluations.
};

/// The reference model: a flat sorted key vector. Every scan rebuilds
/// the exact aggregates from scratch and evaluates every gap endpoint —
/// the "flat-vector + full evaluation" ground truth the tiered engine
/// must bit-match. Loss values are computed through the same public
/// Aggregates arithmetic, whose shift-invariance (pinned by
/// loss_landscape_incremental_test) makes bit-equality well-defined
/// even though the oracle re-shifts by its own current minimum.
class FlatOracle {
 public:
  FlatOracle(std::vector<Key> keys, KeyDomain domain)
      : keys_(std::move(keys)), domain_(domain) {}

  bool Occupied(Key k) const {
    return std::binary_search(keys_.begin(), keys_.end(), k);
  }

  void Insert(Key k) {
    keys_.insert(std::lower_bound(keys_.begin(), keys_.end(), k), k);
  }

  void Remove(Key k) {
    keys_.erase(std::lower_bound(keys_.begin(), keys_.end(), k));
  }

  std::int64_t size() const { return static_cast<std::int64_t>(keys_.size()); }
  Key KeyAt(std::int64_t idx) const {
    return keys_[static_cast<std::size_t>(idx)];
  }

  const KeyDomain& domain() const { return domain_; }

  /// Maximal unoccupied runs over the whole domain.
  std::int64_t TotalGaps() const {
    std::int64_t gaps = 0;
    Key cursor = domain_.lo;
    for (const Key k : keys_) {
      if (cursor <= k - 1) ++gaps;
      cursor = k + 1;
    }
    if (cursor <= domain_.hi) ++gaps;
    return gaps;
  }

  OracleScan FindOptimal(bool interior,
                         const std::unordered_set<Key>* excluded) const {
    OracleScan result;
    LossLandscape::Aggregates agg;
    agg.shift = keys_.front();
    for (const Key k : keys_) agg.InsertAboveAll(k);
    const Key lo_bound = interior ? keys_.front() + 1 : domain_.lo;
    const Key hi_bound = interior ? keys_.back() - 1 : domain_.hi;
    if (lo_bound > hi_bound) return result;

    Int128 prefix = 0;
    Rank count = 0;
    Key cursor = domain_.lo;
    auto visit_gap = [&](Key gap_lo, Key gap_hi) {
      if (gap_hi < lo_bound || gap_lo > hi_bound) return;
      const Key lo = std::max(gap_lo, lo_bound);
      const Key hi = std::min(gap_hi, hi_bound);
      ++result.gaps_in_range;
      const Int128 suffix = agg.sum_k - prefix;
      auto consider = [&](Key kp) {
        if (excluded != nullptr && excluded->count(kp) != 0) return;
        ++result.candidates;
        const long double loss = agg.LossAfterInsert(kp, count, suffix);
        if (!result.ok || loss > result.loss) {  // First max in key order.
          result.ok = true;
          result.key = kp;
          result.loss = loss;
        }
      };
      consider(lo);
      if (hi != lo) consider(hi);
    };
    for (const Key k : keys_) {
      if (cursor <= k - 1) visit_gap(cursor, k - 1);
      prefix += static_cast<Int128>(k) - agg.shift;
      ++count;
      cursor = k + 1;
    }
    if (cursor <= domain_.hi) visit_gap(cursor, domain_.hi);
    return result;
  }

  /// The removal-argmax ground truth: evaluate every (allowed) stored
  /// key's deletion exactly through the public Aggregates arithmetic,
  /// first maximum in key order.
  OracleScan FindOptimalRemoval(
      const std::unordered_set<Key>* allowed) const {
    OracleScan result;
    LossLandscape::Aggregates agg;
    agg.shift = keys_.front();
    for (const Key k : keys_) agg.InsertAboveAll(k);
    Int128 prefix = 0;
    for (std::size_t j = 0; j < keys_.size(); ++j) {
      const Key k = keys_[j];
      const Int128 x = static_cast<Int128>(k) - agg.shift;
      if (allowed == nullptr || allowed->count(k) != 0) {
        ++result.candidates;
        LossLandscape::Aggregates copy = agg;
        copy.Remove(k, static_cast<Rank>(j), agg.sum_k - prefix - x);
        const long double loss = copy.Loss();
        if (!result.ok || loss > result.loss) {  // First max in key order.
          result.ok = true;
          result.key = k;
          result.loss = loss;
        }
      }
      prefix += x;
    }
    return result;
  }

 private:
  std::vector<Key> keys_;  // Sorted, the flat reference representation.
  KeyDomain domain_;
};

int SeedCount() {
  if (const char* env = std::getenv("PROPERTY_TEST_SEEDS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 200;
}

/// One randomized op sequence. `pools` supplies shared thread pools for
/// the {2, 7}-worker scans (nullptr entries mean serial).
void RunSequence(std::uint64_t seed, const std::vector<ThreadPool*>& pools) {
  Rng rng(seed);
  // Every 4th sequence is large enough (> 2048 gaps) to cross the
  // chunked-parallel threshold; the rest keep the oracle cheap.
  const bool big = seed % 4 == 0;
  const std::int64_t n =
      big ? rng.UniformInt(2600, 4200) : rng.UniformInt(24, 800);
  const KeyDomain domain{0, 16 * n};
  const int layout = static_cast<int>(rng.UniformInt(0, 1));
  auto ks = layout == 0 ? GenerateUniform(n, domain, &rng)
                        : GenerateLogNormal(n, domain, &rng);
  ASSERT_TRUE(ks.ok()) << ks.status().message();
  auto ll = LossLandscape::Create(*ks);
  ASSERT_TRUE(ll.ok()) << ll.status().message();
  FlatOracle oracle(ks->keys(), domain);

  LossLandscape::ArgmaxStats stats;
  LossLandscape::ArgmaxStats prev;
  std::int64_t prev_splice = ll->splice_moves();

  // Per-edit splice/merge budget: within-tier shifts (<= tier cap), one
  // possible tier split or underflow re-balance (<= ~1.5 cap copies)
  // and the tier directory (underflow re-balancing keeps tiers above
  // cap/4, so <= 4G/cap + 1 entries). A flat layout would move ~G/2.
  auto splice_budget = [](std::int64_t cap, std::int64_t gaps) {
    return 3 * cap + 4 * gaps / std::max<std::int64_t>(1, cap) + 64;
  };

  const int ops = 30;
  for (int op = 0; op < ops; ++op) {
    const std::int64_t roll = rng.UniformInt(0, 99);
    if (roll < 28) {
      // ---- InsertKey of a random unoccupied key. ----
      Key kp = 0;
      bool found = false;
      for (int tries = 0; tries < 24 && !found; ++tries) {
        kp = rng.UniformInt(domain.lo, domain.hi);
        found = !oracle.Occupied(kp);
      }
      if (!found) continue;
      ASSERT_TRUE(ll->InsertKey(kp).ok()) << "seed " << seed;
      oracle.Insert(kp);
      // Duplicate inserts must be rejected and leave no trace.
      if (roll < 8) {
        EXPECT_FALSE(ll->InsertKey(kp).ok());
      }
      const std::int64_t total_gaps = oracle.TotalGaps();
      EXPECT_EQ(ll->gap_count(), total_gaps) << "seed " << seed;
      const std::int64_t moved = ll->splice_moves() - prev_splice;
      prev_splice = ll->splice_moves();
      EXPECT_LE(moved, splice_budget(ll->gap_tier_cap(), total_gaps))
          << "seed " << seed << " op " << op << " G=" << total_gaps;
    } else if (roll < 42) {
      // ---- RemoveKey of a random stored key. ----
      if (oracle.size() <= 4) continue;
      const Key victim = oracle.KeyAt(rng.UniformInt(0, oracle.size() - 1));
      ASSERT_TRUE(ll->RemoveKey(victim).ok())
          << "seed " << seed << " op " << op << " victim " << victim;
      oracle.Remove(victim);
      // Removing an unoccupied key must be rejected and leave no trace.
      if (roll < 32) {
        EXPECT_FALSE(ll->RemoveKey(victim).ok());
      }
      const std::int64_t total_gaps = oracle.TotalGaps();
      EXPECT_EQ(ll->gap_count(), total_gaps) << "seed " << seed;
      // The tiered merge is the splice's dual and must obey the same
      // O(sqrt(G)) budget.
      const std::int64_t moved = ll->splice_moves() - prev_splice;
      prev_splice = ll->splice_moves();
      EXPECT_LE(moved, splice_budget(ll->gap_tier_cap(), total_gaps))
          << "seed " << seed << " op " << op << " G=" << total_gaps;
    } else if (roll < 50) {
      // ---- ReplaceKey: relocate a stored key to a free slot. ----
      if (oracle.size() <= 4) continue;
      const Key from = oracle.KeyAt(rng.UniformInt(0, oracle.size() - 1));
      // A same-slot replacement is a legal no-op round-trip.
      if (roll < 45) {
        ASSERT_TRUE(ll->ReplaceKey(from, from).ok()) << "seed " << seed;
        EXPECT_EQ(ll->gap_count(), oracle.TotalGaps()) << "seed " << seed;
      }
      Key to = 0;
      bool found = false;
      for (int tries = 0; tries < 24 && !found; ++tries) {
        to = rng.UniformInt(domain.lo, domain.hi);
        found = !oracle.Occupied(to);
      }
      if (!found) {
        prev_splice = ll->splice_moves();
        continue;
      }
      ASSERT_TRUE(ll->ReplaceKey(from, to).ok())
          << "seed " << seed << " op " << op;
      oracle.Remove(from);
      oracle.Insert(to);
      const std::int64_t total_gaps = oracle.TotalGaps();
      EXPECT_EQ(ll->gap_count(), total_gaps) << "seed " << seed;
      const std::int64_t moved = ll->splice_moves() - prev_splice;
      prev_splice = ll->splice_moves();
      // One merge plus one splice (plus the possible same-slot
      // round-trip above): a small multiple of the per-edit budget.
      EXPECT_LE(moved, 4 * splice_budget(ll->gap_tier_cap(), total_gaps))
          << "seed " << seed << " op " << op << " G=" << total_gaps;
    } else if (roll < 62) {
      // ---- FindOptimalRemoval under random settings. ----
      if (oracle.size() < 3) continue;
      const std::int64_t pool_pick = rng.UniformInt(0, 2);
      ThreadPool* pool = pool_pick == 0 ? nullptr
                                        : pools[static_cast<std::size_t>(
                                              pool_pick - 1)];
      LossLandscape::ArgmaxOptions argmax;
      argmax.prune = rng.UniformInt(0, 3) != 0;   // 3/4 pruned
      // Every other op fans out on any pool; the rest keep the default
      // threshold, which these sizes never reach (the serial scan).
      if (op % 2 == 0) argmax.fan_out_units = 0;
      std::unordered_set<Key> allowed_set;
      const std::unordered_set<Key>* allowed = nullptr;
      if (rng.UniformInt(0, 2) == 0) {
        // Restrict to a sparse subset of the stored keys (the paper's
        // adversary-controlled records).
        for (std::int64_t i = rng.UniformInt(0, 2); i < oracle.size();
             i += 3) {
          allowed_set.insert(oracle.KeyAt(i));
        }
        if (!allowed_set.empty()) allowed = &allowed_set;
      }

      const OracleScan want = oracle.FindOptimalRemoval(allowed);
      const auto got = ll->FindOptimalRemoval(allowed, pool, argmax, &stats);
      ASSERT_EQ(want.ok, got.ok()) << "seed " << seed << " op " << op;
      if (want.ok) {
        EXPECT_EQ(want.key, got->key) << "seed " << seed << " op " << op;
        EXPECT_EQ(want.loss, got->loss) << "seed " << seed << " op " << op;
      }

      // ---- Removal-scan counter contracts. ----
      const auto d = [&](std::int64_t LossLandscape::ArgmaxStats::*f) {
        return stats.*f - prev.*f;
      };
      EXPECT_EQ(d(&LossLandscape::ArgmaxStats::rounds), 1);
      EXPECT_EQ(d(&LossLandscape::ArgmaxStats::fallback_rounds), 0)
          << "seed " << seed;  // Moderate domains: always admissible.
      if (!argmax.prune) {
        EXPECT_EQ(d(&LossLandscape::ArgmaxStats::bound_evals), 0);
        EXPECT_EQ(d(&LossLandscape::ArgmaxStats::pruned_gaps), 0);
        EXPECT_EQ(d(&LossLandscape::ArgmaxStats::cached_bounds), 0);
        EXPECT_EQ(d(&LossLandscape::ArgmaxStats::invalidated_gaps), 0);
        EXPECT_EQ(d(&LossLandscape::ArgmaxStats::exact_evals),
                  want.candidates)
            << "seed " << seed << " op " << op;
      } else {
        // Tiered scan: every stored key dispositioned exactly once,
        // either by its block's chord bound or by per-key re-scoring.
        EXPECT_EQ(d(&LossLandscape::ArgmaxStats::cached_bounds) +
                      d(&LossLandscape::ArgmaxStats::invalidated_gaps),
                  oracle.size())
            << "seed " << seed << " op " << op;
        // Bound work: one chord per ~sqrt(n) storage block, plus
        // per-key scores only inside surviving blocks. The seed block
        // is staged once per round however many chunks the pool runs,
        // and it always survives (its chord is the largest), so its
        // keys are among the re-scored ones.
        EXPECT_LE(d(&LossLandscape::ArgmaxStats::bound_evals),
                  ll->removal_block_count() +
                      d(&LossLandscape::ArgmaxStats::invalidated_gaps))
            << "seed " << seed << " op " << op;
      }
      EXPECT_LE(d(&LossLandscape::ArgmaxStats::exact_evals),
                want.candidates)
          << "seed " << seed << " op " << op;
      prev = stats;
    } else {
      // ---- FindOptimal under random settings. ----
      const bool interior = rng.UniformInt(0, 1) == 0;
      const std::int64_t pool_pick = rng.UniformInt(0, 2);
      ThreadPool* pool = pool_pick == 0 ? nullptr
                                        : pools[static_cast<std::size_t>(
                                              pool_pick - 1)];
      LossLandscape::ArgmaxOptions argmax;
      argmax.prune = rng.UniformInt(0, 3) != 0;   // 3/4 pruned
      if (op % 2 == 0) argmax.fan_out_units = 0;  // As for removal.
      std::unordered_set<Key> excluded_set;
      const std::unordered_set<Key>* excluded = nullptr;
      if (rng.UniformInt(0, 7) == 0) {
        // Exclude the current optimum: the engine must find the
        // runner-up exactly.
        const OracleScan top = oracle.FindOptimal(interior, nullptr);
        if (top.ok) {
          excluded_set.insert(top.key);
          excluded = &excluded_set;
        }
      }

      const OracleScan want = oracle.FindOptimal(interior, excluded);
      const auto got =
          ll->FindOptimal(interior, excluded, pool, argmax, &stats);
      ASSERT_EQ(want.ok, got.ok())
          << "seed " << seed << " op " << op;
      if (want.ok) {
        EXPECT_EQ(want.key, got->key) << "seed " << seed << " op " << op;
        EXPECT_EQ(want.loss, got->loss) << "seed " << seed << " op " << op;
      }

      // ---- Counter contracts. ----
      const auto d = [&](std::int64_t LossLandscape::ArgmaxStats::*f) {
        return stats.*f - prev.*f;
      };
      EXPECT_EQ(d(&LossLandscape::ArgmaxStats::rounds), 1);
      EXPECT_EQ(d(&LossLandscape::ArgmaxStats::fallback_rounds), 0)
          << "seed " << seed;  // Moderate domains: always admissible.
      if (!argmax.prune) {
        EXPECT_EQ(d(&LossLandscape::ArgmaxStats::bound_evals), 0);
        EXPECT_EQ(d(&LossLandscape::ArgmaxStats::cached_bounds), 0);
        EXPECT_EQ(d(&LossLandscape::ArgmaxStats::invalidated_gaps), 0);
        EXPECT_EQ(d(&LossLandscape::ArgmaxStats::pruned_gaps), 0);
        EXPECT_EQ(d(&LossLandscape::ArgmaxStats::exact_evals),
                  want.candidates)
            << "seed " << seed << " op " << op;
      } else {
        // Tiered scan: every in-range gap dispositioned exactly once,
        // either by its tier's range bound or by per-gap re-scoring.
        EXPECT_EQ(d(&LossLandscape::ArgmaxStats::cached_bounds) +
                      d(&LossLandscape::ArgmaxStats::invalidated_gaps),
                  want.gaps_in_range)
            << "seed " << seed << " op " << op;
        // Bound work: at most one range bound per tier (bounded by the
        // gap count) plus two endpoint scores per re-scored gap. The
        // seed tier is staged once per round and always re-scored from
        // those staged scores (its bound is the largest), so it counts
        // once.
        EXPECT_LE(d(&LossLandscape::ArgmaxStats::bound_evals),
                  want.gaps_in_range +
                      2 * d(&LossLandscape::ArgmaxStats::invalidated_gaps))
            << "seed " << seed << " op " << op;
      }
      // Exact work never exceeds the exhaustive candidate count (the
      // seed gap is deduplicated in the sweep).
      EXPECT_LE(d(&LossLandscape::ArgmaxStats::exact_evals),
                want.candidates)
          << "seed " << seed << " op " << op;
      prev = stats;
    }
  }
}

TEST(LandscapeStatefulPropertyTest, SeededOpSequencesMatchFlatOracle) {
  ThreadPool pool2(2);
  ThreadPool pool7(7);
  const std::vector<ThreadPool*> pools = {&pool2, &pool7};
  const int seeds = SeedCount();
  for (int s = 0; s < seeds; ++s) {
    RunSequence(0x5EED5000 + static_cast<std::uint64_t>(s), pools);
    if (::testing::Test::HasFatalFailure()) {
      FAIL() << "fatal failure at seed index " << s;
    }
  }
}

TEST(LandscapeStatefulPropertyTest, GreedySelfInsertionSpliceWorkSublinear) {
  // The greedy attack's own access pattern at a gap count where a flat
  // O(G) splice would dwarf the tiered bound: 300 inserts into ~5000
  // maximal gaps must each move O(sqrt(G)) records.
  Rng rng(0x5811CE);
  auto ks = GenerateUniform(5000, KeyDomain{0, 80000}, &rng);
  ASSERT_TRUE(ks.ok());
  auto ll = LossLandscape::Create(*ks);
  ASSERT_TRUE(ll.ok());

  const std::int64_t cap = ll->gap_tier_cap();
  std::int64_t prev_splice = ll->splice_moves();
  std::int64_t max_moved = 0;
  for (int round = 0; round < 300; ++round) {
    auto best = ll->FindOptimal(true);
    ASSERT_TRUE(best.ok());
    ASSERT_TRUE(ll->InsertKey(best->key).ok());
    const std::int64_t moved = ll->splice_moves() - prev_splice;
    prev_splice = ll->splice_moves();
    max_moved = std::max(max_moved, moved);
    const std::int64_t gaps = ll->gap_count();
    ASSERT_LE(moved,
              2 * cap + 2 * gaps / std::max<std::int64_t>(1, cap) + 32)
        << "round " << round;
  }
  // Structural sanity: the worst insert stayed around sqrt-scale, far
  // below the flat vector's ~G/2 average memmove.
  EXPECT_LT(max_moved, ll->gap_count() / 8);
  EXPECT_GT(max_moved, 0);
}

TEST(LandscapeStatefulPropertyTest, GreedyDeletionMergeWorkSublinear) {
  // The deletion attack's own access pattern: 300 argmax-chosen
  // removals against ~5000 maximal gaps, each committing an O(sqrt(G))
  // tiered merge (with underflow re-balancing), never a flat O(G)
  // splice.
  Rng rng(0xDE1E7E5);
  auto ks = GenerateUniform(5000, KeyDomain{0, 80000}, &rng);
  ASSERT_TRUE(ks.ok());
  auto ll = LossLandscape::Create(*ks);
  ASSERT_TRUE(ll.ok());

  const std::int64_t cap = ll->gap_tier_cap();
  std::int64_t prev_splice = ll->splice_moves();
  std::int64_t max_moved = 0;
  for (int round = 0; round < 300; ++round) {
    auto best = ll->FindOptimalRemoval(nullptr, nullptr,
                                       LossLandscape::ArgmaxOptions{});
    ASSERT_TRUE(best.ok());
    ASSERT_TRUE(ll->RemoveKey(best->key).ok());
    const std::int64_t moved = ll->splice_moves() - prev_splice;
    prev_splice = ll->splice_moves();
    max_moved = std::max(max_moved, moved);
    const std::int64_t gaps = ll->gap_count();
    ASSERT_LE(moved,
              3 * cap + 4 * gaps / std::max<std::int64_t>(1, cap) + 64)
        << "round " << round;
  }
  EXPECT_LT(max_moved, ll->gap_count() / 4);
  EXPECT_GT(max_moved, 0);
}

// ---- Large-n sampled mode (ctest -C large_n) ---------------------------
//
// The default sweep keeps the flat oracle exact, which caps n at a few
// thousand. This mode runs the same stateful contract at n = 10^6 with
// a *sampled* oracle: the engine's argmax answer must dominate a few
// thousand randomly sampled candidates scored through the public
// Aggregates arithmetic, every commit must hold the O(sqrt(G)) splice
// budget and the O(sqrt(n)) removal-SoA touch budget, and the gap count
// must track an independent O(n) walk. Excluded from the default ctest
// run (CONFIGURATIONS large_n + env gate) because one iteration costs
// seconds, not milliseconds.

TEST(LandscapeStatefulPropertyTest, LargeNSampledMode) {
  if (std::getenv("LISPOISON_LARGE_N") == nullptr) {
    GTEST_SKIP() << "set LISPOISON_LARGE_N=1 (or run ctest -C large_n)";
  }
  Rng rng(0x1A96E);
  const std::int64_t n = 1'000'000;
  const KeyDomain domain{0, 16 * n};
  auto ks = GenerateUniform(n, domain, &rng);
  ASSERT_TRUE(ks.ok());
  ThreadPool pool(3);
  // Parallel build on purpose: the sampled sweep then also exercises
  // the chunked Create product end to end.
  auto ll = LossLandscape::Create(*ks, &pool);
  ASSERT_TRUE(ll.ok());
  FlatOracle oracle(ks->keys(), domain);

  // Scored through the same shift-invariant public arithmetic the small
  // oracle uses; rebuilt per sampled scan.
  const auto make_agg = [&](const std::vector<Key>& keys) {
    LossLandscape::Aggregates agg;
    agg.shift = keys.front();
    for (const Key k : keys) agg.InsertAboveAll(k);
    return agg;
  };

  std::vector<Key> keys = ks->keys();
  std::int64_t prev_splice = ll->splice_moves();
  const double sqrt_n = std::sqrt(static_cast<double>(n));
  const int ops = 36;
  for (int op = 0; op < ops; ++op) {
    const std::int64_t roll = rng.UniformInt(0, 99);
    if (roll < 40) {
      // Random unoccupied insert.
      Key kp = 0;
      bool found = false;
      for (int tries = 0; tries < 24 && !found; ++tries) {
        kp = rng.UniformInt(domain.lo, domain.hi);
        found = !std::binary_search(keys.begin(), keys.end(), kp);
      }
      if (!found) continue;
      ASSERT_TRUE(ll->InsertKey(kp).ok()) << "op " << op;
      keys.insert(std::lower_bound(keys.begin(), keys.end(), kp), kp);
      oracle.Insert(kp);
    } else if (roll < 70) {
      // Argmax-chosen removal: the engine's own deletion-attack access
      // pattern, which also maintains the removal SoA.
      auto best = ll->FindOptimalRemoval(nullptr, &pool,
                                         LossLandscape::ArgmaxOptions{});
      ASSERT_TRUE(best.ok()) << "op " << op;
      // Sampled dominance: no sampled stored key's removal beats it.
      const LossLandscape::Aggregates agg = make_agg(keys);
      std::vector<Int128> prefix(keys.size() + 1, 0);
      for (std::size_t i = 0; i < keys.size(); ++i) {
        prefix[i + 1] =
            prefix[i] + (static_cast<Int128>(keys[i]) - agg.shift);
      }
      for (int s = 0; s < 2048; ++s) {
        const std::int64_t j =
            rng.UniformInt(0, static_cast<std::int64_t>(keys.size()) - 1);
        LossLandscape::Aggregates copy = agg;
        const Int128 x =
            static_cast<Int128>(keys[static_cast<std::size_t>(j)]) -
            agg.shift;
        copy.Remove(keys[static_cast<std::size_t>(j)],
                    static_cast<Rank>(j),
                    agg.sum_k - prefix[static_cast<std::size_t>(j)] - x);
        ASSERT_GE(best->loss, copy.Loss())
            << "op " << op << " sampled stored key "
            << keys[static_cast<std::size_t>(j)];
      }
      ASSERT_TRUE(ll->RemoveKey(best->key).ok()) << "op " << op;
      keys.erase(std::lower_bound(keys.begin(), keys.end(), best->key));
      oracle.Remove(best->key);
    } else {
      // Pruned insertion argmax with sampled dominance.
      auto best = ll->FindOptimal(/*interior_only=*/true,
                                  /*excluded=*/nullptr, &pool);
      ASSERT_TRUE(best.ok()) << "op " << op;
      const LossLandscape::Aggregates agg = make_agg(keys);
      std::vector<Int128> prefix(keys.size() + 1, 0);
      for (std::size_t i = 0; i < keys.size(); ++i) {
        prefix[i + 1] =
            prefix[i] + (static_cast<Int128>(keys[i]) - agg.shift);
      }
      for (int s = 0; s < 2048; ++s) {
        const Key kp = rng.UniformInt(keys.front() + 1, keys.back() - 1);
        const auto it = std::lower_bound(keys.begin(), keys.end(), kp);
        if (it != keys.end() && *it == kp) continue;  // Occupied.
        const std::size_t less =
            static_cast<std::size_t>(it - keys.begin());
        const long double loss = agg.LossAfterInsert(
            kp, static_cast<Rank>(less), agg.sum_k - prefix[less]);
        ASSERT_GE(best->loss, loss)
            << "op " << op << " sampled candidate " << kp;
      }
      ASSERT_TRUE(ll->InsertKey(best->key).ok()) << "op " << op;
      keys.insert(std::lower_bound(keys.begin(), keys.end(), best->key),
                  best->key);
      oracle.Insert(best->key);
    }

    // Structural contracts at scale, every op.
    EXPECT_EQ(ll->gap_count(), oracle.TotalGaps()) << "op " << op;
    const std::int64_t moved = ll->splice_moves() - prev_splice;
    prev_splice = ll->splice_moves();
    EXPECT_LE(moved,
              3 * ll->gap_tier_cap() +
                  4 * ll->gap_count() /
                      std::max<std::int64_t>(1, ll->gap_tier_cap()) +
                  64)
        << "op " << op;
  }
  if (ll->removal_commits() > 0) {
    const double per_commit =
        static_cast<double>(ll->removal_commit_touched_slots()) /
        static_cast<double>(ll->removal_commits());
    EXPECT_LE(per_commit, 10.0 * sqrt_n);
  }
}

}  // namespace
}  // namespace lispoison
