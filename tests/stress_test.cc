// Randomized stress tests: long random operation sequences checked
// against straightforward reference oracles. These complement the
// per-module unit tests with whole-system consistency under workloads
// no hand-written case would cover.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>
#include <vector>

#include "attack/deletion_attack.h"
#include "attack/greedy_poisoner.h"
#include "common/rng.h"
#include "common/stats.h"
#include "data/generators.h"
#include "index/btree.h"
#include "index/cdf_regression.h"
#include "index/learned_index.h"
#include "workload/search_backend.h"

namespace lispoison {
namespace {

// ---------------------------------------------------------------------------
// Updatable index — a one-shard RMI backend compacting inline — vs a
// std::set reference under a random insert/remove/lookup mix. Keys are
// drawn from the domain, the initial keys and the removed keys alike,
// so duplicates, tombstones, resurrections and compaction folding all
// occur.
// ---------------------------------------------------------------------------

class UpdatableIndexStress : public testing::TestWithParam<int> {};

TEST_P(UpdatableIndexStress, RandomOpsMatchReferenceSet) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 1299721);
  const KeyDomain domain{0, 49999};
  auto initial = GenerateUniform(500, domain, &rng);
  ASSERT_TRUE(initial.ok());

  BackendOptions opts;
  opts.rmi.target_model_size = 64;
  opts.rmi.root_kind = RootModelKind::kOracle;
  opts.num_shards = 1;
  opts.compact_threshold = 20;
  opts.sync_compaction = true;
  auto backend = CreateBackend(BackendKind::kRmi, *initial, opts);
  ASSERT_TRUE(backend.ok()) << backend.status().message();
  SearchBackend& idx = **backend;

  std::set<Key> reference(initial->keys().begin(), initial->keys().end());
  std::vector<Key> removed;
  // A third each: any domain key, an initial key, a removed key.
  auto draw = [&]() -> Key {
    const std::int64_t source = rng.UniformInt(0, 2);
    if (source == 1) return initial->at(rng.UniformInt(0, initial->size() - 1));
    if (source == 2 && !removed.empty()) {
      return removed[static_cast<std::size_t>(rng.UniformInt(
          0, static_cast<std::int64_t>(removed.size()) - 1))];
    }
    return rng.UniformInt(domain.lo, domain.hi);
  };
  std::int64_t peak_tombstones = 0;
  for (int op = 0; op < 3000; ++op) {
    const double u = rng.NextDouble();
    const Key k = draw();
    const bool stored = reference.count(k) > 0;
    if (u < 0.3) {
      const Status st = idx.Insert(k);
      if (stored) {
        EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << k;
      } else {
        EXPECT_TRUE(st.ok()) << st.ToString();
        reference.insert(k);
      }
    } else if (u < 0.5) {
      const Status st = idx.Remove(k);
      if (stored) {
        EXPECT_TRUE(st.ok()) << st.ToString();
        reference.erase(k);
        removed.push_back(k);
        peak_tombstones = std::max(peak_tombstones, idx.tombstone_size());
      } else {
        EXPECT_EQ(st.code(), StatusCode::kNotFound) << k;
      }
    } else {
      EXPECT_EQ(idx.Lookup(k).found, stored) << k;
    }
  }
  EXPECT_GT(idx.compactions(), 0);
  EXPECT_GT(peak_tombstones, 0);
  EXPECT_EQ(idx.base_size() + idx.overlay_size() - idx.tombstone_size(),
            static_cast<std::int64_t>(reference.size()));
  EXPECT_EQ(idx.Scan(domain.lo, domain.hi).range_count,
            static_cast<std::int64_t>(reference.size()));
  // Final sweep: every reference key is found, every removed key that
  // stayed removed is not.
  for (Key k : reference) {
    ASSERT_TRUE(idx.Lookup(k).found) << k;
  }
  for (Key k : removed) {
    ASSERT_EQ(idx.Lookup(k).found, reference.count(k) > 0) << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, UpdatableIndexStress, testing::Range(1, 6));

// ---------------------------------------------------------------------------
// Learned index vs B+Tree vs std::vector: identical answers on mixed
// hit/miss probes across distributions.
// ---------------------------------------------------------------------------

class IndexAgreementStress
    : public testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(IndexAgreementStress, AllIndexesAgree) {
  const auto [dist, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 15485863);
  const KeyDomain domain{0, 199999};
  Result<KeySet> ks = Status::Internal("unset");
  switch (dist) {
    case 0:
      ks = GenerateUniform(3000, domain, &rng);
      break;
    case 1:
      ks = GenerateLogNormal(3000, domain, &rng);
      break;
    default:
      ks = GenerateClustered(3000, domain,
                             {{0.2, 0.03, 1.0}, {0.7, 0.05, 2.0}}, &rng);
      break;
  }
  ASSERT_TRUE(ks.ok());
  RmiOptions opts;
  opts.target_model_size = 128;
  opts.root_kind = RootModelKind::kPiecewiseLinear;
  auto learned = LearnedIndex::Build(*ks, opts);
  auto btree = BPlusTree::Build(*ks, 32);
  ASSERT_TRUE(learned.ok());
  ASSERT_TRUE(btree.ok());
  for (int t = 0; t < 3000; ++t) {
    const Key k = rng.UniformInt(domain.lo, domain.hi);
    const bool expect = ks->Contains(k);
    const LookupResult li = learned->Lookup(k);
    const BTreeLookupResult bi = btree->Lookup(k);
    ASSERT_EQ(li.found, expect) << k;
    ASSERT_EQ(bi.found, expect) << k;
    if (expect) {
      ASSERT_EQ(li.position, bi.position) << k;
      ASSERT_EQ(li.position, *ks->RankOf(k) - 1) << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, IndexAgreementStress,
    testing::Combine(testing::Values(0, 1, 2), testing::Range(1, 4)));

// ---------------------------------------------------------------------------
// Deletion landscape O(1) evaluation vs full retraining, every index.
// ---------------------------------------------------------------------------

class DeletionLandscapeStress : public testing::TestWithParam<int> {};

TEST_P(DeletionLandscapeStress, EveryDeletionMatchesRetrain) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 32452843);
  auto ks = GenerateUniform(60, KeyDomain{0, 2999}, &rng);
  ASSERT_TRUE(ks.ok());
  // Reference: retrain from scratch for every single deletion and
  // compare against what one greedy round reports as its maximum.
  long double best_ref = 0;
  for (std::int64_t j = 0; j < ks->size(); ++j) {
    std::vector<Key> remaining = ks->keys();
    remaining.erase(remaining.begin() + j);
    MomentAccumulator acc;
    Rank r = 1;
    for (Key k : remaining) acc.Add(k, r++);
    best_ref = std::max(best_ref, FitFromMoments(acc).mse);
  }
  auto attack = GreedyDeleteCdf(*ks, 1);
  ASSERT_TRUE(attack.ok());
  EXPECT_NEAR(static_cast<double>(attack->attacked_loss),
              static_cast<double>(best_ref),
              1e-9 * std::max(1.0, static_cast<double>(best_ref)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeletionLandscapeStress,
                         testing::Range(1, 16));

// ---------------------------------------------------------------------------
// Attack-then-index pipeline fuzz: random configurations must either
// fail with a clean Status or produce a consistent poisoned index.
// ---------------------------------------------------------------------------

class PipelineFuzz : public testing::TestWithParam<int> {};

TEST_P(PipelineFuzz, RandomConfigurationsNeverCorruptState) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 49979687);
  const std::int64_t n = 50 + rng.UniformInt(0, 400);
  const double density = 0.05 + 0.9 * rng.NextDouble();
  const Key m = static_cast<Key>(static_cast<double>(n) / density) + 2;
  auto ks = GenerateUniform(n, KeyDomain{0, m - 1}, &rng);
  ASSERT_TRUE(ks.ok());
  const std::int64_t p = 1 + rng.UniformInt(0, n / 5);

  auto attack = GreedyPoisonCdf(*ks, p);
  if (!attack.ok()) {
    // Only acceptable failure: the domain genuinely ran out of keys.
    EXPECT_EQ(attack.status().code(), StatusCode::kResourceExhausted);
    return;
  }
  auto poisoned = ApplyPoison(*ks, attack->poison_keys);
  ASSERT_TRUE(poisoned.ok());
  RmiOptions opts;
  opts.target_model_size = 1 + rng.UniformInt(8, 64);
  opts.root_kind = RootModelKind::kOracle;
  auto idx = LearnedIndex::Build(*poisoned, opts);
  ASSERT_TRUE(idx.ok());
  // Every legitimate key must still be found, at its poisoned-set rank.
  for (std::int64_t i = 0; i < ks->size(); i += 7) {
    const Key k = ks->at(i);
    const LookupResult r = idx->Lookup(k);
    ASSERT_TRUE(r.found) << k;
    ASSERT_EQ(r.position, *poisoned->RankOf(k) - 1) << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineFuzz, testing::Range(1, 21));

}  // namespace
}  // namespace lispoison
