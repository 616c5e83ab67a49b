// QueryDriver + SearchBackend coverage: cross-backend agreement on
// found/scan counts, thread-count-independent work accounting for
// read-only streams, insert visibility, compaction (out-of-domain keys
// and update-path poisoning included), and the deterministic
// clean-vs-poisoned latency-proxy gap (measured lookup work) that turns
// the paper's loss metric into serving cost on a fixed seed.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "attack/rmi_poisoner.h"
#include "common/rng.h"
#include "data/generators.h"
#include "data/keyset.h"
#include "workload/query_driver.h"
#include "workload/search_backend.h"
#include "workload/workload.h"

namespace lispoison {
namespace {

KeySet TestKeys(std::int64_t n, std::uint64_t seed = 5) {
  Rng rng(seed);
  auto ks = GenerateUniform(n, KeyDomain{0, 100 * n}, &rng);
  EXPECT_TRUE(ks.ok());
  return *ks;
}

std::unique_ptr<SearchBackend> MakeBackend(BackendKind kind,
                                           const KeySet& ks) {
  BackendOptions opts;
  opts.rmi.target_model_size = 500;
  auto backend = CreateBackend(kind, ks, opts);
  EXPECT_TRUE(backend.ok()) << backend.status().message();
  return std::move(*backend);
}

DriverResult MustRun(SearchBackend* backend,
                     const std::vector<Operation>& ops,
                     const DriverOptions& options) {
  auto r = RunWorkload(backend, ops, options);
  EXPECT_TRUE(r.ok()) << r.status().message();
  return std::move(*r);
}

TEST(SearchBackendTest, AllBackendsAgreeOnReadsAndScans) {
  const KeySet ks = TestKeys(4000);
  auto rmi = MakeBackend(BackendKind::kRmi, ks);
  auto btree = MakeBackend(BackendKind::kBTree, ks);
  auto binary = MakeBackend(BackendKind::kBinarySearch, ks);

  Rng rng(9);
  for (int i = 0; i < 2000; ++i) {
    const Key k = i % 2 == 0 ? ks.at(rng.UniformInt(0, ks.size() - 1))
                             : rng.UniformInt(0, 100 * 4000);
    const bool expect_found = ks.Contains(k);
    EXPECT_EQ(rmi->Lookup(k).found, expect_found);
    EXPECT_EQ(btree->Lookup(k).found, expect_found);
    EXPECT_EQ(binary->Lookup(k).found, expect_found);
  }
  for (int i = 0; i < 300; ++i) {
    const std::int64_t a = rng.UniformInt(0, ks.size() - 1);
    const std::int64_t b =
        std::min(ks.size() - 1, a + rng.UniformInt(0, 200));
    const Key lo = ks.at(a);
    const Key hi = ks.at(b);
    const std::int64_t expected = b - a + 1;  // Keys are ranks a..b.
    EXPECT_EQ(rmi->Scan(lo, hi).range_count, expected);
    EXPECT_EQ(btree->Scan(lo, hi).range_count, expected);
    EXPECT_EQ(binary->Scan(lo, hi).range_count, expected);
  }
}

TEST(SearchBackendTest, InsertsBecomeVisibleEverywhere) {
  const KeySet ks = TestKeys(1000);
  for (const BackendKind kind : {BackendKind::kRmi, BackendKind::kBTree,
                                 BackendKind::kBinarySearch}) {
    auto backend = MakeBackend(kind, ks);
    // A key in some interior gap.
    Key fresh = -1;
    for (std::int64_t i = 0; i + 1 < ks.size(); ++i) {
      if (ks.at(i + 1) - ks.at(i) > 1) {
        fresh = ks.at(i) + 1;
        break;
      }
    }
    ASSERT_NE(fresh, -1);
    EXPECT_FALSE(backend->Lookup(fresh).found);
    const auto before = backend->Scan(fresh - 1, fresh + 1);
    ASSERT_TRUE(backend->Insert(fresh).ok());
    EXPECT_TRUE(backend->Lookup(fresh).found);
    EXPECT_EQ(backend->Scan(fresh - 1, fresh + 1).range_count,
              before.range_count + 1);
    // Duplicate inserts are rejected, overlay and base alike.
    EXPECT_FALSE(backend->Insert(fresh).ok());
    EXPECT_FALSE(backend->Insert(ks.at(0)).ok());
    EXPECT_EQ(backend->overlay_size(), 1);
  }
}

TEST(QueryDriverTest, CountsAndFoundsAreExact) {
  const KeySet ks = TestKeys(2000);
  auto ops = GenerateOperations(ReadOnlyUniformWorkload(31), ks, 5000);
  ASSERT_TRUE(ops.ok());
  auto backend = MakeBackend(BackendKind::kBTree, ks);
  DriverOptions opts;
  opts.num_threads = 1;
  opts.measure_latency = true;
  const DriverResult r = MustRun(backend.get(), *ops, opts);
  EXPECT_EQ(r.total_ops, 5000);
  EXPECT_EQ(r.reads, 5000);
  EXPECT_EQ(r.read_found, 5000);  // Reads target stored keys.
  EXPECT_EQ(r.scans, 0);
  EXPECT_EQ(r.inserts, 0);
  EXPECT_EQ(r.latency.count(), 5000);
  EXPECT_EQ(r.read_latency.count(), 5000);
  EXPECT_GT(r.total_work, 0);
  EXPECT_GT(r.ThroughputOpsPerSec(), 0.0);
}

TEST(QueryDriverTest, WorkModelIsThreadCountIndependentForReadStreams) {
  const KeySet ks = TestKeys(3000);
  for (const WorkloadSpec& spec :
       {ReadOnlyUniformWorkload(41), RangeScanWorkload(41)}) {
    auto ops = GenerateOperations(spec, ks, 6000);
    ASSERT_TRUE(ops.ok());
    DriverOptions opts;
    opts.measure_latency = false;
    std::int64_t base_work = -1, base_scanned = -1;
    for (const int threads : {1, 2, 3, 8}) {
      auto backend = MakeBackend(BackendKind::kRmi, ks);
      opts.num_threads = threads;
      const DriverResult r = MustRun(backend.get(), *ops, opts);
      if (base_work < 0) {
        base_work = r.total_work;
        base_scanned = r.scanned_keys;
      } else {
        EXPECT_EQ(r.total_work, base_work)
            << spec.name << " with " << threads << " threads";
        EXPECT_EQ(r.scanned_keys, base_scanned);
      }
      EXPECT_EQ(r.total_ops, 6000);
    }
  }
}

TEST(QueryDriverTest, InsertMixGrowsTheOverlay) {
  const KeySet ks = TestKeys(2000);
  auto ops = GenerateOperations(ReadInsertMixWorkload(51), ks, 4000);
  ASSERT_TRUE(ops.ok());
  std::int64_t expected_inserts = 0;
  for (const Operation& op : *ops) {
    expected_inserts += op.type == OpType::kInsert;
  }
  auto backend = MakeBackend(BackendKind::kBinarySearch, ks);
  DriverOptions opts;
  opts.num_threads = 4;
  const DriverResult r = MustRun(backend.get(), *ops, opts);
  EXPECT_EQ(r.inserts, expected_inserts);
  // The stream's insert keys are unique and fresh, so every insert
  // lands even under concurrency.
  EXPECT_EQ(r.insert_failures, 0);
  EXPECT_EQ(backend->overlay_size(), expected_inserts);
  EXPECT_EQ(r.insert_latency.count(), expected_inserts);
}

TEST(SearchBackendTest, CompactionFoldsOverlayIntoBase) {
  // ROADMAP item: with BackendOptions::compact_threshold the overlay is
  // merged into the base structure (RMI retrained, B+Tree re-bulk-
  // loaded) whenever it fills up, so insert-heavy runs never degrade
  // into an ever-growing overlay binary search.
  const KeySet ks = TestKeys(2000, /*seed=*/63);
  for (const BackendKind kind : {BackendKind::kRmi, BackendKind::kBTree,
                                 BackendKind::kBinarySearch}) {
    BackendOptions opts;
    opts.rmi.target_model_size = 500;
    opts.compact_threshold = 64;
    // Deterministic escape hatch: compaction runs inline on the
    // inserting thread, so the merge/overlay counters below are exact.
    opts.sync_compaction = true;
    auto backend = CreateBackend(kind, ks, opts);
    ASSERT_TRUE(backend.ok()) << backend.status().message();
    const std::int64_t base0 = (*backend)->base_size();

    Rng rng(417);
    std::vector<Key> added;
    while (added.size() < 300) {
      const Key k = rng.UniformInt(0, 100 * 2000);
      if ((*backend)->Insert(k).ok()) added.push_back(k);
    }
    // 300 inserts at threshold 64: at least four merges ran, and the
    // surviving overlay is below one threshold's worth.
    EXPECT_GE((*backend)->compactions(), 4) << (*backend)->name();
    EXPECT_LT((*backend)->overlay_size(), 64) << (*backend)->name();
    EXPECT_EQ((*backend)->base_size() + (*backend)->overlay_size(),
              base0 + static_cast<std::int64_t>(added.size()))
        << (*backend)->name();
    // Every key — original or inserted, compacted or still in the
    // overlay — stays visible to reads and scans.
    for (const Key k : added) {
      EXPECT_TRUE((*backend)->Lookup(k).found) << (*backend)->name();
    }
    for (std::int64_t i = 0; i < ks.size(); i += 97) {
      EXPECT_TRUE((*backend)->Lookup(ks.at(i)).found) << (*backend)->name();
    }
    const auto scan = (*backend)->Scan(ks.at(0), ks.at(ks.size() - 1));
    std::int64_t added_inside = 0;
    for (const Key k : added) {
      added_inside += k >= ks.at(0) && k <= ks.at(ks.size() - 1);
    }
    EXPECT_EQ(scan.range_count, ks.size() + added_inside)
        << (*backend)->name();
  }
}

TEST(SearchBackendTest, OutOfDomainInsertsWidenTheServingDomain) {
  // Inserts outside the build domain are accepted, and the compaction
  // that folds them in rebuilds over the hull of the build domain and
  // every inserted key.
  Rng rng(4);
  auto ks = GenerateUniform(100, KeyDomain{0, 9999}, &rng);
  ASSERT_TRUE(ks.ok());
  BackendOptions opts;
  opts.rmi.target_model_size = 50;
  opts.compact_threshold = 3;
  opts.sync_compaction = true;
  auto backend = CreateBackend(BackendKind::kRmi, *ks, opts);
  ASSERT_TRUE(backend.ok()) << backend.status().message();
  SearchBackend& idx = **backend;
  ASSERT_TRUE(idx.Insert(10000).ok());
  ASSERT_TRUE(idx.Insert(-5).ok());
  EXPECT_EQ(idx.compactions(), 0);
  EXPECT_TRUE(idx.Lookup(10000).found);
  EXPECT_TRUE(idx.Lookup(-5).found);
  EXPECT_EQ(idx.Scan(-5, 10000).range_count, 102);

  // The third insert reaches the threshold and compacts inline.
  Key fresh = 0;
  while (ks->Contains(fresh)) ++fresh;
  ASSERT_TRUE(idx.Insert(fresh).ok());
  EXPECT_EQ(idx.compactions(), 1);
  EXPECT_EQ(idx.overlay_size(), 0);
  EXPECT_EQ(idx.base_size(), 103);
  EXPECT_TRUE(idx.Lookup(10000).found);
  EXPECT_TRUE(idx.Lookup(-5).found);
  EXPECT_EQ(idx.Scan(-5, 10000).range_count, 103);
}

TEST(SearchBackendTest, EmptyKeysetIsRejected) {
  auto empty = KeySet::Create({}, KeyDomain{0, 10});
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(CreateBackend(BackendKind::kRmi, *empty, BackendOptions{})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(SearchBackendTest, UpdatePathPoisoningEqualsDirectBuild) {
  // The §VI update-path adversary: Algorithm 2's poison keys arrive as
  // ordinary inserts, and the compaction they trigger retrains the RMI
  // on K ∪ P. From then on the index serves reads exactly as one built
  // on K ∪ P directly, at more work than the clean index.
  Rng rng(6);
  auto ks = GenerateUniform(2000, KeyDomain{0, 199999}, &rng);
  ASSERT_TRUE(ks.ok());
  RmiAttackOptions attack_opts;
  attack_opts.poison_fraction = 0.10;
  attack_opts.model_size = 50;
  auto attack = PoisonRmi(*ks, attack_opts);
  ASSERT_TRUE(attack.ok());
  const std::vector<Key> poison = attack->AllPoisonKeys();
  auto poisoned = ks->Union(poison);
  ASSERT_TRUE(poisoned.ok());

  BackendOptions opts;
  opts.rmi.target_model_size = 50;
  opts.rmi.root_kind = RootModelKind::kOracle;
  BackendOptions updatable = opts;
  updatable.compact_threshold = static_cast<std::int64_t>(poison.size());
  updatable.sync_compaction = true;
  auto streamed = CreateBackend(BackendKind::kRmi, *ks, updatable);
  auto direct = CreateBackend(BackendKind::kRmi, *poisoned, opts);
  auto clean = CreateBackend(BackendKind::kRmi, *ks, opts);
  ASSERT_TRUE(streamed.ok());
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(clean.ok());
  for (const Key kp : poison) ASSERT_TRUE((*streamed)->Insert(kp).ok());
  EXPECT_EQ((*streamed)->compactions(), 1);
  EXPECT_EQ((*streamed)->overlay_size(), 0);

  auto ops = GenerateOperations(ReadOnlyUniformWorkload(88), *ks, 8000);
  ASSERT_TRUE(ops.ok());
  DriverOptions dopts;
  dopts.num_threads = 1;
  dopts.measure_latency = false;
  const std::int64_t streamed_work =
      MustRun(streamed->get(), *ops, dopts).total_work;
  const std::int64_t direct_work =
      MustRun(direct->get(), *ops, dopts).total_work;
  const std::int64_t clean_work = MustRun(clean->get(), *ops, dopts).total_work;
  EXPECT_EQ(streamed_work, direct_work);
  EXPECT_GT(streamed_work, clean_work);
}

TEST(QueryDriverTest, CompactionPreservesInsertMixResults) {
  // Same deterministic single-threaded insert-heavy stream against a
  // compacting and a non-compacting backend: membership-derived results
  // (found counts, scanned keys, committed inserts) are identical —
  // compaction only restructures where keys live — while the compacting
  // backend actually merged and kept its overlay bounded.
  const KeySet ks = TestKeys(3000, /*seed=*/29);
  auto ops = GenerateOperations(ReadInsertMixWorkload(83), ks, 8000);
  ASSERT_TRUE(ops.ok());
  DriverOptions dopts;
  dopts.num_threads = 1;
  dopts.measure_latency = false;

  BackendOptions plain;
  plain.rmi.target_model_size = 500;
  BackendOptions compacting = plain;
  compacting.compact_threshold = 128;
  compacting.sync_compaction = true;  // Bit-stable single-threaded replay.

  auto a = CreateBackend(BackendKind::kRmi, ks, plain);
  auto b = CreateBackend(BackendKind::kRmi, ks, compacting);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  const DriverResult ra = MustRun(a->get(), *ops, dopts);
  const DriverResult rb = MustRun(b->get(), *ops, dopts);

  EXPECT_EQ(ra.read_found, rb.read_found);
  EXPECT_EQ(ra.scanned_keys, rb.scanned_keys);
  EXPECT_EQ(ra.inserts, rb.inserts);
  EXPECT_EQ(ra.insert_failures, rb.insert_failures);
  EXPECT_GT((*b)->compactions(), 0);
  EXPECT_LT((*b)->overlay_size(), 128);
  EXPECT_EQ((*a)->overlay_size() + (*a)->base_size(),
            (*b)->overlay_size() + (*b)->base_size());
}

TEST(QueryDriverTest, PoisonedRmiDoesMoreLookupWorkThanClean) {
  // The acceptance gap, on a fixed seed with the exact work model (no
  // wall-clock flakiness): Algorithm 2's poisons inflate the RMI's
  // per-lookup probe count, while binary search is untouched.
  const KeySet clean = TestKeys(5000, /*seed=*/77);
  RmiAttackOptions attack;
  attack.poison_fraction = 0.10;
  attack.model_size = 500;
  attack.num_threads = 1;
  auto attacked = PoisonRmi(clean, attack);
  ASSERT_TRUE(attacked.ok()) << attacked.status().message();
  auto poisoned = clean.Union(attacked->AllPoisonKeys());
  ASSERT_TRUE(poisoned.ok());

  DriverOptions opts;
  opts.num_threads = 1;
  opts.measure_latency = false;

  auto measure = [&](BackendKind kind, const KeySet& ks) {
    auto ops = GenerateOperations(ReadOnlyUniformWorkload(88), ks, 8000);
    EXPECT_TRUE(ops.ok());
    auto backend = MakeBackend(kind, ks);
    return MustRun(backend.get(), *ops, opts);
  };

  const DriverResult clean_rmi = measure(BackendKind::kRmi, clean);
  const DriverResult poisoned_rmi = measure(BackendKind::kRmi, *poisoned);
  EXPECT_GE(poisoned_rmi.MeanWork(), clean_rmi.MeanWork());
  EXPECT_GT(poisoned_rmi.MeanWork(), 1.05 * clean_rmi.MeanWork())
      << "poisoning should visibly inflate mean lookup work";
  EXPECT_GE(poisoned_rmi.max_work, clean_rmi.max_work);

  // Control: binary search work grows only by the log2 of the ~10%
  // larger array — bounded by one extra comparison per lookup.
  const DriverResult clean_bin = measure(BackendKind::kBinarySearch, clean);
  const DriverResult poisoned_bin =
      measure(BackendKind::kBinarySearch, *poisoned);
  EXPECT_LE(poisoned_bin.MeanWork(), clean_bin.MeanWork() + 1.0);
}

TEST(QueryDriverTest, RejectsBadOptions) {
  const KeySet ks = TestKeys(100);
  auto backend = MakeBackend(BackendKind::kBinarySearch, ks);
  std::vector<Operation> ops;
  DriverOptions opts;
  opts.batch_size = 0;
  EXPECT_EQ(RunWorkload(backend.get(), ops, opts).status().code(),
            StatusCode::kInvalidArgument);
  opts.batch_size = 16;
  EXPECT_EQ(RunWorkload(nullptr, ops, opts).status().code(),
            StatusCode::kInvalidArgument);
  opts.latency_sample_every = 0;
  EXPECT_EQ(RunWorkload(backend.get(), ops, opts).status().code(),
            StatusCode::kInvalidArgument);
  opts.latency_sample_every = 1;
  opts.read_group = 0;
  EXPECT_EQ(RunWorkload(backend.get(), ops, opts).status().code(),
            StatusCode::kInvalidArgument);
  opts.read_group = 1;
  // Empty stream is fine.
  EXPECT_TRUE(RunWorkload(backend.get(), ops, opts).ok());
}

TEST(QueryDriverTest, BatchedReadDispatchMatchesScalarResults) {
  // read_group > 1 routes consecutive reads through LookupBatch (the
  // prefetch-overlapped path). Everything derived from per-key results
  // — found counts, work totals, max work, scan/insert accounting —
  // must be bit-identical to scalar dispatch; only the latency
  // *sampling* semantics change (group mean instead of per-op).
  const KeySet ks = TestKeys(3000, /*seed=*/19);
  for (const WorkloadSpec& spec :
       {ReadOnlyUniformWorkload(23), ZipfianReadHeavyWorkload(23)}) {
    auto ops = GenerateOperations(spec, ks, 6000);
    ASSERT_TRUE(ops.ok());
    for (const BackendKind kind :
         {BackendKind::kRmi, BackendKind::kBinarySearch}) {
      auto scalar_backend = MakeBackend(kind, ks);
      auto batched_backend = MakeBackend(kind, ks);
      DriverOptions scalar;
      scalar.num_threads = 1;
      scalar.measure_latency = false;
      DriverOptions batched = scalar;
      batched.read_group = 16;
      const DriverResult rs = MustRun(scalar_backend.get(), *ops, scalar);
      const DriverResult rb = MustRun(batched_backend.get(), *ops, batched);
      EXPECT_EQ(rb.reads, rs.reads) << spec.name;
      EXPECT_EQ(rb.read_found, rs.read_found) << spec.name;
      EXPECT_EQ(rb.total_work, rs.total_work) << spec.name;
      EXPECT_EQ(rb.max_work, rs.max_work) << spec.name;
      EXPECT_EQ(rb.inserts, rs.inserts) << spec.name;
      EXPECT_EQ(rb.insert_failures, rs.insert_failures) << spec.name;
    }
  }
  // With timing on, every op still lands in the histograms (as its
  // group's mean), so counts match per-op timing exactly.
  auto ops = GenerateOperations(ReadOnlyUniformWorkload(29), ks, 5000);
  ASSERT_TRUE(ops.ok());
  auto backend = MakeBackend(BackendKind::kRmi, ks);
  DriverOptions timed;
  timed.num_threads = 1;
  timed.read_group = 16;
  const DriverResult rt = MustRun(backend.get(), *ops, timed);
  EXPECT_EQ(rt.latency.count(), 5000);
  EXPECT_EQ(rt.read_latency.count(), 5000);
  EXPECT_GT(rt.latency.Mean(), 0.0);
}

}  // namespace
}  // namespace lispoison
