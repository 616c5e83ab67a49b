// Wall-clock assertions, kept out of the default ctest set: each one
// races real time (a sampled latency histogram against a fully sampled
// one, the maintenance watchdog against a timed pool wedge), so a
// loaded machine can fail it without any fault in the code. Registered
// under the `timing` ctest configuration; run it alone and without -j:
//
//   ctest --test-dir build -C timing -L timing --output-on-failure
//
// The tolerances are the ones these tests had in the default suite.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
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

TEST(QueryDriverTest, BatchedTimingMatchesFullSamplingWithinTolerance) {
  // ROADMAP item: time every k-th op instead of all of them. On a
  // deterministic read-only workload the sampled run must (a) record
  // exactly ceil(total / k) latencies — the subset is keyed off the
  // global op index, so it is shard-independent — (b) leave the exact
  // work/found accounting untouched, and (c) produce a histogram whose
  // median and mean agree with full sampling within a loose factor
  // (both runs measure the same per-op code path; only scheduling noise
  // differs).
  const KeySet ks = TestKeys(2000);
  const std::int64_t total = 40000;
  auto ops = GenerateOperations(ReadOnlyUniformWorkload(77), ks, total);
  ASSERT_TRUE(ops.ok());
  auto backend = MakeBackend(BackendKind::kBinarySearch, ks);

  DriverOptions full;
  full.num_threads = 1;
  const DriverResult rf = MustRun(backend.get(), *ops, full);

  DriverOptions sampled = full;
  sampled.latency_sample_every = 7;
  const DriverResult rs = MustRun(backend.get(), *ops, sampled);

  EXPECT_EQ(rf.latency.count(), total);
  EXPECT_EQ(rs.latency.count(), (total + 6) / 7);
  EXPECT_EQ(rs.read_latency.count(), rs.latency.count());
  // Work/found accounting is independent of the timing mode.
  EXPECT_EQ(rf.total_work, rs.total_work);
  EXPECT_EQ(rf.read_found, rs.read_found);
  EXPECT_EQ(rf.max_work, rs.max_work);
  // Distribution agreement: medians and means within 3x (latencies on
  // a shared machine vary, but 5.7k samples of the same deterministic
  // op stream cannot drift an order of magnitude).
  ASSERT_GT(rf.latency.P50(), 0);
  ASSERT_GT(rs.latency.P50(), 0);
  const double p50_ratio = static_cast<double>(rs.latency.P50()) /
                           static_cast<double>(rf.latency.P50());
  EXPECT_GT(p50_ratio, 1.0 / 3.0);
  EXPECT_LT(p50_ratio, 3.0);
  const double mean_ratio = rs.latency.Mean() / rf.latency.Mean();
  EXPECT_GT(mean_ratio, 1.0 / 3.0);
  EXPECT_LT(mean_ratio, 3.0);
  // The sampled subset is shard-independent: the same k on 3 shards
  // records the same number of values.
  DriverOptions sharded = sampled;
  sharded.num_threads = 3;
  const DriverResult r3 = MustRun(backend.get(), *ops, sharded);
  EXPECT_EQ(r3.latency.count(), rs.latency.count());
}

TEST(ChaosServingTest, WatchdogFlagsAStalledMaintenancePool) {
  const std::int64_t n = 3000;
  const KeySet base = TestKeys(n, /*seed=*/7);
  BackendOptions opts;
  opts.rmi.target_model_size = 200;
  opts.num_shards = 1;
  opts.compact_threshold = 32;
  opts.sync_compaction = false;  // Real maintenance worker to wedge.
  opts.watchdog_stall_ms = 50;
  auto made = CreateBackend(BackendKind::kRmi, base, opts);
  ASSERT_TRUE(made.ok()) << made.status().message();
  auto backend = std::move(*made);
  EXPECT_FALSE(backend->maintenance_stalled());
  EXPECT_EQ(backend->MaintenanceStallNanos(), 0);

  // Wedge the pool between dequeue and execution, then trigger a
  // compaction: work is pending but the pass never starts, which is
  // precisely the gap the watchdog measures.
  FaultSpec wedge;
  wedge.probability = 1.0;
  wedge.latency_ns = 500'000'000;  // 0.5s
  wedge.fail = false;
  wedge.max_fires = 1;
  FaultPlan(/*seed=*/7).Arm("pool.task", wedge).Activate();
  Key k = 100 * n + 1;
  for (int i = 0; i < static_cast<int>(opts.compact_threshold); ++i) {
    ASSERT_TRUE(backend->Insert(k++).ok());
  }

  // The stall gauge must cross the 50ms watchdog line well before the
  // 0.5s wedge releases.
  bool stalled = false;
  for (int i = 0; i < 200 && !stalled; ++i) {
    stalled = backend->maintenance_stalled();
    if (!stalled) std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_TRUE(stalled);
  EXPECT_GT(backend->MaintenanceStallNanos(), 0);

  // The driver's deadline check surfaces the same stall to serving:
  // read-only traffic keeps completing, but every batch boundary past
  // the deadline counts a hit — the overload signal, not an abort.
  const WorkloadSpec spec = ReadOnlyUniformWorkload(/*seed=*/3);
  auto ops = GenerateOperations(spec, base, 20000);
  ASSERT_TRUE(ops.ok());
  DriverOptions driver_opts;
  driver_opts.num_threads = 2;
  driver_opts.read_group = 8;
  driver_opts.maintenance_deadline_ms = 10;
  auto result = RunWorkload(backend.get(), *ops, driver_opts);
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_EQ(result->reads, static_cast<std::int64_t>(ops->size()));
  EXPECT_GE(result->maintenance_deadline_hits, 1);

  // Once the wedge releases and the pass publishes, the stall clears.
  backend->WaitForMaintenance();
  FaultRegistry::Global().DisarmAll();
  EXPECT_EQ(backend->MaintenanceStallNanos(), 0);
  EXPECT_FALSE(backend->maintenance_stalled());
  EXPECT_EQ(backend->compactions(), 1);
}

}  // namespace
}  // namespace lispoison
