#include "attack/loss_landscape.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "data/generators.h"
#include "data/keyset.h"

namespace lispoison {
namespace {

// The parallel Create builds the key store one block per pool task (the
// blocks depend only on the key count) and folds their exact-integer
// partials serially, so its landscape must be bit-identical to the
// serial build at every thread count. These tests pin that: aggregates,
// gap count, block geometry, the base loss bits, and both argmax
// results must not move when a pool is supplied.

void ExpectSameLandscape(const LossLandscape& serial,
                         const LossLandscape& parallel, ThreadPool* pool) {
  const LossLandscape::Aggregates a = serial.aggregates();
  const LossLandscape::Aggregates b = parallel.aggregates();
  EXPECT_EQ(a.n, b.n);
  EXPECT_EQ(a.shift, b.shift);
  EXPECT_TRUE(a.sum_k == b.sum_k);
  EXPECT_TRUE(a.sum_k2 == b.sum_k2);
  EXPECT_TRUE(a.sum_kr == b.sum_kr);
  EXPECT_EQ(serial.gap_count(), parallel.gap_count());
  EXPECT_EQ(serial.block_count(), parallel.block_count());
  EXPECT_EQ(serial.block_cap(), parallel.block_cap());
  EXPECT_EQ(serial.BaseLoss(), parallel.BaseLoss());

  auto want = serial.FindOptimal(/*interior_only=*/false);
  auto got = parallel.FindOptimal(/*interior_only=*/false,
                                  /*excluded=*/nullptr, pool);
  ASSERT_EQ(want.ok(), got.ok());
  if (want.ok()) {
    EXPECT_EQ(want->key, got->key);
    EXPECT_EQ(want->loss, got->loss);
  }

  LossLandscape::ArgmaxOptions argmax;
  auto want_rm = serial.FindOptimalRemoval(/*allowed=*/nullptr,
                                           /*pool=*/nullptr, argmax);
  auto got_rm = parallel.FindOptimalRemoval(/*allowed=*/nullptr, pool, argmax);
  ASSERT_EQ(want_rm.ok(), got_rm.ok());
  if (want_rm.ok()) {
    EXPECT_EQ(want_rm->key, got_rm->key);
    EXPECT_EQ(want_rm->loss, got_rm->loss);
  }
}

TEST(ParallelCreateTest, BitIdenticalAcrossThreadCounts) {
  // Hundreds of blocks, and an awkward n whose last block is short.
  Rng rng(31);
  auto ks = GenerateUniform(70'001, KeyDomain{0, 40'000'000}, &rng);
  ASSERT_TRUE(ks.ok());
  auto serial = LossLandscape::Create(*ks);
  ASSERT_TRUE(serial.ok());
  for (int threads : {2, 3, 7}) {
    ThreadPool pool(threads);
    auto parallel = LossLandscape::Create(*ks, &pool);
    ASSERT_TRUE(parallel.ok()) << "threads " << threads;
    ExpectSameLandscape(*serial, *parallel, &pool);
  }
}

TEST(ParallelCreateTest, ExactChunkMultipleHasNoTailArtifacts) {
  // n == 2 * 65536, and n == 256^2, whose 256 blocks of 256 keys end
  // exactly on the key array's end: each block's last gap runs to the
  // next block's first key, or to the domain's end after the last.
  Rng rng(32);
  for (const std::int64_t n : {131'072, 65'536}) {
    auto ks = GenerateUniform(n, KeyDomain{0, 80'000'000}, &rng);
    ASSERT_TRUE(ks.ok());
    auto serial = LossLandscape::Create(*ks);
    ASSERT_TRUE(serial.ok());
    ThreadPool pool(3);
    auto parallel = LossLandscape::Create(*ks, &pool);
    ASSERT_TRUE(parallel.ok());
    ExpectSameLandscape(*serial, *parallel, &pool);
  }
}

TEST(ParallelCreateTest, SmallInputsMatchTheSerialBuild) {
  Rng rng(33);
  auto ks = GenerateUniform(500, KeyDomain{0, 9'999}, &rng);
  ASSERT_TRUE(ks.ok());
  auto serial = LossLandscape::Create(*ks);
  ASSERT_TRUE(serial.ok());
  ThreadPool pool(4);
  auto parallel = LossLandscape::Create(*ks, &pool);
  ASSERT_TRUE(parallel.ok());
  ExpectSameLandscape(*serial, *parallel, &pool);
}

TEST(ParallelCreateTest, DenseDomainKeepsBoundaryGapsIdentical)  {
  // Nearly-full domain: most gaps are single keys and many block
  // boundaries fall inside runs of adjacent keys, the hard case for
  // per-block gap counts.
  std::vector<Key> keys;
  keys.reserve(100'000);
  for (Key k = 0; k < 150'000; k += (k % 3 == 0 ? 1 : 2)) keys.push_back(k);
  auto ks = KeySet::Create(std::move(keys), KeyDomain{-5, 200'000});
  ASSERT_TRUE(ks.ok());
  auto serial = LossLandscape::Create(*ks);
  ASSERT_TRUE(serial.ok());
  ThreadPool pool(5);
  auto parallel = LossLandscape::Create(*ks, &pool);
  ASSERT_TRUE(parallel.ok());
  ExpectSameLandscape(*serial, *parallel, &pool);
}

TEST(ParallelCreateTest, ParallelBuildFeedsIncrementalCommitsExactly) {
  // Build parallel, then drive the same insert sequence through both
  // landscapes: every post-commit loss must stay bitwise equal, proving
  // the parallel build left the key store (keys, local sums, directory,
  // gap counts) in the serial state.
  Rng rng(34);
  auto ks = GenerateUniform(70'000, KeyDomain{0, 10'000'000}, &rng);
  ASSERT_TRUE(ks.ok());
  auto serial = LossLandscape::Create(*ks);
  ASSERT_TRUE(serial.ok());
  ThreadPool pool(3);
  auto parallel = LossLandscape::Create(*ks, &pool);
  ASSERT_TRUE(parallel.ok());

  for (int round = 0; round < 12; ++round) {
    auto want = serial->FindOptimal(/*interior_only=*/false);
    auto got = parallel->FindOptimal(/*interior_only=*/false,
                                     /*excluded=*/nullptr, &pool);
    ASSERT_TRUE(want.ok() && got.ok());
    ASSERT_EQ(want->key, got->key) << "round " << round;
    ASSERT_EQ(want->loss, got->loss) << "round " << round;
    ASSERT_TRUE(serial->InsertKey(want->key).ok());
    ASSERT_TRUE(parallel->InsertKey(got->key).ok());
    EXPECT_EQ(serial->BaseLoss(), parallel->BaseLoss()) << "round " << round;
  }
}

}  // namespace
}  // namespace lispoison
