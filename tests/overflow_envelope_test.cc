#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>

#include "attack/deletion_attack.h"
#include "attack/loss_landscape.h"
#include "common/rng.h"
#include "data/generators.h"
#include "index/cdf_regression.h"

namespace lispoison {
namespace {

// The 10M-scale envelope (src/common/types.h): every aggregate path
// must carry Int128, and the one deliberately-64-bit structure (the
// key store's block-local suffix sums) must drop out cleanly beyond its
// PruneDomainOk guard. Each test here drives magnitudes where a
// reintroduced int64 narrowing wraps and produces garbage losses, so
// the value assertions below fail loudly on regression.

TEST(OverflowEnvelopeTest, WideDomainAggregatesExceedInt64) {
  // S = 10^15, n = 2000: sum((k - shift)^2) ~ n*S^2/3 ~ 6*10^32, about
  // 10^14x past the int64 ceiling. The landscape's loss must still agree
  // with the independent regression fit.
  Rng rng(41);
  auto ks = GenerateUniform(2000, KeyDomain{0, 1'000'000'000'000'000}, &rng);
  ASSERT_TRUE(ks.ok());
  auto ll = LossLandscape::Create(*ks);
  ASSERT_TRUE(ll.ok());

  const LossLandscape::Aggregates agg = ll->aggregates();
  EXPECT_TRUE(agg.sum_k2 >
              static_cast<Int128>(std::numeric_limits<std::int64_t>::max()))
      << "domain too narrow to exercise the >64-bit envelope";

  auto fit = FitCdfRegression(*ks);
  ASSERT_TRUE(fit.ok());
  EXPECT_NEAR(static_cast<double>(ll->BaseLoss()),
              static_cast<double>(fit->mse),
              1e-6 * static_cast<double>(fit->mse));
}

TEST(OverflowEnvelopeTest, WideDomainPrunedArgmaxMatchesExhaustive) {
  Rng rng(42);
  auto ks = GenerateUniform(3000, KeyDomain{-500'000'000'000'000,
                                            500'000'000'000'000},
                            &rng);
  ASSERT_TRUE(ks.ok());
  auto ll = LossLandscape::Create(*ks);
  ASSERT_TRUE(ll.ok());

  LossLandscape::ArgmaxOptions exhaustive;
  exhaustive.prune = false;
  auto want = ll->FindOptimal(/*interior_only=*/false, nullptr, nullptr,
                              exhaustive);
  auto got = ll->FindOptimal(/*interior_only=*/false);
  ASSERT_TRUE(want.ok() && got.ok());
  EXPECT_EQ(want->key, got->key);
  EXPECT_EQ(want->loss, got->loss);
}

TEST(OverflowEnvelopeTest, BeyondSoaGuardRemovalFallsBackToExactScan) {
  // n * S ~ 2*10^19 > 2^63: PruneDomainOk fails, so the key store
  // must decline its int64 suffix sums and FindOptimalRemoval must run
  // the exact Int128 walk — still agreeing with the rebuild-per-round
  // reference.
  Rng rng(43);
  const std::int64_t n = 20'000;
  auto ks = GenerateUniform(n, KeyDomain{0, 1'000'000'000'000'000}, &rng);
  ASSERT_TRUE(ks.ok());
  ASSERT_GT(static_cast<double>(n) * 1e15, 9.3e18);

  auto want = GreedyDeleteCdfReference(*ks, 3, {});
  auto got = GreedyDeleteCdf(*ks, 3, {}, {});
  ASSERT_TRUE(want.ok() && got.ok());
  EXPECT_EQ(got->removed_keys, want->removed_keys);
  for (std::size_t i = 0; i < want->loss_trajectory.size(); ++i) {
    EXPECT_EQ(got->loss_trajectory[i], want->loss_trajectory[i]);
  }
}

TEST(OverflowEnvelopeTest, SoaSuffixSumsNearInt64CeilingStayExact) {
  // Inside the guard but close to it: n = 10^4 over S = 9*10^14 puts
  // the largest whole-suffix sum within a factor ~2 of int64 max. Any
  // narrowing of the intermediate arithmetic (e.g. int in the rebase
  // loops) breaks exactness against the reference.
  Rng rng(44);
  auto ks = GenerateUniform(10'000, KeyDomain{0, 900'000'000'000'000}, &rng);
  ASSERT_TRUE(ks.ok());
  auto want = GreedyDeleteCdfReference(*ks, 4, {});
  auto got = GreedyDeleteCdf(*ks, 4, {}, {});
  ASSERT_TRUE(want.ok() && got.ok());
  EXPECT_EQ(got->removed_keys, want->removed_keys);
  for (std::size_t i = 0; i < want->loss_trajectory.size(); ++i) {
    EXPECT_EQ(got->loss_trajectory[i], want->loss_trajectory[i]);
  }
}

TEST(OverflowEnvelopeTest, RemovalCommitCostIsSublinear) {
  // The blocked key store keeps a removal commit at O(sqrt(n)) touched
  // slots. At n = 10^6 the bound below is ~50x under the flat layout's
  // O(n) rewrite cost, so a regression to flat maintenance trips it.
  Rng rng(45);
  const std::int64_t n = 1'000'000;
  auto ks = GenerateUniform(n, KeyDomain{0, 40'000'000}, &rng);
  ASSERT_TRUE(ks.ok());
  auto ll = LossLandscape::Create(*ks);
  ASSERT_TRUE(ll.ok());

  const int rounds = 64;
  for (int i = 0; i < rounds; ++i) {
    auto best = ll->FindOptimalRemoval(nullptr, nullptr,
                                       LossLandscape::ArgmaxOptions{});
    ASSERT_TRUE(best.ok());
    ASSERT_TRUE(ll->RemoveKey(best->key).ok());
  }
  ASSERT_GT(ll->removal_commits(), 0);
  const double per_commit =
      static_cast<double>(ll->removal_commit_touched_slots()) /
      static_cast<double>(ll->removal_commits());
  const double sqrt_n = std::sqrt(static_cast<double>(n));
  EXPECT_LE(per_commit, 10.0 * sqrt_n)
      << "per-commit touched slots " << per_commit
      << " is not O(sqrt(n)) at n = " << n;
}

}  // namespace
}  // namespace lispoison
