// Determinism and differential coverage for the parallel RMI attack.
//
// Thread-count independence: parallelism only touches read-only
// simulation/argmax work writing disjoint slots, with every reduction in
// fixed serial order, so PoisonRmi must produce identical results for
// any num_threads.
//
// Pruning independence: the branch-and-bound scans of the per-model
// greedy insertions and of the exchange simulations select exactly what
// the exhaustive scans select, so prune_argmax on and off must produce
// identical results too.
//
// Differential: with the exchange phase disabled, the initial volume
// allocation is a pure sequence of greedy landscape insertions, and the
// incremental path must select byte-identical poison keys to the
// copy+sort+retrain reference.

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "attack/rmi_poisoner.h"
#include "common/rng.h"
#include "data/generators.h"

namespace lispoison {
namespace {

RmiAttackOptions Options(double fraction, std::int64_t model_size,
                         int num_threads) {
  RmiAttackOptions opts;
  opts.poison_fraction = fraction;
  opts.model_size = model_size;
  opts.num_threads = num_threads;
  return opts;
}

void ExpectIdenticalResults(const RmiAttackResult& a,
                            const RmiAttackResult& b) {
  EXPECT_EQ(a.AllPoisonKeys(), b.AllPoisonKeys());
  ASSERT_EQ(a.per_model_poison.size(), b.per_model_poison.size());
  for (std::size_t i = 0; i < a.per_model_poison.size(); ++i) {
    EXPECT_EQ(a.per_model_poison[i], b.per_model_poison[i]) << "model " << i;
  }
  EXPECT_EQ(a.exchanges_applied, b.exchanges_applied);
  EXPECT_EQ(a.exchange_cap_hit, b.exchange_cap_hit);
  EXPECT_EQ(a.total_poison_keys, b.total_poison_keys);
  EXPECT_EQ(a.poisoned_losses, b.poisoned_losses);
  EXPECT_EQ(a.clean_rmi_loss, b.clean_rmi_loss);
  EXPECT_EQ(a.poisoned_rmi_loss, b.poisoned_rmi_loss);
  EXPECT_EQ(a.retrained_rmi_loss, b.retrained_rmi_loss);
}

TEST(RmiDeterminismTest, ThreadCountDoesNotChangeThePoisonSet) {
  Rng rng(31);
  auto ks = GenerateUniform(4000, KeyDomain{0, 399999}, &rng);
  ASSERT_TRUE(ks.ok());
  auto serial = PoisonRmi(*ks, Options(0.10, 200, 1));
  auto parallel = PoisonRmi(*ks, Options(0.10, 200, 8));
  ASSERT_TRUE(serial.ok()) << serial.status().message();
  ASSERT_TRUE(parallel.ok()) << parallel.status().message();
  ExpectIdenticalResults(*serial, *parallel);
}

TEST(RmiDeterminismTest, ThreadCountIndependentOnSkewedKeys) {
  // Log-normal keys fire real exchanges, covering the inline
  // recompute-after-apply path after the parallel first batch.
  Rng rng(32);
  auto ks = GenerateLogNormal(3000, KeyDomain{0, 299999}, &rng);
  ASSERT_TRUE(ks.ok());
  auto serial = PoisonRmi(*ks, Options(0.10, 150, 1));
  auto parallel = PoisonRmi(*ks, Options(0.10, 150, 8));
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  ExpectIdenticalResults(*serial, *parallel);
}

TEST(RmiDeterminismTest, PruningDoesNotChangeThePoisonSet) {
  // Both key layouts fire real exchanges, so the exchange simulations'
  // receiver-side scans decide which exchanges apply.
  Rng uniform_rng(37);
  auto uniform = GenerateUniform(4000, KeyDomain{0, 399999}, &uniform_rng);
  ASSERT_TRUE(uniform.ok());
  Rng skewed_rng(38);
  auto skewed = GenerateLogNormal(3000, KeyDomain{0, 299999}, &skewed_rng);
  ASSERT_TRUE(skewed.ok());
  for (const auto& [ks, model_size] :
       {std::make_pair(&*uniform, 200), std::make_pair(&*skewed, 150)}) {
    for (const int threads : {1, 8}) {
      auto opts = Options(0.10, model_size, threads);
      auto pruned = PoisonRmi(*ks, opts);
      opts.prune_argmax = false;
      auto exhaustive = PoisonRmi(*ks, opts);
      ASSERT_TRUE(pruned.ok()) << pruned.status().message();
      ASSERT_TRUE(exhaustive.ok()) << exhaustive.status().message();
      ExpectIdenticalResults(*pruned, *exhaustive);
      EXPECT_GT(pruned->exchanges_applied, 0);
      EXPECT_EQ(exhaustive->exchange_stats.bound_evals, 0);
      EXPECT_LT(pruned->exchange_stats.exact_evals,
                exhaustive->exchange_stats.exact_evals);
    }
  }
}

TEST(RmiDeterminismTest, RepeatedRunsAreIdentical) {
  Rng rng(33);
  auto ks = GenerateUniform(2000, KeyDomain{0, 199999}, &rng);
  ASSERT_TRUE(ks.ok());
  auto first = PoisonRmi(*ks, Options(0.10, 100, 0));
  auto second = PoisonRmi(*ks, Options(0.10, 100, 0));
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  ExpectIdenticalResults(*first, *second);
}

TEST(RmiDifferentialTest, AllocationMatchesReferenceWithoutExchanges) {
  // max_exchanges < 0 disables the exchange phase, leaving exactly the
  // greedy allocation both implementations must agree on byte-for-byte.
  Rng rng(34);
  auto ks = GenerateUniform(2000, KeyDomain{0, 199999}, &rng);
  ASSERT_TRUE(ks.ok());
  auto opts = Options(0.10, 100, 1);
  opts.max_exchanges = -1;
  auto fast = PoisonRmi(*ks, opts);
  auto reference = PoisonRmiReference(*ks, opts);
  ASSERT_TRUE(fast.ok());
  ASSERT_TRUE(reference.ok());
  ASSERT_EQ(fast->per_model_poison.size(), reference->per_model_poison.size());
  for (std::size_t i = 0; i < fast->per_model_poison.size(); ++i) {
    EXPECT_EQ(fast->per_model_poison[i], reference->per_model_poison[i])
        << "model " << i;
  }
  EXPECT_EQ(fast->total_poison_keys, reference->total_poison_keys);
}

TEST(RmiDifferentialTest, AllocationMatchesReferenceOnSkewedKeys) {
  Rng rng(35);
  auto ks = GenerateLogNormal(1500, KeyDomain{0, 149999}, &rng);
  ASSERT_TRUE(ks.ok());
  auto opts = Options(0.08, 150, 4);
  opts.max_exchanges = -1;
  auto fast = PoisonRmi(*ks, opts);
  auto reference = PoisonRmiReference(*ks, opts);
  ASSERT_TRUE(fast.ok());
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(fast->AllPoisonKeys(), reference->AllPoisonKeys());
}

TEST(RmiDifferentialTest, FullAttackStaysEffectiveVsReference) {
  // With exchanges on, the implementations may diverge by
  // floating-point ulps in exchange decisions, but the attack quality
  // must be equivalent.
  Rng rng(36);
  auto ks = GenerateLogNormal(2000, KeyDomain{0, 199999}, &rng);
  ASSERT_TRUE(ks.ok());
  auto fast = PoisonRmi(*ks, Options(0.10, 100, 2));
  auto reference = PoisonRmiReference(*ks, Options(0.10, 100, 2));
  ASSERT_TRUE(fast.ok());
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(fast->total_poison_keys, reference->total_poison_keys);
  EXPECT_GT(fast->rmi_ratio_loss, 0.8 * reference->rmi_ratio_loss);
}

}  // namespace
}  // namespace lispoison
