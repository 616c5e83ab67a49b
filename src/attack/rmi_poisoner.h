// Copyright (c) lispoison authors. Licensed under the MIT license.
//
// Algorithm 2 — GREEDYPOISONINGRMI: poisoning the two-stage recursive
// model index. The attack decomposes into (1) the volume-allocation
// problem — how many poisoning keys each second-stage model receives —
// solved greedily through CHANGELOSS key-exchanges between neighbouring
// models, and (2) the key-allocation problem — which keys to inject into
// a given model — solved by Algorithm 1 (greedy single-point insertions).
// Both run one argmax: every CHANGELOSS simulation prices the receiving
// model's next greedy insertion with the same pruned scan as (2).

#ifndef LISPOISON_ATTACK_RMI_POISONER_H_
#define LISPOISON_ATTACK_RMI_POISONER_H_

#include <vector>

#include "attack/single_point.h"
#include "common/status.h"
#include "common/types.h"
#include "data/keyset.h"

namespace lispoison {

/// \brief Configuration of the RMI poisoning attack.
struct RmiAttackOptions {
  /// Overall poisoning percentage φ as a fraction (0.10 = the paper's
  /// 10%); the total budget is floor(φ * n) keys.
  double poison_fraction = 0.10;

  /// Number of second-stage models N. If <= 0, derived from model_size.
  std::int64_t num_models = 0;

  /// Keys per second-stage model ("Model Size"); used when
  /// num_models <= 0.
  std::int64_t model_size = 1000;

  /// Per-model poisoning threshold multiplier α: no model may hold more
  /// than t = ceil(α * φ * n / N) poisoning keys. The paper evaluates
  /// α ∈ {2, 3}.
  double alpha = 3.0;

  /// Termination bound ε on the improvement of L_RMI per greedy exchange.
  long double epsilon = 1e-9;

  /// Safety cap on the number of applied exchanges. 0 means the default
  /// of 16 * N; a negative value disables the greedy volume
  /// re-allocation entirely (initial uniform allocation only), which the
  /// ablation bench uses to quantify the value of the exchanges.
  std::int64_t max_exchanges = 0;

  /// Poisoning keys stay strictly inside each model's key span.
  bool interior_only = true;

  /// Worker threads for the parallel phases: clean-baseline fitting, the
  /// initial per-model volume allocation, the first batch of CHANGELOSS
  /// exchange simulations (one task per receiving model), and the
  /// victim-side validation. The simulations after each applied
  /// exchange run inline. 0 means one per hardware thread; 1 runs fully
  /// inline. The result is identical for every value: parallel tasks
  /// write to disjoint slots and every decision reduces over them in
  /// fixed order.
  int num_threads = 0;

  /// Branch-and-bound pruning (the block-tiered scan) of every per-model
  /// greedy argmax (the key-allocation inner loop) and of every
  /// exchange simulation's receiver-side argmax; bit-identical results
  /// either way. See AttackOptions::prune_argmax.
  bool prune_argmax = true;
};

/// \brief Outcome of the RMI attack with everything the Fig. 6 / Fig. 7
/// evaluation needs.
struct RmiAttackResult {
  /// Poisoning keys assigned to each second-stage model (insertion
  /// order); sum of sizes equals the total budget.
  std::vector<std::vector<Key>> per_model_poison;

  /// Per-model MSE of the unpoisoned RMI (N models over K).
  std::vector<long double> clean_losses;

  /// Per-model MSE after the attack (attacker's model states: the same
  /// legitimate partitions plus their poisons, up to the boundary-key
  /// exchanges).
  std::vector<long double> poisoned_losses;

  /// Per-model Ratio Loss — the boxplot series in Figs. 6 and 7.
  std::vector<double> per_model_ratio;

  /// L_RMI before/after (mean of per-model losses) and their ratio — the
  /// black horizontal line in the paper's figures.
  long double clean_rmi_loss = 0;
  long double poisoned_rmi_loss = 0;
  double rmi_ratio_loss = 0;

  /// Victim-side validation: L_RMI of an RMI retrained from scratch on
  /// K ∪ P with the victim's own equal-size re-partitioning. Confirms
  /// that the attacker's bookkeeping transfers to the deployed index.
  long double retrained_rmi_loss = 0;
  double retrained_rmi_ratio = 0;

  /// Number of greedy CHANGELOSS exchanges applied.
  std::int64_t exchanges_applied = 0;

  /// The exchange loop stopped at RmiAttackOptions::max_exchanges while
  /// an exchange still improved L_RMI by more than epsilon (also when
  /// the exchanges are disabled and one would). False when it stopped
  /// at epsilon.
  bool exchange_cap_hit = false;

  /// Argmax work counters summed over every per-model greedy insertion
  /// (the key-allocation loops, including re-insertions after applied
  /// exchanges) — the measurable win of RmiAttackOptions::prune_argmax.
  LossLandscape::ArgmaxStats argmax_stats;

  /// Argmax work counters of the exchange simulations' receiver-side
  /// scans (one round per simulation that reached its scan).
  LossLandscape::ArgmaxStats exchange_stats;

  /// Total poisoning keys placed (= floor(φn) unless the domain
  /// saturated, which is reported as an error instead).
  std::int64_t total_poison_keys = 0;

  /// \brief Flattened poison keys across models.
  std::vector<Key> AllPoisonKeys() const;
};

/// \brief Runs Algorithm 2 against \p keyset.
///
/// Each second-stage model keeps a persistent incremental LossLandscape,
/// so greedy insertions never re-sort or retrain the model from scratch.
/// A CHANGELOSS exchange is simulated without materializing either
/// model: O(1) aggregate arithmetic for the donor, and for the receiver
/// the pruned insertion argmax over an aggregate snapshot with the
/// boundary key taken out (LossLandscape::FindOptimalWithoutEdge). The
/// embarrassingly parallel phases fan out over
/// RmiAttackOptions::num_threads workers with a thread-count-independent
/// result.
///
/// Fails with InvalidArgument on an empty keyset, non-positive budget or
/// malformed options, and ResourceExhausted when the key domain cannot
/// absorb the requested budget.
Result<RmiAttackResult> PoisonRmi(const KeySet& keyset,
                                  const RmiAttackOptions& options);

/// \brief The pre-refactor implementation: copy + sort + retrain every
/// second-stage model inside every greedy insertion and exchange
/// simulation, single-threaded. Kept as the differential-testing oracle
/// and the baseline of bench_attack_throughput; do not use on hot paths.
Result<RmiAttackResult> PoisonRmiReference(const KeySet& keyset,
                                           const RmiAttackOptions& options);

}  // namespace lispoison

#endif  // LISPOISON_ATTACK_RMI_POISONER_H_
