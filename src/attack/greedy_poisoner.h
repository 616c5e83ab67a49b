// Copyright (c) lispoison authors. Licensed under the MIT license.
//
// Algorithm 1 — GREEDYPOISONINGREGRESSIONCDF: multi-point poisoning of a
// linear regression on a CDF. Each round runs the optimal single-point
// attack on the keyset augmented with the poisoning keys chosen so far
// and commits the locally optimal insertion.

#ifndef LISPOISON_ATTACK_GREEDY_POISONER_H_
#define LISPOISON_ATTACK_GREEDY_POISONER_H_

#include <string>
#include <vector>

#include "attack/loss_landscape.h"
#include "attack/single_point.h"
#include "common/status.h"
#include "common/types.h"
#include "data/keyset.h"

namespace lispoison {

/// \brief Result of the greedy multi-point attack (Algorithm 1).
struct GreedyPoisonResult {
  /// Poisoning keys P in insertion order; |P| equals the requested p.
  std::vector<Key> poison_keys;
  /// Loss of the regression trained on K alone.
  long double base_loss = 0;
  /// Loss of the regression trained on K ∪ P (ranks over n + p keys).
  long double poisoned_loss = 0;
  /// Loss after each individual insertion (size p); poisoned_loss is its
  /// back(). Exposes the per-round marginal gains for the ablation bench.
  std::vector<long double> loss_trajectory;
  /// Argmax work counters summed over all rounds (exact evaluations,
  /// bound scores, pruned gaps) — the measurable win of
  /// AttackOptions::prune_argmax, surfaced by bench_attack_throughput.
  LossLandscape::ArgmaxStats argmax_stats;
  /// Key-store commit accounting: slots rewritten by the committed
  /// insertions, and the commit count (see DeletionAttackResult).
  std::int64_t commit_touched_slots = 0;
  std::int64_t commits = 0;

  /// \brief The paper's evaluation metric: poisoned MSE / clean MSE.
  double RatioLoss() const { return SafeRatioLoss(poisoned_loss, base_loss); }
};

/// \brief Runs Algorithm 1: inserts \p p poisoning keys greedily, each
/// round choosing the unoccupied gap-endpoint key that maximizes the
/// retrained loss.
///
/// Implemented on the incremental LossLandscape engine: the landscape is
/// built once and each committed poison updates its key store in place
/// (O(sqrt(n)) per commit), so a round costs at most O(G) candidate
/// evaluations (G = current gap count) with no per-round
/// KeySet/landscape reconstruction. With AttackOptions::num_threads !=
/// 1 the per-round argmax scan fans out over chunks of store blocks on a
/// ThreadPool with a fixed-order reduction; with
/// AttackOptions::prune_argmax (the default) each scan runs the
/// branch-and-bound tiered scan (admissible upper bounds, early exit)
/// — one range bound per group of ~sqrt(n)-key block slices (up to
/// ~sqrt(G) gaps), per-gap re-scoring only inside surviving groups —
/// dropping per-round bound work to O(sqrt(n) + survivors). Selects
/// bit-identical poison sequences to GreedyPoisonCdfReference for every
/// thread count and pruning setting.
///
/// Fails with InvalidArgument for empty keysets or p < 1, and with
/// ResourceExhausted if the allowed range runs out of unoccupied keys
/// before p insertions (the caller's budget exceeds the domain).
Result<GreedyPoisonResult> GreedyPoisonCdf(const KeySet& keyset,
                                           std::int64_t p,
                                           const AttackOptions& options = {});

/// \brief Checkpointing policy for multi-hour greedy runs at n=10M /
/// p=10^6 scale.
struct GreedyCheckpointOptions {
  /// Snapshot file (common/snapshot.h container). Empty disables
  /// checkpointing entirely.
  std::string path;
  /// Write a checkpoint after every this many committed insertions (the
  /// final state is always written). Each write is atomic, so a kill
  /// mid-write leaves the previous checkpoint intact.
  std::int64_t every = 4096;
  /// Testing hook: once this many total insertions are committed (and
  /// checkpointed), stop and return FailedPrecondition — the CI
  /// kill-and-resume gate uses it as a deterministic "crash" point.
  /// Negative disables.
  std::int64_t halt_after = -1;
};

/// \brief GreedyPoisonCdf with checkpoint/restart: periodically writes
/// the committed poison sequence (plus the keyset fingerprint and the
/// landscape's exact aggregate state for integrity) to
/// \p ckpt.path, and — when that file already exists — resumes from it
/// instead of recomputing.
///
/// Resume replays the checkpointed insertions through the incremental
/// landscape (exact integer commits, O(r * (log n + sqrt(G))) total),
/// recovering bit-for-bit the engine state the interrupted run held, and
/// verifies the recovered Int128 aggregates against the checkpointed
/// ones before continuing; the completed run's poison sequence and loss
/// trajectory are bit-identical to an uninterrupted run's
/// (tests/snapshot_checkpoint_test.cc pins this, as does the CI
/// kill-and-resume smoke gate). Fails with FailedPrecondition when the
/// checkpoint belongs to a different keyset or attack shape.
Result<GreedyPoisonResult> GreedyPoisonCdfCheckpointed(
    const KeySet& keyset, std::int64_t p, const AttackOptions& options,
    const GreedyCheckpointOptions& ckpt);

/// \brief The pre-refactor rebuild-per-round implementation of
/// Algorithm 1: every round re-creates the KeySet and LossLandscape from
/// scratch (O(p * n) total). Kept as the differential-testing oracle and
/// the baseline of bench_attack_throughput; do not use on hot paths.
Result<GreedyPoisonResult> GreedyPoisonCdfReference(
    const KeySet& keyset, std::int64_t p, const AttackOptions& options = {});

/// \brief Convenience: returns keyset ∪ poison_keys as a new KeySet.
Result<KeySet> ApplyPoison(const KeySet& keyset,
                           const std::vector<Key>& poison_keys);

}  // namespace lispoison

#endif  // LISPOISON_ATTACK_GREEDY_POISONER_H_
