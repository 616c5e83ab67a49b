// Copyright (c) lispoison authors. Licensed under the MIT license.
//
// Extension (paper §V/§VI, update-stream threat model): adversaries that
// REMOVE or MODIFY keys instead of only inserting them. Deleting a key
// k_j has a mirror-image compound effect to insertion: every key larger
// than k_j loses one rank, so the deletion loss sequence admits the same
// O(1) aggregate evaluation as LossLandscape and a greedy multi-key
// attack. Modification (relocating a key the adversary owns) composes
// one deletion with one insertion per round.
//
// Both greedy attacks run on the persistent incremental LossLandscape
// (RemoveKey / InsertKey commits into its key store, the pruned removal
// argmax with its batched bound kernel, and the tiered insertion
// argmax), selecting
// bit-identical sequences to the retained rebuild-per-round references
// for every prune x thread-count combination.

#ifndef LISPOISON_ATTACK_DELETION_ATTACK_H_
#define LISPOISON_ATTACK_DELETION_ATTACK_H_

#include <vector>

#include "attack/loss_landscape.h"
#include "attack/single_point.h"
#include "common/status.h"
#include "common/types.h"
#include "data/keyset.h"

namespace lispoison {

/// \brief Result of the greedy deletion attack.
struct DeletionAttackResult {
  /// Keys removed, in removal order.
  std::vector<Key> removed_keys;
  /// Loss of the regression trained on the intact keyset K.
  long double base_loss = 0;
  /// Loss of the regression retrained on K minus the removals.
  long double attacked_loss = 0;
  /// Loss after each individual removal.
  std::vector<long double> loss_trajectory;
  /// Removal-argmax work counters summed over all rounds (exact
  /// evaluations, batched bound scores, pruned candidates).
  LossLandscape::ArgmaxStats argmax_stats;
  /// Key-store commit accounting: total slots rewritten across all
  /// committed removals, and the commit count. The per-commit quotient
  /// is O(sqrt(n)) by construction — the n=10M scaling gate in
  /// tools/check_bench_json.py holds the ratio against the n=100k row.
  /// Zero for the rebuild-per-round reference (no store to maintain).
  std::int64_t commit_touched_slots = 0;
  std::int64_t commits = 0;

  double RatioLoss() const { return SafeRatioLoss(attacked_loss, base_loss); }
};

/// \brief Greedy deletion attack: removes \p d keys, each round choosing
/// the stored key whose removal maximizes the retrained loss.
///
/// Runs on one persistent LossLandscape: each committed removal updates
/// the aggregates and the key store (O(sqrt(n))) in place, and each
/// round's argmax is the pruned FindOptimalRemoval scan — no per-round
/// landscape
/// reconstruction. AttackOptions::num_threads / prune_argmax plumb
/// straight through; the removed-key sequence and loss trajectory are
/// bit-identical to GreedyDeleteCdfReference for every setting.
///
/// The adversary may only delete keys it plausibly controls; pass
/// \p deletable to restrict candidates (empty = any key may go). Fails
/// when fewer than d + 2 keys remain available (the regression needs
/// at least two points).
Result<DeletionAttackResult> GreedyDeleteCdf(
    const KeySet& keyset, std::int64_t d,
    const std::vector<Key>& deletable = {},
    const AttackOptions& options = {});

/// \brief The pre-refactor rebuild-per-round implementation: every round
/// rebuilds an O(n) suffix-sum landscape over the surviving keys and
/// scans all candidates exhaustively. Kept as the differential-testing
/// oracle and the baseline of bench_attack_throughput; do not use on
/// hot paths.
Result<DeletionAttackResult> GreedyDeleteCdfReference(
    const KeySet& keyset, std::int64_t d,
    const std::vector<Key>& deletable = {});

/// \brief Result of the greedy modification (relocation) attack.
struct ModificationAttackResult {
  /// (old key, new key) pairs in application order.
  std::vector<std::pair<Key, Key>> moves;
  long double base_loss = 0;
  long double attacked_loss = 0;
  /// Loss after each completed move (size == |moves|).
  std::vector<long double> loss_trajectory;
  /// Combined removal- and insertion-argmax work counters.
  LossLandscape::ArgmaxStats argmax_stats;
  /// Key-store commit accounting (see DeletionAttackResult): both
  /// halves of a move, RemoveKey and InsertKey, count.
  std::int64_t commit_touched_slots = 0;
  std::int64_t commits = 0;

  double RatioLoss() const { return SafeRatioLoss(attacked_loss, base_loss); }
};

/// \brief Greedy modification attack: performs \p moves rounds, each
/// deleting the loss-maximizing deletable key and re-inserting it at
/// the loss-maximizing unoccupied position (keeping |K| constant — the
/// adversary "edits" records it controls, e.g. OpenStreetMap entries).
///
/// Runs on one persistent LossLandscape via RemoveKey + InsertKey (the
/// ReplaceKey decomposition), sharing the incremental engine with every
/// other attack in the repo; bit-identical to
/// GreedyModifyCdfReference for every prune x thread setting.
///
/// \p movable restricts which keys may be relocated (empty = any).
Result<ModificationAttackResult> GreedyModifyCdf(
    const KeySet& keyset, std::int64_t moves,
    const std::vector<Key>& movable = {},
    const AttackOptions& options = {});

/// \brief The pre-refactor rebuild-per-round modification attack
/// (per-round deletion landscape + fresh insertion landscape). Kept as
/// the differential-testing oracle and bench baseline.
Result<ModificationAttackResult> GreedyModifyCdfReference(
    const KeySet& keyset, std::int64_t moves,
    const std::vector<Key>& movable = {},
    const AttackOptions& options = {});

}  // namespace lispoison

#endif  // LISPOISON_ATTACK_DELETION_ATTACK_H_
