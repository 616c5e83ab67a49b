// Copyright (c) lispoison authors. Licensed under the MIT license.
//
// The optimal single-point poisoning attack of Section IV-C: find the
// unoccupied key whose insertion maximizes the minimized regression loss,
// in time linear in the number of legitimate keys (gap-endpoint
// enumeration justified by the per-gap convexity of Theorem 2).

#ifndef LISPOISON_ATTACK_SINGLE_POINT_H_
#define LISPOISON_ATTACK_SINGLE_POINT_H_

#include <memory>

#include "attack/loss_landscape.h"
#include "common/status.h"
#include "common/types.h"
#include "data/keyset.h"

namespace lispoison {

class ThreadPool;

/// \brief Attack-wide knobs shared by the single- and multi-point
/// attacks.
struct AttackOptions {
  /// Restrict poisoning keys to lie strictly between the smallest and
  /// largest legitimate key (the paper's default, which keeps the attack
  /// invisible to out-of-range and outlier filters).
  bool interior_only = true;

  /// Worker threads for the greedy argmax scans (insertion over gap
  /// tiers, removal over key blocks). 0 means one per hardware thread;
  /// 1 or any negative value runs the serial scan. The selected poison
  /// sequence is bit-identical for every value (chunked
  /// order-independent reduction; see LossLandscape::FindOptimal). A
  /// round fans out only when its live work is large, every chunk
  /// pruning against one incumbent fixed before the fan-out, so it does
  /// about the serial round's exact work; a smaller round runs the
  /// serial scan.
  int num_threads = 1;

  /// Branch-and-bound pruning of the per-round argmax, run as the
  /// tiered scan: one admissible bound per ~sqrt(G)-gap tier (from the
  /// per-tier aggregates the gap structure maintains across
  /// insertions), gaps re-scored individually only inside tiers whose
  /// bound reaches the running best, and only the gaps whose own bound
  /// reaches it evaluated exactly. Bit-identical to the exhaustive scan
  /// for every setting (the bounds are admissible, with an exhaustive
  /// fallback when they are not provably so); off buys nothing but the
  /// reference evaluation counts.
  bool prune_argmax = true;

  /// Live units from which a pooled argmax round fans out; a smaller
  /// round runs the serial scan (LossLandscape::ArgmaxOptions).
  std::int64_t argmax_fan_out_units =
      LossLandscape::ArgmaxOptions{}.fan_out_units;

  /// \brief The LossLandscape-level view of the argmax knobs.
  LossLandscape::ArgmaxOptions ArgmaxKnobs() const {
    LossLandscape::ArgmaxOptions knobs;
    knobs.prune = prune_argmax;
    knobs.fan_out_units = argmax_fan_out_units;
    return knobs;
  }
};

/// \brief Result of the optimal single-point attack.
struct SinglePointResult {
  Key poison_key = 0;            ///< The loss-maximizing insertion.
  long double base_loss = 0;     ///< MSE before poisoning.
  long double poisoned_loss = 0; ///< MSE after inserting poison_key.

  /// \brief The paper's Ratio Loss; +inf when base_loss is zero and the
  /// poisoned loss is positive, 1 when both are zero.
  double RatioLoss() const;
};

/// \brief Finds the optimal single poisoning key for \p keyset in O(n).
///
/// Fails with InvalidArgument for empty keysets and ResourceExhausted
/// when no unoccupied candidate key exists in the allowed range.
Result<SinglePointResult> OptimalSinglePoint(const KeySet& keyset,
                                             const AttackOptions& options = {});

/// \brief Shared helper: safe ratio-loss division used by every attack
/// result type.
double SafeRatioLoss(long double poisoned, long double base);

/// \brief One thread pool shared across an attack's rounds, per the
/// AttackOptions::num_threads contract: nullptr (serial) for 1 or any
/// negative value, a pool sized by the setting otherwise (0 = one
/// worker per hardware thread).
std::unique_ptr<ThreadPool> MakeAttackPool(const AttackOptions& options);

}  // namespace lispoison

#endif  // LISPOISON_ATTACK_SINGLE_POINT_H_
