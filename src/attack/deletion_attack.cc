#include "attack/deletion_attack.h"

#include <algorithm>
#include <memory>
#include <string>
#include <unordered_set>

#include "attack/loss_landscape.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "index/cdf_regression.h"

namespace lispoison {
namespace {

/// O(n) evaluator of the post-deletion minimized loss for every stored
/// key: mirrors LossLandscape. With keys k_1 < ... < k_n (ranks 1..n)
/// and deletion index j (0-based), the surviving aggregates are
///   sum(X)  = sum(K) - k_j
///   sum(X^2)= sum(K^2) - k_j^2
///   sum(XY) = sum_i k_i*i' where keys above k_j lose one rank:
///           = sum_i k_i*r_i - k_j*(j+1) - SuffixKeySum(j+1)
/// and ranks become a permutation of 1..n-1.
class DeletionLandscape {
 public:
  explicit DeletionLandscape(const std::vector<Key>& keys) : keys_(keys) {
    const std::int64_t n = static_cast<std::int64_t>(keys.size());
    shift_ = keys.empty() ? 0 : keys.front();
    suffix_.assign(static_cast<std::size_t>(n) + 1, 0);
    for (std::int64_t i = n - 1; i >= 0; --i) {
      const Int128 shifted =
          static_cast<Int128>(keys[static_cast<std::size_t>(i)]) - shift_;
      suffix_[static_cast<std::size_t>(i)] =
          suffix_[static_cast<std::size_t>(i) + 1] + shifted;
      sum_k_ += shifted;
      sum_k2_ += shifted * shifted;
      sum_kr_ += shifted * (i + 1);
    }
  }

  /// \brief Minimized MSE of the regression on keys with index j removed.
  long double LossWithout(std::int64_t j) const {
    const std::int64_t n1 =
        static_cast<std::int64_t>(keys_.size()) - 1;
    const Int128 kj =
        static_cast<Int128>(keys_[static_cast<std::size_t>(j)]) - shift_;
    const Int128 sum_x = sum_k_ - kj;
    const Int128 sum_x2 = sum_k2_ - kj * kj;
    const Int128 sum_xy =
        sum_kr_ - kj * (j + 1) - suffix_[static_cast<std::size_t>(j) + 1];
    const Int128 m = n1;
    const Int128 sum_y = m * (m + 1) / 2;
    const Int128 sum_y2 = m * (m + 1) * (2 * m + 1) / 6;
    const Int128 nn = m;
    const Int128 var_x_n = nn * sum_x2 - sum_x * sum_x;
    const Int128 var_y_n = nn * sum_y2 - sum_y * sum_y;
    const Int128 cov_n = nn * sum_xy - sum_x * sum_y;
    const long double n2 = static_cast<long double>(n1) *
                           static_cast<long double>(n1);
    if (var_x_n <= 0) {
      long double loss = ToLongDouble(var_y_n) / n2;
      return loss < 0 ? 0 : loss;
    }
    const long double cov = ToLongDouble(cov_n);
    long double loss =
        (ToLongDouble(var_y_n) - cov * cov / ToLongDouble(var_x_n)) / n2;
    return loss < 0 ? 0 : loss;
  }

 private:
  const std::vector<Key>& keys_;
  Key shift_ = 0;
  Int128 sum_k_ = 0;
  Int128 sum_k2_ = 0;
  Int128 sum_kr_ = 0;
  std::vector<Int128> suffix_;
};

long double LossOfSorted(const std::vector<Key>& keys) {
  if (keys.empty()) return 0;
  MomentAccumulator acc;
  Rank r = 1;
  const Key shift = keys.front();
  for (Key k : keys) acc.Add(k - shift, r++);
  return FitFromMoments(acc).mse;
}

/// Shared validation of the deletion-attack inputs.
Status ValidateDeletion(const KeySet& keyset, std::int64_t d,
                        const std::vector<Key>& deletable) {
  if (keyset.empty()) {
    return Status::InvalidArgument("cannot attack an empty keyset");
  }
  if (d < 1) return Status::InvalidArgument("deletion budget must be >= 1");
  if (keyset.size() - d < 2) {
    return Status::InvalidArgument(
        "deleting " + std::to_string(d) + " of " +
        std::to_string(keyset.size()) +
        " keys leaves fewer than two points to regress on");
  }
  for (Key k : deletable) {
    if (!keyset.Contains(k)) {
      return Status::InvalidArgument(
          "deletable key " + std::to_string(k) + " is not stored");
    }
  }
  return Status::OK();
}

/// Shared validation of the modification-attack inputs.
Status ValidateModification(const KeySet& keyset, std::int64_t moves,
                            const std::vector<Key>& movable) {
  if (keyset.empty()) {
    return Status::InvalidArgument("cannot attack an empty keyset");
  }
  if (moves < 1) {
    return Status::InvalidArgument("modification budget must be >= 1");
  }
  if (keyset.size() < 4) {
    return Status::InvalidArgument(
        "modification attack needs at least four stored keys");
  }
  for (Key k : movable) {
    if (!keyset.Contains(k)) {
      return Status::InvalidArgument(
          "movable key " + std::to_string(k) + " is not stored");
    }
  }
  return Status::OK();
}

}  // namespace

Result<DeletionAttackResult> GreedyDeleteCdf(
    const KeySet& keyset, std::int64_t d, const std::vector<Key>& deletable,
    const AttackOptions& options) {
  LISPOISON_RETURN_IF_ERROR(ValidateDeletion(keyset, d, deletable));
  const bool restricted = !deletable.empty();
  std::unordered_set<Key> allowed(deletable.begin(), deletable.end());

  DeletionAttackResult result;
  // Same arithmetic path as the reference's base loss, so the two
  // results stay bit-equal end to end.
  result.base_loss = LossOfSorted(keyset.keys());

  // One landscape for the whole attack: each committed removal updates
  // the aggregates and the key store in place, so the next round's
  // argmax sees the mirror-image compound rank shifts exactly.
  std::unique_ptr<ThreadPool> pool = MakeAttackPool(options);
  LISPOISON_ASSIGN_OR_RETURN(LossLandscape landscape,
                             LossLandscape::Create(keyset, pool.get()));
  const LossLandscape::ArgmaxOptions argmax = options.ArgmaxKnobs();

  for (std::int64_t round = 0; round < d; ++round) {
    auto best = landscape.FindOptimalRemoval(
        restricted ? &allowed : nullptr, pool.get(), argmax,
        &result.argmax_stats);
    if (!best.ok()) {
      return Status::ResourceExhausted(
          "no deletable key left after " + std::to_string(round) + " of " +
          std::to_string(d) + " removals");
    }
    LISPOISON_RETURN_IF_ERROR(landscape.RemoveKey(best->key));
    if (restricted) allowed.erase(best->key);
    result.removed_keys.push_back(best->key);
    result.loss_trajectory.push_back(best->loss);
  }
  result.attacked_loss = result.loss_trajectory.back();
  result.commit_touched_slots = landscape.removal_commit_touched_slots();
  result.commits = landscape.removal_commits();
  return result;
}

Result<DeletionAttackResult> GreedyDeleteCdfReference(
    const KeySet& keyset, std::int64_t d,
    const std::vector<Key>& deletable) {
  LISPOISON_RETURN_IF_ERROR(ValidateDeletion(keyset, d, deletable));
  const bool restricted = !deletable.empty();
  std::unordered_set<Key> allowed(deletable.begin(), deletable.end());

  DeletionAttackResult result;
  std::vector<Key> work = keyset.keys();
  result.base_loss = LossOfSorted(work);

  for (std::int64_t round = 0; round < d; ++round) {
    DeletionLandscape landscape(work);
    bool have = false;
    std::int64_t best_j = -1;
    long double best_loss = 0;
    for (std::int64_t j = 0;
         j < static_cast<std::int64_t>(work.size()); ++j) {
      if (restricted &&
          !allowed.count(work[static_cast<std::size_t>(j)])) {
        continue;
      }
      const long double loss = landscape.LossWithout(j);
      if (!have || loss > best_loss) {
        best_j = j;
        best_loss = loss;
        have = true;
      }
    }
    if (!have) {
      return Status::ResourceExhausted(
          "no deletable key left after " + std::to_string(round) +
          " of " + std::to_string(d) + " removals");
    }
    result.removed_keys.push_back(work[static_cast<std::size_t>(best_j)]);
    allowed.erase(work[static_cast<std::size_t>(best_j)]);
    work.erase(work.begin() + best_j);
    result.loss_trajectory.push_back(best_loss);
  }
  result.attacked_loss = result.loss_trajectory.back();
  return result;
}

Result<ModificationAttackResult> GreedyModifyCdf(
    const KeySet& keyset, std::int64_t moves,
    const std::vector<Key>& movable, const AttackOptions& options) {
  LISPOISON_RETURN_IF_ERROR(ValidateModification(keyset, moves, movable));
  const bool restricted = !movable.empty();
  std::unordered_set<Key> allowed(movable.begin(), movable.end());

  ModificationAttackResult result;
  result.base_loss = LossOfSorted(keyset.keys());

  // One persistent landscape drives both halves of every move: the
  // pruned removal argmax + RemoveKey, then the tiered insertion argmax
  // + InsertKey — the ReplaceKey decomposition, with the argmax between
  // the two halves.
  std::unique_ptr<ThreadPool> pool = MakeAttackPool(options);
  LISPOISON_ASSIGN_OR_RETURN(LossLandscape landscape,
                             LossLandscape::Create(keyset, pool.get()));
  const LossLandscape::ArgmaxOptions argmax = options.ArgmaxKnobs();

  for (std::int64_t round = 0; round < moves; ++round) {
    auto del = landscape.FindOptimalRemoval(
        restricted ? &allowed : nullptr, pool.get(), argmax,
        &result.argmax_stats);
    if (!del.ok()) {
      return Status::ResourceExhausted(
          "no movable key left at round " + std::to_string(round));
    }
    LISPOISON_RETURN_IF_ERROR(landscape.RemoveKey(del->key));
    auto ins = landscape.FindOptimal(options.interior_only,
                                     /*excluded=*/nullptr, pool.get(),
                                     argmax, &result.argmax_stats);
    if (!ins.ok()) {
      // Nowhere to put it back: undo the deletion and stop.
      LISPOISON_RETURN_IF_ERROR(landscape.InsertKey(del->key));
      return Status::ResourceExhausted(
          "no unoccupied re-insertion slot at round " +
          std::to_string(round));
    }
    LISPOISON_RETURN_IF_ERROR(landscape.InsertKey(ins->key));
    // The relocated record keeps its identity: it remains movable.
    if (restricted) {
      allowed.erase(del->key);
      allowed.insert(ins->key);
    }
    result.moves.emplace_back(del->key, ins->key);
    result.loss_trajectory.push_back(ins->loss);
    result.attacked_loss = ins->loss;
  }
  result.commit_touched_slots = landscape.removal_commit_touched_slots();
  result.commits = landscape.removal_commits();
  return result;
}

Result<ModificationAttackResult> GreedyModifyCdfReference(
    const KeySet& keyset, std::int64_t moves,
    const std::vector<Key>& movable, const AttackOptions& options) {
  LISPOISON_RETURN_IF_ERROR(ValidateModification(keyset, moves, movable));
  const bool restricted = !movable.empty();
  std::unordered_set<Key> allowed(movable.begin(), movable.end());

  ModificationAttackResult result;
  std::vector<Key> work = keyset.keys();
  const KeyDomain domain = keyset.domain();
  result.base_loss = LossOfSorted(work);

  // The oracle re-inserts through the exhaustive scan, so it never
  // shares the pruned argmax it is the ground truth for.
  LossLandscape::ArgmaxOptions exhaustive;
  exhaustive.prune = false;

  for (std::int64_t round = 0; round < moves; ++round) {
    // Step 1: best deletion among movable keys.
    DeletionLandscape landscape(work);
    bool have = false;
    std::int64_t best_j = -1;
    long double best_loss = 0;
    for (std::int64_t j = 0;
         j < static_cast<std::int64_t>(work.size()); ++j) {
      if (restricted &&
          !allowed.count(work[static_cast<std::size_t>(j)])) {
        continue;
      }
      const long double loss = landscape.LossWithout(j);
      if (!have || loss > best_loss) {
        best_j = j;
        best_loss = loss;
        have = true;
      }
    }
    if (!have) {
      return Status::ResourceExhausted(
          "no movable key left at round " + std::to_string(round));
    }
    const Key moved = work[static_cast<std::size_t>(best_j)];
    work.erase(work.begin() + best_j);

    // Step 2: best re-insertion position for the freed key.
    LISPOISON_ASSIGN_OR_RETURN(KeySet current, KeySet::Create(work, domain));
    LISPOISON_ASSIGN_OR_RETURN(LossLandscape insertion,
                               LossLandscape::Create(current));
    auto best = insertion.FindOptimal(options.interior_only,
                                      /*excluded=*/nullptr, /*pool=*/nullptr,
                                      exhaustive);
    if (!best.ok()) {
      // Nowhere to put it back: undo the deletion and stop.
      work.insert(std::lower_bound(work.begin(), work.end(), moved), moved);
      return Status::ResourceExhausted(
          "no unoccupied re-insertion slot at round " +
          std::to_string(round));
    }
    work.insert(std::lower_bound(work.begin(), work.end(), best->key),
                best->key);
    // The relocated record keeps its identity: it remains movable.
    if (restricted) {
      allowed.erase(moved);
      allowed.insert(best->key);
    }
    result.moves.emplace_back(moved, best->key);
    result.loss_trajectory.push_back(best->loss);
    result.attacked_loss = best->loss;
  }
  return result;
}

}  // namespace lispoison
