// Copyright (c) lispoison authors. Licensed under the MIT license.
//
// The one key state of LossLandscape: the current keys, sorted, in
// ~sqrt(n)-key blocks behind a block directory — the tiered vector of
// Goodrich & Kloss (WADS 1999). Every view the attacks read is derived
// from it:
//
//   - the removal argmax reads a stored key's rank and the shifted
//     key-sum of the keys above it,
//       rank(b, j)   = count_before(b) + j + 1,
//       suffix(b, j) = sa_local(b)[j] + sum_after(b);
//   - the insertion argmax reads a maximal gap as the space after a
//     stored key (up to the next key, or the domain's end), with that
//     key's record: the keys at or below it and the suffix above it;
//     each block keeps its count of non-empty gaps and the first and
//     last key followed by one, so a range bound over a block's gaps
//     is O(1);
//   - a prefix statistic is a directory search plus one block.
//
// sa_local holds int64 block-local suffix sums, kept only while the
// landscape's magnitude guard (LossLandscape::PruneDomainOk) holds:
// every partial sum is bounded by a whole suffix sum, which the guard
// keeps below 2^63. sum_after is an exact Int128 at every domain width.
// A commit touches one block (O(sqrt(n)) slots) plus one directory
// entry per block (O(sqrt(n)) blocks); blocks split at twice the build
// target and merge below a quarter of the cap. touched_slots() counts
// that work, which the n=10M bench gate holds to ~sqrt(n) growth.

#ifndef LISPOISON_ATTACK_KEY_STORE_H_
#define LISPOISON_ATTACK_KEY_STORE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.h"

namespace lispoison {

class ThreadPool;

/// \brief Sorted current keys in ~sqrt(n) blocks with block-local
/// suffix key-sums, an exact rank/suffix directory and per-block gap
/// counts and ends. Never empty once built.
class KeyStore {
 public:
  struct Block {
    std::vector<Key> keys;  ///< Sorted slice of the current keys.
    std::int64_t gaps = 0;  ///< Keys followed by a non-empty gap.
    /// The first and the last of those keys, while gaps > 0.
    std::size_t first_gap = 0;
    std::size_t last_gap = 0;
    std::int64_t count_before = 0;  ///< Keys stored in earlier blocks.
    /// sa_local[j] = sum over i > j of (keys[i] - shift); empty while
    /// with_sa() is off.
    std::vector<std::int64_t> sa_local;
    Int128 sum_after = 0;  ///< Shifted key-sum of later blocks.
  };

  /// \brief Exact aggregates of the built keys (shifted sum, sum of
  /// squares, and sum of key times rank).
  struct Totals {
    Int128 sum = 0;
    Int128 sum2 = 0;
    Int128 sumr = 0;
  };

  /// \brief Builds the store over the sorted, unique, non-empty \p keys
  /// of a domain ending at \p domain_hi, one block per task on \p pool
  /// when it runs more than one worker (inline otherwise). The blocks
  /// are fixed by the key count and their partial sums fold serially,
  /// so the store and the returned totals are the same for every thread
  /// count.
  Totals Build(const std::vector<Key>& keys, Key shift, Key domain_hi,
               bool with_sa, ThreadPool* pool);

  /// \brief Recomputes (\p on) or drops the block-local suffix sums.
  void SetSuffixSums(bool on);

  bool with_sa() const { return with_sa_; }
  std::size_t block_count() const { return blocks_.size(); }
  const Block& block(std::size_t b) const { return blocks_[b]; }
  /// \brief Hard per-block occupancy cap (blocks split beyond it).
  std::int64_t block_cap() const { return cap_; }
  Key front() const { return blocks_.front().keys.front(); }
  Key back() const { return blocks_.back().keys.back(); }

  /// \brief Where a key is, or would be, stored: the last block whose
  /// first key is <= it (block 0 below every key) and the lower-bound
  /// index inside that block.
  struct Pos {
    std::size_t block = 0;
    std::size_t index = 0;
  };
  Pos Locate(Key k) const;
  bool Holds(const Pos& p, Key k) const {
    const std::vector<Key>& keys = blocks_[p.block].keys;
    return p.index < keys.size() && keys[p.index] == k;
  }

  /// \brief The last key of the gap after key \p i of block \p b: the
  /// next stored key minus one, or the domain's end after the largest
  /// key. Equal to the key itself when the gap is empty.
  Key GapHi(std::size_t b, std::size_t i) const {
    const std::vector<Key>& keys = blocks_[b].keys;
    if (i + 1 < keys.size()) return keys[i + 1] - 1;
    return b + 1 < blocks_.size() ? blocks_[b + 1].keys.front() - 1
                                  : domain_hi_;
  }

  /// \brief Keys [begin, end) of block \p b followed by a non-empty gap.
  std::int64_t CountGaps(std::size_t b, std::size_t begin,
                         std::size_t end) const;

  /// \brief The first (last) of the keys [begin, end) of block \p b
  /// followed by a non-empty gap; the range must hold one. Keys whose
  /// gaps are all empty span as many keys as indices, so both are
  /// binary searches.
  std::size_t FirstGap(std::size_t b, std::size_t begin,
                       std::size_t end) const;
  std::size_t LastGap(std::size_t b, std::size_t begin,
                      std::size_t end) const;

  /// \brief Non-empty gaps after stored keys, over all blocks.
  std::int64_t gap_count() const;

  /// \brief Commits the insertion of the unstored key \p k: one block's
  /// arrays, then one directory entry per block, then a split if the
  /// block outgrew the cap.
  void Insert(Key k);

  /// \brief Commits the removal of the stored key \p k: the exact dual
  /// of Insert, with an underflow merge.
  void Remove(Key k);

  /// \name Maintenance telemetry: cumulative slots touched by commits
  /// (block array moves, directory updates, rebalance copies) and the
  /// commit count.
  /// @{
  std::int64_t touched_slots() const { return touched_slots_; }
  std::int64_t commits() const { return commits_; }
  /// @}

 private:
  void SplitIfNeeded(std::size_t b);
  void MergeIfUnderflow(std::size_t b);
  /// Recomputes block \p b's first_gap and last_gap.
  void FindGapEnds(std::size_t b);
  /// Recomputes block \p blk's local suffix sums and returns its
  /// shifted key-sum.
  std::int64_t FillSuffixSums(Block* blk) const;

  std::vector<Block> blocks_;
  std::int64_t cap_ = 0;  ///< Split threshold (2x the build target).
  Key shift_ = 0;
  Key domain_hi_ = 0;
  bool with_sa_ = false;
  std::int64_t touched_slots_ = 0;
  std::int64_t commits_ = 0;
};

}  // namespace lispoison

#endif  // LISPOISON_ATTACK_KEY_STORE_H_
