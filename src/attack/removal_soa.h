// Copyright (c) lispoison authors. Licensed under the MIT license.
//
// Block-local structure-of-arrays view of the current keys for the
// removal argmax (the §V deletion/modification attacks). The flat
// predecessor kept one sorted key array plus one global int64 suffix
// key-sum array, which made every InsertKey/RemoveKey commit pay an
// O(n) maintenance pass (all suffix sums below the key shift by its
// value) — fine at n=100k, a cliff at n=10M. Here the candidates live
// in ~sqrt(n)-sized blocks, each carrying *block-local* suffix sums
// plus two tier-relative directory scalars:
//
//   count_before — candidates stored in earlier blocks, and
//   sum_after    — shifted key-sum of all later blocks,
//
// so the global view is reconstructed exactly in O(1) per candidate:
//
//   rank(b, j)   = count_before(b) + j + 1
//   suffix(b, j) = sa_local(b)[j] + sum_after(b)
//
// Both identities are exact int64 under the landscape's magnitude
// guard (every partial sum is bounded by the full suffix sum, which
// the guard keeps below 2^63), so every loss computed through a block
// is bit-identical to the flat layout's. A commit now touches one
// block's arrays (O(sqrt(n)) slots) plus one directory scalar per
// block (O(sqrt(n)) blocks) instead of O(n) suffix entries; blocks
// split at 2x the build target and merge below 1/4 of the cap, the
// same occupancy discipline as TieredGaps. touched_slots() counts the
// maintenance work per commit, which the 10M bench gate asserts grows
// ~sqrt(n), not n.
//
// The scan side consumes blocks directly: the removal argmax computes
// one admissible chord bound per block from its exact endpoint records
// and re-scores only surviving blocks per key, so the block layout is
// simultaneously the commit structure and the bound tier structure
// ("tier-relative" in the ROADMAP's sense).

#ifndef LISPOISON_ATTACK_REMOVAL_SOA_H_
#define LISPOISON_ATTACK_REMOVAL_SOA_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.h"

namespace lispoison {

/// \brief Sorted current keys in ~sqrt(n) blocks with block-local
/// suffix key-sums and tier-relative rank/suffix directory scalars.
/// Built lazily by the removal argmax, maintained incrementally by the
/// landscape's commits in O(sqrt(n)) touched slots each.
class RemovalSoa {
 public:
  struct Block {
    std::vector<Key> keys;  ///< Sorted slice of the current keys.
    /// Shifted suffix key-sums *within this block*:
    /// sa_local[j] = sum over i > j of (keys[i] - shift). Empty when
    /// the SoA is keys-only (wide-domain fallback mode).
    std::vector<std::int64_t> sa_local;
    std::int64_t count_before = 0;  ///< Keys stored in earlier blocks.
    std::int64_t sum_after = 0;     ///< Shifted key-sum of later blocks.
  };

  /// \brief Drops everything; built() becomes false.
  void Clear();

  /// \name Bulk build (sorted append). StartBuild sizes the block
  /// geometry from \p expected_n; AppendSorted must be called in
  /// non-decreasing key order; FinishBuild computes the per-block
  /// suffix sums and the directory scalars.
  /// @{
  void StartBuild(std::int64_t expected_n, bool with_sa, Key shift);
  void AppendSorted(Key k);
  void FinishBuild();
  /// @}

  bool built() const { return built_; }
  bool with_sa() const { return with_sa_; }
  Key shift() const { return shift_; }
  std::int64_t size() const { return total_; }
  std::size_t block_count() const { return blocks_.size(); }
  const Block& block(std::size_t b) const { return blocks_[b]; }
  /// \brief Hard per-block occupancy cap (blocks split beyond it); the
  /// scan sizes its per-chunk key-staging slices from this.
  std::int64_t block_cap() const { return cap_; }

  /// \brief Commits the insertion of key \p k with shifted value \p x
  /// (x is ignored in keys-only mode): O(block + directory) slot
  /// updates, then a split if the block outgrew the cap.
  void Insert(Key k, std::int64_t x);

  /// \brief Commits the removal of the stored key \p k (shifted value
  /// \p x): the exact dual of Insert, with an underflow merge.
  void Remove(Key k, std::int64_t x);

  /// \brief Appends the current keys (and, when with_sa(), the global
  /// suffix sums) in index order — the flat view, used by differential
  /// tests to compare against the block-local reconstruction.
  void FlattenTo(std::vector<Key>* keys, std::vector<std::int64_t>* sa) const;

  /// \name Maintenance telemetry: cumulative slots touched by
  /// Insert/Remove commits (block array moves + directory updates +
  /// rebalance copies) and the commit count — the pair behind the
  /// sublinearity gate's per-commit cost.
  /// @{
  std::int64_t touched_slots() const { return touched_slots_; }
  std::int64_t commits() const { return commits_; }
  /// @}

 private:
  std::size_t FindBlock(Key k) const;
  void SplitIfNeeded(std::size_t b);
  void MergeIfUnderflow(std::size_t b);

  std::vector<Block> blocks_;
  std::int64_t total_ = 0;
  std::int64_t target_ = 0;  ///< Build-time block size (~sqrt(n)).
  std::int64_t cap_ = 0;     ///< Split threshold (2 * target_).
  Key shift_ = 0;
  bool with_sa_ = false;
  bool built_ = false;
  std::int64_t touched_slots_ = 0;
  std::int64_t commits_ = 0;
};

}  // namespace lispoison

#endif  // LISPOISON_ATTACK_REMOVAL_SOA_H_
