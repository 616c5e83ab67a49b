// Copyright (c) lispoison authors. Licensed under the MIT license.
//
// TieredGaps: the two-level gap decomposition behind LossLandscape.
//
// The flat std::vector<Gap> layout paid an O(G) splice on every
// InsertKey (a ROADMAP item since PR 1). Here gaps live in tiers of
// ~sqrt(G) consecutive gaps: a splice shifts only the tail of one tier
// plus the tier directory, so InsertKey's gap work drops to O(sqrt(G))
// while iteration stays two nested linear loops over contiguous arrays
// — cache-friendly for the chunked parallel argmax scan.
//
// Each gap record carries the *exact* number of current keys strictly
// below its first unoccupied key and their shifted prefix sum, stored
// tier-relative: an insertion bumps the records after the split point
// inside its own tier eagerly and every later tier through an O(1)
// per-tier (delta_cnt, delta_sum) pair, so absolute values stay an O(1)
// read at scan time and no traversal of an insertion overlay is needed.
//
// The tier's key range plus its first gap's exact (cnt, sum) give the
// incremental argmax an O(1) per-tier admissible bound on the Theorem 1
// loss over every candidate the tier contains (a left-tangent bound on
// the covariance, which is piecewise linear with non-decreasing slopes
// along the candidate axis) — the filter that lets the argmax skip
// whole tiers instead of bounding all O(G) gaps every round (see
// LossLandscape::FindOptimal).

#ifndef LISPOISON_ATTACK_GAP_TIERS_H_
#define LISPOISON_ATTACK_GAP_TIERS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.h"

namespace lispoison {

/// \brief Two-level (tiered) decomposition of the unoccupied key domain
/// into maximal gaps, with O(sqrt(G)) splices and per-tier aggregate
/// boxes for the incremental argmax.
class TieredGaps {
 public:
  /// One maximal run [lo, hi] of unoccupied keys. cnt/sum describe the
  /// current keys strictly below lo (count and shifted key-sum),
  /// *relative* to the owning tier's pending deltas.
  struct GapRec {
    Key lo = 0;
    Key hi = 0;
    Rank cnt = 0;
    Int128 sum = 0;
  };

  /// A run of consecutive gaps in key order. delta_cnt/delta_sum are
  /// pending additions to every member gap's cnt/sum (lazily applied
  /// splice bookkeeping).
  struct Tier {
    std::vector<GapRec> gaps;
    Key lo = 0;        ///< == gaps.front().lo
    Key hi = 0;        ///< == gaps.back().hi
    Rank delta_cnt = 0;
    Int128 delta_sum = 0;
  };

  /// \brief Rebuilds the structure from \p gaps (sorted, disjoint, with
  /// absolute cnt/sum).
  void Build(std::vector<GapRec> gaps);

  std::int64_t size() const { return total_gaps_; }
  bool empty() const { return total_gaps_ == 0; }
  std::size_t num_tiers() const { return tiers_.size(); }
  const std::vector<Tier>& tiers() const { return tiers_; }

  /// \brief Gap records moved by splices (within-tier shifts, tier-half
  /// copies) plus tier-directory entries shifted, cumulative. The
  /// stateful property harness asserts this stays O(sqrt(G)) per insert.
  std::int64_t splice_moves() const { return splice_moves_; }

  /// \brief Maximum gaps per tier before a tier splits (~2 sqrt of the
  /// build-time gap count).
  std::int64_t tier_cap() const { return tier_cap_; }

  /// \brief Finds the gap containing \p kp. Returns false when kp is
  /// occupied or outside every gap.
  bool Locate(Key kp, std::size_t* tier_idx, std::size_t* gap_idx) const;

  /// \brief Splits the gap (\p tier_idx, \p gap_idx) — which must
  /// contain \p kp — around the newly occupied kp, and folds the key
  /// (shifted value \p kp_s) into the cnt/sum bookkeeping of every gap
  /// above it: eagerly within the tier, lazily (deltas) for later
  /// tiers.
  void SplitAt(std::size_t tier_idx, std::size_t gap_idx, Key kp,
               Int128 kp_s);

  /// \brief The exact dual of SplitAt: key \p kp — which must be
  /// occupied, i.e. inside no gap — becomes unoccupied. Merges kp into
  /// its adjacent gap(s): two neighbours collapse into one record
  /// (possibly across a tier boundary), a single neighbour extends, and
  /// an isolated removal inserts a fresh single-key gap whose exact
  /// bookkeeping comes from \p abs_cnt / \p abs_sum (count and shifted
  /// key-sum of the keys strictly below kp *after* the removal). Every
  /// gap above kp loses kp from its cnt/sum — eager within the touched
  /// tier, lazy deltas afterwards — and a tier whose gap count
  /// underflows tier_cap()/4 is re-balanced into a neighbour (splitting
  /// again if the merge overflows the 2x cap), mirroring the split
  /// rule. O(sqrt(G)) splice work, accounted in splice_moves().
  void MergeAt(Key kp, Int128 kp_s, Rank abs_cnt, Int128 abs_sum);

  /// \brief Visits every gap intersected with [lo_bound, hi_bound] in
  /// increasing key order as f(lo, hi, cnt, sum) with *absolute* cnt/sum
  /// (keys strictly below the gap; identical for every candidate inside
  /// it). O(1) per visited gap after an O(log T) start.
  template <typename F>
  void ForEachInRange(Key lo_bound, Key hi_bound, F&& f) const {
    if (lo_bound > hi_bound) return;
    // First tier whose coverage ends at or after lo_bound.
    std::size_t ti = FirstTierNotBelow(lo_bound);
    for (; ti < tiers_.size(); ++ti) {
      const Tier& t = tiers_[ti];
      if (t.lo > hi_bound) break;
      for (const GapRec& g : t.gaps) {
        if (g.hi < lo_bound) continue;
        if (g.lo > hi_bound) return;
        const Key lo = g.lo < lo_bound ? lo_bound : g.lo;
        const Key hi = g.hi > hi_bound ? hi_bound : g.hi;
        f(lo, hi, g.cnt + t.delta_cnt, g.sum + t.delta_sum);
      }
    }
  }

  /// \brief Index of the first tier with hi >= \p key (== num_tiers()
  /// when none).
  std::size_t FirstTierNotBelow(Key key) const;

 private:
  void RecountTier(Tier* t) const;
  void SplitTier(std::size_t tier_idx);
  void EraseTier(std::size_t tier_idx);
  void RebalanceUnderflow(std::size_t tier_idx);

  std::vector<Tier> tiers_;
  std::int64_t total_gaps_ = 0;
  std::int64_t tier_cap_ = 16;
  std::int64_t splice_moves_ = 0;
};

}  // namespace lispoison

#endif  // LISPOISON_ATTACK_GAP_TIERS_H_
