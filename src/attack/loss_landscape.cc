#include "attack/loss_landscape.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <string>

#include "common/thread_pool.h"

namespace lispoison {
namespace {

/// Largest up-front Sweep reservation. A wide KeyDomain used to drive
/// out.reserve(hi - lo + 1) into an allocation bomb; beyond this cap the
/// vector grows geometrically like any other.
constexpr std::int64_t kSweepReserveCap = 1 << 20;

/// Theorem 1 loss from exact (n^2-scaled) aggregate numerators:
/// L = [VarY_n - CovXY_n^2 / VarX_n] / n^2 where *_n = n^2 * moment.
long double LossFromSums(std::int64_t n, Int128 sum_x, Int128 sum_x2,
                         Int128 sum_y, Int128 sum_y2, Int128 sum_xy) {
  const Int128 nn = static_cast<Int128>(n);
  const Int128 var_x_n = nn * sum_x2 - sum_x * sum_x;
  const Int128 var_y_n = nn * sum_y2 - sum_y * sum_y;
  const Int128 cov_n = nn * sum_xy - sum_x * sum_y;
  const long double n2 = static_cast<long double>(n) *
                         static_cast<long double>(n);
  if (var_x_n <= 0) {
    // All keys identical: the regression degenerates to a constant.
    long double loss = ToLongDouble(var_y_n) / n2;
    return loss < 0 ? 0 : loss;
  }
  const long double cov = ToLongDouble(cov_n);
  long double loss =
      (ToLongDouble(var_y_n) - cov * cov / ToLongDouble(var_x_n)) / n2;
  return loss < 0 ? 0 : loss;
}

/// Rank-moment sums for ranks 1..n.
inline Int128 SumRanks(std::int64_t n) {
  const Int128 m = n;
  return m * (m + 1) / 2;
}
inline Int128 SumRankSquares(std::int64_t n) {
  const Int128 m = n;
  return m * (m + 1) * (2 * m + 1) / 6;
}

}  // namespace

Result<LossLandscape> LossLandscape::Create(const KeySet& keyset) {
  return Create(keyset, nullptr);
}

namespace {

/// Base-key indices per parallel Create chunk. Fixed (not derived from
/// the thread count) so the chunk partials — and therefore every
/// stitched prefix value — are identical for every pool size; the
/// exact integer arithmetic then makes the parallel build bit-identical
/// to the serial one by associativity.
constexpr std::int64_t kCreateChunkKeys = 1 << 16;

}  // namespace

Result<LossLandscape> LossLandscape::Create(const KeySet& keyset,
                                            ThreadPool* pool) {
  if (keyset.empty()) {
    return Status::InvalidArgument(
        "loss landscape requires a non-empty keyset");
  }
  LossLandscape ll;
  ll.base_keys_ = keyset.keys();
  ll.domain_ = keyset.domain();
  ll.n_ = keyset.size();
  ll.shift_ = ll.base_keys_.front();
  ll.min_key_ = ll.base_keys_.front();
  ll.max_key_ = ll.base_keys_.back();
  ll.base_prefix_.assign(static_cast<std::size_t>(ll.n_) + 1, 0);

  const bool parallel = pool != nullptr && pool->num_threads() > 1 &&
                        ll.n_ > kCreateChunkKeys;
  std::vector<TieredGaps::GapRec> gaps;
  if (!parallel) {
    for (std::int64_t i = 0; i < ll.n_; ++i) {
      const Int128 shifted =
          static_cast<Int128>(ll.base_keys_[static_cast<std::size_t>(i)]) -
          ll.shift_;
      ll.base_prefix_[static_cast<std::size_t>(i) + 1] =
          ll.base_prefix_[static_cast<std::size_t>(i)] + shifted;
      ll.sum_k2_ += shifted * shifted;
      ll.sum_kr_ += shifted * (i + 1);
    }

    // Maximal unoccupied runs over the whole domain; interior clipping
    // happens at query time against the current min/max key. Each
    // record carries the exact count / shifted prefix-sum of the keys
    // below it.
    Key cursor = ll.domain_.lo;
    std::int64_t base_count = 0;
    for (const Key k : ll.base_keys_) {
      if (cursor <= k - 1) {
        gaps.push_back(TieredGaps::GapRec{
            cursor, k - 1, base_count,
            ll.base_prefix_[static_cast<std::size_t>(base_count)]});
      }
      cursor = k + 1;
      ++base_count;
    }
  } else {
    // Two-pass chunked prefix scan: (1) per-chunk partial sums into the
    // chunk's base_prefix_ slots plus per-chunk aggregate totals, (2) a
    // serial exclusive scan of the chunk totals, (3) a parallel offset
    // fix-up. Every sum is exact Int128, so the stitched values equal
    // the serial loop's bit-for-bit.
    const std::int64_t num_chunks =
        (ll.n_ + kCreateChunkKeys - 1) / kCreateChunkKeys;
    std::vector<Int128> chunk_sum(static_cast<std::size_t>(num_chunks), 0);
    std::vector<Int128> chunk_sum2(static_cast<std::size_t>(num_chunks), 0);
    std::vector<Int128> chunk_sumr(static_cast<std::size_t>(num_chunks), 0);
    pool->ParallelFor(num_chunks, [&ll, &chunk_sum, &chunk_sum2,
                                   &chunk_sumr](std::int64_t c) {
      const std::int64_t lo = c * kCreateChunkKeys;
      const std::int64_t hi = std::min(ll.n_, lo + kCreateChunkKeys);
      Int128 acc = 0;
      Int128 acc2 = 0;
      Int128 accr = 0;
      for (std::int64_t i = lo; i < hi; ++i) {
        const Int128 shifted =
            static_cast<Int128>(ll.base_keys_[static_cast<std::size_t>(i)]) -
            ll.shift_;
        acc += shifted;
        ll.base_prefix_[static_cast<std::size_t>(i) + 1] = acc;
        acc2 += shifted * shifted;
        accr += shifted * (i + 1);
      }
      chunk_sum[static_cast<std::size_t>(c)] = acc;
      chunk_sum2[static_cast<std::size_t>(c)] = acc2;
      chunk_sumr[static_cast<std::size_t>(c)] = accr;
    });
    std::vector<Int128> chunk_offset(static_cast<std::size_t>(num_chunks), 0);
    Int128 run = 0;
    for (std::int64_t c = 0; c < num_chunks; ++c) {
      chunk_offset[static_cast<std::size_t>(c)] = run;
      run += chunk_sum[static_cast<std::size_t>(c)];
      ll.sum_k2_ += chunk_sum2[static_cast<std::size_t>(c)];
      ll.sum_kr_ += chunk_sumr[static_cast<std::size_t>(c)];
    }
    pool->ParallelFor(num_chunks, [&ll, &chunk_offset](std::int64_t c) {
      const Int128 off = chunk_offset[static_cast<std::size_t>(c)];
      if (off == 0) return;
      const std::int64_t lo = c * kCreateChunkKeys;
      const std::int64_t hi = std::min(ll.n_, lo + kCreateChunkKeys);
      for (std::int64_t i = lo; i < hi; ++i) {
        ll.base_prefix_[static_cast<std::size_t>(i) + 1] += off;
      }
    });

    // Per-chunk gap emission: the gap *ending* at key i (between key
    // i-1 and key i) belongs to the chunk containing i, whose cursor
    // re-derives from its left neighbour — exactly the serial walk's
    // cursor at that index. Per-chunk vectors concatenate in chunk
    // order, so the final gap array is element-identical to the serial
    // build's.
    std::vector<std::vector<TieredGaps::GapRec>> chunk_gaps(
        static_cast<std::size_t>(num_chunks));
    pool->ParallelFor(num_chunks, [&ll, &chunk_gaps](std::int64_t c) {
      const std::int64_t lo = c * kCreateChunkKeys;
      const std::int64_t hi = std::min(ll.n_, lo + kCreateChunkKeys);
      std::vector<TieredGaps::GapRec>& out =
          chunk_gaps[static_cast<std::size_t>(c)];
      Key cursor = lo == 0
                       ? ll.domain_.lo
                       : ll.base_keys_[static_cast<std::size_t>(lo) - 1] + 1;
      for (std::int64_t i = lo; i < hi; ++i) {
        const Key k = ll.base_keys_[static_cast<std::size_t>(i)];
        if (cursor <= k - 1) {
          out.push_back(TieredGaps::GapRec{
              cursor, k - 1, i, ll.base_prefix_[static_cast<std::size_t>(i)]});
        }
        cursor = k + 1;
      }
    });
    std::size_t total_gaps = 0;
    for (const auto& cg : chunk_gaps) total_gaps += cg.size();
    gaps.reserve(total_gaps + 1);
    for (auto& cg : chunk_gaps) {
      gaps.insert(gaps.end(), cg.begin(), cg.end());
    }
  }
  ll.sum_k_ = ll.base_prefix_[static_cast<std::size_t>(ll.n_)];
  ll.inserted_slot_sum_.Reset(static_cast<std::size_t>(ll.n_) + 1);

  // Tail gap above the largest base key (the serial walk's final
  // cursor == base_keys_.back() + 1 in the parallel path too).
  const Key tail = ll.base_keys_.back() + 1;
  if (tail <= ll.domain_.hi) {
    gaps.push_back(TieredGaps::GapRec{
        tail, ll.domain_.hi, ll.n_,
        ll.base_prefix_[static_cast<std::size_t>(ll.n_)]});
  }
  ll.gaps_.Build(std::move(gaps));

  ll.RecomputeCurrentLoss();
  return ll;
}

void LossLandscape::RecomputeCurrentLoss() {
  base_loss_ = LossFromSums(n_, sum_k_, sum_k2_, SumRanks(n_),
                            SumRankSquares(n_), sum_kr_);
}

LossLandscape::PrefixStats LossLandscape::PrefixAt(Key kp) const {
  const auto base_it =
      std::lower_bound(base_keys_.begin(), base_keys_.end(), kp);
  const std::size_t j = static_cast<std::size_t>(base_it - base_keys_.begin());
  const auto ins_it = std::lower_bound(inserted_.begin(), inserted_.end(), kp);

  PrefixStats stats;
  stats.count_less = static_cast<Rank>(j) +
                     static_cast<Rank>(ins_it - inserted_.begin());
  stats.prefix_sum = base_prefix_[j] + inserted_slot_sum_.PrefixSum(j);
  // Inserted keys sharing base slot j but below kp are not covered by the
  // Fenwick prefix; they form a contiguous overlay range.
  auto slot_begin = inserted_.begin();
  if (j > 0) {
    slot_begin = std::lower_bound(inserted_.begin(), ins_it,
                                  base_keys_[j - 1]);
  }
  for (auto it = slot_begin; it != ins_it; ++it) {
    stats.prefix_sum += static_cast<Int128>(*it) - shift_;
  }
  // Removed base keys are tombstones: those below kp (exactly the ones
  // with base index < j) leave both the count and the prefix sum.
  if (!removed_.empty()) {
    const auto rem_it =
        std::lower_bound(removed_.begin(), removed_.end(), kp);
    stats.count_less -= static_cast<Rank>(rem_it - removed_.begin());
    stats.prefix_sum -= removed_idx_sum_.PrefixSum(j);
  }
  return stats;
}

Status LossLandscape::InsertKey(Key kp) {
  if (!domain_.Contains(kp)) {
    return Status::OutOfRange("poisoning key " + std::to_string(kp) +
                              " outside the key domain");
  }
  // A key is unoccupied iff it lies inside a gap.
  std::size_t tier_idx = 0;
  std::size_t gap_idx = 0;
  if (!gaps_.Locate(kp, &tier_idx, &gap_idx)) {
    return Status::InvalidArgument("poisoning key " + std::to_string(kp) +
                                   " is already occupied");
  }

  const PrefixStats stats = PrefixAt(kp);
  const Int128 kp_s = static_cast<Int128>(kp) - shift_;
  const Int128 suffix_above = sum_k_ - stats.prefix_sum;
  // Compound effect: every key above kp gains one rank (adding the
  // suffix key-sum once), and kp enters with rank count_less + 1.
  sum_kr_ += suffix_above + kp_s * (stats.count_less + 1);
  sum_k_ += kp_s;
  sum_k2_ += kp_s * kp_s;
  n_ += 1;
  RecomputeCurrentLoss();

  const std::size_t base_slot = static_cast<std::size_t>(
      std::lower_bound(base_keys_.begin(), base_keys_.end(), kp) -
      base_keys_.begin());
  // Re-inserting a removed base key cancels its tombstone (base_slot is
  // its base index); anything else joins the inserted overlay.
  bool was_removed = false;
  if (!removed_.empty()) {
    const auto rit = std::lower_bound(removed_.begin(), removed_.end(), kp);
    if (rit != removed_.end() && *rit == kp) {
      removed_.erase(rit);
      removed_idx_sum_.Add(base_slot, -kp_s);
      was_removed = true;
    }
  }
  if (!was_removed) {
    inserted_slot_sum_.Add(base_slot, kp_s);
    inserted_.insert(std::lower_bound(inserted_.begin(), inserted_.end(), kp),
                     kp);
  }

  // Split the gap around kp (it contains no other key by construction):
  // an O(sqrt(G)) tiered splice that also folds kp into the per-gap
  // count/prefix-sum bookkeeping and the per-tier aggregate boxes.
  gaps_.SplitAt(tier_idx, gap_idx, kp, kp_s);

  if (kp < min_key_) min_key_ = kp;
  if (kp > max_key_) max_key_ = kp;

  // Removal-SoA maintenance (only once a removal argmax materialized
  // it): one block's local suffixes gain kp's shifted value, plus
  // O(sqrt(n)) directory scalars — no O(n) pass.
  if (rem_soa_.built()) {
    if (rem_soa_.with_sa() && !PruneDomainOk()) {
      // The magnitude guard broke as n grew: the int64 suffix sums are
      // no longer provably safe. Drop the SoA; the next removal argmax
      // rebuilds or falls back.
      rem_soa_.Clear();
    } else {
      rem_soa_.Insert(
          kp, rem_soa_.with_sa() ? static_cast<std::int64_t>(kp_s) : 0);
    }
  }
  return Status::OK();
}

Status LossLandscape::RemoveKey(Key kp) {
  if (!domain_.Contains(kp)) {
    return Status::OutOfRange("key " + std::to_string(kp) +
                              " outside the key domain");
  }
  {
    std::size_t tier_idx = 0;
    std::size_t gap_idx = 0;
    if (gaps_.Locate(kp, &tier_idx, &gap_idx)) {
      return Status::InvalidArgument("key " + std::to_string(kp) +
                                     " is not currently stored");
    }
  }
  if (n_ <= 2) {
    return Status::FailedPrecondition(
        "removing key " + std::to_string(kp) +
        " would leave fewer than two points to regress on");
  }

  const PrefixStats stats = PrefixAt(kp);
  const Int128 kp_s = static_cast<Int128>(kp) - shift_;
  const Int128 suffix_above = sum_k_ - stats.prefix_sum - kp_s;
  // Mirror-image compound effect: every key above kp loses one rank
  // (shedding the suffix key-sum once), and kp leaves from rank
  // count_less + 1.
  sum_kr_ -= suffix_above + kp_s * (stats.count_less + 1);
  sum_k_ -= kp_s;
  sum_k2_ -= kp_s * kp_s;
  n_ -= 1;
  RecomputeCurrentLoss();

  // Overlay bookkeeping: an inserted key leaves its overlay; a base key
  // gains a tombstone (the Create-time array stays immutable).
  const auto ins_it =
      std::lower_bound(inserted_.begin(), inserted_.end(), kp);
  const std::size_t base_idx = static_cast<std::size_t>(
      std::lower_bound(base_keys_.begin(), base_keys_.end(), kp) -
      base_keys_.begin());
  if (ins_it != inserted_.end() && *ins_it == kp) {
    inserted_slot_sum_.Add(base_idx, -kp_s);
    inserted_.erase(ins_it);
  } else {
    if (removed_idx_sum_.size() == 0) {
      removed_idx_sum_.Reset(base_keys_.size());
    }
    removed_idx_sum_.Add(base_idx, kp_s);
    removed_.insert(std::lower_bound(removed_.begin(), removed_.end(), kp),
                    kp);
  }

  // Merge kp into the gap decomposition (O(sqrt(G)) tiered merge), then
  // re-derive the min/max bookkeeping from the merged gap: its hi + 1
  // (lo - 1) is the next occupied key above (below) kp.
  gaps_.MergeAt(kp, kp_s, stats.count_less, stats.prefix_sum);
  if (kp == min_key_ || kp == max_key_) {
    std::size_t ti = 0;
    std::size_t gi = 0;
    if (gaps_.Locate(kp, &ti, &gi)) {
      const TieredGaps::GapRec& g = gaps_.tiers()[ti].gaps[gi];
      if (kp == min_key_) min_key_ = g.hi + 1;
      if (kp == max_key_) max_key_ = g.lo - 1;
    }
  }

  // Removal-SoA maintenance: the exact dual — kp's block sheds its
  // shifted value locally, directory scalars adjust, underflow merges.
  if (rem_soa_.built()) {
    rem_soa_.Remove(
        kp, rem_soa_.with_sa() ? static_cast<std::int64_t>(kp_s) : 0);
  }
  return Status::OK();
}

Status LossLandscape::ReplaceKey(Key from, Key to) {
  LISPOISON_RETURN_IF_ERROR(RemoveKey(from));
  const Status st = InsertKey(to);
  if (!st.ok()) {
    // Roll the removal back; re-inserting the just-removed key cannot
    // fail (its slot is unoccupied and in-domain).
    const Status restore = InsertKey(from);
    (void)restore;
    return st;
  }
  return Status::OK();
}

Result<long double> LossLandscape::LossAt(Key kp) const {
  if (!domain_.Contains(kp)) {
    return Status::OutOfRange("poisoning key " + std::to_string(kp) +
                              " outside the key domain");
  }
  // A key is occupied iff it lies in no gap — the one test that stays
  // correct under both the inserted and the removed overlay.
  std::size_t tier_idx = 0;
  std::size_t gap_idx = 0;
  if (!gaps_.Locate(kp, &tier_idx, &gap_idx)) {
    return Status::InvalidArgument("poisoning key " + std::to_string(kp) +
                                   " is already occupied");
  }
  const PrefixStats stats = PrefixAt(kp);
  return aggregates().LossAfterInsert(kp, stats.count_less,
                                      sum_k_ - stats.prefix_sum);
}

std::vector<Key> LossLandscape::GapEndpoints(bool interior_only) const {
  std::vector<Key> endpoints;
  ForEachGap(interior_only,
             [&endpoints](Key lo, Key hi, Rank, Int128) {
               endpoints.push_back(lo);
               if (hi != lo) endpoints.push_back(hi);
             });
  return endpoints;
}

std::vector<std::pair<Key, long double>> LossLandscape::Sweep(
    bool interior_only) const {
  std::vector<std::pair<Key, long double>> out;
  const Key lo = interior_only ? min_key_ + 1 : domain_.lo;
  const Key hi = interior_only ? max_key_ - 1 : domain_.hi;
  if (lo > hi) return out;
  out.reserve(static_cast<std::size_t>(
      std::min<std::int64_t>(hi - lo + 1, kSweepReserveCap)));
  const Aggregates agg = aggregates();
  ForEachGapInRange(lo, hi,
                    [&agg, &out](Key glo, Key ghi, Rank count_less,
                                 Int128 prefix_sum) {
                      const Int128 suffix = agg.sum_k - prefix_sum;
                      for (Key kp = glo; kp <= ghi; ++kp) {
                        out.emplace_back(
                            kp, agg.LossAfterInsert(kp, count_less, suffix));
                      }
                    });
  return out;
}

namespace {

/// Candidates per parallel argmax chunk. Fixed (not derived from the
/// thread count) so the chunk boundaries, and with them every counter,
/// are identical for every pool size.
constexpr std::int64_t kArgmaxChunkGaps = 2048;

/// The unit bound of a consumed seed, or of a unit with no admissible
/// candidate.
constexpr double kNoBound = -std::numeric_limits<double>::infinity();

/// Smallest tier the batched gap-bound kernel takes. Measured: below
/// ~tens of gaps (the RMI per-model regime) the staging pass costs more
/// than the vector lanes recover.
constexpr std::size_t kBatchMinTierGaps = 64;

/// Whole-chain error-margin unit for the bound arithmetic: ~450x the
/// IEEE double rounding unit (2^-52 ~ 2.2e-16). Each margin term below
/// multiplies kBoundEps by an upper bound on the *component magnitudes*
/// of its expression (never the possibly-cancelled result); the true
/// rounding error of each <10-op chain is below ~10 units of 2.2e-16
/// relative to those magnitudes, so one kBoundEps unit dominates it —
/// including the int128->double input conversions and the (much
/// smaller) long-double rounding of the exact evaluation the bound must
/// majorize — with ~50x headroom, while costing a fraction of full
/// per-op interval propagation.
constexpr double kBoundEps = 1e-13;

inline double AbsD(double v) { return v < 0 ? -v : v; }

}  // namespace

/// Round-constant part of the admissible upper bound on the Theorem 1
/// loss after inserting one key into the current n_ keys: the per-gap
/// bound (Upper) and the per-tier range bound (UpperRange) of the gap
/// candidate source.
///
/// With x = kp - shift, c = count_less, S = suffix key-sum, the exact
/// loss is  L = max(0, (VarY - Cov^2/VarX) / (n+1)^2)  where VarY is a
/// per-round constant and Cov/VarX are affine/quadratic in x. The bound
/// evaluates the same formula in double with directed error margins:
/// VarY rounded up, Cov^2/VarX rounded down (interval-safe against the
/// cancellation in both numerators), so bound >= exact loss for every
/// candidate — the admissibility the pruned argmax needs to stay
/// bit-identical to the exhaustive scan.
struct LossLandscape::BoundCtx {
  double n1 = 0;          // n + 1
  double inv_n12_ub = 0;  // (1 + slack) / (n+1)^2, rounded up
  double sum_y = 0;       // sum of ranks 1..n+1
  double var_y_ub = 0;    // (n+1)*sumY2 - sumY^2, rounded up
  double sum_k = 0;       // converted exact aggregates
  double abs_sum_k = 0;
  double sum_k2 = 0;      // >= 0
  double sum_kr = 0;
  double abs_sum_kr = 0;
  bool usable = false;

  static BoundCtx Make(std::int64_t n, Int128 sum_k, Int128 sum_k2,
                       Int128 sum_kr) {
    BoundCtx b;
    const std::int64_t n1 = n + 1;
    const Int128 sy = SumRanks(n1);
    const Int128 var_y =
        static_cast<Int128>(n1) * SumRankSquares(n1) - sy * sy;
    b.n1 = static_cast<double>(n1);
    const double n12_lo = b.n1 * b.n1 * (1.0 - 2.0 * kBoundEps);
    b.inv_n12_ub = (1.0 + 6.0 * kBoundEps) / n12_lo;
    b.sum_y = static_cast<double>(sy);
    b.var_y_ub = static_cast<double>(var_y) * (1.0 + 2.0 * kBoundEps);
    b.sum_k = static_cast<double>(sum_k);
    b.abs_sum_k = AbsD(b.sum_k);
    b.sum_k2 = static_cast<double>(sum_k2);
    b.sum_kr = static_cast<double>(sum_kr);
    b.abs_sum_kr = AbsD(b.sum_kr);
    b.usable = std::isfinite(b.var_y_ub) && std::isfinite(b.sum_k) &&
               std::isfinite(b.sum_k2) && std::isfinite(b.sum_kr) &&
               std::isfinite(b.sum_y) && std::isfinite(b.inv_n12_ub) &&
               b.inv_n12_ub > 0;
    return b;
  }

  /// Upper bound for candidate x (shifted key) with c keys below it and
  /// suffix key-sum S. Absolute-error margins are taken against the
  /// *component magnitudes* of each cancellation-prone difference
  /// (VarX, Cov, and their sub-sums), never against the difference
  /// itself, and the final combination rounds VarY up and Cov^2/VarX
  /// down — so the returned value dominates the exact loss.
  ///
  /// Written branch-free (guards as selects, the possibly-poisoned
  /// division discarded by its select) so the batched SoA re-score loop
  /// auto-vectorizes; value-identical to the PR 3/4 branched form.
  double Upper(double x, double c1, double s) const {
    const double ax = AbsD(x);
    const double sx = sum_k + x;
    const double m_sx = abs_sum_k + ax;       // >= |sx| and its err scale
    const double sx2 = sum_k2 + x * x;        // all terms >= 0
    const double xc = x * c1;
    const double axc = AbsD(xc);
    const double sxy = sum_kr + s + xc;
    const double m_sxy = abs_sum_kr + AbsD(s) + axc;
    // VarX = n1*sx2 - sx^2.
    const double a = n1 * sx2;
    const double bb = sx * sx;
    const double varx = a - bb;
    const double e_varx = kBoundEps * (a + bb + m_sx * m_sx);
    // Cov = n1*sxy - sx*sum_y.
    const double cov = n1 * sxy - sx * sum_y;
    const double e_cov = kBoundEps * (n1 * m_sxy + m_sx * sum_y);
    // Lower bound on Cov^2/VarX; zero whenever the VarX interval is not
    // strictly positive (the exact path then degenerates to VarY alone)
    // or the Cov interval straddles zero. The unguarded division may
    // produce inf/NaN; the select discards it exactly when it does.
    const double cov_lo = AbsD(cov) - e_cov;
    const double q_raw =
        (cov_lo * cov_lo) / (varx + e_varx) * (1.0 - 4.0 * kBoundEps);
    const double q_lb = (varx - e_varx > 0 && cov_lo > 0) ? q_raw : 0.0;
    const double num = (var_y_ub - q_lb) + kBoundEps * (var_y_ub + q_lb);
    const double ub = num * inv_n12_ub;
    // Any non-finite intermediate poisons ub; "never prune" is the
    // admissible answer.
    return num <= 0
               ? 0.0
               : (ub >= 0 ? ub : std::numeric_limits<double>::infinity());
  }

  /// Admissible upper bound on the loss over EVERY candidate whose
  /// shifted key lies in [xl, xl + span], given the exact (c1, prefix)
  /// of the range's first gap — the O(1)-per-tier bound of the tiered
  /// scan.
  ///
  /// Soundness. (1) Along the candidate axis, sum(XY)(x) = sum_kr +
  /// (sum_k - p(x)) + x*c1(x) is piecewise linear with non-decreasing
  /// slopes c1 (candidates passing a key gain a rank term) and *upward*
  /// jumps at key crossings (crossing keys {k_i} at candidate x adds
  /// sum(x - k_i) >= 0), so Cov(x) = n1*sum(XY) - (sum_k + x)*sum_y —
  /// also piecewise linear with non-decreasing slopes n1*c1 - sum_y —
  /// lies above its left-endpoint tangent T(x) = a + b*x over the whole
  /// range. (2) If T > 0 on the range then q(x) = Cov(x)^2 / VarX(x)
  /// >= g(x) = T(x)^2 / V(x), where V(x) = VarX(x) = A x^2 + B x + C
  /// (A = n1-1, B = -2 sum_k, C = n1 sum_k2 - sum_k^2) is the same
  /// gap-independent positive-definite parabola for every candidate.
  /// (3) g has exactly two finite critical points: the zero of T
  /// (outside the range, by the positivity check) and one extremum
  /// whose critical value is the tangency level m* = 4(A a^2 - B a b +
  /// C b^2) / (4AC - B^2) (> 0: the numerator is the positive-definite
  /// V-form evaluated at (a, -b); the denominator is -disc(V) > 0), so
  /// min over the range of g >= min(g(xl), g(xh), m*). Evaluating g at
  /// matched endpoints preserves the Cov^2/VarX cancellation that makes
  /// the flat loss landscape separable at all — bounding min Cov and
  /// max VarX independently is hopeless here (measured: never skips a
  /// tier). Directed error margins follow the same component-magnitude
  /// scheme as Upper.
  double UpperRange(double xl, double span, double c1l, double pl) const {
    const double xh = xl + span;
    // Cov at the left endpoint (exact first-gap inputs), rounded down.
    const double s = sum_k - pl;
    const double m_s = abs_sum_k + AbsD(pl);
    const double xc = xl * c1l;
    const double sxy = sum_kr + s + xc;
    const double m_sxy = abs_sum_kr + m_s + AbsD(xc);
    const double sxl = sum_k + xl;
    const double m_sxl = abs_sum_k + AbsD(xl);
    const double covl = n1 * sxy - sxl * sum_y;
    const double e_covl = kBoundEps * (n1 * m_sxy + m_sxl * sum_y);
    // Tangent T(x) = a + b x with both coefficients rounded toward the
    // admissible side (T must stay below the true Cov).
    const double slope = n1 * c1l - sum_y;
    const double e_slope = kBoundEps * (n1 * c1l + sum_y);
    const double b = slope - e_slope;
    const double a = (covl - e_covl) - b * xl;
    const double t_lo = covl - e_covl;           // T(xl)
    const double t_hi = t_lo + b * span;         // T(xh), rounded down
    const double e_t_hi = kBoundEps * (AbsD(t_lo) + AbsD(b) * span);
    double q_lb = 0;
    if (t_lo > 0 && t_hi - e_t_hi > 0) {
      // V at the endpoints, rounded up.
      const double sxh = sum_k + xh;
      const double m_sxh = abs_sum_k + AbsD(xh);
      const double vxl = n1 * (sum_k2 + xl * xl) - sxl * sxl;
      const double e_vxl =
          kBoundEps * (n1 * (sum_k2 + xl * xl) + m_sxl * m_sxl);
      const double vxh = n1 * (sum_k2 + xh * xh) - sxh * sxh;
      const double e_vxh =
          kBoundEps * (n1 * (sum_k2 + xh * xh) + m_sxh * m_sxh);
      // Endpoint values of g, rounded down.
      double lb = std::numeric_limits<double>::infinity();
      if (vxl + e_vxl > 0) {
        lb = std::min(lb, (t_lo * t_lo) / (vxl + e_vxl) *
                              (1.0 - 4.0 * kBoundEps));
      }
      const double th = t_hi - e_t_hi;
      if (vxh + e_vxh > 0) {
        lb = std::min(lb, (th * th) / (vxh + e_vxh) *
                              (1.0 - 4.0 * kBoundEps));
      }
      // Interior tangency level m*, rounded down. Guarded on the
      // denominator staying provably positive (V strictly positive
      // definite); otherwise the interior extremum cannot be certified
      // and the tier is simply not pruned.
      const double cA = n1 - 1.0;
      const double cB = -2.0 * sum_k;
      const double cC = n1 * sum_k2 - sum_k * sum_k;
      const double m_cC = n1 * sum_k2 + abs_sum_k * abs_sum_k;
      const double den = 4.0 * cA * cC - cB * cB;
      const double e_den =
          kBoundEps * (4.0 * cA * m_cC + cB * cB);
      const double num_m =
          4.0 * (cA * a * a - cB * a * b + cC * b * b);
      const double e_num_m = 4.0 * kBoundEps *
          (cA * a * a + AbsD(cB * a * b) + m_cC * b * b);
      if (den - e_den > 0) {
        const double m_star =
            (num_m - e_num_m) / (den + e_den) * (1.0 - 4.0 * kBoundEps);
        lb = std::min(lb, m_star);
      } else {
        lb = 0;
      }
      if (lb > 0 && std::isfinite(lb)) q_lb = lb;
    }
    const double num = (var_y_ub - q_lb) + kBoundEps * (var_y_ub + q_lb);
    if (num <= 0) return 0;
    const double ub = num * inv_n12_ub;
    // Any non-finite/NaN intermediate poisons ub; "never prune" is the
    // admissible answer.
    if (!(ub >= 0)) return std::numeric_limits<double>::infinity();
    return ub;
  }
};

/// The removal-side dual of BoundCtx: an admissible double-precision
/// upper bound on the Theorem 1 loss of the current n keys with one key
/// deleted. With x = kp - shift, r = the key's 1-based rank and
/// sa = the shifted key-sum above it, the exact aggregates are
///   sum(X) = sum_k - x, sum(X^2) = sum_k2 - x^2,
///   sum(XY) = sum_kr - x*r - sa   (keys above kp lose one rank),
/// and ranks become a permutation of 1..n-1. The bound evaluates the
/// same formula in double with the component-magnitude margin scheme of
/// BoundCtx (VarY rounded up, Cov^2/VarX down; differences margined
/// against the sum of their term magnitudes, which for the subtractive
/// aggregates here means sum_k2 + x^2 etc.), so bound >= exact loss for
/// every stored key — the admissibility the pruned removal argmax needs
/// to stay bit-identical to the exhaustive index-ordered scan.
struct LossLandscape::RemovalBoundCtx {
  double n1 = 0;          // n - 1
  double inv_n12_ub = 0;  // (1 + slack) / (n-1)^2, rounded up
  double sum_y = 0;       // sum of ranks 1..n-1
  double var_y_ub = 0;    // (n-1)*sumY2 - sumY^2, rounded up
  double sum_k = 0;       // converted exact aggregates
  double abs_sum_k = 0;
  double sum_k2 = 0;      // >= 0
  double sum_kr = 0;
  double abs_sum_kr = 0;
  bool usable = false;

  static RemovalBoundCtx Make(std::int64_t n, Int128 sum_k, Int128 sum_k2,
                              Int128 sum_kr) {
    RemovalBoundCtx b;
    const std::int64_t n1 = n - 1;
    if (n1 < 2) return b;  // Regression needs two survivors.
    const Int128 sy = SumRanks(n1);
    const Int128 var_y =
        static_cast<Int128>(n1) * SumRankSquares(n1) - sy * sy;
    b.n1 = static_cast<double>(n1);
    const double n12_lo = b.n1 * b.n1 * (1.0 - 2.0 * kBoundEps);
    b.inv_n12_ub = (1.0 + 6.0 * kBoundEps) / n12_lo;
    b.sum_y = static_cast<double>(sy);
    b.var_y_ub = static_cast<double>(var_y) * (1.0 + 2.0 * kBoundEps);
    b.sum_k = static_cast<double>(sum_k);
    b.abs_sum_k = AbsD(b.sum_k);
    b.sum_k2 = static_cast<double>(sum_k2);
    b.sum_kr = static_cast<double>(sum_kr);
    b.abs_sum_kr = AbsD(b.sum_kr);
    b.usable = std::isfinite(b.var_y_ub) && std::isfinite(b.sum_k) &&
               std::isfinite(b.sum_k2) && std::isfinite(b.sum_kr) &&
               std::isfinite(b.sum_y) && std::isfinite(b.inv_n12_ub) &&
               b.inv_n12_ub > 0;
    return b;
  }

  /// Branch-free like BoundCtx::Upper, so the per-candidate pass over
  /// the removal SoA (x from the sorted keys, r = i+1 an induction
  /// variable, sa from the int64 suffix array) auto-vectorizes.
  double Upper(double x, double r, double sa) const {
    const double ax = AbsD(x);
    const double sx = sum_k - x;
    const double m_sx = abs_sum_k + ax;
    const double sx2 = sum_k2 - x * x;
    const double m_sx2 = sum_k2 + x * x;
    const double xr = x * r;
    const double sxy = sum_kr - xr - sa;
    const double m_sxy = abs_sum_kr + AbsD(xr) + AbsD(sa);
    // VarX = n1*sx2 - sx^2 (sx2 itself is a difference here, so its
    // magnitude bound m_sx2 replaces the nonnegative a of the insertion
    // form).
    const double varx = n1 * sx2 - sx * sx;
    const double e_varx = kBoundEps * (n1 * m_sx2 + m_sx * m_sx);
    // Cov = n1*sxy - sx*sum_y.
    const double cov = n1 * sxy - sx * sum_y;
    const double e_cov = kBoundEps * (n1 * m_sxy + m_sx * sum_y);
    const double cov_lo = AbsD(cov) - e_cov;
    const double q_raw =
        (cov_lo * cov_lo) / (varx + e_varx) * (1.0 - 4.0 * kBoundEps);
    const double q_lb = (varx - e_varx > 0 && cov_lo > 0) ? q_raw : 0.0;
    const double num = (var_y_ub - q_lb) + kBoundEps * (var_y_ub + q_lb);
    const double ub = num * inv_n12_ub;
    return num <= 0
               ? 0.0
               : (ub >= 0 ? ub : std::numeric_limits<double>::infinity());
  }

  /// Cov at one candidate, rounded down, with its magnitude scale.
  void CovLow(double x, double r, double sa, double* cov_lo,
              double* m_cov) const {
    const double xr = x * r;
    const double sxy = sum_kr - xr - sa;
    const double m_sxy = abs_sum_kr + AbsD(xr) + AbsD(sa);
    const double sx = sum_k - x;
    const double m_sx = abs_sum_k + AbsD(x);
    const double cov = n1 * sxy - sx * sum_y;
    const double e_cov = kBoundEps * (n1 * m_sxy + m_sx * sum_y);
    *cov_lo = cov - e_cov;
    *m_cov = n1 * m_sxy + m_sx * sum_y;
  }

  /// V(x) = n1*(sum_k2 - x^2) - (sum_k - x)^2 — the removal-side VarX
  /// parabola (downward: A = -(n1+1)), rounded up, plus its magnitude.
  void VarXHigh(double x, double* v_ub, double* m_v) const {
    const double sx = sum_k - x;
    const double m_sx = abs_sum_k + AbsD(x);
    const double v = n1 * (sum_k2 - x * x) - sx * sx;
    const double m = n1 * (sum_k2 + x * x) + m_sx * m_sx;
    *v_ub = v + kBoundEps * m;
    *m_v = m;
  }

  /// Admissible upper bound on the removal loss over EVERY candidate in
  /// a block of consecutive stored keys, from the block's exact
  /// endpoint records (x, rank, suffix-sum).
  ///
  /// Soundness. Along the stored keys the covariance after removal,
  /// Cov(x_j) = n1*sum_kr - K*sy - n1*(x_j r_j + sa_j) + sy*x_j, steps
  /// by (x_{j+1}-x_j)*(sy - n1*r_j) between neighbours — slopes strictly
  /// decreasing in j — so the candidate points form a *concave* chain
  /// and lie on or above the chord through the block's endpoints; a
  /// chord through endpoint values rounded down (and re-lowered by the
  /// chord arithmetic's own error scale) stays below Cov at every
  /// candidate. If that chord is positive at both ends it is positive
  /// across the block, and q_j = Cov_j^2 / V(x_j) >= C(x)^2 / V(x) over
  /// the block's x-range. V is the same downward (A<0) parabola for
  /// every candidate and positive at both endpoints, hence positive on
  /// the whole range, so the continuous min of C^2/V is attained at an
  /// endpoint or at the interior critical value m* = 4(A a^2 - B a b +
  /// C_v b^2)/(4 A C_v - B^2) (the nonzero extremal value of the
  /// ratio); with den = 4AC_v - B^2 < 0 here, a nonnegative numerator
  /// makes m* <= 0 — impossible for the positive ratio, so endpoints
  /// suffice — and a negative numerator yields the m* >= 0 candidate,
  /// folded in rounded down. Directed error margins follow the
  /// component-magnitude scheme throughout.
  double UpperBlock(double xf, double rf, double saf, double xl, double rl,
                    double sal) const {
    double cf = 0;
    double mf = 0;
    double cl = 0;
    double ml = 0;
    CovLow(xf, rf, saf, &cf, &mf);
    CovLow(xl, rl, sal, &cl, &ml);
    double q_lb = 0;
    const double span = xl - xf;
    if (cf > 0 && cl > 0 && span > 0) {
      // Chord through the lowered endpoints, re-lowered by its own
      // arithmetic error scale so it minorizes Cov between them too.
      const double b = (cl - cf) / span;
      const double a_raw = cf - b * xf;
      const double slack =
          kBoundEps * (AbsD(cf) + AbsD(cl) + AbsD(b) * span + mf + ml);
      const double a = a_raw - slack;
      const double t_f = a + b * xf;
      const double t_l = a + b * xl;
      double v_f = 0;
      double m_vf = 0;
      double v_l = 0;
      double m_vl = 0;
      VarXHigh(xf, &v_f, &m_vf);
      VarXHigh(xl, &v_l, &m_vl);
      if (t_f > 0 && t_l > 0 && v_f > 0 && v_l > 0) {
        double lb = std::min(
            (t_f * t_f) / v_f * (1.0 - 4.0 * kBoundEps),
            (t_l * t_l) / v_l * (1.0 - 4.0 * kBoundEps));
        // Interior critical value m* of (a + b x)^2 / (A x^2 + B x + C).
        const double cA = -(n1 + 1.0);
        const double cB = 2.0 * sum_k;
        const double cC = n1 * sum_k2 - sum_k * sum_k;
        const double m_cC = n1 * sum_k2 + abs_sum_k * abs_sum_k;
        const double den = 4.0 * cA * cC - cB * cB;
        const double e_den = kBoundEps * (4.0 * AbsD(cA) * m_cC + cB * cB);
        const double num_m = 4.0 * (cA * a * a - cB * a * b + cC * b * b);
        const double e_num_m =
            4.0 * kBoundEps *
            (AbsD(cA) * a * a + AbsD(cB * a * b) + m_cC * b * b);
        if (den + e_den < 0) {
          if (num_m + e_num_m < 0) {
            // m* > 0: a certified lower bound is |num|_lo / |den|_ub.
            const double m_star = (-(num_m + e_num_m)) /
                                  (e_den - den) * (1.0 - 4.0 * kBoundEps);
            lb = std::min(lb, m_star);
          }
          // num >= 0 -> m* <= 0: no positive interior critical value;
          // the endpoint minimum already covers the range.
        } else {
          // Cannot certify the parabola's orientation: no pruning.
          lb = 0;
        }
        if (lb > 0 && std::isfinite(lb)) q_lb = lb;
      }
    }
    const double num = (var_y_ub - q_lb) + kBoundEps * (var_y_ub + q_lb);
    if (num <= 0) return 0;
    const double ub = num * inv_n12_ub;
    if (!(ub >= 0)) return std::numeric_limits<double>::infinity();
    return ub;
  }
};

template <typename T>
std::vector<T>& LossLandscape::PrepareScratch(std::vector<T>* buf,
                                              std::size_t needed) const {
  if (buf->capacity() < needed) {
    ++scratch_reallocs_;
    std::vector<T> fresh;
    fresh.reserve(std::max(needed, buf->capacity() * 2));
    buf->swap(fresh);
  }
  buf->clear();
  return *buf;
}

namespace {

// Manual AddressSanitizer region annotations for the grow-only scratch
// buffers: the resize(capacity()) pattern leaves capacity-sized stale
// entries *live* as far as the language is concerned, so plain ASan
// cannot see a read that escapes the [0, needed) prefix a scan actually
// prepared. Hard-poisoning the tail turns such an escape into an abort
// (see scratch_canary_test). No-ops in non-ASan builds.
#if defined(__SANITIZE_ADDRESS__)
#define LISPOISON_ASAN_SCRATCH 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define LISPOISON_ASAN_SCRATCH 1
#endif
#endif

#if defined(LISPOISON_ASAN_SCRATCH)
extern "C" {
void __asan_poison_memory_region(const volatile void* addr, std::size_t size);
void __asan_unpoison_memory_region(const volatile void* addr,
                                   std::size_t size);
}
template <typename T>
void ScratchUnpoisonAll(std::vector<T>* buf) {
  if (!buf->empty()) {
    __asan_unpoison_memory_region(buf->data(), buf->size() * sizeof(T));
  }
}
template <typename T>
void ScratchPoisonTail(std::vector<T>* buf, std::size_t needed) {
  if (buf->empty()) return;
  __asan_unpoison_memory_region(buf->data(), needed * sizeof(T));
  if (needed < buf->size()) {
    __asan_poison_memory_region(buf->data() + needed,
                                (buf->size() - needed) * sizeof(T));
  }
}
#else
template <typename T>
void ScratchUnpoisonAll(std::vector<T>*) {}
template <typename T>
void ScratchPoisonTail(std::vector<T>*, std::size_t) {}
#endif

/// Grow-only variant for the flat per-gap arrays whose live prefix is
/// fully overwritten each scan: avoids the O(G) value-initialization
/// PrepareScratch's clear+resize would pay per round. Contract: the
/// caller owns exactly [0, needed) and writes every slot it later
/// reads; stale entries beyond the prepared prefix are never touched.
/// Under ASan the tail [needed, size) is hard-poisoned so any escape
/// aborts rather than silently reading a stale bound.
template <typename T>
void EnsureScratchSize(std::vector<T>* buf, std::size_t needed,
                       std::int64_t* reallocs) {
  if (buf->size() < needed) {
    if (buf->capacity() < needed) {
      ++*reallocs;
      // The reallocation copies the whole old block; lift any manual
      // poison first so the copy itself doesn't fault.
      ScratchUnpoisonAll(buf);
      buf->reserve(std::max(needed, buf->capacity() * 2));
    }
    buf->resize(buf->capacity());
  }
  ScratchPoisonTail(buf, needed);
}

}  // namespace

void LossLandscape::PoisonArgmaxScratchForTesting() const {
  // Sentinel fill: NaN for bound slots (any stale read propagates into
  // a comparison and breaks the argmax invariants loudly), huge values
  // for counts/indices (stale counter reads explode the accounting the
  // tests assert). The fill writes the *whole* buffers, so lift any
  // manual ASan poison first; the next scan's EnsureScratchSize
  // re-establishes the tail poison for its own `needed`.
  const double dnan = std::numeric_limits<double>::quiet_NaN();
  constexpr std::int64_t kCnt =
      std::numeric_limits<std::int64_t>::max() / 3;
  ScratchUnpoisonAll(&argmax_bounds_);
  ScratchUnpoisonAll(&argmax_tier_bounds_);
  ScratchUnpoisonAll(&argmax_tier_suffix_max_);
  ScratchUnpoisonAll(&argmax_tier_suffix_cnt_);
  ScratchUnpoisonAll(&argmax_soa_);
  std::fill(argmax_bounds_.begin(), argmax_bounds_.end(), dnan);
  std::fill(argmax_tier_bounds_.begin(), argmax_tier_bounds_.end(), dnan);
  std::fill(argmax_tier_suffix_max_.begin(), argmax_tier_suffix_max_.end(),
            dnan);
  std::fill(argmax_tier_suffix_cnt_.begin(), argmax_tier_suffix_cnt_.end(),
            kCnt);
  std::fill(argmax_soa_.begin(), argmax_soa_.end(), dnan);
}

// ---------------------------------------------------------------------
// The argmax skeleton. Insertion and removal run one branch-and-bound
// scan over a *candidate source*: groups of consecutive candidate units
// in key order (gap tiers or key blocks). A source supplies the group
// bound, the per-unit bounds of one group (-inf for a unit with no
// admissible candidate) and the exact evaluation of one unit; the
// skeleton owns the walk, the seeding, the pruning and the fan-out.
// Sources are plain structs passed as template arguments, so the bound
// kernels inline into the scan loops.
// ---------------------------------------------------------------------

/// The first-maximum-in-key-order rule in order-independent form: a
/// strictly larger loss wins, an equal loss only with a smaller key.
/// Every candidate and every chunk winner folds through it, so the
/// winner does not depend on the visiting order.
struct LossLandscape::ArgmaxFold {
  Candidate best;
  bool have = false;

  void Offer(Key key, long double loss) {
    if (!have || loss > best.loss || (loss == best.loss && key < best.key)) {
      best.key = key;
      best.loss = loss;
      have = true;
    }
  }
};

LossLandscape::ScanMode LossLandscape::PickScanMode(
    const ArgmaxOptions& argmax, bool admissible, ArgmaxStats* stats) {
  if (!argmax.prune) return ScanMode::kExhaustive;
  if (!admissible) {
    // Bound arithmetic not provably admissible on these aggregates:
    // the exhaustive scan keeps the result exact.
    stats->fallback_rounds = 1;
    return ScanMode::kExhaustive;
  }
  return ScanMode::kTiered;
}

template <typename Src>
LossLandscape::ArgmaxFold LossLandscape::RunArgmax(const Src& src,
                                                   ScanMode mode,
                                                   ThreadPool* pool,
                                                   std::int64_t fan_out_units,
                                                   ArgmaxStats* stats) const {
  const std::size_t groups = src.num_groups();
  const std::size_t stride = src.MaxUnits();
  const bool pooled = pool != nullptr && pool->num_threads() > 1;

  // The incumbent: the seed's exact loss, fixed before any fan-out, so
  // every chunk prunes against the same value and no chunk task writes
  // anything another reads. Live units, counted for a pool only: those
  // of every group whose bound reaches it, which the sweep may re-score
  // (all of them when exhaustive).
  ArgmaxFold incumbent;
  std::size_t seed_g = groups;
  std::int64_t live_units = src.total;
  if (mode == ScanMode::kTiered) {
    // Shared: the group bounds, and the seed group's unit bounds in
    // slot 0 of argmax_bounds_ (kept when a fan-out grows the buffer).
    // Slot 1 is the serial sweep's.
    EnsureScratchSize(&argmax_tier_bounds_, groups, &scratch_reallocs_);
    EnsureScratchSize(&argmax_bounds_, 2 * stride, &scratch_reallocs_);
    EnsureScratchSize(&argmax_soa_, Src::kSoaLanes * stride,
                      &scratch_reallocs_);
    double* group_bound = argmax_tier_bounds_.data();
    for (std::size_t g = 0; g < groups; ++g) {
      group_bound[g] = src.GroupBound(g);
    }
    stats->bound_evals += static_cast<std::int64_t>(groups);

    // Seed inside the group with the highest bound (the first maximum,
    // so every partition takes the same seed): its unit bounds are
    // staged once for the sweep to reuse, and its best unit is
    // exact-checked and marked consumed. Groups are never empty.
    seed_g = static_cast<std::size_t>(
        std::max_element(group_bound, group_bound + groups) - group_bound);
    if (seed_g != groups) {
      double* seed_bounds = argmax_bounds_.data();
      src.UnitBounds(seed_g, seed_bounds, argmax_soa_.data(), stats);
      const std::int64_t seed_j =
          std::max_element(seed_bounds, seed_bounds + src.Units(seed_g)) -
          seed_bounds;
      if (seed_bounds[seed_j] != kNoBound) {
        src.Exact(seed_g, seed_j, &incumbent, stats);
        seed_bounds[seed_j] = kNoBound;
      }
    }
    if (pooled) {
      live_units = 0;
      for (std::size_t g = 0; g < groups; ++g) {
        if (!incumbent.have || group_bound[g] >= incumbent.best.loss) {
          live_units += src.Units(g);
        }
      }
    }
  }

  // Fan out only when a multi-worker pool has fan_out_units live units
  // to split; otherwise the scan is the serial one, a single chunk.
  // Chunks are consecutive groups holding >= kArgmaxChunkGaps units: a
  // pure function of the structure, so the partition, and with it every
  // counter and the reduced winner, is the same for every pool size
  // above one.
  const bool fan_out = pooled && live_units >= fan_out_units;
  auto& chunks = PrepareScratch(
      &argmax_chunks_,
      fan_out ? static_cast<std::size_t>(src.total / kArgmaxChunkGaps) + 1
              : 1);
  if (fan_out) {
    std::size_t first = 0;
    std::int64_t acc = 0;
    for (std::size_t g = 0; g < groups; ++g) {
      acc += src.Units(g);
      if (acc >= kArgmaxChunkGaps) {
        chunks.push_back(ArgmaxChunk{first, g + 1});
        first = g + 1;
        acc = 0;
      }
    }
    if (first < groups) chunks.push_back(ArgmaxChunk{first, groups});
  } else {
    chunks.push_back(ArgmaxChunk{0, groups});
  }

  if (mode == ScanMode::kTiered) {
    // Shared: per chunk, the suffix maxima of its group bounds and its
    // suffix unit counts.
    EnsureScratchSize(&argmax_tier_suffix_max_, groups, &scratch_reallocs_);
    EnsureScratchSize(&argmax_tier_suffix_cnt_, groups, &scratch_reallocs_);
    const double* group_bound = argmax_tier_bounds_.data();
    double* suffix_max = argmax_tier_suffix_max_.data();
    std::int64_t* suffix_cnt = argmax_tier_suffix_cnt_.data();
    for (const ArgmaxChunk& chunk : chunks) {
      double run_max = kNoBound;
      std::int64_t run_cnt = 0;
      for (std::size_t g = chunk.end; g > chunk.first; --g) {
        run_cnt += src.Units(g - 1);
        if (group_bound[g - 1] > run_max) run_max = group_bound[g - 1];
        suffix_max[g - 1] = run_max;
        suffix_cnt[g - 1] = run_cnt;
      }
    }
  }

  ArgmaxFold fold = incumbent;
  if (!fan_out) {
    ScanArgmaxChunk(src, mode, chunks.front(), 0, seed_g, &fold, stats);
    return fold;
  }
  if (mode == ScanMode::kTiered) {
    // A chunk whose every group bound is below the incumbent is settled
    // here, counted as the sweep's first-group exit would count it, and
    // never dispatched; the live chunks keep their key order.
    const double* suffix_max = argmax_tier_suffix_max_.data();
    const std::int64_t* suffix_cnt = argmax_tier_suffix_cnt_.data();
    std::size_t live = 0;
    for (const ArgmaxChunk& chunk : chunks) {
      if (incumbent.have && suffix_max[chunk.first] < incumbent.best.loss) {
        stats->pruned_gaps += suffix_cnt[chunk.first];
        stats->cached_bounds += suffix_cnt[chunk.first];
      } else {
        chunks[live++] = chunk;
      }
    }
    chunks.resize(live);
  }
  // One task per worker, each sweeping every tasks-th live chunk with
  // its own scratch slot. Every chunk starts from the incumbent, never
  // from the task's earlier chunks, so no counter depends on which task
  // ran it.
  const std::size_t tasks = std::min<std::size_t>(
      chunks.size(), static_cast<std::size_t>(pool->num_threads()));
  if (mode == ScanMode::kTiered) {
    EnsureScratchSize(&argmax_bounds_, (tasks + 1) * stride,
                      &scratch_reallocs_);
    EnsureScratchSize(&argmax_soa_, tasks * Src::kSoaLanes * stride,
                      &scratch_reallocs_);
  }
  std::vector<ArgmaxFold> task_fold(tasks);
  std::vector<ArgmaxStats> task_stats(tasks);
  pool->ParallelFor(
      static_cast<std::int64_t>(tasks),
      [this, &src, mode, seed_g, &chunks, tasks, &incumbent, &task_fold,
       &task_stats](std::int64_t t) {
        const auto slot = static_cast<std::size_t>(t);
        ArgmaxFold best;
        ArgmaxStats local;
        for (std::size_t ci = slot; ci < chunks.size(); ci += tasks) {
          ArgmaxFold chunk_fold = incumbent;
          ScanArgmaxChunk(src, mode, chunks[ci], slot, seed_g, &chunk_fold,
                          &local);
          if (chunk_fold.have) {
            best.Offer(chunk_fold.best.key, chunk_fold.best.loss);
          }
        }
        task_fold[slot] = best;
        task_stats[slot] = local;
      });
  // The fold rule is order-independent, so folding the task winners
  // reproduces the serial scan's first maximum.
  for (std::size_t t = 0; t < tasks; ++t) {
    stats->Add(task_stats[t]);
    if (task_fold[t].have) {
      fold.Offer(task_fold[t].best.key, task_fold[t].best.loss);
    }
  }
  return fold;
}

template <typename Src>
void LossLandscape::ScanArgmaxChunk(const Src& src, ScanMode mode,
                                    const ArgmaxChunk& chunk,
                                    std::size_t slot, std::size_t seed_g,
                                    ArgmaxFold* fold,
                                    ArgmaxStats* stats) const {
  // A bound that cannot reach the running best prunes (>= keeps exact
  // ties alive for the smaller-key rule).
  auto below_best = [fold](double bound) {
    return fold->have && bound < fold->best.loss;
  };

  if (mode == ScanMode::kExhaustive) {
    for (std::size_t g = chunk.first; g < chunk.end; ++g) {
      const std::int64_t m = src.Units(g);
      for (std::int64_t j = 0; j < m; ++j) src.Exact(g, j, fold, stats);
    }
    return;
  }

  // Tiered sweep in key order over the bounds RunArgmax prepared.
  // Accounting: a unit is "cached" when its group's bound disposed of
  // it, "invalidated" when its group survived and it was scored alone.
  const std::size_t stride = src.MaxUnits();
  double* soa = argmax_soa_.data() + slot * Src::kSoaLanes * stride;
  const double* seed_bounds = argmax_bounds_.data();
  double* scratch = argmax_bounds_.data() + (slot + 1) * stride;
  const double* group_bound = argmax_tier_bounds_.data();
  const double* suffix_max = argmax_tier_suffix_max_.data();
  const std::int64_t* suffix_cnt = argmax_tier_suffix_cnt_.data();
  for (std::size_t g = chunk.first; g < chunk.end; ++g) {
    if (below_best(suffix_max[g])) {
      stats->pruned_gaps += suffix_cnt[g];
      stats->cached_bounds += suffix_cnt[g];
      return;
    }
    const std::int64_t m = src.Units(g);
    if (below_best(group_bound[g])) {
      stats->pruned_gaps += m;
      stats->cached_bounds += m;
      continue;
    }
    stats->invalidated_gaps += m;
    const double* unit_bound = seed_bounds;
    if (g != seed_g) {
      src.UnitBounds(g, scratch, soa, stats);
      unit_bound = scratch;
    }
    for (std::int64_t j = 0; j < m; ++j) {
      const double b = unit_bound[j];
      if (b == kNoBound) continue;  // Consumed seed, or no candidate.
      if (below_best(b)) {
        ++stats->pruned_gaps;
        continue;
      }
      src.Exact(g, j, fold, stats);
    }
  }
}

/// Insertion candidates. A unit is one maximal gap inside the scan
/// range, offered at its two endpoints (Theorem 2) minus the excluded
/// keys. A group is the in-range slice of one tier.
struct LossLandscape::GapSource {
  static constexpr std::size_t kSoaLanes = 4;

  const LossLandscape& ll;
  const GapSnapshot& snap;
  const std::vector<GapGroup>& groups;
  const BoundCtx& ctx;
  const std::unordered_set<Key>* excluded;
  std::int64_t total;  // Units over all groups.

  std::size_t num_groups() const { return groups.size(); }
  std::int64_t Units(std::size_t g) const {
    return static_cast<std::int64_t>(groups[g].end - groups[g].begin);
  }
  std::size_t MaxUnits() const {
    return static_cast<std::size_t>(ll.gaps_.tier_cap());
  }
  const TieredGaps::Tier& TierOf(std::size_t g) const {
    return ll.gaps_.tiers()[groups[g].tier];
  }
  bool Excluded(Key k) const {
    return excluded != nullptr && excluded->count(k) != 0;
  }
  /// What turns a record of tier \p t into the snapshot's count of
  /// keys below it and their shifted sum.
  Rank CountOffset(const TieredGaps::Tier& t) const {
    return t.delta_cnt - snap.rank_adj;
  }
  Int128 SumOffset(const TieredGaps::Tier& t) const {
    return t.delta_sum - snap.prefix_adj;
  }

  /// The covariance left-tangent bound over the tier's key range
  /// (BoundCtx::UpperRange), from the tier's first gap record, or from
  /// the group's first when the tier's lies below a removed minimum. It
  /// ignores `excluded`: an excluded endpoint only makes it an
  /// admissible over-estimate.
  double GroupBound(std::size_t g) const {
    const TieredGaps::Tier& t = TierOf(g);
    const TieredGaps::GapRec& front = t.gaps.front().lo < snap.valid_from
                                          ? t.gaps[groups[g].begin]
                                          : t.gaps.front();
    return ctx.UpperRange(static_cast<double>(front.lo - ll.shift_),
                          static_cast<double>(t.hi - front.lo),
                          static_cast<double>(front.cnt + CountOffset(t) + 1),
                          static_cast<double>(front.sum + SumOffset(t)));
  }

  /// max(bound(lo), bound(hi)) per gap over its non-excluded endpoints.
  /// A whole tier of at least kBatchMinTierGaps gaps with no exclusions
  /// takes the batched kernel: a scalar pass
  /// unpacks the gap records into \p soa, then the branch-free
  /// BoundCtx::Upper auto-vectorizes over it. Both paths give the same
  /// values and count the same bound_evals.
  void UnitBounds(std::size_t g, double* out, double* soa,
                  ArgmaxStats* stats) const {
    const TieredGaps::Tier& t = TierOf(g);
    const TieredGaps::GapRec* gaps = t.gaps.data() + groups[g].begin;
    const auto m = static_cast<std::size_t>(Units(g));
    const Key shift = ll.shift_;
    const Int128 sum_k = snap.agg.sum_k;
    const Rank cnt_off = CountOffset(t) + 1;
    const Int128 sum_off = SumOffset(t);
    if (excluded == nullptr && m >= kBatchMinTierGaps && m == t.gaps.size()) {
      double* x_lo = soa;
      double* x_hi = soa + m;
      double* c1 = soa + 2 * m;
      double* s = soa + 3 * m;
      std::int64_t evals = 0;
      for (std::size_t j = 0; j < m; ++j) {
        x_lo[j] = static_cast<double>(gaps[j].lo - shift);
        x_hi[j] = static_cast<double>(gaps[j].hi - shift);
        c1[j] = static_cast<double>(gaps[j].cnt + cnt_off);
        s[j] = static_cast<double>(sum_k - (gaps[j].sum + sum_off));
        evals += gaps[j].hi != gaps[j].lo ? 2 : 1;
      }
      stats->bound_evals += evals;
      const BoundCtx c = ctx;  // Local copy: no aliasing against the lanes.
      for (std::size_t j = 0; j < m; ++j) {
        const double b1 = c.Upper(x_lo[j], c1[j], s[j]);
        const double b2 = c.Upper(x_hi[j], c1[j], s[j]);
        out[j] = b2 > b1 ? b2 : b1;
      }
      return;
    }
    for (std::size_t j = 0; j < m; ++j) {
      const TieredGaps::GapRec& r = gaps[j];
      const double c1 = static_cast<double>(r.cnt + cnt_off);
      const double s = static_cast<double>(sum_k - (r.sum + sum_off));
      double bnd = -std::numeric_limits<double>::infinity();
      if (!Excluded(r.lo)) {
        bnd = ctx.Upper(static_cast<double>(r.lo - shift), c1, s);
        ++stats->bound_evals;
      }
      if (r.hi != r.lo && !Excluded(r.hi)) {
        const double b2 = ctx.Upper(static_cast<double>(r.hi - shift), c1, s);
        ++stats->bound_evals;
        if (b2 > bnd) bnd = b2;
      }
      out[j] = bnd;
    }
  }

  void Exact(std::size_t g, std::int64_t j, ArgmaxFold* fold,
             ArgmaxStats* stats) const {
    const TieredGaps::Tier& t = TierOf(g);
    const TieredGaps::GapRec& r =
        t.gaps[groups[g].begin + static_cast<std::size_t>(j)];
    const Rank count_less = r.cnt + CountOffset(t);
    const Int128 suffix = snap.agg.sum_k - (r.sum + SumOffset(t));
    auto offer = [&](Key kp) {
      if (Excluded(kp)) return;
      fold->Offer(kp, snap.agg.LossAfterInsert(kp, count_less, suffix));
      ++stats->exact_evals;
    };
    offer(r.lo);
    if (r.hi != r.lo) offer(r.hi);
  }
};

Result<LossLandscape::Candidate> LossLandscape::FindOptimal(
    bool interior_only, const std::unordered_set<Key>* excluded,
    ThreadPool* pool) const {
  return FindOptimal(interior_only, excluded, pool, ArgmaxOptions{});
}

// The pruned pipelines are provably admissible only where the exact
// Int128 aggregate arithmetic they majorize cannot overflow: with
// n1 = n+1 keys of shifted magnitude <= S, the Theorem 1 numerators
// reach n1^2*S^2 (VarX), n1^3*S (Cov) and n1^4 (VarY), all of which
// must stay below 2^126. This replaces PR 3's looser span-< 2^62
// test, under which wide domains could overflow the "exact"
// aggregates and silently void the bit-identity the differential
// suites pin (the exhaustive fallback keeps prune-vs-exhaustive
// trivially identical there). It also keeps the bound kernels' int64
// candidate shifts — and the removal SoA's int64 suffix sums, which
// stay below n*S — safe (n1*S < 2^63 implies S < 2^62). The removal
// side's n1 = n-1 aggregates are strictly smaller, so one guard covers
// both directions.
bool LossLandscape::PruneDomainOk() const {
  const Int128 n1 = static_cast<Int128>(n_) + 1;
  if (n1 >= (static_cast<Int128>(1) << 31)) return false;  // n1^4 guard
  Int128 s = static_cast<Int128>(domain_.hi) - shift_;
  const Int128 s_lo = static_cast<Int128>(shift_) - domain_.lo;
  if (s_lo > s) s = s_lo;
  if (s < 1) s = 1;
  if (n1 * s >= (static_cast<Int128>(1) << 63)) return false;  // VarX
  const Int128 limit = static_cast<Int128>(1) << 126;
  return s < limit / (n1 * n1 * n1);  // Cov (n1^3 < 2^93: no overflow)
}

Result<LossLandscape::Candidate> LossLandscape::FindOptimal(
    bool interior_only, const std::unordered_set<Key>* excluded,
    ThreadPool* pool, const ArgmaxOptions& argmax, ArgmaxStats* stats) const {
  GapSnapshot snap;
  snap.agg = aggregates();
  snap.lo = interior_only ? min_key_ + 1 : domain_.lo;
  snap.hi = interior_only ? max_key_ - 1 : domain_.hi;
  snap.valid_from = domain_.lo;
  return ScanGaps(snap, excluded, pool, argmax, stats);
}

Result<LossLandscape::Candidate> LossLandscape::FindOptimalWithoutEdge(
    Edge edge, Key key, const std::unordered_set<Key>* excluded,
    const ArgmaxOptions& argmax, ArgmaxStats* stats) const {
  if (n_ < 2) {
    return Status::FailedPrecondition(
        "taking an edge key out needs at least two stored keys");
  }
  GapSnapshot snap;
  snap.agg = aggregates();
  snap.valid_from = domain_.lo;
  if (edge == Edge::kMin) {
    snap.agg.RemoveSmallest(key);
    snap.lo = SecondMinKey() + 1;
    snap.hi = max_key_ - 1;
    // Every candidate lies above the removed key, which its record
    // still counts; records below it count nothing to remove.
    snap.rank_adj = 1;
    snap.prefix_adj = static_cast<Int128>(key) - shift_;
    snap.valid_from = key;
  } else {
    snap.agg.RemoveLargest(key);
    snap.lo = min_key_ + 1;
    snap.hi = SecondMaxKey() - 1;
  }
  return ScanGaps(snap, excluded, /*pool=*/nullptr, argmax, stats);
}

Result<LossLandscape::Candidate> LossLandscape::ScanGaps(
    const GapSnapshot& snap, const std::unordered_set<Key>* excluded,
    ThreadPool* pool, const ArgmaxOptions& argmax, ArgmaxStats* stats) const {
  ArgmaxStats local;
  local.rounds = 1;
  const BoundCtx ctx = BoundCtx::Make(snap.agg.n, snap.agg.sum_k,
                                      snap.agg.sum_k2, snap.agg.sum_kr);
  const ScanMode mode =
      PickScanMode(argmax, PruneDomainOk() && ctx.usable, &local);

  // The scan range's gaps as groups: each tier's in-range slice. The
  // range ends at an occupied key or a domain edge, so it never clips a
  // gap and membership is a whole-gap test; only the edge tiers have
  // out-of-range gaps.
  const Key lo = snap.lo;
  const Key hi = snap.hi;
  const std::vector<TieredGaps::Tier>& tiers = gaps_.tiers();
  auto& groups = PrepareScratch(&argmax_gap_groups_, tiers.size());
  std::int64_t units = 0;
  for (std::size_t ti = lo <= hi ? gaps_.FirstTierNotBelow(lo) : tiers.size();
       ti < tiers.size() && tiers[ti].lo <= hi; ++ti) {
    const std::vector<TieredGaps::GapRec>& gs = tiers[ti].gaps;
    std::size_t b = 0;
    std::size_t e = gs.size();
    while (b < e && gs[b].hi < lo) ++b;
    while (e > b && gs[e - 1].lo > hi) --e;
    if (b < e) {
      groups.push_back(GapGroup{ti, b, e});
      units += static_cast<std::int64_t>(e - b);
    }
  }

  const ArgmaxFold fold =
      RunArgmax(GapSource{*this, snap, groups, ctx, excluded, units}, mode,
                pool, argmax.fan_out_units, &local);
  if (stats != nullptr) stats->Add(local);
  if (!fold.have) {
    return Status::ResourceExhausted(
        "no unoccupied candidate keys in the poisoning range");
  }
  return fold.best;
}

void LossLandscape::EnsureRemovalSoa() const {
  const bool want_sa = PruneDomainOk();
  if (rem_soa_.built() && (rem_soa_.with_sa() || !want_sa)) return;
  rem_soa_.StartBuild(n_, want_sa, shift_);
  // Current keys = (base minus tombstones) merged with the inserted
  // overlay; both inputs are sorted and removed_ is a subsequence of
  // base_keys_.
  std::size_t bi = 0;
  std::size_t ri = 0;
  std::size_t ii = 0;
  while (bi < base_keys_.size() || ii < inserted_.size()) {
    if (bi < base_keys_.size() && ri < removed_.size() &&
        base_keys_[bi] == removed_[ri]) {
      ++bi;
      ++ri;
      continue;
    }
    if (ii >= inserted_.size() ||
        (bi < base_keys_.size() && base_keys_[bi] < inserted_[ii])) {
      rem_soa_.AppendSorted(base_keys_[bi++]);
    } else {
      rem_soa_.AppendSorted(inserted_[ii++]);
    }
  }
  rem_soa_.FinishBuild();
}

long double LossLandscape::LossWithoutKey(Key key, std::int64_t rank,
                                          std::int64_t sa) const {
  const std::int64_t n1 = n_ - 1;
  const Int128 x = static_cast<Int128>(key) - shift_;
  const Int128 sum_xy =
      sum_kr_ - x * static_cast<Int128>(rank) - static_cast<Int128>(sa);
  return LossFromSums(n1, sum_k_ - x, sum_k2_ - x * x, SumRanks(n1),
                      SumRankSquares(n1), sum_xy);
}

/// Removal candidates. A unit is one stored key (skipped when outside
/// `allowed`), a group one block of the removal SoA: the commit
/// structure doubles as the bound tier structure, so the next round's
/// block bounds see every commit exactly.
struct LossLandscape::KeySource {
  static constexpr std::size_t kSoaLanes = 0;  // Blocks are SoA already.

  const LossLandscape& ll;
  const RemovalBoundCtx& ctx;
  const std::unordered_set<Key>* allowed;
  std::int64_t total;  // Stored keys.

  const RemovalSoa::Block& block(std::size_t b) const {
    return ll.rem_soa_.block(b);
  }
  std::size_t num_groups() const { return ll.rem_soa_.block_count(); }
  std::int64_t Units(std::size_t b) const {
    return static_cast<std::int64_t>(block(b).keys.size());
  }
  std::size_t MaxUnits() const {
    return static_cast<std::size_t>(ll.rem_soa_.block_cap());
  }
  bool Allowed(Key k) const {
    return allowed == nullptr || allowed->count(k) != 0;
  }

  /// The chord bound (RemovalBoundCtx::UpperBlock) from the block's
  /// exact endpoint records; the last key's global suffix is sum_after
  /// itself, since sa_local.back() == 0. It ignores `allowed`: an
  /// admissible over-estimate, the per-key bounds enforce it.
  double GroupBound(std::size_t b) const {
    const RemovalSoa::Block& blk = block(b);
    const Key shift = ll.shift_;
    const double x_first = static_cast<double>(blk.keys.front() - shift);
    const double r_first = static_cast<double>(blk.count_before + 1);
    const double sa_first =
        static_cast<double>(blk.sa_local.front() + blk.sum_after);
    if (blk.keys.size() == 1) return ctx.Upper(x_first, r_first, sa_first);
    return ctx.UpperBlock(
        x_first, r_first, sa_first,
        static_cast<double>(blk.keys.back() - shift),
        static_cast<double>(blk.count_before +
                            static_cast<std::int64_t>(blk.keys.size())),
        static_cast<double>(blk.sum_after));
  }

  /// Per-key bounds straight off the block arrays; the rank/suffix
  /// reconstruction adds two loop-invariant scalars, so the allowed-free
  /// loop auto-vectorizes.
  void UnitBounds(std::size_t b, double* out, double* /*soa*/,
                  ArgmaxStats* stats) const {
    const RemovalSoa::Block& blk = block(b);
    const Key* keys = blk.keys.data();
    const std::int64_t* sal = blk.sa_local.data();
    const std::size_t m = blk.keys.size();
    const double rank0 = static_cast<double>(blk.count_before + 1);
    const double sa_off = static_cast<double>(blk.sum_after);
    const Key shift = ll.shift_;
    if (allowed == nullptr) {
      const RemovalBoundCtx c = ctx;  // Local copy: no aliasing.
      for (std::size_t j = 0; j < m; ++j) {
        out[j] = c.Upper(static_cast<double>(keys[j] - shift),
                         rank0 + static_cast<double>(j),
                         static_cast<double>(sal[j]) + sa_off);
      }
      stats->bound_evals += static_cast<std::int64_t>(m);
      return;
    }
    for (std::size_t j = 0; j < m; ++j) {
      if (!Allowed(keys[j])) {
        out[j] = -std::numeric_limits<double>::infinity();
        continue;
      }
      out[j] = ctx.Upper(static_cast<double>(keys[j] - shift),
                         rank0 + static_cast<double>(j),
                         static_cast<double>(sal[j]) + sa_off);
      ++stats->bound_evals;
    }
  }

  void Exact(std::size_t b, std::int64_t j, ArgmaxFold* fold,
             ArgmaxStats* stats) const {
    const RemovalSoa::Block& blk = block(b);
    const auto jj = static_cast<std::size_t>(j);
    const Key kp = blk.keys[jj];
    if (!Allowed(kp)) return;
    fold->Offer(kp, ll.LossWithoutKey(kp, blk.count_before + j + 1,
                                      blk.sa_local[jj] + blk.sum_after));
    ++stats->exact_evals;
  }
};

Result<LossLandscape::Candidate> LossLandscape::FindOptimalRemoval(
    const std::unordered_set<Key>* allowed, ThreadPool* pool,
    const ArgmaxOptions& argmax, ArgmaxStats* stats) const {
  ArgmaxStats local;
  local.rounds = 1;
  if (n_ < 3) {
    if (stats != nullptr) stats->Add(local);
    return Status::FailedPrecondition(
        "removal argmax needs at least three stored keys");
  }
  EnsureRemovalSoa();

  ArgmaxFold fold;
  if (!rem_soa_.with_sa()) {
    // Wide-domain fallback: exact Int128 reverse block walk
    // accumulating the suffix key-sums on the fly (the
    // order-independent tie rule makes the scan direction immaterial).
    if (argmax.prune) local.fallback_rounds = 1;
    Int128 sa = 0;
    const std::int64_t n1 = n_ - 1;
    for (std::size_t b = rem_soa_.block_count(); b > 0; --b) {
      const RemovalSoa::Block& blk = rem_soa_.block(b - 1);
      for (std::size_t j = blk.keys.size(); j > 0; --j) {
        const Key kp = blk.keys[j - 1];
        const Int128 x = static_cast<Int128>(kp) - shift_;
        if (allowed == nullptr || allowed->count(kp) != 0) {
          const Int128 rank =
              blk.count_before + static_cast<std::int64_t>(j);
          const Int128 sum_xy = sum_kr_ - x * rank - sa;
          fold.Offer(kp, LossFromSums(n1, sum_k_ - x, sum_k2_ - x * x,
                                      SumRanks(n1), SumRankSquares(n1),
                                      sum_xy));
          ++local.exact_evals;
        }
        sa += x;
      }
    }
  } else {
    const RemovalBoundCtx ctx =
        RemovalBoundCtx::Make(n_, sum_k_, sum_k2_, sum_kr_);
    const ScanMode mode = PickScanMode(argmax, ctx.usable, &local);
    fold = RunArgmax(KeySource{*this, ctx, allowed, rem_soa_.size()}, mode,
                     pool, argmax.fan_out_units, &local);
  }
  if (stats != nullptr) stats->Add(local);
  if (!fold.have) {
    return Status::ResourceExhausted(
        "no allowed removal candidate among the stored keys");
  }
  return fold.best;
}

Key LossLandscape::SecondMinKey() const {
  // The next occupied key above the minimum: min + 1 itself when
  // occupied, else one past the gap containing it. Overlay-agnostic, so
  // it stays exact under removals.
  const Key c = min_key_ + 1;
  std::size_t ti = 0;
  std::size_t gi = 0;
  if (!gaps_.Locate(c, &ti, &gi)) return c;
  return gaps_.tiers()[ti].gaps[gi].hi + 1;
}

Key LossLandscape::SecondMaxKey() const {
  const Key c = max_key_ - 1;
  std::size_t ti = 0;
  std::size_t gi = 0;
  if (!gaps_.Locate(c, &ti, &gi)) return c;
  return gaps_.tiers()[ti].gaps[gi].lo - 1;
}

LossLandscape::Aggregates LossLandscape::aggregates() const {
  Aggregates agg;
  agg.n = n_;
  agg.shift = shift_;
  agg.sum_k = sum_k_;
  agg.sum_k2 = sum_k2_;
  agg.sum_kr = sum_kr_;
  return agg;
}

long double LossLandscape::Aggregates::Loss() const {
  return LossFromSums(n, sum_k, sum_k2, SumRanks(n), SumRankSquares(n),
                      sum_kr);
}

long double LossLandscape::Aggregates::LossAfterInsert(
    Key kp, Rank count_less, Int128 suffix_sum) const {
  const std::int64_t n1 = n + 1;
  const Int128 kp_s = static_cast<Int128>(kp) - shift;
  // Every key above kp gains one rank, adding its (shifted) value once
  // to sum(XY); kp itself enters with rank count_less + 1.
  return LossFromSums(n1, sum_k + kp_s, sum_k2 + kp_s * kp_s, SumRanks(n1),
                      SumRankSquares(n1),
                      sum_kr + suffix_sum + kp_s * (count_less + 1));
}

void LossLandscape::Aggregates::Insert(Key kp, Rank count_less,
                                       Int128 suffix_sum) {
  const Int128 kp_s = static_cast<Int128>(kp) - shift;
  sum_kr += suffix_sum + kp_s * (count_less + 1);
  sum_k += kp_s;
  sum_k2 += kp_s * kp_s;
  n += 1;
}

void LossLandscape::Aggregates::Remove(Key kp, Rank count_less,
                                       Int128 suffix_sum_above) {
  const Int128 kp_s = static_cast<Int128>(kp) - shift;
  sum_kr -= suffix_sum_above + kp_s * (count_less + 1);
  sum_k -= kp_s;
  sum_k2 -= kp_s * kp_s;
  n -= 1;
}

}  // namespace lispoison
