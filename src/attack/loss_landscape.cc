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

}  // namespace

/// The rank side of the Theorem 1 loss over n points, whose ranks are a
/// permutation of 1..n: their sum, the n^2-scaled variance
/// n*sum(r^2) - (sum r)^2 exactly and in long double, and n^2. One scan
/// evaluates every candidate at the same point count, so it computes
/// these (two Int128 divisions among them) once.
struct LossLandscape::RankMoments {
  std::int64_t n = 0;
  Int128 sum_y = 0;
  Int128 var_y = 0;
  long double var_y_ld = 0;
  long double n2 = 0;

  static RankMoments Of(std::int64_t n) {
    RankMoments m;
    m.n = n;
    const Int128 nn = n;
    m.sum_y = nn * (nn + 1) / 2;
    m.var_y = nn * (nn * (nn + 1) * (2 * nn + 1) / 6) - m.sum_y * m.sum_y;
    m.var_y_ld = ToLongDouble(m.var_y);
    m.n2 = static_cast<long double>(n) * static_cast<long double>(n);
    return m;
  }

  /// Theorem 1 loss from exact (n^2-scaled) aggregate numerators:
  /// L = [VarY_n - CovXY_n^2 / VarX_n] / n^2 where *_n = n^2 * moment.
  long double Loss(Int128 sum_x, Int128 sum_x2, Int128 sum_xy) const {
    const Int128 nn = n;
    const Int128 var_x_n = nn * sum_x2 - sum_x * sum_x;
    const Int128 cov_n = nn * sum_xy - sum_x * sum_y;
    if (var_x_n <= 0) {
      // All keys identical: the regression degenerates to a constant.
      long double loss = var_y_ld / n2;
      return loss < 0 ? 0 : loss;
    }
    const long double cov = ToLongDouble(cov_n);
    long double loss = (var_y_ld - cov * cov / ToLongDouble(var_x_n)) / n2;
    return loss < 0 ? 0 : loss;
  }
};

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
    // Two-pass chunked scan: (1) per-chunk partial sums into the chunk's
    // base_prefix_ slots, per-chunk aggregate totals and gap counts,
    // (2) serial exclusive scans of the chunk totals and counts, (3) a
    // parallel pass that adds each chunk's offset to its prefix slots and
    // writes its gap records straight into their final positions. Every
    // sum is exact Int128, so the stitched values equal the serial
    // loop's bit-for-bit.
    //
    // The gap *ending* at key i (between key i-1 and key i) belongs to
    // the chunk containing i, whose cursor re-derives from its left
    // neighbour — exactly the serial walk's cursor at that index — so
    // the gap array is element-identical to the serial build's.
    const std::int64_t num_chunks =
        (ll.n_ + kCreateChunkKeys - 1) / kCreateChunkKeys;
    const auto chunks = static_cast<std::size_t>(num_chunks);
    std::vector<Int128> chunk_sum(chunks, 0);
    std::vector<Int128> chunk_sum2(chunks, 0);
    std::vector<Int128> chunk_sumr(chunks, 0);
    std::vector<std::size_t> chunk_gaps(chunks, 0);
    auto chunk_cursor = [&ll](std::int64_t lo) {
      return lo == 0 ? ll.domain_.lo
                     : ll.base_keys_[static_cast<std::size_t>(lo) - 1] + 1;
    };
    pool->ParallelFor(num_chunks, [&](std::int64_t c) {
      const std::int64_t lo = c * kCreateChunkKeys;
      const std::int64_t hi = std::min(ll.n_, lo + kCreateChunkKeys);
      Int128 acc = 0;
      Int128 acc2 = 0;
      Int128 accr = 0;
      std::size_t gap_count = 0;
      Key cursor = chunk_cursor(lo);
      for (std::int64_t i = lo; i < hi; ++i) {
        const Key k = ll.base_keys_[static_cast<std::size_t>(i)];
        const Int128 shifted = static_cast<Int128>(k) - ll.shift_;
        acc += shifted;
        ll.base_prefix_[static_cast<std::size_t>(i) + 1] = acc;
        acc2 += shifted * shifted;
        accr += shifted * (i + 1);
        gap_count += cursor <= k - 1 ? 1 : 0;
        cursor = k + 1;
      }
      chunk_sum[static_cast<std::size_t>(c)] = acc;
      chunk_sum2[static_cast<std::size_t>(c)] = acc2;
      chunk_sumr[static_cast<std::size_t>(c)] = accr;
      chunk_gaps[static_cast<std::size_t>(c)] = gap_count;
    });
    std::vector<Int128> chunk_offset(chunks, 0);
    std::vector<std::size_t> gap_offset(chunks, 0);
    Int128 run = 0;
    std::size_t total_gaps = 0;
    for (std::size_t c = 0; c < chunks; ++c) {
      chunk_offset[c] = run;
      run += chunk_sum[c];
      ll.sum_k2_ += chunk_sum2[c];
      ll.sum_kr_ += chunk_sumr[c];
      gap_offset[c] = total_gaps;
      total_gaps += chunk_gaps[c];
    }
    gaps.reserve(total_gaps + 1);  // + the tail gap below.
    gaps.resize(total_gaps);
    pool->ParallelFor(num_chunks, [&](std::int64_t c) {
      const Int128 off = chunk_offset[static_cast<std::size_t>(c)];
      const std::int64_t lo = c * kCreateChunkKeys;
      const std::int64_t hi = std::min(ll.n_, lo + kCreateChunkKeys);
      TieredGaps::GapRec* out =
          gaps.data() + gap_offset[static_cast<std::size_t>(c)];
      Key cursor = chunk_cursor(lo);
      for (std::int64_t i = lo; i < hi; ++i) {
        ll.base_prefix_[static_cast<std::size_t>(i) + 1] += off;
        const Key k = ll.base_keys_[static_cast<std::size_t>(i)];
        if (cursor <= k - 1) {
          *out++ = TieredGaps::GapRec{
              cursor, k - 1, i, ll.base_prefix_[static_cast<std::size_t>(i)]};
        }
        cursor = k + 1;
      }
    });
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
  base_loss_ = RankMoments::Of(n_).Loss(sum_k_, sum_k2_, sum_kr_);
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
  const RankMoments mom = RankMoments::Of(agg.n + 1);
  ForEachGapInRange(lo, hi,
                    [&agg, &mom, &out](Key glo, Key ghi, Rank count_less,
                                       Int128 prefix_sum) {
                      const Int128 suffix = agg.sum_k - prefix_sum;
                      for (Key kp = glo; kp <= ghi; ++kp) {
                        out.emplace_back(kp, LossAfterInsertion(
                                                 agg, mom, kp, count_less,
                                                 suffix));
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

/// Smallest run of gaps the batched gap-bound kernel takes. Below ~tens
/// of gaps (the RMI per-model regime, measured on whole tiers) the
/// staging pass costs more than the vector lanes recover; a 64-gap
/// sub-block, and a group's shorter last one down to this size, take
/// the kernel.
constexpr std::size_t kBatchMinGaps = 32;

/// Units per sub-block, the skeleton's second bound level. A group of
/// at most this many units skips the level.
constexpr std::int64_t kSubBlockUnits = 64;

/// Groups whose bound inputs the group-bound pass prefetches ahead of
/// the one it bounds. The inputs sit in per-group heap arrays, so the
/// pass is bound by memory latency, not arithmetic, once n outgrows the
/// cache.
constexpr std::size_t kPrefetchGroups = 4;

/// Sub-blocks of a group of \p m units; 0 when it skips the level.
inline std::int64_t SubBlockCount(std::int64_t m) {
  return m > kSubBlockUnits ? (m + kSubBlockUnits - 1) / kSubBlockUnits : 0;
}

/// Forward-error arithmetic for the bounds (Higham, *Accuracy and
/// Stability of Numerical Algorithms*, 2nd ed., section 3.1): a value
/// computed through k roundings of unit roundoff u from exact inputs is
/// within gamma_k = k u / (1 - k u) of the exact value, relative to the
/// magnitudes of the terms involved. Each margin below counts the
/// roundings of its own expression, input conversions included, plus
/// two for the margin's own arithmetic.
constexpr double kUnitRound = std::numeric_limits<double>::epsilon() / 2;
constexpr long double kUnitRoundLd =
    std::numeric_limits<long double>::epsilon() / 2;
constexpr double Gamma(int k) { return k * kUnitRound / (1 - k * kUnitRound); }
constexpr long double GammaLd(int k) {
  return k * kUnitRoundLd / (1 - k * kUnitRoundLd);
}

inline double AbsD(double v) { return v < 0 ? -v : v; }

/// The smallest double >= v.
double RoundUpToDouble(long double v) {
  double d = static_cast<double>(v);
  if (static_cast<long double>(d) < v) {
    d = std::nextafter(d, std::numeric_limits<double>::infinity());
  }
  return d;
}

}  // namespace

/// Per-scan context of the admissible double-precision upper bounds on
/// the Theorem 1 loss after one edit of the current n keys: an insertion
/// (sign +1, n1 = n + 1 points) or a removal (sign -1, n1 = n - 1). The
/// gap source bounds insertions with it, the key source removals.
///
/// A candidate is x = key - shift with (c, s): for an insertion the rank
/// it takes (count_less + 1) and the shifted key-sum above it; for a
/// removal its rank and the shifted key-sum above it. With K, K2, KR the
/// current sums and SY = n1(n1+1)/2, the edited numerators are
///   VarX = V(x) = n1 K2 - K^2 + sign * x (n x - 2K),
///   Cov        = n1 KR - K SY + sign * (n1 s + x (n1 c - SY)).
/// The loss numerator N = VarY - Cov^2/VarX cancels nearly completely
/// (both terms ~n^4/12). Expanding around one candidate of the scan, the
/// reference r, with exact Int128 numerators Vr, Cr removes the
/// cancellation exactly:
///   N = Dr + T,  Dr = VarY - Qr,  Qr = Cr^2 / Vr,
///   T = [Qr dv - dc (2 Cr + dc)] / (Vr + dv),
/// where dv = VarX - Vr and dc = Cov - Cr. Dr is computed once per scan
/// in long double; per candidate only dv, dc and T are formed in double,
/// so their rounding (gamma_k on the terms of dv and dc, ~n x^2 and
/// n1 s) scales with the edit, not with VarY. The margins use the scan's
/// largest terms, from the largest |x| of any candidate or key (x_max),
/// |s| <= n x_max and c <= n1 + 1, so they are per-scan constants and
/// the per-candidate arithmetic stays as short as the bound itself. N grows with VarX and, while Cov > 0, falls with
/// Cov, so dv is rounded up and dc down before T is evaluated. The bound
/// must also dominate the long-double rounding of the exact evaluation
/// (five roundings on Cov^2/VarX <= VarY), a per-scan constant folded
/// into Dr.
///
/// Group bounds (UpperLine) take a line that stays below Cov over a key
/// range: the left tangent for gap tiers (UpperRange), the chord through
/// a run's end keys for removal (UpperBlock). Every candidate's
/// Cov^2/VarX is then at least g(x) = line(x)^2 / V(x) while the line
/// stays positive, and g's minimum over the range is at an end or at its
/// one interior critical point. For the convex insertion parabola that
/// point is a maximum of g (g is 0 at the line's root and tends to one
/// limit at both infinities), so only the ends count.
struct LossLandscape::BoundCtx {
  /// The reference candidate, exact.
  struct Ref {
    Int128 x = 0;
    Int128 c = 0;
    Int128 s = 0;
  };

  double n = 0;        // current key count
  double n1 = 0;       // points after the edit
  double sy = 0;       // SY
  double an = 0;       // sign * n
  double a2k = 0;      // sign * 2K
  double abs_2k = 0;
  double an1 = 0;      // sign * n1
  double asy = 0;      // sign * SY
  double dv_ref = 0;   // VarX - V(0) and Cov - Cov(0, 0) at the reference
  double dc_ref = 0;
  double e_dv = 0;     // forward-error margins, per scan: of dv, of dc,
  double e_dc = 0;     // of Vr + dv, of T's numerator, and the least
  double e_vx = 0;     // certain Cr + dc
  double e_p = 0;
  double e_cov = 0;
  double vr = 0;       // Vr
  double cr = 0;       // Cr
  double cr2 = 0;      // 2 Cr
  double qr = 0;       // Qr
  double dr_ub = 0;    // Dr plus every per-scan margin, rounded up
  double inv_n12 = 0;  // 1 / n1^2, rounded up with the final roundings
  double none_ub = 0;  // VarY / n1^2 rounded up: the bound when only
                       // Cov^2/VarX >= 0 is certain
  // Delta = 4 A V(0) - B^2 for V(x) = A x^2 + B x + V(0) (A = sign n,
  // B = -sign 2K), the same at every origin, and its sign: +1 when
  // certainly positive (insertion: V convex), -1 when certainly negative
  // (removal: V concave), 0 otherwise.
  double delta = 0;
  double e_delta = 0;
  int parabola = 0;
  bool usable = false;

  /// \p x_max bounds |x| of every candidate and every key.
  static BoundCtx Make(int sign, const Aggregates& agg,
                       const RankMoments& mom, const Ref& ref,
                       double x_max) {
    BoundCtx b;
    const Int128 n1 = mom.n;
    if (n1 < 2) return b;  // The regression needs two points.
    const Int128 v_0 = n1 * agg.sum_k2 - agg.sum_k * agg.sum_k;
    const Int128 c_0 = n1 * agg.sum_kr - agg.sum_k * mom.sum_y;
    const Int128 dv_r = sign * ref.x * (agg.n * ref.x - 2 * agg.sum_k);
    const Int128 dc_r =
        sign * (n1 * ref.s + ref.x * (n1 * ref.c - mom.sum_y));
    const Int128 vr = v_0 + dv_r;
    const Int128 cr = c_0 + dc_r;
    if (vr <= 0) return b;
    const long double cr_ld = ToLongDouble(cr);
    const long double qr_ld = cr_ld * cr_ld / ToLongDouble(vr);
    const long double dr_ld = mom.var_y_ld - qr_ld;
    // qr_ld: five roundings (Cr twice, the square, Vr, the quotient);
    // dr_ld: one more. The exact evaluation adds at most gamma_5 * VarY
    // to its numerator; gamma_8 covers that and this sum's roundings.
    const long double slack = GammaLd(7) * qr_ld +
                              GammaLd(2) * (dr_ld < 0 ? -dr_ld : dr_ld) +
                              GammaLd(8) * mom.var_y_ld;
    b.dr_ub = RoundUpToDouble(dr_ld + slack);
    b.none_ub = RoundUpToDouble(mom.var_y_ld * (1 + GammaLd(8)) / mom.n2) *
                (1 + Gamma(2));
    b.n = static_cast<double>(agg.n);
    b.n1 = static_cast<double>(mom.n);
    b.sy = static_cast<double>(mom.sum_y);
    b.an = sign * b.n;
    b.a2k = sign * 2.0 * static_cast<double>(agg.sum_k);
    b.abs_2k = AbsD(b.a2k);
    b.an1 = sign * b.n1;
    b.asy = sign * b.sy;
    b.dv_ref = static_cast<double>(dv_r);
    b.dc_ref = static_cast<double>(dc_r);
    b.vr = static_cast<double>(vr);
    b.cr = static_cast<double>(cr);
    b.cr2 = 2.0 * b.cr;
    b.qr = static_cast<double>(qr_ld);
    // Rounding of n1^2, of the quotient and of the final product, plus
    // the exact evaluation's last two long-double roundings.
    b.inv_n12 = 1.0 / (b.n1 * b.n1) * (1 + Gamma(5));
    // The largest |dv| and |dc| of the scan: |x| <= x_max, |s| <= n x_max
    // (a sum of at most n shifted keys), c <= n1 + 1. The margins count
    // each expression's roundings (input conversions included, and the
    // shift of a range end by its own rounding) plus two for their own
    // arithmetic.
    const double dv_max = x_max * (b.n * x_max + b.abs_2k) + AbsD(b.dv_ref);
    const double dc_max = b.n1 * b.n * x_max +
                          x_max * (b.n1 * (b.n1 + 1) + b.sy) +
                          AbsD(b.dc_ref);
    b.e_dv = Gamma(10) * dv_max;
    b.e_dc = Gamma(13) * dc_max;
    const double dv_hi_max = dv_max + 2 * b.e_dv;
    // A line's value at a range end adds at most |slope| * span <=
    // (n1 (n1 + 1) + SY) 2 x_max to a candidate's dc.
    const double dc_lo_max = 3 * dc_max + 2 * b.e_dc;
    b.e_vx = Gamma(5) * (b.vr + dv_hi_max);
    b.e_p = Gamma(7) * (b.qr * dv_hi_max +
                        dc_lo_max * (AbsD(b.cr2) + dc_lo_max));
    b.e_cov = Gamma(3) * (AbsD(b.cr) + dc_lo_max);
    const double v0 = static_cast<double>(v_0);
    b.delta = 4 * b.an * v0 - b.a2k * b.a2k;
    b.e_delta = Gamma(6) * (4 * b.n * AbsD(v0) + b.a2k * b.a2k);
    b.parabola = b.delta - b.e_delta > 0   ? 1
                 : b.delta + b.e_delta < 0 ? -1
                                           : 0;
    b.usable = std::isfinite(b.dr_ub) && std::isfinite(b.none_ub) &&
               std::isfinite(b.a2k) && std::isfinite(b.e_vx) &&
               std::isfinite(b.e_p) && std::isfinite(b.e_cov) &&
               std::isfinite(b.cr2) && std::isfinite(b.qr) &&
               std::isfinite(b.delta + b.e_delta) &&
               std::isfinite(b.inv_n12) && b.inv_n12 > 0;
    return b;
  }

  /// dc at candidate (x, c, s), rounded down.
  double DeltaCovLow(double x, double c, double s) const {
    return (an1 * s + x * (an1 * c - asy)) - dc_ref - e_dc;
  }

  /// dv at x, rounded up.
  double DeltaVarHigh(double x) const {
    return x * (an * x - a2k) - dv_ref + e_dv;
  }

  /// Upper bound on T at x for every candidate whose dc is at least
  /// \p dc_lo; +inf where Cov > 0 or VarX > 0 is not certain.
  /// Branch-free (guards as selects, the possibly poisoned division
  /// discarded by its select), so the batched per-unit loops
  /// auto-vectorize.
  double TermUpper(double x, double dc_lo) const {
    const double dv_hi = DeltaVarHigh(x);
    const double vx = vr + dv_hi;
    const bool ok = cr + dc_lo > e_cov && vx - e_vx - 2 * e_dv > 0;
    const double p_hi = qr * dv_hi - dc_lo * (cr2 + dc_lo) + e_p;
    const double t = p_hi / (p_hi >= 0 ? vx - e_vx : vx + e_vx);
    return ok ? t : std::numeric_limits<double>::infinity();
  }

  /// The loss bound from an upper bound \p t on T, capped at none_ub.
  double Finish(double t) const {
    const double num = dr_ub + t + Gamma(3) * (AbsD(dr_ub) + AbsD(t));
    const double ub = num * inv_n12;
    // A non-finite or NaN intermediate leaves no pruning.
    const double bound =
        num <= 0 ? 0.0
                 : (ub >= 0 ? ub : std::numeric_limits<double>::infinity());
    return bound < none_ub ? bound : none_ub;
  }

  /// Upper bound for one candidate (x, c, s).
  double Upper(double x, double c, double s) const {
    return Finish(TermUpper(x, DeltaCovLow(x, c, s)));
  }

  /// Upper bound over every candidate in [xa, xb] whose dc lies above
  /// the line through (xa, ta) with slope \p b.
  double UpperLine(double xa, double xb, double ta, double b) const {
    const double span = xb - xa;
    const double tb = ta + b * span;  // The line at xb, rounded.
    const double e_tb = Gamma(5) * (AbsD(ta) + AbsD(b) * span);
    const double t_a = TermUpper(xa, ta);
    const double ub = Finish(std::max(t_a, TermUpper(xb, tb - e_tb)));
    // An end that is not certified leaves no pruning; the convex
    // insertion parabola has no interior minimum of g.
    if (!(ub < none_ub) || parabola > 0) return ub;
    // g' has the sign of L = 2b V - (Cr + line) V', linear in x. An
    // interior minimum needs L <= 0 at xa and L >= 0 at xb.
    auto l_at = [this, b](double x, double t, double e_t, double* err,
                          double* v_lo) {
      const double dv = DeltaVarHigh(x) - e_dv;
      const double v = vr + dv;
      const double dvx = 2 * an * x - a2k;  // V'(x)
      const double m_dvx = 2 * n * AbsD(x) + abs_2k;
      *err = Gamma(9) * (2 * AbsD(b) * (vr + AbsD(dv)) +
                         (AbsD(cr) + AbsD(t)) * m_dvx) +
             2 * AbsD(b) * e_dv + e_t * m_dvx;
      *v_lo = v - e_vx - 2 * e_dv;
      return 2 * b * v - (cr + t) * dvx;
    };
    double e_la = 0;
    double e_lb = 0;
    double va_lo = 0;
    double vb_lo = 0;
    const double la = l_at(xa, ta, 0, &e_la, &va_lo);
    const double lb = l_at(xb, tb, e_tb, &e_lb, &vb_lo);
    if (la - e_la > 0 || lb + e_lb < 0) return ub;
    if (parabola == 0 || !(va_lo > 0)) return none_ub;
    // At the origin xa, V = A y^2 + V'(xa) y + V(xa) and the line is
    // (Cr + ta) + b y, so the critical value of g is
    // m* = 4(A a^2 - V'(xa) a b + V(xa) b^2) / Delta with a = Cr + ta,
    // and exactly g(xa) - m* = L(xa)^2 / (V(xa) (-Delta)): the interior
    // minimum lies that far below g(xa), hence T that far above T(xa).
    const double la_hi = AbsD(la) + e_la;
    const double drop =
        la_hi * la_hi / (va_lo * (-delta - e_delta)) * (1 + Gamma(4));
    return Finish(t_a + drop);
  }

  /// The tier bound of the gap source: over every candidate in
  /// [xl, xh], from the exact (c, s) of the range's first gap. Along
  /// the candidate axis Cov is continuous, piecewise linear and convex:
  /// inside a gap its slope is n1 c - SY, and passing a key adds one to
  /// c. It lies above its tangent at xl with that slope, rounded down
  /// here.
  double UpperRange(double xl, double xh, double c, double s) const {
    const double slope = an1 * c - asy;
    const double slope_lo = slope - Gamma(4) * (n1 * AbsD(c) + sy);
    return UpperLine(xl, xh, DeltaCovLow(xl, c, s), slope_lo);
  }

  /// The run bound of the key source: over every stored key between
  /// the first (xf, rf, sf) and the last (xl, rl, sl) of a run. Cov
  /// after a removal steps by (x_{j+1} - x_j)(SY - n1 r_j) between
  /// neighbours, slopes decreasing in j, so the stored keys form a
  /// concave chain above the chord through its ends, lowered here by
  /// its own rounding.
  double UpperBlock(double xf, double rf, double sf, double xl, double rl,
                    double sl) const {
    const double span = xl - xf;
    if (!(span > 0)) return none_ub;
    const double ta = DeltaCovLow(xf, rf, sf);
    const double tb = DeltaCovLow(xl, rl, sl);
    const double b = (tb - ta) / span;
    const double slack = Gamma(5) * (AbsD(ta) + AbsD(tb) + AbsD(b) * span);
    return UpperLine(xf, xl, ta - slack, b);
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
  ScratchUnpoisonAll(&argmax_sub_bounds_);
  ScratchUnpoisonAll(&argmax_tier_bounds_);
  ScratchUnpoisonAll(&argmax_tier_suffix_max_);
  ScratchUnpoisonAll(&argmax_tier_suffix_cnt_);
  ScratchUnpoisonAll(&argmax_soa_);
  std::fill(argmax_bounds_.begin(), argmax_bounds_.end(), dnan);
  std::fill(argmax_sub_bounds_.begin(), argmax_sub_bounds_.end(), dnan);
  // A stale "staged" flag would send the sweep to NaN unit bounds.
  std::fill(argmax_seed_staged_.begin(), argmax_seed_staged_.end(), 1);
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
// in key order (gap tiers or key blocks). A source supplies the bound
// of a group, the bound of any run of a group's units (the sub-block
// level), the per-unit bounds of such a run (-inf for a unit with no
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
  const std::size_t sub_stride =
      static_cast<std::size_t>(std::max<std::int64_t>(
          1, SubBlockCount(static_cast<std::int64_t>(stride))));
  ArgmaxFold incumbent;
  std::size_t seed_g = groups;
  std::int64_t live_units = src.total;
  if (mode == ScanMode::kTiered) {
    // Shared: the group bounds, the seed group's sub-block bounds in
    // slot 0 of argmax_sub_bounds_ and its staged unit bounds in slot 0
    // of argmax_bounds_ (kept when a fan-out grows the buffers). Slot 1
    // of each is the serial sweep's.
    EnsureScratchSize(&argmax_tier_bounds_, groups, &scratch_reallocs_);
    EnsureScratchSize(&argmax_bounds_, 2 * stride, &scratch_reallocs_);
    EnsureScratchSize(&argmax_sub_bounds_, 2 * sub_stride,
                      &scratch_reallocs_);
    EnsureScratchSize(&argmax_soa_, Src::kSoaLanes * stride,
                      &scratch_reallocs_);
    double* group_bound = argmax_tier_bounds_.data();
    for (std::size_t g = 0; g < std::min(groups, kPrefetchGroups); ++g) {
      src.Prefetch(g);
    }
    for (std::size_t g = 0; g < groups; ++g) {
      if (g + kPrefetchGroups < groups) src.Prefetch(g + kPrefetchGroups);
      group_bound[g] = src.GroupBound(g);
    }
    stats->bound_evals += static_cast<std::int64_t>(groups);

    // Seed at the best unit bound of the group with the highest bound
    // (first maxima, so every partition takes the same seed). Its
    // sub-blocks are bounded and their unit bounds staged best-first
    // until no unstaged sub-block's bound exceeds the best unit bound
    // staged so far, which is then the group's best; the sweep reuses
    // every staged bound. The seed unit is exact-checked and marked
    // consumed. Groups are never empty.
    seed_g = static_cast<std::size_t>(
        std::max_element(group_bound, group_bound + groups) - group_bound);
    if (seed_g != groups) {
      const std::int64_t m = src.Units(seed_g);
      const std::int64_t subs = SubBlockCount(m);
      const double* seed_subs = argmax_sub_bounds_.data();
      const std::int64_t first_sb =
          SubBlockBounds(src, seed_g, argmax_sub_bounds_.data(), stats);
      auto& staged = PrepareScratch(&argmax_seed_staged_,
                                    static_cast<std::size_t>(subs));
      staged.assign(static_cast<std::size_t>(subs), 0);
      double* seed_bounds = argmax_bounds_.data();
      std::int64_t seed_j = -1;
      for (std::int64_t sb = first_sb; sb >= 0;) {
        const std::int64_t begin = sb * kSubBlockUnits;
        const std::int64_t end =
            subs == 0 ? m : std::min(m, begin + kSubBlockUnits);
        src.UnitBounds(seed_g, begin, end, seed_bounds + begin,
                       argmax_soa_.data(), stats);
        if (subs > 0) staged[static_cast<std::size_t>(sb)] = 1;
        const std::int64_t best_j =
            std::max_element(seed_bounds + begin, seed_bounds + end) -
            seed_bounds;
        if (seed_j < 0 || seed_bounds[best_j] > seed_bounds[seed_j] ||
            (seed_bounds[best_j] == seed_bounds[seed_j] && best_j < seed_j)) {
          seed_j = best_j;
        }
        sb = -1;
        for (std::int64_t next = 0; next < subs; ++next) {
          if (!staged[static_cast<std::size_t>(next)] &&
              seed_subs[next] > seed_bounds[seed_j] &&
              (sb < 0 || seed_subs[next] > seed_subs[sb])) {
            sb = next;
          }
        }
      }
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
    EnsureScratchSize(&argmax_sub_bounds_, (tasks + 1) * sub_stride,
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
std::int64_t LossLandscape::SubBlockBounds(const Src& src, std::size_t g,
                                           double* out,
                                           ArgmaxStats* stats) const {
  const std::int64_t m = src.Units(g);
  const std::int64_t subs = SubBlockCount(m);
  for (std::int64_t sb = 0; sb < subs; ++sb) {
    const std::int64_t begin = sb * kSubBlockUnits;
    out[sb] = src.SubBound(g, begin, std::min(m, begin + kSubBlockUnits));
  }
  stats->bound_evals += subs;
  return subs == 0 ? 0 : std::max_element(out, out + subs) - out;
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
  // it, "invalidated" when its group survived (its sub-block's bound,
  // and then its own, were scored).
  const std::size_t stride = src.MaxUnits();
  const std::size_t sub_stride =
      static_cast<std::size_t>(std::max<std::int64_t>(
          1, SubBlockCount(static_cast<std::int64_t>(stride))));
  double* soa = argmax_soa_.data() + slot * Src::kSoaLanes * stride;
  const double* seed_bounds = argmax_bounds_.data();
  const double* seed_subs = argmax_sub_bounds_.data();
  double* scratch = argmax_bounds_.data() + (slot + 1) * stride;
  double* sub_scratch = argmax_sub_bounds_.data() + (slot + 1) * sub_stride;
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
    const bool seed_group = g == seed_g;
    const std::int64_t subs = SubBlockCount(m);
    const double* sub_bound = seed_subs;
    if (!seed_group && subs > 0) {
      SubBlockBounds(src, g, sub_scratch, stats);
      sub_bound = sub_scratch;
    }
    for (std::int64_t sb = 0; sb < std::max<std::int64_t>(subs, 1); ++sb) {
      const std::int64_t begin = sb * kSubBlockUnits;
      const std::int64_t end = subs == 0 ? m : std::min(m, begin + kSubBlockUnits);
      if (subs > 0 && below_best(sub_bound[sb])) {
        stats->pruned_gaps += end - begin;
        continue;
      }
      // Unit bounds indexed by unit: the seed group's staged ones, or
      // this run's, fresh in the slot's scratch.
      const double* unit_bound = seed_bounds;
      if (!seed_group ||
          (subs > 0 && !argmax_seed_staged_[static_cast<std::size_t>(sb)])) {
        src.UnitBounds(g, begin, end, scratch, soa, stats);
        unit_bound = scratch - begin;
      }
      for (std::int64_t j = begin; j < end; ++j) {
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
  const RankMoments& mom;  // Of snap.agg.n + 1 points.
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
  const TieredGaps::GapRec& Rec(std::size_t g, std::int64_t j) const {
    return TierOf(g).gaps[groups[g].begin + static_cast<std::size_t>(j)];
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

  /// The covariance left-tangent bound (BoundCtx::UpperRange) over the
  /// keys [first.lo, hi], from record \p first of tier \p t. It ignores
  /// `excluded`: an excluded endpoint only makes it an admissible
  /// over-estimate.
  double RangeBound(const TieredGaps::Tier& t, const TieredGaps::GapRec& first,
                    Key hi) const {
    return ctx.UpperRange(
        static_cast<double>(first.lo - ll.shift_),
        static_cast<double>(hi - ll.shift_),
        static_cast<double>(first.cnt + CountOffset(t) + 1),
        static_cast<double>(snap.agg.sum_k - (first.sum + SumOffset(t))));
  }

  /// Starts loading the records GroupBound(g) reads.
  void Prefetch(std::size_t g) const {
    __builtin_prefetch(&Rec(g, 0));
    __builtin_prefetch(&Rec(g, Units(g) - 1));
  }

  /// Over the keys of gaps [begin, end) of group \p g. A group's
  /// records all lie in the scan range, above a removed minimum.
  double SubBound(std::size_t g, std::int64_t begin, std::int64_t end) const {
    return RangeBound(TierOf(g), Rec(g, begin), Rec(g, end - 1).hi);
  }
  double GroupBound(std::size_t g) const { return SubBound(g, 0, Units(g)); }

  /// max(bound(lo), bound(hi)) per gap of [begin, end) over its
  /// non-excluded endpoints, into out[0, end - begin). A run of at least
  /// kBatchMinGaps gaps with no exclusions takes the batched kernel: a
  /// scalar pass unpacks the gap records into \p soa, then the
  /// branch-free BoundCtx::Upper auto-vectorizes over it. Both paths
  /// give the same values and count the same bound_evals.
  void UnitBounds(std::size_t g, std::int64_t begin, std::int64_t end,
                  double* out, double* soa, ArgmaxStats* stats) const {
    const TieredGaps::Tier& t = TierOf(g);
    const TieredGaps::GapRec* gaps = &Rec(g, begin);
    const auto m = static_cast<std::size_t>(end - begin);
    const Key shift = ll.shift_;
    const Int128 sum_k = snap.agg.sum_k;
    const Rank cnt_off = CountOffset(t) + 1;
    const Int128 sum_off = SumOffset(t);
    if (excluded == nullptr && m >= kBatchMinGaps) {
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
    const TieredGaps::GapRec& r = Rec(g, j);
    const Rank count_less = r.cnt + CountOffset(t);
    const Int128 suffix = snap.agg.sum_k - (r.sum + SumOffset(t));
    auto offer = [&](Key kp) {
      if (Excluded(kp)) return;
      fold->Offer(kp, LossAfterInsertion(snap.agg, mom, kp, count_less,
                                         suffix));
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
  if (edge == Edge::kMin) {
    snap.agg.RemoveSmallest(key);
    snap.lo = SecondMinKey() + 1;
    snap.hi = max_key_ - 1;
    // Every candidate lies above the removed key, which its record
    // still counts; records below it count nothing to remove.
    snap.rank_adj = 1;
    snap.prefix_adj = static_cast<Int128>(key) - shift_;
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
  const RankMoments mom = RankMoments::Of(snap.agg.n + 1);
  const std::int64_t units = CollectGapGroups(snap.lo, snap.hi);
  // Outside the magnitude guard the context's Int128 numerators could
  // overflow; with no candidate there is nothing to bound.
  const bool domain_ok = PruneDomainOk();
  const BoundCtx ctx = domain_ok ? GapBoundCtx(snap, mom) : BoundCtx{};
  const ScanMode mode = PickScanMode(
      argmax, domain_ok && (ctx.usable || units == 0), &local);
  const ArgmaxFold fold = RunArgmax(
      GapSource{*this, snap, argmax_gap_groups_, ctx, mom, excluded, units},
      mode, pool, argmax.fan_out_units, &local);
  if (stats != nullptr) stats->Add(local);
  if (!fold.have) {
    return Status::ResourceExhausted(
        "no unoccupied candidate keys in the poisoning range");
  }
  return fold.best;
}

std::int64_t LossLandscape::CollectGapGroups(Key lo, Key hi) const {
  // Each tier's in-range slice. The range ends at an occupied key or a
  // domain edge, so it never clips a gap and membership is a whole-gap
  // test; only the edge tiers have out-of-range gaps.
  const std::vector<TieredGaps::Tier>& tiers = gaps_.tiers();
  auto& groups = PrepareScratch(&argmax_gap_groups_, tiers.size());
  std::int64_t units = 0;
  for (std::size_t ti = lo <= hi ? gaps_.FirstTierNotBelow(lo) : tiers.size();
       ti < tiers.size() && tiers[ti].lo <= hi; ++ti) {
    const std::vector<TieredGaps::GapRec>& gs = tiers[ti].gaps;
    std::size_t b = 0;
    std::size_t e = gs.size();
    // Only an edge tier reaches outside; the others' records stay
    // untouched (cold at large n).
    if (tiers[ti].lo < lo || tiers[ti].hi > hi) {
      while (b < e && gs[b].hi < lo) ++b;
      while (e > b && gs[e - 1].lo > hi) --e;
    }
    if (b < e) {
      groups.push_back(GapGroup{ti, b, e});
      units += static_cast<std::int64_t>(e - b);
    }
  }
  return units;
}

double LossLandscape::MaxShiftedMagnitude(
    std::initializer_list<Key> extra) const {
  Int128 m = 0;
  auto widen = [this, &m](Key k) {
    Int128 x = static_cast<Int128>(k) - shift_;
    if (x < 0) x = -x;
    if (x > m) m = x;
  };
  widen(min_key_);
  widen(max_key_);
  for (const Key k : extra) widen(k);
  return static_cast<double>(m) * (1 + Gamma(1));
}

LossLandscape::BoundCtx LossLandscape::GapBoundCtx(
    const GapSnapshot& snap, const RankMoments& mom) const {
  const std::vector<GapGroup>& groups = argmax_gap_groups_;
  if (groups.empty()) return BoundCtx{};
  const GapGroup& mid = groups[groups.size() / 2];
  const TieredGaps::Tier& t = gaps_.tiers()[mid.tier];
  const TieredGaps::GapRec& r = t.gaps[mid.begin];
  BoundCtx::Ref ref;
  ref.x = static_cast<Int128>(r.lo) - shift_;
  ref.c = r.cnt + t.delta_cnt - snap.rank_adj + 1;
  ref.s = snap.agg.sum_k - (r.sum + t.delta_sum - snap.prefix_adj);
  return BoundCtx::Make(+1, snap.agg, mom, ref,
                        MaxShiftedMagnitude({snap.lo, snap.hi}));
}

LossLandscape::BoundCtx LossLandscape::KeyBoundCtx(
    const RankMoments& mom) const {
  const RemovalSoa::Block& mid =
      rem_soa_.block(rem_soa_.block_count() / 2);
  BoundCtx::Ref ref;
  ref.x = static_cast<Int128>(mid.keys.front()) - shift_;
  ref.c = mid.count_before + 1;
  ref.s = static_cast<Int128>(mid.sa_local.front()) + mid.sum_after;
  return BoundCtx::Make(-1, aggregates(), mom, ref, MaxShiftedMagnitude({}));
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

long double LossLandscape::LossWithoutKey(Key key, Int128 rank, Int128 sa,
                                          const RankMoments& mom) const {
  const Int128 x = static_cast<Int128>(key) - shift_;
  return mom.Loss(sum_k_ - x, sum_k2_ - x * x, sum_kr_ - x * rank - sa);
}

/// Removal candidates. A unit is one stored key (skipped when outside
/// `allowed`), a group one block of the removal SoA: the commit
/// structure doubles as the bound tier structure, so the next round's
/// block bounds see every commit exactly.
struct LossLandscape::KeySource {
  static constexpr std::size_t kSoaLanes = 0;  // Blocks are SoA already.

  const LossLandscape& ll;
  const BoundCtx& ctx;
  const RankMoments& mom;  // Of n - 1 points.
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

  /// The chord bound (BoundCtx::UpperBlock) through the exact records
  /// (x, rank, suffix) of keys \p begin and end - 1 of block \p b; the
  /// last key's global suffix is sum_after itself, since
  /// sa_local.back() == 0. It ignores `allowed`: an admissible
  /// over-estimate, the per-key bounds enforce it.
  double SubBound(std::size_t b, std::int64_t begin, std::int64_t end) const {
    const RemovalSoa::Block& blk = block(b);
    const auto first = static_cast<std::size_t>(begin);
    const auto last = static_cast<std::size_t>(end - 1);
    const Key shift = ll.shift_;
    const double x_first = static_cast<double>(blk.keys[first] - shift);
    const double r_first = static_cast<double>(blk.count_before + begin + 1);
    const double sa_first =
        static_cast<double>(blk.sa_local[first] + blk.sum_after);
    if (first == last) return ctx.Upper(x_first, r_first, sa_first);
    return ctx.UpperBlock(
        x_first, r_first, sa_first,
        static_cast<double>(blk.keys[last] - shift),
        static_cast<double>(blk.count_before + end),
        static_cast<double>(blk.sa_local[last] + blk.sum_after));
  }
  double GroupBound(std::size_t b) const { return SubBound(b, 0, Units(b)); }

  /// Starts loading the end records GroupBound(b) reads.
  void Prefetch(std::size_t b) const {
    const RemovalSoa::Block& blk = block(b);
    __builtin_prefetch(blk.keys.data());
    __builtin_prefetch(&blk.keys.back());
    __builtin_prefetch(blk.sa_local.data());
    __builtin_prefetch(&blk.sa_local.back());
  }

  /// Per-key bounds of keys [begin, end) straight off the block arrays;
  /// the rank/suffix reconstruction adds two loop-invariant scalars, so
  /// the allowed-free loop auto-vectorizes.
  void UnitBounds(std::size_t b, std::int64_t begin, std::int64_t end,
                  double* out, double* /*soa*/, ArgmaxStats* stats) const {
    const RemovalSoa::Block& blk = block(b);
    const Key* keys = blk.keys.data() + begin;
    const std::int64_t* sal = blk.sa_local.data() + begin;
    const auto m = static_cast<std::size_t>(end - begin);
    const double rank0 = static_cast<double>(blk.count_before + begin + 1);
    const std::int64_t sa_off = blk.sum_after;
    const Key shift = ll.shift_;
    if (allowed == nullptr) {
      const BoundCtx c = ctx;  // Local copy: no aliasing.
      for (std::size_t j = 0; j < m; ++j) {
        out[j] = c.Upper(static_cast<double>(keys[j] - shift),
                         rank0 + static_cast<double>(j),
                         static_cast<double>(sal[j] + sa_off));
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
                         static_cast<double>(sal[j] + sa_off));
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
                                      blk.sa_local[jj] + blk.sum_after, mom));
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
    const RankMoments mom = RankMoments::Of(n_ - 1);
    Int128 sa = 0;
    for (std::size_t b = rem_soa_.block_count(); b > 0; --b) {
      const RemovalSoa::Block& blk = rem_soa_.block(b - 1);
      for (std::size_t j = blk.keys.size(); j > 0; --j) {
        const Key kp = blk.keys[j - 1];
        if (allowed == nullptr || allowed->count(kp) != 0) {
          fold.Offer(kp, LossWithoutKey(kp,
                                        blk.count_before +
                                            static_cast<std::int64_t>(j),
                                        sa, mom));
          ++local.exact_evals;
        }
        sa += static_cast<Int128>(kp) - shift_;
      }
    }
  } else {
    const RankMoments mom = RankMoments::Of(n_ - 1);
    const BoundCtx ctx = KeyBoundCtx(mom);
    const ScanMode mode = PickScanMode(argmax, ctx.usable, &local);
    fold = RunArgmax(KeySource{*this, ctx, mom, allowed, rem_soa_.size()},
                     mode, pool, argmax.fan_out_units, &local);
  }
  if (stats != nullptr) stats->Add(local);
  if (!fold.have) {
    return Status::ResourceExhausted(
        "no allowed removal candidate among the stored keys");
  }
  return fold.best;
}

Status LossLandscape::AuditArgmaxBoundsForTesting(
    bool removal, const std::function<void(const BoundAuditRow&)>& visit)
    const {
  auto audit = [&visit](const auto& src) {
    ArgmaxStats stats;
    std::vector<double> subs(static_cast<std::size_t>(
        std::max<std::int64_t>(1, SubBlockCount(static_cast<std::int64_t>(
                                      src.MaxUnits())))));
    std::vector<double> units(src.MaxUnits());
    std::vector<double> soa(src.kSoaLanes * src.MaxUnits());
    for (std::size_t g = 0; g < src.num_groups(); ++g) {
      const std::int64_t m = src.Units(g);
      const double group_bound = src.GroupBound(g);
      const std::int64_t count = SubBlockCount(m);
      for (std::int64_t sb = 0; sb < count; ++sb) {
        const std::int64_t begin = sb * kSubBlockUnits;
        subs[static_cast<std::size_t>(sb)] =
            src.SubBound(g, begin, std::min(m, begin + kSubBlockUnits));
      }
      src.UnitBounds(g, 0, m, units.data(), soa.data(), &stats);
      for (std::int64_t j = 0; j < m; ++j) {
        ArgmaxFold fold;
        src.Exact(g, j, &fold, &stats);
        BoundAuditRow row;
        row.key = fold.best.key;
        row.exact = fold.best.loss;
        row.unit_bound = units[static_cast<std::size_t>(j)];
        row.group_bound = group_bound;
        row.sub_bound = count == 0 ? group_bound
                                   : subs[static_cast<std::size_t>(
                                         j / kSubBlockUnits)];
        visit(row);
      }
    }
  };
  if (removal) {
    if (n_ < 3) {
      return Status::FailedPrecondition(
          "removal argmax needs at least three stored keys");
    }
    EnsureRemovalSoa();
    if (!rem_soa_.with_sa()) {
      return Status::FailedPrecondition("removal bounds not admissible");
    }
    const RankMoments mom = RankMoments::Of(n_ - 1);
    const BoundCtx ctx = KeyBoundCtx(mom);
    if (!ctx.usable) {
      return Status::FailedPrecondition("removal bounds not admissible");
    }
    audit(KeySource{*this, ctx, mom, nullptr, rem_soa_.size()});
    return Status::OK();
  }
  GapSnapshot snap;
  snap.agg = aggregates();
  snap.lo = min_key_ + 1;
  snap.hi = max_key_ - 1;
  if (!PruneDomainOk()) {
    return Status::FailedPrecondition("insertion bounds not admissible");
  }
  const RankMoments mom = RankMoments::Of(snap.agg.n + 1);
  const std::int64_t units = CollectGapGroups(snap.lo, snap.hi);
  const BoundCtx ctx = GapBoundCtx(snap, mom);
  if (!ctx.usable) {
    return Status::FailedPrecondition("insertion bounds not admissible");
  }
  audit(GapSource{*this, snap, argmax_gap_groups_, ctx, mom, nullptr, units});
  return Status::OK();
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
  return RankMoments::Of(n).Loss(sum_k, sum_k2, sum_kr);
}

long double LossLandscape::Aggregates::LossAfterInsert(
    Key kp, Rank count_less, Int128 suffix_sum) const {
  return LossAfterInsertion(*this, RankMoments::Of(n + 1), kp, count_less,
                            suffix_sum);
}

long double LossLandscape::LossAfterInsertion(const Aggregates& agg,
                                              const RankMoments& mom, Key kp,
                                              Rank count_less,
                                              Int128 suffix_sum) {
  const Int128 kp_s = static_cast<Int128>(kp) - agg.shift;
  // Every key above kp gains one rank, adding its (shifted) value once
  // to sum(XY); kp itself enters with rank count_less + 1.
  return mom.Loss(agg.sum_k + kp_s, agg.sum_k2 + kp_s * kp_s,
                  agg.sum_kr + suffix_sum + kp_s * (count_less + 1));
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
