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

Result<LossLandscape> LossLandscape::Create(const KeySet& keyset,
                                            ThreadPool* pool) {
  if (keyset.empty()) {
    return Status::InvalidArgument(
        "loss landscape requires a non-empty keyset");
  }
  LossLandscape ll;
  ll.domain_ = keyset.domain();
  ll.n_ = keyset.size();
  ll.shift_ = keyset.keys().front();
  const KeyStore::Totals totals = ll.store_.Build(
      keyset.keys(), ll.shift_, ll.domain_.hi, ll.PruneDomainOk(), pool);
  ll.sum_k_ = totals.sum;
  ll.sum_k2_ = totals.sum2;
  ll.sum_kr_ = totals.sumr;
  ll.RecomputeCurrentLoss();
  return ll;
}

void LossLandscape::RecomputeCurrentLoss() {
  base_loss_ = RankMoments::Of(n_).Loss(sum_k_, sum_k2_, sum_kr_);
}

LossLandscape::PrefixStats LossLandscape::PrefixAt(Key kp) const {
  return PrefixAt(store_.Locate(kp));
}

LossLandscape::PrefixStats LossLandscape::PrefixAt(
    const KeyStore::Pos& p) const {
  const KeyStore::Block& blk = store_.block(p.block);
  PrefixStats stats;
  stats.count_less = blk.count_before + static_cast<Rank>(p.index);
  // The keys from p on in this block: one local suffix read, or one
  // walk where the store keeps no local sums.
  Int128 tail = 0;
  if (p.index < blk.keys.size()) {
    if (store_.with_sa()) {
      tail = static_cast<Int128>(blk.sa_local[p.index]) + blk.keys[p.index] -
             shift_;
    } else {
      for (std::size_t j = p.index; j < blk.keys.size(); ++j) {
        tail += static_cast<Int128>(blk.keys[j]) - shift_;
      }
    }
  }
  stats.prefix_sum = sum_k_ - blk.sum_after - tail;
  return stats;
}

Status LossLandscape::InsertKey(Key kp) {
  if (!domain_.Contains(kp)) {
    return Status::OutOfRange("poisoning key " + std::to_string(kp) +
                              " outside the key domain");
  }
  const KeyStore::Pos pos = store_.Locate(kp);
  if (store_.Holds(pos, kp)) {
    return Status::InvalidArgument("poisoning key " + std::to_string(kp) +
                                   " is already occupied");
  }

  const PrefixStats stats = PrefixAt(pos);
  const Int128 kp_s = static_cast<Int128>(kp) - shift_;
  const Int128 suffix_above = sum_k_ - stats.prefix_sum;
  // Compound effect: every key above kp gains one rank (adding the
  // suffix key-sum once), and kp enters with rank count_less + 1.
  sum_kr_ += suffix_above + kp_s * (stats.count_less + 1);
  sum_k_ += kp_s;
  sum_k2_ += kp_s * kp_s;
  n_ += 1;
  RecomputeCurrentLoss();
  store_.Insert(kp);
  // The magnitude guard can break as n grows: the int64 local sums are
  // then no longer provably safe, and the store drops them.
  store_.SetSuffixSums(PruneDomainOk());
  return Status::OK();
}

Status LossLandscape::RemoveKey(Key kp) {
  if (!domain_.Contains(kp)) {
    return Status::OutOfRange("key " + std::to_string(kp) +
                              " outside the key domain");
  }
  const KeyStore::Pos pos = store_.Locate(kp);
  if (!store_.Holds(pos, kp)) {
    return Status::InvalidArgument("key " + std::to_string(kp) +
                                   " is not currently stored");
  }
  if (n_ <= 2) {
    return Status::FailedPrecondition(
        "removing key " + std::to_string(kp) +
        " would leave fewer than two points to regress on");
  }

  const PrefixStats stats = PrefixAt(pos);
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
  store_.Remove(kp);
  // A shrinking keyset can bring the magnitude guard back.
  store_.SetSuffixSums(PruneDomainOk());
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
  const KeyStore::Pos pos = store_.Locate(kp);
  if (store_.Holds(pos, kp)) {
    return Status::InvalidArgument("poisoning key " + std::to_string(kp) +
                                   " is already occupied");
  }
  const PrefixStats stats = PrefixAt(pos);
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
  const Key lo = interior_only ? min_key() + 1 : domain_.lo;
  const Key hi = interior_only ? max_key() - 1 : domain_.hi;
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

/// A key-store slice with fewer than one gap per this many keys is a
/// gap-source group of its own (see CollectGapGroups).
constexpr std::int64_t kSparseGapRatio = 8;

/// Groups whose bound inputs the group-bound pass prefetches ahead of
/// the one it bounds. The inputs sit in per-group heap arrays, so the
/// pass is bound by memory latency, not arithmetic, once n outgrows the
/// cache.
constexpr std::size_t kPrefetchGroups = 4;

/// Sub-blocks of a group of \p m units; 0 when it skips the level.
inline std::int64_t SubBlockCount(std::int64_t m) {
  return m > kSubBlockUnits ? (m + kSubBlockUnits - 1) / kSubBlockUnits : 0;
}

/// Sub-blocks of group \p g of a candidate source.
template <typename Src>
std::int64_t SubBlocksOf(const Src& src, std::size_t g) {
  return SubBlockCount(src.Units(g));
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
/// range: the left tangent for a run of gaps (UpperRange), the chord
/// through a run's end keys for removal (UpperBlock). Every candidate's
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

  /// UpperLine's bound at the line's two ends, branch-free: the whole
  /// bound when parabola > 0, so batched loops over it vectorize.
  double UpperLineEnds(double xa, double xb, double ta, double b) const {
    const double span = xb - xa;
    const double tb = ta + b * span;  // The line at xb, rounded.
    const double e_tb = Gamma(5) * (AbsD(ta) + AbsD(b) * span);
    return Finish(std::max(TermUpper(xa, ta), TermUpper(xb, tb - e_tb)));
  }

  /// Upper bound over every candidate in [xa, xb] whose dc lies above
  /// the line through (xa, ta) with slope \p b.
  double UpperLine(double xa, double xb, double ta, double b) const {
    const double ub = UpperLineEnds(xa, xb, ta, b);
    // An end that is not certified leaves no pruning; the convex
    // insertion parabola has no interior minimum of g.
    if (!(ub < none_ub) || parabola > 0) return ub;
    const double span = xb - xa;
    const double tb = ta + b * span;
    const double e_tb = Gamma(5) * (AbsD(ta) + AbsD(b) * span);
    const double t_a = TermUpper(xa, ta);
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

  /// The group bound of the gap source: over every candidate in
  /// [xl, xh], from the exact (c, s) of the range's first gap. Along
  /// the candidate axis Cov is continuous, piecewise linear and convex:
  /// inside a gap its slope is n1 c - SY, and passing a key adds one to
  /// c. It lies above its tangent at xl with that slope, rounded down
  /// here.
  double UpperRange(double xl, double xh, double c, double s) const {
    return UpperLine(xl, xh, DeltaCovLow(xl, c, s), SlopeLow(c));
  }
  /// UpperRange when parabola > 0, branch-free.
  double UpperRangeConvex(double xl, double xh, double c, double s) const {
    return UpperLineEnds(xl, xh, DeltaCovLow(xl, c, s), SlopeLow(c));
  }
  /// The tangent's slope n1 c - SY, rounded down.
  double SlopeLow(double c) const {
    return an1 * c - asy - Gamma(4) * (n1 * AbsD(c) + sy);
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
// in key order (the keys of one key-store block, or the gaps after the
// keys of a run of block slices). A source supplies the units and gaps
// of a group, the bound of a group, the bounds of its 64-unit windows
// (the sub-block level), the per-unit bounds of a window with its gap
// count (-inf for a unit with no admissible candidate; a window with no
// gap has bound -inf and costs no bound evaluation) and the exact
// evaluation of one unit or of a window's units (O(1) for a window
// with no gap); the skeleton owns the walk, the seeding, the pruning
// and the fan-out. The counters count gaps.
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
    EnsureScratchSize(&argmax_soa_,
                      Src::kSoaLanes * std::max<std::size_t>(stride, groups),
                      &scratch_reallocs_);
    double* group_bound = argmax_tier_bounds_.data();
    src.GroupBounds(group_bound, argmax_soa_.data());
    for (std::size_t g = 0; g < groups; ++g) {
      stats->bound_evals += group_bound[g] != kNoBound ? 1 : 0;
    }

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
      const std::int64_t subs = SubBlocksOf(src, seed_g);
      const double* seed_subs = argmax_sub_bounds_.data();
      const std::int64_t first_sb =
          SubBlockBounds(src, seed_g, argmax_sub_bounds_.data(),
                         argmax_soa_.data(), stats);
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
        if (group_bound[g] != kNoBound &&
            (!incumbent.have || group_bound[g] >= incumbent.best.loss)) {
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
    // suffix gap counts.
    EnsureScratchSize(&argmax_tier_suffix_max_, groups, &scratch_reallocs_);
    EnsureScratchSize(&argmax_tier_suffix_cnt_, groups, &scratch_reallocs_);
    const double* group_bound = argmax_tier_bounds_.data();
    double* suffix_max = argmax_tier_suffix_max_.data();
    std::int64_t* suffix_cnt = argmax_tier_suffix_cnt_.data();
    for (const ArgmaxChunk& chunk : chunks) {
      double run_max = kNoBound;
      std::int64_t run_cnt = 0;
      for (std::size_t g = chunk.end; g > chunk.first; --g) {
        run_cnt += src.Gaps(g - 1);
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
      if (suffix_max[chunk.first] == kNoBound ||
          (incumbent.have && suffix_max[chunk.first] < incumbent.best.loss)) {
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
                                           double* out, double* soa,
                                           ArgmaxStats* stats) const {
  const std::int64_t subs = SubBlocksOf(src, g);
  if (subs == 0) return 0;
  src.SubBounds(g, out, soa);
  for (std::int64_t sb = 0; sb < subs; ++sb) {
    stats->bound_evals += out[sb] != kNoBound ? 1 : 0;
  }
  return std::max_element(out, out + subs) - out;
}

template <typename Src>
void LossLandscape::ScanArgmaxChunk(const Src& src, ScanMode mode,
                                    const ArgmaxChunk& chunk,
                                    std::size_t slot, std::size_t seed_g,
                                    ArgmaxFold* fold,
                                    ArgmaxStats* stats) const {
  // A bound that cannot reach the running best prunes (>= keeps exact
  // ties alive for the smaller-key rule), and so does the bound of a run
  // with no gap.
  auto below_best = [fold](double bound) {
    return bound == kNoBound || (fold->have && bound < fold->best.loss);
  };

  if (mode == ScanMode::kExhaustive) {
    // Every unit exactly, one 64-unit run at a time.
    for (std::size_t g = chunk.first; g < chunk.end; ++g) {
      const std::int64_t m = src.Units(g);
      for (std::int64_t begin = 0; begin < m; begin += kSubBlockUnits) {
        src.ExactRun(g, begin, std::min(m, begin + kSubBlockUnits), fold,
                     stats);
      }
    }
    return;
  }

  // Tiered sweep in key order over the bounds RunArgmax prepared.
  // Accounting, in gaps: a gap is "cached" when its group's bound
  // disposed of it, "invalidated" when its group survived (its
  // sub-block's bound, and then its own, were scored).
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
    const std::int64_t gaps = src.Gaps(g);
    if (below_best(group_bound[g])) {
      stats->pruned_gaps += gaps;
      stats->cached_bounds += gaps;
      continue;
    }
    stats->invalidated_gaps += gaps;
    // The gaps of every scored sub-block come off; the rest lie in the
    // pruned ones.
    std::int64_t unscored = gaps;
    const bool seed_group = g == seed_g;
    const std::int64_t subs = SubBlocksOf(src, g);
    const double* sub_bound = seed_subs;
    if (!seed_group && subs > 0) {
      SubBlockBounds(src, g, sub_scratch, soa, stats);
      sub_bound = sub_scratch;
    }
    for (std::int64_t sb = 0; sb < std::max<std::int64_t>(subs, 1); ++sb) {
      const std::int64_t begin = sb * kSubBlockUnits;
      const std::int64_t end = subs == 0 ? m : std::min(m, begin + kSubBlockUnits);
      if (subs > 0 && below_best(sub_bound[sb])) continue;
      // Unit bounds indexed by unit: the seed group's staged ones, or
      // this run's, fresh in the slot's scratch.
      const double* unit_bound = seed_bounds;
      if (!seed_group ||
          (subs > 0 && !argmax_seed_staged_[static_cast<std::size_t>(sb)])) {
        unscored -= src.UnitBounds(g, begin, end, scratch, soa, stats);
        unit_bound = scratch - begin;
      } else {
        unscored -= subs == 0 ? gaps : src.Gaps(g, begin, end);
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
    stats->pruned_gaps += unscored;
  }
}

/// Insertion candidates. A unit is the gap after one stored key, up to
/// the next key (or the domain's end), offered at its two endpoints
/// (Theorem 2) minus the excluded keys; after a key whose successor is
/// adjacent the gap is empty and the unit holds no candidate. A group
/// is a run of consecutive in-range block slices that hold gaps, its
/// units their keys in order. Each slice starts at a multiple of
/// kSubBlockUnits in its group's units, so a window of that many units
/// (a sub-block) covers one slice's keys, and the units between a
/// slice's end and the next window hold no candidate. The record of the
/// gap after key i of a block is the key's own: count_before + i + 1
/// keys below it and the suffix sa_local[i] + sum_after above it, both
/// shifted into the snapshot by its rank_adj and prefix_adj.
struct LossLandscape::GapSource {
  static constexpr std::size_t kSoaLanes = 5;

  const LossLandscape& ll;
  const GapSnapshot& snap;
  const std::vector<GapSlice>& slices;
  const std::vector<GapGroup>& groups;
  const BoundCtx& ctx;
  const RankMoments& mom;  // Of snap.agg.n + 1 points.
  const std::unordered_set<Key>* excluded;
  std::int64_t total;      // Units over all groups.
  std::int64_t max_units;  // Units of the largest group.

  std::size_t num_groups() const { return groups.size(); }
  std::int64_t Units(std::size_t g) const { return groups[g].units; }
  std::int64_t Gaps(std::size_t g) const { return groups[g].gaps; }
  std::int64_t Gaps(std::size_t g, std::int64_t begin,
                    std::int64_t end) const {
    const Piece p = Window(g, begin, end);
    return p.s == nullptr ? 0 : ll.store_.CountGaps(p.s->block, p.i0, p.i1);
  }
  std::size_t MaxUnits() const { return static_cast<std::size_t>(max_units); }

  /// The keys [i0, i1) of slice *s's block that units [begin, end) of
  /// one window of a group cover, from unit begin on; s is null when
  /// the window lies past its slice's end.
  struct Piece {
    const GapSlice* s = nullptr;
    std::size_t i0 = 0;
    std::size_t i1 = 0;
  };
  Piece Window(std::size_t g, std::int64_t begin, std::int64_t end) const {
    const auto first = slices.begin() + static_cast<std::ptrdiff_t>(
                                            groups[g].first);
    const auto last = slices.begin() + static_cast<std::ptrdiff_t>(
                                           groups[g].end);
    const GapSlice& s =
        *(std::upper_bound(first + 1, last, begin,
                           [](std::int64_t u, const GapSlice& sl) {
                             return u < sl.first_unit;
                           }) -
          1);
    const auto len = static_cast<std::int64_t>(s.end - s.begin);
    const std::int64_t lo = begin - s.first_unit;
    const std::int64_t hi = std::min(end - s.first_unit, len);
    Piece p;
    if (lo >= hi) return p;
    p.s = &s;
    p.i0 = s.begin + static_cast<std::size_t>(lo);
    p.i1 = s.begin + static_cast<std::size_t>(hi);
    return p;
  }

  Key GapHi(const GapSlice& s, std::size_t i) const {
    return ll.store_.GapHi(s.block, i);
  }

  bool Excluded(Key k) const {
    return excluded != nullptr && excluded->count(k) != 0;
  }
  /// The snapshot's count of keys below the gap after key i of \p blk
  /// is count_before + i + CountOff(), and the shifted sum above it is
  /// sa_local[i] + SuffixOff(blk).
  Rank CountOff() const { return 1 - snap.rank_adj; }
  Int128 SuffixOff(const KeyStore::Block& blk) const {
    return blk.sum_after + snap.agg.sum_k + snap.prefix_adj - ll.sum_k_;
  }

  /// True when the gaps after the keys of \p p are all empty (or it
  /// covers none): those keys and the key after them are consecutive,
  /// so their key span equals their index span.
  bool Gapless(const Piece& p) const {
    if (p.s == nullptr) return true;
    return GapHi(*p.s, p.i1 - 1) - ll.store_.block(p.s->block).keys[p.i0] ==
           static_cast<Key>(p.i1 - 1 - p.i0);
  }

  /// The bound of every window of group \p g over its gaps (the range
  /// bound from its first gap to its last), into out[0, windows): -inf,
  /// with no bound evaluation, for a window whose gaps are all empty. A
  /// slice's windows follow one another, and the next slice starts at
  /// the next window. The inputs of the other windows are packed into
  /// \p soa (kSoaLanes per window), so the convex case's bounds
  /// vectorize.
  void SubBounds(std::size_t g, double* out, double* soa) const {
    const std::int64_t windows = SubBlockCount(groups[g].units);
    double* x_lo = soa;
    double* x_hi = soa + windows;
    double* c1 = soa + 2 * windows;
    double* sv = soa + 3 * windows;
    double* at = soa + 4 * windows;  // The window of each packed lane.
    std::int64_t live = 0;
    const Key shift = ll.shift_;
    for (std::size_t si = groups[g].first; si < groups[g].end; ++si) {
      const GapSlice& s = slices[si];
      const KeyStore::Block& blk = ll.store_.block(s.block);
      const Key* keys = blk.keys.data();
      const std::int64_t* sal = blk.sa_local.data();
      const Rank c0 = blk.count_before + CountOff() + 1;
      // Inside the magnitude guard every snapshot suffix fits int64.
      const auto sa_off = static_cast<std::int64_t>(SuffixOff(blk));
      // The gap after the block's last key ends at the store's next key.
      const std::size_t size = blk.keys.size();
      const Key last_hi = GapHi(s, size - 1);
      std::int64_t w = s.first_unit / kSubBlockUnits;
      for (std::size_t i0 = s.begin; i0 < s.end; i0 += kSubBlockUnits, ++w) {
        const std::size_t i1 = std::min(s.end, i0 + kSubBlockUnits);
        const Key hi = i1 < size ? keys[i1] - 1 : last_hi;
        out[w] = kNoBound;
        if (hi - keys[i0] == static_cast<Key>(i1 - 1 - i0)) continue;
        // From the window's first gap to its last: the keys around them
        // hold no candidate.
        const std::size_t f = ll.store_.FirstGap(s.block, i0, i1);
        const std::size_t l = ll.store_.LastGap(s.block, f, i1);
        x_lo[live] = static_cast<double>(keys[f] - shift + 1);
        x_hi[live] = static_cast<double>(GapHi(s, l) - shift);
        c1[live] = static_cast<double>(c0 + static_cast<Rank>(f));
        sv[live] = static_cast<double>(sal[f] + sa_off);
        at[live] = static_cast<double>(w);
        ++live;
      }
    }
    const BoundCtx c = ctx;  // Local copy: no aliasing against the lanes.
    if (c.parabola > 0) {
      for (std::int64_t k = 0; k < live; ++k) {
        x_lo[k] = c.UpperRangeConvex(x_lo[k], x_hi[k], c1[k], sv[k]);
      }
    } else {
      for (std::int64_t k = 0; k < live; ++k) {
        x_lo[k] = c.UpperRange(x_lo[k], x_hi[k], c1[k], sv[k]);
      }
    }
    for (std::int64_t k = 0; k < live; ++k) {
      out[static_cast<std::size_t>(at[k])] = x_lo[k];
    }
  }

  /// Over every gap of the group (each of its slices holds one): the
  /// covariance left-tangent bound (BoundCtx::UpperRange) from its first
  /// candidate's record to its last candidate. Range bounds ignore
  /// `excluded`: an excluded endpoint only makes them admissible
  /// over-estimates.
  double GroupBound(std::size_t g) const {
    const GapSlice& first = slices[groups[g].first];
    return ctx.UpperRange(first.x_lo, slices[groups[g].end - 1].x_hi,
                          first.c, first.s);
  }
  /// GroupBound of every group, into out; the convex case vectorizes.
  void GroupBounds(double* out, double* /*soa*/) const {
    const BoundCtx c = ctx;  // Local copy: no aliasing against out.
    const GapSlice* sl = slices.data();
    const GapGroup* gr = groups.data();
    const std::size_t count = groups.size();
    if (c.parabola > 0) {
      for (std::size_t g = 0; g < count; ++g) {
        const GapSlice& first = sl[gr[g].first];
        out[g] = c.UpperRangeConvex(first.x_lo, sl[gr[g].end - 1].x_hi,
                                    first.c, first.s);
      }
    } else {
      for (std::size_t g = 0; g < count; ++g) out[g] = GroupBound(g);
    }
  }

  /// max(bound(lo), bound(hi)) per gap of units [begin, end) (begin a
  /// window's first unit) over its non-excluded endpoints (-inf for an
  /// empty gap and past a slice's end), into out[0, end - begin), one
  /// window at a time: a window with no gap only fills its -inf bounds.
  /// Returns the number of gaps there.
  std::int64_t UnitBounds(std::size_t g, std::int64_t begin, std::int64_t end,
                          double* out, double* soa, ArgmaxStats* stats) const {
    std::int64_t gaps = 0;
    for (std::int64_t first = begin; first < end; first += kSubBlockUnits) {
      const std::int64_t last = std::min(end, first + kSubBlockUnits);
      double* run_out = out + (first - begin);
      Piece p = Window(g, first, last);
      if (Gapless(p)) {
        std::fill(run_out, run_out + (last - first), kNoBound);
        continue;
      }
      // Only the keys from the first gap to the last are scored.
      const std::size_t i0 = p.i0;
      p.i0 = ll.store_.FirstGap(p.s->block, i0, p.i1);
      p.i1 = ll.store_.LastGap(p.s->block, p.i0, p.i1) + 1;
      const auto lead = static_cast<std::int64_t>(p.i0 - i0);
      const auto tail = static_cast<std::int64_t>(p.i1 - i0);
      std::fill(run_out, run_out + lead, kNoBound);
      gaps += RunBounds(p, run_out + lead, soa, stats);
      std::fill(run_out + tail, run_out + (last - first), kNoBound);
    }
    return gaps;
  }

  /// UnitBounds of one piece; returns its gaps. A piece of at least
  /// kBatchMinGaps keys with no exclusions takes the batched kernel: a
  /// scalar pass unpacks the records of the non-empty gaps into \p soa,
  /// packed, then the branch-free BoundCtx::Upper auto-vectorizes over
  /// them and a last pass scatters the results. Both paths give the
  /// same values and count the same bound_evals.
  std::int64_t RunBounds(const Piece& p, double* out, double* soa,
                         ArgmaxStats* stats) const {
    const KeyStore::Block& blk = ll.store_.block(p.s->block);
    const std::size_t i0 = p.i0;
    const std::size_t m = p.i1 - p.i0;
    const Key* keys = blk.keys.data() + i0;
    const std::int64_t* sal = blk.sa_local.data() + i0;
    const Key shift = ll.shift_;
    const double c0 = static_cast<double>(
        blk.count_before + static_cast<Rank>(i0) + CountOff() + 1);
    // Inside the magnitude guard every snapshot suffix fits int64.
    const auto sa_off = static_cast<std::int64_t>(SuffixOff(blk));
    const Key last_hi = GapHi(*p.s, i0 + m - 1);
    auto hi_of = [keys, m, last_hi](std::size_t j) {
      return j + 1 < m ? keys[j + 1] - 1 : last_hi;
    };
    if (excluded == nullptr && m >= kBatchMinGaps) {
      double* x_lo = soa;
      double* x_hi = soa + m;
      double* c1 = soa + 2 * m;
      double* s = soa + 3 * m;
      double* at = soa + 4 * m;  // The unit of each packed lane (exact).
      std::size_t live = 0;
      std::int64_t evals = 0;
      for (std::size_t j = 0; j < m; ++j) {
        out[j] = kNoBound;
        const Key hi = hi_of(j);
        if (hi <= keys[j]) continue;  // An empty gap.
        x_lo[live] = static_cast<double>(keys[j] - shift + 1);
        x_hi[live] = static_cast<double>(hi - shift);
        c1[live] = c0 + static_cast<double>(j);
        s[live] = static_cast<double>(sal[j] + sa_off);
        at[live] = static_cast<double>(j);
        evals += hi - 1 > keys[j] ? 2 : 1;
        ++live;
      }
      stats->bound_evals += evals;
      const BoundCtx c = ctx;  // Local copy: no aliasing against the lanes.
      for (std::size_t k = 0; k < live; ++k) {
        const double b1 = c.Upper(x_lo[k], c1[k], s[k]);
        const double b2 = c.Upper(x_hi[k], c1[k], s[k]);
        x_lo[k] = b2 > b1 ? b2 : b1;
      }
      for (std::size_t k = 0; k < live; ++k) {
        out[static_cast<std::size_t>(at[k])] = x_lo[k];
      }
      return static_cast<std::int64_t>(live);
    }
    std::int64_t gaps = 0;
    for (std::size_t j = 0; j < m; ++j) {
      const Key hi = hi_of(j);
      double bnd = kNoBound;
      if (hi > keys[j]) {
        ++gaps;
        const Key lo = keys[j] + 1;
        const double c1 = c0 + static_cast<double>(j);
        const double s = static_cast<double>(sal[j] + sa_off);
        if (!Excluded(lo)) {
          bnd = ctx.Upper(static_cast<double>(lo - shift), c1, s);
          ++stats->bound_evals;
        }
        if (hi != lo && !Excluded(hi)) {
          const double b2 = ctx.Upper(static_cast<double>(hi - shift), c1, s);
          ++stats->bound_evals;
          if (b2 > bnd) bnd = b2;
        }
      }
      out[j] = bnd;
    }
    return gaps;
  }

  void Exact(std::size_t g, std::int64_t j, ArgmaxFold* fold,
             ArgmaxStats* stats) const {
    const Piece p = Window(g, j, j + 1);
    if (p.s != nullptr) ExactAt(*p.s, p.i0, fold, stats);
  }
  /// Exact of every unit of one window: in O(1) when it holds no gap,
  /// else the keys from its first gap to its last.
  void ExactRun(std::size_t g, std::int64_t begin, std::int64_t end,
                ArgmaxFold* fold, ArgmaxStats* stats) const {
    const Piece p = Window(g, begin, end);
    if (Gapless(p)) return;
    const std::size_t first = ll.store_.FirstGap(p.s->block, p.i0, p.i1);
    const std::size_t last = ll.store_.LastGap(p.s->block, first, p.i1);
    for (std::size_t i = first; i <= last; ++i) ExactAt(*p.s, i, fold, stats);
  }
  /// The candidates of the gap after key i of slice \p s's block.
  void ExactAt(const GapSlice& s, std::size_t i, ArgmaxFold* fold,
               ArgmaxStats* stats) const {
    const KeyStore::Block& blk = ll.store_.block(s.block);
    const Key hi = GapHi(s, i);
    if (hi <= blk.keys[i]) return;  // An empty gap.
    const Rank count_less =
        blk.count_before + static_cast<Rank>(i) + CountOff();
    const Int128 suffix =
        static_cast<Int128>(blk.sa_local[i]) + SuffixOff(blk);
    auto offer = [&](Key kp) {
      if (Excluded(kp)) return;
      fold->Offer(kp, LossAfterInsertion(snap.agg, mom, kp, count_less,
                                         suffix));
      ++stats->exact_evals;
    };
    const Key lo = blk.keys[i] + 1;
    offer(lo);
    if (hi != lo) offer(hi);
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
// candidate shifts — and the key store's int64 suffix sums, which
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
  snap.lo = interior_only ? min_key() + 1 : domain_.lo;
  snap.hi = interior_only ? max_key() - 1 : domain_.hi;
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
    snap.hi = max_key() - 1;
    // Every candidate lies above the removed key, which its record
    // still counts; records below it count nothing to remove.
    snap.rank_adj = 1;
    snap.prefix_adj = static_cast<Int128>(key) - shift_;
  } else {
    snap.agg.RemoveLargest(key);
    snap.lo = min_key() + 1;
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
  ArgmaxFold fold;
  // One gap's candidates, exactly, from its record of the current keys.
  auto offer_gap = [&](Key lo, Key hi, Rank count, Int128 prefix) {
    const Rank count_less = count - snap.rank_adj;
    const Int128 suffix = snap.agg.sum_k - (prefix - snap.prefix_adj);
    for (const Key kp : {lo, hi}) {
      if (excluded == nullptr || excluded->count(kp) == 0) {
        fold.Offer(kp, LossAfterInsertion(snap.agg, mom, kp, count_less,
                                          suffix));
        ++local.exact_evals;
      }
      if (hi == lo) break;
    }
  };
  if (!PruneDomainOk()) {
    // Outside the magnitude guard the store keeps no int64 sums and the
    // bound context's Int128 numerators could overflow: one exact walk.
    if (argmax.prune) local.fallback_rounds = 1;
    ForEachGapInRange(snap.lo, snap.hi, offer_gap);
  } else {
    const GapUnits units = CollectGapGroups(snap);
    const BoundCtx ctx = GapBoundCtx(snap, mom);
    // With no unit there is nothing to bound.
    const ScanMode mode =
        PickScanMode(argmax, ctx.usable || units.total == 0, &local);
    fold = RunArgmax(GapSource{*this, snap, argmax_gap_slices_,
                               argmax_gap_groups_, ctx, mom, excluded,
                               units.total, units.max},
                     mode, pool, argmax.fan_out_units, &local);
    // The gap below the smallest key lies in no block: it is scored
    // exactly beside the skeleton.
    if (snap.lo <= snap.hi && snap.lo < min_key()) {
      if (mode == ScanMode::kTiered) ++local.invalidated_gaps;
      offer_gap(snap.lo, std::min(snap.hi, min_key() - 1), 0, 0);
    }
  }
  if (stats != nullptr) stats->Add(local);
  if (!fold.have) {
    return Status::ResourceExhausted(
        "no unoccupied candidate keys in the poisoning range");
  }
  return fold.best;
}

LossLandscape::GapUnits LossLandscape::CollectGapGroups(
    const GapSnapshot& snap) const {
  const Key lo = snap.lo;
  const Key hi = snap.hi;
  // The units are the gaps after the keys k with lo - 1 <= k < hi: lo - 1
  // and hi + 1 are stored keys or lie outside the domain, so the range
  // never clips a gap, and only the two edge blocks are sliced. A slice
  // with no gap holds no candidate and joins no group.
  auto& slices = PrepareScratch(&argmax_gap_slices_, store_.block_count());
  auto& groups = PrepareScratch(&argmax_gap_groups_, store_.block_count());
  GapUnits units;
  if (lo > hi) return units;
  const KeyStore::Pos first =
      lo > domain_.lo ? store_.Locate(lo - 1) : KeyStore::Pos{};
  const KeyStore::Pos end = store_.Locate(hi);
  // A block's records shift into the snapshot by this much on top of its
  // sum_after; inside the magnitude guard every suffix fits int64.
  const Int128 suffix_off = snap.agg.sum_k + snap.prefix_adj - sum_k_;
  std::int64_t gaps = 0;
  for (std::size_t b = first.block; b <= end.block; ++b) {
    const KeyStore::Block& blk = store_.block(b);
    const std::size_t begin = b == first.block ? first.index : 0;
    const std::size_t stop = b == end.block ? end.index : blk.keys.size();
    if (begin >= stop) continue;
    const bool whole = begin == 0 && stop == blk.keys.size();
    const std::int64_t g = whole ? blk.gaps : store_.CountGaps(b, begin, stop);
    if (g == 0) continue;
    // The range bound inputs: the first gap's record and the last gap's
    // end (both stored for a whole block).
    const std::size_t f =
        whole ? blk.first_gap : store_.FirstGap(b, begin, stop);
    const std::size_t l = whole ? blk.last_gap : store_.LastGap(b, begin, stop);
    GapSlice sl{b, begin, stop, g, 0};
    sl.x_lo = static_cast<double>(blk.keys[f] - shift_ + 1);
    sl.x_hi = static_cast<double>(store_.GapHi(b, l) - shift_);
    sl.c = static_cast<double>(blk.count_before + static_cast<Rank>(f) + 2 -
                               snap.rank_adj);
    sl.s = static_cast<double>(
        blk.sa_local[f] +
        static_cast<std::int64_t>(blk.sum_after + suffix_off));
    slices.push_back(sl);
    gaps += g;
  }
  // Groups of up to ~sqrt(G) gaps: one block per group when every key
  // is followed by a gap, several when blocks hold fewer. A range bound
  // is loose across keys that hold no candidate, so a slice whose keys
  // are mostly gapless (dense runs) is a group of its own, bounded from
  // its first gap to its last.
  auto target =
      static_cast<std::int64_t>(std::sqrt(static_cast<double>(gaps)));
  while (target * target < gaps) ++target;
  bool open = false;
  for (std::size_t i = 0; i < slices.size(); ++i) {
    GapSlice& sl = slices[i];
    const auto keys = static_cast<std::int64_t>(sl.end - sl.begin);
    const bool sparse = kSparseGapRatio * sl.gaps < keys;
    if (!open || sparse || groups.back().gaps + sl.gaps > target) {
      groups.push_back(GapGroup{i, i, 0, 0});
    }
    GapGroup& grp = groups.back();
    sl.first_unit =
        (grp.units + kSubBlockUnits - 1) / kSubBlockUnits * kSubBlockUnits;
    grp.end = i + 1;
    grp.units = sl.first_unit + keys;
    grp.gaps += sl.gaps;
    open = !sparse;
  }
  for (const GapGroup& grp : groups) {
    units.total += grp.units;
    units.max = std::max(units.max, grp.units);
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
  widen(min_key());
  widen(max_key());
  for (const Key k : extra) widen(k);
  return static_cast<double>(m) * (1 + Gamma(1));
}

LossLandscape::BoundCtx LossLandscape::GapBoundCtx(
    const GapSnapshot& snap, const RankMoments& mom) const {
  const std::vector<GapSlice>& slices = argmax_gap_slices_;
  if (slices.empty()) return BoundCtx{};
  const GapSlice& mid = slices[slices.size() / 2];
  const KeyStore::Block& blk = store_.block(mid.block);
  BoundCtx::Ref ref;
  ref.x = static_cast<Int128>(blk.keys[mid.begin]) + 1 - shift_;
  ref.c = blk.count_before + static_cast<Rank>(mid.begin) + 2 -
          snap.rank_adj;
  ref.s = static_cast<Int128>(blk.sa_local[mid.begin]) + blk.sum_after +
          snap.agg.sum_k + snap.prefix_adj - sum_k_;
  return BoundCtx::Make(+1, snap.agg, mom, ref,
                        MaxShiftedMagnitude({snap.lo, snap.hi}));
}

LossLandscape::BoundCtx LossLandscape::KeyBoundCtx(
    const RankMoments& mom) const {
  const KeyStore::Block& mid = store_.block(store_.block_count() / 2);
  BoundCtx::Ref ref;
  ref.x = static_cast<Int128>(mid.keys.front()) - shift_;
  ref.c = mid.count_before + 1;
  ref.s = static_cast<Int128>(mid.sa_local.front()) + mid.sum_after;
  return BoundCtx::Make(-1, aggregates(), mom, ref, MaxShiftedMagnitude({}));
}

long double LossLandscape::LossWithoutKey(Key key, Int128 rank, Int128 sa,
                                          const RankMoments& mom) const {
  const Int128 x = static_cast<Int128>(key) - shift_;
  return mom.Loss(sum_k_ - x, sum_k2_ - x * x, sum_kr_ - x * rank - sa);
}

/// Removal candidates. A unit is one stored key (skipped when outside
/// `allowed`), a group one block of the key store: the commit structure
/// doubles as the bound group structure, so the next round's block
/// bounds see every commit exactly.
struct LossLandscape::KeySource {
  static constexpr std::size_t kSoaLanes = 0;  // Blocks are SoA already.

  const LossLandscape& ll;
  const BoundCtx& ctx;
  const RankMoments& mom;  // Of n - 1 points.
  const std::unordered_set<Key>* allowed;
  std::int64_t total;  // Stored keys.

  const KeyStore::Block& block(std::size_t b) const {
    return ll.store_.block(b);
  }
  std::size_t num_groups() const { return ll.store_.block_count(); }
  std::int64_t Units(std::size_t b) const {
    return static_cast<std::int64_t>(block(b).keys.size());
  }
  /// Every stored key is a candidate.
  std::int64_t Gaps(std::size_t b) const { return Units(b); }
  std::int64_t Gaps(std::size_t, std::int64_t begin, std::int64_t end) const {
    return end - begin;
  }
  std::size_t MaxUnits() const {
    return static_cast<std::size_t>(ll.store_.block_cap());
  }
  bool Allowed(Key k) const {
    return allowed == nullptr || allowed->count(k) != 0;
  }

  /// The chord bound (BoundCtx::UpperBlock) through the exact records
  /// (x, rank, suffix) of keys \p begin and end - 1 of block \p b. It
  /// ignores `allowed`: an admissible over-estimate, the per-key bounds
  /// enforce it.
  double SubBound(std::size_t b, std::int64_t begin, std::int64_t end) const {
    const KeyStore::Block& blk = block(b);
    const auto first = static_cast<std::size_t>(begin);
    const auto last = static_cast<std::size_t>(end - 1);
    const Key shift = ll.shift_;
    const double x_first = static_cast<double>(blk.keys[first] - shift);
    const double r_first = static_cast<double>(blk.count_before + begin + 1);
    const double sa_first = static_cast<double>(
        static_cast<Int128>(blk.sa_local[first]) + blk.sum_after);
    if (first == last) return ctx.Upper(x_first, r_first, sa_first);
    return ctx.UpperBlock(
        x_first, r_first, sa_first,
        static_cast<double>(blk.keys[last] - shift),
        static_cast<double>(blk.count_before + end),
        static_cast<double>(static_cast<Int128>(blk.sa_local[last]) +
                            blk.sum_after));
  }
  double GroupBound(std::size_t b) const { return SubBound(b, 0, Units(b)); }
  /// SubBound of every 64-key run of block \p b, into out.
  void SubBounds(std::size_t b, double* out, double* /*soa*/) const {
    const std::int64_t m = Units(b);
    for (std::int64_t begin = 0; begin < m; begin += kSubBlockUnits) {
      *out++ = SubBound(b, begin, std::min(m, begin + kSubBlockUnits));
    }
  }

  /// Starts loading the end records GroupBound(b) reads.
  void Prefetch(std::size_t b) const {
    const KeyStore::Block& blk = block(b);
    __builtin_prefetch(blk.keys.data());
    __builtin_prefetch(&blk.keys.back());
    __builtin_prefetch(blk.sa_local.data());
    __builtin_prefetch(&blk.sa_local.back());
  }
  /// GroupBound of every block, into out, prefetching ahead.
  void GroupBounds(double* out, double* /*soa*/) const {
    const std::size_t count = num_groups();
    for (std::size_t b = 0; b < std::min(count, kPrefetchGroups); ++b) {
      Prefetch(b);
    }
    for (std::size_t b = 0; b < count; ++b) {
      if (b + kPrefetchGroups < count) Prefetch(b + kPrefetchGroups);
      out[b] = GroupBound(b);
    }
  }

  /// Per-key bounds of keys [begin, end) straight off the block arrays;
  /// the rank/suffix reconstruction adds two loop-invariant scalars, so
  /// the allowed-free loop auto-vectorizes. Every key is a candidate
  /// unit, so all end - begin count.
  std::int64_t UnitBounds(std::size_t b, std::int64_t begin, std::int64_t end,
                          double* out, double* /*soa*/,
                          ArgmaxStats* stats) const {
    const KeyStore::Block& blk = block(b);
    const Key* keys = blk.keys.data() + begin;
    const std::int64_t* sal = blk.sa_local.data() + begin;
    const auto m = static_cast<std::size_t>(end - begin);
    const double rank0 = static_cast<double>(blk.count_before + begin + 1);
    // Inside the magnitude guard every suffix fits int64.
    const auto sa_off = static_cast<std::int64_t>(blk.sum_after);
    const Key shift = ll.shift_;
    if (allowed == nullptr) {
      const BoundCtx c = ctx;  // Local copy: no aliasing.
      for (std::size_t j = 0; j < m; ++j) {
        out[j] = c.Upper(static_cast<double>(keys[j] - shift),
                         rank0 + static_cast<double>(j),
                         static_cast<double>(sal[j] + sa_off));
      }
      stats->bound_evals += static_cast<std::int64_t>(m);
      return end - begin;
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
    return end - begin;
  }

  void ExactRun(std::size_t b, std::int64_t begin, std::int64_t end,
                ArgmaxFold* fold, ArgmaxStats* stats) const {
    for (std::int64_t j = begin; j < end; ++j) Exact(b, j, fold, stats);
  }
  void Exact(std::size_t b, std::int64_t j, ArgmaxFold* fold,
             ArgmaxStats* stats) const {
    const KeyStore::Block& blk = block(b);
    const auto jj = static_cast<std::size_t>(j);
    const Key kp = blk.keys[jj];
    if (!Allowed(kp)) return;
    fold->Offer(kp, ll.LossWithoutKey(
                        kp, blk.count_before + j + 1,
                        static_cast<Int128>(blk.sa_local[jj]) + blk.sum_after,
                        mom));
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
  ArgmaxFold fold;
  if (!store_.with_sa()) {
    // Wide-domain fallback: exact Int128 reverse block walk
    // accumulating the suffix key-sums on the fly (the
    // order-independent tie rule makes the scan direction immaterial).
    if (argmax.prune) local.fallback_rounds = 1;
    const RankMoments mom = RankMoments::Of(n_ - 1);
    Int128 sa = 0;
    for (std::size_t b = store_.block_count(); b > 0; --b) {
      const KeyStore::Block& blk = store_.block(b - 1);
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
    fold = RunArgmax(KeySource{*this, ctx, mom, allowed, n_}, mode, pool,
                     argmax.fan_out_units, &local);
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
      const std::int64_t count = SubBlocksOf(src, g);
      if (count > 0) src.SubBounds(g, subs.data(), soa.data());
      src.UnitBounds(g, 0, m, units.data(), soa.data(), &stats);
      for (std::int64_t j = 0; j < m; ++j) {
        ArgmaxFold fold;
        src.Exact(g, j, &fold, &stats);
        if (!fold.have) continue;  // An empty gap holds no candidate.
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
    if (!store_.with_sa()) {
      return Status::FailedPrecondition("removal bounds not admissible");
    }
    const RankMoments mom = RankMoments::Of(n_ - 1);
    const BoundCtx ctx = KeyBoundCtx(mom);
    if (!ctx.usable) {
      return Status::FailedPrecondition("removal bounds not admissible");
    }
    audit(KeySource{*this, ctx, mom, nullptr, n_});
    return Status::OK();
  }
  GapSnapshot snap;
  snap.agg = aggregates();
  snap.lo = min_key() + 1;
  snap.hi = max_key() - 1;
  if (!PruneDomainOk()) {
    return Status::FailedPrecondition("insertion bounds not admissible");
  }
  const RankMoments mom = RankMoments::Of(snap.agg.n + 1);
  const GapUnits units = CollectGapGroups(snap);
  const BoundCtx ctx = GapBoundCtx(snap, mom);
  if (!ctx.usable) {
    return Status::FailedPrecondition("insertion bounds not admissible");
  }
  audit(GapSource{*this, snap, argmax_gap_slices_, argmax_gap_groups_, ctx,
                  mom, nullptr, units.total, units.max});
  return Status::OK();
}

Key LossLandscape::SecondMinKey() const {
  const std::vector<Key>& first = store_.block(0).keys;
  return first.size() > 1 ? first[1] : store_.block(1).keys.front();
}

Key LossLandscape::SecondMaxKey() const {
  const std::size_t last = store_.block_count() - 1;
  const std::vector<Key>& keys = store_.block(last).keys;
  return keys.size() > 1 ? keys[keys.size() - 2]
                         : store_.block(last - 1).keys.back();
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
