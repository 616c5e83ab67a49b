// Copyright (c) lispoison authors. Licensed under the MIT license.
//
// The "loss as a sequence" view of Section IV: for a fixed legitimate
// keyset K, the minimized regression loss after inserting one poisoning
// key kp is a function L(kp) over the unoccupied keys of the domain.
// LossLandscape precomputes exact prefix aggregates over K so L(kp) can
// be evaluated in O(1) for any candidate — the engine behind both the
// optimal single-point attack (gap-endpoint enumeration, Theorem 2) and
// the full-domain sweeps of Fig. 3.
//
// Unlike the original rebuild-per-round engine, this landscape is
// *incrementally updatable*: InsertKey commits a poisoning key in
// O(log n) aggregate work (plus an O(p) sorted-overlay insert, p =
// number of inserted keys), after which every query reflects the
// enlarged keyset exactly — bit-identical to a fresh landscape built on
// the combined keys. The greedy multi-point attacks exploit this to
// skip the per-round KeySet/landscape reconstruction entirely.
//
// Invariants of the incremental representation:
//  - base_keys_ (the Create-time keys) never change; their prefix sums
//    are a static array.
//  - inserted keys live in a sorted overlay plus a Fenwick tree indexed
//    by *base slot* (the base-key gap an inserted key falls into), so
//    prefix key-sums at any candidate stay O(log n).
//  - gaps_ is the maximal-unoccupied-interval decomposition of the
//    domain, stored as a *tiered* (two-level) layout (TieredGaps): an
//    insertion splits exactly the gap containing it with an O(sqrt(G))
//    splice, and each gap record carries the exact count/prefix-sum of
//    the current keys below it (tier-relative, with lazy per-tier
//    deltas), so candidate scans read exact ranks in O(1) per gap.
//  - all aggregate arithmetic is exact 128-bit; shifting keys by the
//    smallest Create-time key keeps magnitudes safe, and the final
//    Theorem 1 ratio is shift-invariant bit-for-bit because the
//    variance/covariance numerators are shift-invariant in exact
//    integer arithmetic.
//
// Both per-round argmaxes — the insertion that most raises the loss
// (FindOptimal, and FindOptimalWithoutEdge, the RMI exchange
// simulation's insertion with one boundary key taken out) and the
// removal that does (FindOptimalRemoval) — run one branch-and-bound
// skeleton over a *candidate source*: gap tiers for insertion, key
// blocks of the removal SoA for removal. A source
// supplies an admissible double-precision bound per group, per-unit
// bounds and the exact evaluation; the skeleton seeds a running best,
// skips every group or unit whose bound is below it, re-checks the
// survivors exactly, and exits once every remaining bound is below the
// best. The bounds provably dominate the exact evaluation
// (directed-rounding error margins), so the selected candidate stays
// bit-identical to the exhaustive scan.
//
// The pruned scan is *tiered*: instead of re-scoring all O(G) gaps
// every round, it first scores one admissible range bound per
// ~sqrt(G)-gap tier, computed in O(1) from
// the tier's key range and its first gap's exact (count, prefix-sum)
// record — state the tiered gap structure maintains incrementally
// across InsertKey splices. The range bound exploits two
// structural facts: along the candidate axis the covariance numerator
// is piecewise linear with non-decreasing slopes (n1*c1 - sumY grows as
// candidates pass keys) and upward jumps at key crossings, so it lies
// above its left-endpoint tangent; and VarX is a gap-independent convex
// parabola, so its range maximum sits at an endpoint. Only tiers whose
// range bound reaches the running best are re-scored per gap, dropping
// per-round bound work from O(G) to O(sqrt(G) + survivors).
// (Design notes from measurement: bounds persisted across rounds with
// forward-drift margins are useless here — the loss is a near
// cancellation of VarY and Cov^2/VarX, so any per-round drift allowance
// inflates the bound by more than the whole gap-to-gap loss spread —
// and plain interval arithmetic over a tier's input box decorrelates
// Cov from VarX badly enough to never skip a tier; the tangent form is
// what makes a tier-granular bound tight.) Whenever a bound context is
// not provably admissible the round falls back to the exhaustive scan,
// so results are bit-identical either way.

#ifndef LISPOISON_ATTACK_LOSS_LANDSCAPE_H_
#define LISPOISON_ATTACK_LOSS_LANDSCAPE_H_

#include <unordered_set>
#include <utility>
#include <vector>

#include "attack/gap_tiers.h"
#include "attack/removal_soa.h"
#include "common/fenwick.h"
#include "common/status.h"
#include "common/types.h"
#include "data/keyset.h"

namespace lispoison {

class ThreadPool;

/// \brief Exact O(1) evaluator of the post-insertion minimized loss
/// L(kp) = min_{w,b} MSE(K ∪ {kp}) for any candidate poisoning key,
/// with O(log n) incremental commits via InsertKey.
///
/// The compound effect of CDF poisoning (every legitimate key above kp
/// has its rank shifted by one) is folded into the aggregates: with
/// c = |{k in K : k < kp}| keys below the candidate,
///
///   sum(X)   = sum(K) + kp
///   sum(X^2) = sum(K^2) + kp^2
///   sum(XY)  = sum_i k_i * r_i + SuffixKeySum(c) + kp * (c + 1)
///   sum(Y), sum(Y^2) depend only on n (ranks are a permutation of
///   1..n+1).
class LossLandscape {
 public:
  /// \brief Builds the landscape over \p keyset. Requires >= 1 key.
  static Result<LossLandscape> Create(const KeySet& keyset);

  /// \brief Parallel build: with \p pool non-null and running >1
  /// worker, the base-key prefix/aggregate pass and the gap-record
  /// emission fan out in fixed index chunks (a two-pass exclusive scan
  /// stitches the per-chunk partials). All aggregate arithmetic is
  /// exact integer and therefore associative, so the resulting
  /// landscape is bit-identical to the serial build for every thread
  /// count — asserted by landscape_parallel_create_test. pool ==
  /// nullptr (or an inline pool) runs the serial path unchanged.
  static Result<LossLandscape> Create(const KeySet& keyset,
                                      ThreadPool* pool);

  /// \brief The loss of the unpoisoned regression on the *current* keys
  /// (base keys plus everything committed through InsertKey).
  long double BaseLoss() const { return base_loss_; }

  /// \brief Current number of keys n (base + inserted).
  std::int64_t size() const { return n_; }

  /// \brief The key domain of the underlying keyset.
  const KeyDomain& domain() const { return domain_; }

  /// \brief Smallest / largest current key.
  Key min_key() const { return min_key_; }
  Key max_key() const { return max_key_; }

  /// \brief Second-smallest / second-largest current key. Requires
  /// size() >= 2. They bound FindOptimalWithoutEdge's candidate range.
  Key SecondMinKey() const;
  Key SecondMaxKey() const;

  /// \brief Commits poisoning key \p kp into the landscape: all
  /// aggregates, the gap decomposition, and BaseLoss() now describe the
  /// enlarged keyset, exactly as if the landscape had been rebuilt.
  /// Re-inserting a previously removed key cancels its removal overlay
  /// entry instead of growing the inserted overlay.
  ///
  /// Fails with OutOfRange outside the domain and InvalidArgument when
  /// kp is occupied. Cost O(log n) aggregate work + O(p) overlay insert
  /// + O(sqrt(G)) tiered gap splice (see splice_moves()).
  Status InsertKey(Key kp);

  /// \brief The exact dual of InsertKey: removes the *current* key
  /// \p kp (base or inserted), after which every aggregate, the gap
  /// decomposition (adjacent gaps merge; see TieredGaps::MergeAt), the
  /// min/max bookkeeping and BaseLoss() describe the shrunken keyset
  /// bit-identically to a fresh landscape built without kp. Removed
  /// base keys live in a tombstone overlay (sorted vector + Fenwick
  /// sums by base index) threaded through PrefixAt, so the Create-time
  /// key array stays immutable.
  ///
  /// Fails with OutOfRange outside the domain, InvalidArgument when kp
  /// is not currently stored, and FailedPrecondition when fewer than
  /// two keys would remain (the regression needs two points). Cost
  /// O(log n) aggregate work + O(p + r) overlay work + O(sqrt(G))
  /// tiered gap merge (see splice_moves()).
  Status RemoveKey(Key kp);

  /// \brief RemoveKey(from) followed by InsertKey(to) — the §V
  /// modification (relocation) primitive. to == from is a no-op
  /// round-trip. On a failed re-insertion the removal is rolled back
  /// and the error returned, leaving the landscape untouched.
  Status ReplaceKey(Key from, Key to);

  /// \brief L(kp): minimized MSE of the regression trained on the
  /// current keys plus kp.
  ///
  /// Fails with InvalidArgument when kp is occupied (the paper's ⊥ case)
  /// and OutOfRange when kp lies outside the domain.
  Result<long double> LossAt(Key kp) const;

  /// \brief Candidate keys per Theorem 2: the first and last unoccupied
  /// key of every maximal gap. With \p interior_only (the paper's
  /// default) only gaps strictly between min and max of the current keys
  /// are considered, excluding out-of-range/outlier insertions that
  /// simple defenses would catch.
  std::vector<Key> GapEndpoints(bool interior_only) const;

  /// \brief Evaluates L at every unoccupied key (optionally interior
  /// only), in increasing key order — the Fig. 3 sweep and the
  /// brute-force oracle. Cost O(m + n).
  std::vector<std::pair<Key, long double>> Sweep(bool interior_only) const;

  /// \brief The best single poisoning key and its loss.
  struct Candidate {
    Key key = 0;
    long double loss = 0;
  };

  /// \brief Knobs for the pruned argmax (see FindOptimal).
  struct ArgmaxOptions {
    /// Run the branch-and-bound tiered scan: one admissible bound per
    /// group (gap tier or key block, O(1) from the incrementally
    /// maintained state), per-unit bounds only inside groups whose
    /// bound reaches the running best, and exact re-checks only of the
    /// surviving units — O(sqrt(G) + survivors) bound work per round.
    /// The selected Candidate is bit-identical to the exhaustive scan
    /// (the bounds provably dominate the exact loss; ties re-check
    /// every contender and break toward the smaller key, the
    /// first-maximum-in-key-order rule of the serial scan). Off runs the
    /// exhaustive scan, the reference the differential tests compare
    /// against.
    bool prune = true;

    /// Live units from which a pooled round fans out: those of every
    /// group whose bound reaches the seed's loss, or every unit when the
    /// scan is exhaustive. A round with fewer runs the serial scan even
    /// with a pool, because splitting it costs more than it saves. 0
    /// fans out every pooled round. Measured on a 4-vCPU host, the
    /// default lies above the live work of tiered rounds at n <= 200k
    /// (under ~5k units), which ran no faster on the pool, and below
    /// that of tiered rounds at n = 1M (~29k) and n = 10M (~357k) and
    /// of exhaustive rounds from 20k units, which ran 1.2-2.8x faster
    /// when the host's cores were free.
    std::int64_t fan_out_units = 16384;
  };

  /// \brief Evaluation-count counters accumulated across FindOptimal
  /// and FindOptimalRemoval calls. A "gap" below is a candidate unit:
  /// a gap for insertion, a stored key for removal. Counter values
  /// depend only on the chunk partition: one chunk for the serial scan,
  /// which a pooled round also runs unless its live work reaches the
  /// fan-out threshold, and otherwise fixed chunks of consecutive
  /// groups, so they are equal at every pool size above one. Fanned-out
  /// chunks all prune against the one incumbent seeded before the
  /// fan-out, which keeps their exact work close to the serial scan's;
  /// only the returned Candidate is invariant across the two layouts.
  /// Coherence invariant of the tiered scan, asserted by the stateful
  /// property harness: per round, cached_bounds + invalidated_gaps
  /// equals the number of units in the scanned range.
  struct ArgmaxStats {
    std::int64_t rounds = 0;          ///< Argmax calls.
    std::int64_t exact_evals = 0;     ///< Exact Theorem 1 evaluations.
    std::int64_t bound_evals = 0;     ///< Double-precision bound scores
                                      ///< (per-unit and per-group).
    std::int64_t pruned_gaps = 0;     ///< Units never evaluated exactly.
    std::int64_t cached_bounds = 0;   ///< Units disposed of by their
                                      ///< group's bound alone (no
                                      ///< per-unit re-scoring).
    std::int64_t invalidated_gaps = 0;///< Units re-scored individually
                                      ///< (their group survived the
                                      ///< group filter this round).
    std::int64_t fallback_rounds = 0; ///< Pruning requested but the bound
                                      ///< context was not admissible.
    void Add(const ArgmaxStats& o) {
      rounds += o.rounds;
      exact_evals += o.exact_evals;
      bound_evals += o.bound_evals;
      pruned_gaps += o.pruned_gaps;
      cached_bounds += o.cached_bounds;
      invalidated_gaps += o.invalidated_gaps;
      fallback_rounds += o.fallback_rounds;
    }
  };

  /// \brief Maximizes L over the gap endpoints (the optimal single-point
  /// attack). Fails with ResourceExhausted when no unoccupied candidate
  /// exists. With \p excluded non-null, keys in that set are skipped
  /// (the RMI attack's globally occupied poisons).
  ///
  /// With \p pool non-null and running >1 worker, a round whose live
  /// work is large fans out (RunArgmax): the tiered scan first bounds
  /// every tier and exact-checks one seed, whose loss is the incumbent;
  /// the live gaps are those of every tier whose bound reaches it (every
  /// gap when exhaustive). From \p argmax.fan_out_units live gaps the
  /// scan runs on the pool in chunks of consecutive groups holding at
  /// least kArgmaxChunkGaps gaps, each pruning against the incumbent; a
  /// chunk whose every tier bound is below it never runs. Below that
  /// the round is the serial scan. The chunk winners fold by the
  /// first-maximum-in-key-order rule, so the selected candidate is
  /// bit-identical for every thread count, and pooled exact work stays
  /// close to the serial scan's (greedy_differential_test).
  ///
  /// The scan is the argmax skeleton over the gap source: a unit is a
  /// gap, offered at its non-excluded endpoints; a group is the
  /// in-range part of one tier. With \p argmax.prune (the default) it
  /// runs *tiered*: one range bound per tier (a covariance left-tangent over
  /// the tier's key range), a seed inside the tier with the highest
  /// range bound, then a key-ordered sweep that skips whole tiers whose
  /// range bound is below the best, re-scores only the surviving tiers
  /// per gap, and exits once every remaining tier bound is below the
  /// best. Tier range bounds ignore \p excluded (an excluded endpoint
  /// only makes them admissible over-estimates; the per-gap bounds skip
  /// excluded endpoints exactly). Whenever the bound context is not
  /// provably admissible the call falls back to the exhaustive scan,
  /// so the result is bit-identical either way (argmax_pruning_test,
  /// the stateful property harness). \p stats, when non-null, is
  /// accumulated into, never reset.
  ///
  /// Scratch note: the bound buffers are engine-owned and reused across
  /// rounds (no O(G) allocation per call), which makes concurrent
  /// FindOptimal calls on the *same* landscape racy; every attack drives
  /// one landscape from one thread at a time and fans out only via
  /// \p pool.
  Result<Candidate> FindOptimal(bool interior_only,
                                const std::unordered_set<Key>* excluded,
                                ThreadPool* pool,
                                const ArgmaxOptions& argmax,
                                ArgmaxStats* stats = nullptr) const;

  /// \brief Overload with the default ArgmaxOptions (the tiered
  /// scan). Kept separate because a nested-class default argument cannot
  /// be spelled inside the enclosing class.
  Result<Candidate> FindOptimal(bool interior_only,
                                const std::unordered_set<Key>* excluded =
                                    nullptr,
                                ThreadPool* pool = nullptr) const;

  /// \brief An end of the current key span.
  enum class Edge { kMin, kMax };

  /// \brief The receiver side of the RMI CHANGELOSS simulation:
  /// FindOptimal's argmax with \p key taken out of the current keys as
  /// their smallest (Edge::kMin) or largest (Edge::kMax) key, without
  /// touching the landscape. The candidates are the gap endpoints
  /// strictly between SecondMinKey() and max_key() (kMin) or between
  /// min_key() and SecondMaxKey() (kMax). That is the interior of what
  /// remains, so interior_only has nothing to choose here.
  ///
  /// The scan runs FindOptimal's skeleton, serially, over an adjusted
  /// snapshot: the aggregates lose \p key, and every gap record counts
  /// one key fewer and \p key's shifted value less above a removed
  /// minimum (a removed maximum lies above every candidate). A group
  /// bound never starts at a record below a removed minimum. With
  /// \p argmax.prune off it is the exhaustive scan. Results are
  /// bit-identical either way (argmax_pruning_test checks both against
  /// a landscape rebuilt without \p key).
  ///
  /// When \p key is not the edge it is named as, the snapshot describes
  /// no keyset; the result is still deterministic and the same for both
  /// scans. Fails with FailedPrecondition below two keys and
  /// ResourceExhausted when no candidate outside \p excluded remains.
  /// Shares the engine-owned argmax scratch: one landscape, one thread
  /// at a time.
  Result<Candidate> FindOptimalWithoutEdge(
      Edge edge, Key key, const std::unordered_set<Key>* excluded,
      const ArgmaxOptions& argmax, ArgmaxStats* stats = nullptr) const;

  /// \brief The removal-side argmax: the stored key whose deletion
  /// maximizes the retrained loss (the greedy step of the §V deletion
  /// and modification attacks). With \p allowed non-null only keys in
  /// that set are candidates (the adversary's deletable records).
  ///
  /// The same argmax skeleton as FindOptimal over the key source: a
  /// unit is a stored key, a group one block of a lazily built,
  /// incrementally maintained *block-local* structure-of-arrays view of
  /// the current keys (~sqrt(n)-key blocks of sorted keys + block-local
  /// int64 suffix key-sums, with tier-relative rank/suffix directory
  /// scalars — RemovalSoa). No per-round landscape reconstruction, and
  /// O(sqrt(n)) maintenance per commit. Per-key bounds are the removal
  /// dual of the insertion bound (same component-magnitude margins),
  /// computed by a batched auto-vectorizable kernel over the block
  /// arrays; the tiered scan's group bound is a chord per block (the
  /// covariance is concave piecewise-linear along the stored keys, so
  /// the chord through a block's exact endpoint records minorizes it).
  /// The commit structure and the bound tier structure are the same
  /// blocks, so the next round's chords see every commit exactly.
  /// Results are bit-identical to an index-ordered exhaustive scan
  /// (ties break toward the smaller key) for every prune and thread
  /// setting; whenever the bound arithmetic is not provably admissible
  /// (wide domains) the round falls back to an exact Int128 scan.
  /// Counter contract of the tiered scan: cached_bounds +
  /// invalidated_gaps == candidates in the scan.
  ///
  /// Fails with FailedPrecondition when fewer than three keys are
  /// stored and ResourceExhausted when \p allowed rules every key out.
  /// Shares the engine-owned argmax scratch: one landscape, one thread
  /// at a time (fan out only via \p pool).
  Result<Candidate> FindOptimalRemoval(
      const std::unordered_set<Key>* allowed, ThreadPool* pool,
      const ArgmaxOptions& argmax, ArgmaxStats* stats = nullptr) const;

  /// \brief Times any argmax scratch buffer grew its capacity. Stays
  /// O(log G) across an attack (geometric growth), which the
  /// differential harness asserts to pin the no-per-round-allocation
  /// property.
  std::int64_t argmax_scratch_reallocs() const { return scratch_reallocs_; }

  /// \name Removal-SoA maintenance telemetry: cumulative slots touched
  /// by InsertKey/RemoveKey commits into the block-local candidate
  /// structure, the commit count, and the current block geometry. Per
  /// commit the touched-slot delta is O(sqrt(n)) by construction —
  /// the n=10M bench gate asserts the measured growth from n=100k.
  /// All zero until a removal argmax materializes the SoA.
  /// @{
  std::int64_t removal_commit_touched_slots() const {
    return rem_soa_.touched_slots();
  }
  std::int64_t removal_commits() const { return rem_soa_.commits(); }
  std::int64_t removal_block_count() const {
    return static_cast<std::int64_t>(rem_soa_.block_count());
  }
  /// @}

  /// \brief Test-only scratch canary: fills every engine-owned argmax
  /// scratch buffer with poison values (NaN for bound slots, a large
  /// sentinel for indices/counts) and — under AddressSanitizer —
  /// poisons the buffers' memory so any read or write that escapes the
  /// [0, needed) prefix the next scan's PrepareScratch/EnsureScratchSize
  /// unpoisons aborts the process. Pins the scratch contract the
  /// grow-only resize(capacity) pattern relies on ("stale entries
  /// beyond the prepared prefix are never read").
  void PoisonArgmaxScratchForTesting() const;

  /// \brief Gap records / tier-directory entries moved by InsertKey
  /// splices, cumulative — O(sqrt(G)) per insert by construction
  /// (tiered layout), which the stateful property harness asserts.
  std::int64_t splice_moves() const { return gaps_.splice_moves(); }

  /// \brief Max gaps per tier before a tier splits (the splice-work
  /// scale the property harness bounds against).
  std::int64_t gap_tier_cap() const { return gaps_.tier_cap(); }

  /// \brief Current number of maximal gaps over the whole domain.
  std::int64_t gap_count() const { return gaps_.size(); }

  /// \brief Exact prefix statistics over the current keys strictly
  /// below \p kp. prefix_sum is over shifted keys (k - shift()).
  struct PrefixStats {
    Rank count_less = 0;
    Int128 prefix_sum = 0;
  };
  PrefixStats PrefixAt(Key kp) const;

  /// \brief The shift subtracted from every key inside the aggregates.
  Key shift() const { return shift_; }

  /// \brief Detached copy of the exact aggregates, supporting O(1)
  /// what-if edits and loss evaluation without touching the landscape.
  /// The RMI CHANGELOSS simulation's donor side runs entirely on these
  /// snapshots.
  struct Aggregates {
    std::int64_t n = 0;
    Key shift = 0;
    Int128 sum_k = 0;   // sum of shifted keys
    Int128 sum_k2 = 0;  // sum of shifted keys squared
    Int128 sum_kr = 0;  // sum of shifted_key * rank

    /// \brief Theorem 1 loss of the current n keys.
    long double Loss() const;

    /// \brief Loss after hypothetically inserting \p kp with
    /// \p count_less keys below it; \p suffix_sum is the shifted key-sum
    /// of the keys above kp. Does not modify the snapshot.
    long double LossAfterInsert(Key kp, Rank count_less,
                                Int128 suffix_sum) const;

    /// \brief Commits an insertion into the snapshot.
    void Insert(Key kp, Rank count_less, Int128 suffix_sum);
    /// \brief Removes a present key; \p suffix_sum_above excludes kp.
    void Remove(Key kp, Rank count_less, Int128 suffix_sum_above);

    /// \name O(1) edge edits used by the exchange simulation (donor
    /// side) and FindOptimalWithoutEdge.
    /// @{
    void InsertBelowAll(Key k) { Insert(k, 0, sum_k); }
    void InsertAboveAll(Key k) { Insert(k, n, 0); }
    void RemoveSmallest(Key k) {
      Remove(k, 0, sum_k - (static_cast<Int128>(k) - shift));
    }
    void RemoveLargest(Key k) { Remove(k, n - 1, 0); }
    /// @}
  };
  Aggregates aggregates() const;

  /// \brief Visits every maximal gap intersected with [lo_bound,
  /// hi_bound] in increasing key order as f(gap_lo, gap_hi, count_less,
  /// prefix_sum), where count_less / prefix_sum describe the current
  /// keys strictly below gap_lo (identical for every candidate inside
  /// the gap, since gaps contain no keys). O(1) per visited gap.
  template <typename F>
  void ForEachGapInRange(Key lo_bound, Key hi_bound, F&& f) const {
    gaps_.ForEachInRange(lo_bound, hi_bound, std::forward<F>(f));
  }

  /// \brief ForEachGapInRange over the standard candidate range: the
  /// interior (min, max) of the current keys, or the whole domain.
  template <typename F>
  void ForEachGap(bool interior_only, F&& f) const {
    const Key lo = interior_only ? min_key_ + 1 : domain_.lo;
    const Key hi = interior_only ? max_key_ - 1 : domain_.hi;
    ForEachGapInRange(lo, hi, std::forward<F>(f));
  }

 private:
  void RecomputeCurrentLoss();

  /// True when the pruned bound arithmetic (and the int64 suffix-sum
  /// SoA) is provably admissible for the current n and domain span.
  bool PruneDomainOk() const;

  /// Exact minimized loss of the current keys with the stored key
  /// \p key (1-based rank \p rank, int64 shifted suffix key-sum \p sa)
  /// deleted. The (rank, sa) pair comes from a removal-SoA block's
  /// tier-relative reconstruction — exact, so the loss is bit-identical
  /// to the flat layout's.
  long double LossWithoutKey(Key key, std::int64_t rank,
                             std::int64_t sa) const;

  /// Builds / refreshes the block-local removal-candidate SoA.
  void EnsureRemovalSoa() const;

  /// Per-round double-precision bound context of the insertion argmax;
  /// defined in the .cc.
  struct BoundCtx;

  /// Removal-side bound context (the dual of BoundCtx over the n-1
  /// surviving keys); defined in the .cc.
  struct RemovalBoundCtx;

  /// The argmax skeleton's two candidate sources — gap tiers and key
  /// blocks — and its running best; defined in the .cc.
  struct GapSource;
  struct KeySource;
  struct ArgmaxFold;

  /// What an insertion argmax scans: the gaps inside [lo, hi], each
  /// candidate joining the keys `agg` describes. The gap records
  /// describe the current keys, so above a removed minimum they count
  /// rank_adj keys with shifted sum prefix_adj that `agg` lacks. Records
  /// below `valid_from` (the removed minimum) do not count it, so the
  /// correction is wrong there and no group bound starts at one.
  struct GapSnapshot {
    Aggregates agg;
    Key lo = 0;
    Key hi = 0;
    Rank rank_adj = 0;
    Int128 prefix_adj = 0;
    Key valid_from = 0;
  };

  /// The insertion argmax of FindOptimal and FindOptimalWithoutEdge.
  Result<Candidate> ScanGaps(const GapSnapshot& snap,
                             const std::unordered_set<Key>* excluded,
                             ThreadPool* pool, const ArgmaxOptions& argmax,
                             ArgmaxStats* stats) const;

  /// One gap-source group: in-range gaps [begin, end) of tier `tier`.
  struct GapGroup {
    std::size_t tier = 0;
    std::size_t begin = 0;
    std::size_t end = 0;
  };

  /// One parallel chunk: groups [first, end).
  struct ArgmaxChunk {
    std::size_t first = 0;
    std::size_t end = 0;
  };

  /// The scans of the argmax skeleton: every unit exactly (prune off or
  /// bounds not admissible), or the tiered scan that bounds groups
  /// first.
  enum class ScanMode { kExhaustive, kTiered };
  static ScanMode PickScanMode(const ArgmaxOptions& argmax, bool admissible,
                               ArgmaxStats* stats);

  /// The argmax skeleton. Tiered, once per round and before any
  /// fan-out: bounds every group, stages the unit bounds of the first
  /// group with the highest bound, and exact-checks that group's best
  /// unit, whose loss is the incumbent. The scan is then the serial one,
  /// a single chunk swept from the incumbent, unless \p pool runs more
  /// than one worker and the live units (those of every group whose
  /// bound reaches the incumbent; every unit when exhaustive) reach
  /// \p fan_out_units. Then the groups are cut into chunks of at least
  /// kArgmaxChunkGaps units; a chunk whose every group bound is below
  /// the incumbent is counted as cached and never dispatched, and one
  /// task per worker sweeps every tasks-th live chunk, each from its own
  /// copy of the incumbent. The winners and counters fold with the
  /// order-independent first-maximum rule, so counters depend on the
  /// partition only, never on the worker count.
  template <typename Src>
  ArgmaxFold RunArgmax(const Src& src, ScanMode mode, ThreadPool* pool,
                       std::int64_t fan_out_units, ArgmaxStats* stats) const;

  /// Sweeps \p chunk in \p mode into \p fold, which holds the
  /// incumbent on entry, so every bound is tested against
  /// max(incumbent, the chunk's own best). Exhaustive: every unit
  /// exactly. Tiered: in key order, skips a group whose bound is below
  /// the best, re-scores a surviving group per unit (group \p seed_g
  /// from the staged seed bounds, read-only, whose consumed seed reads
  /// -inf), and exits once every remaining group bound is below the
  /// best. Reads the shared bound arrays RunArgmax filled and writes
  /// only scratch slot \p slot.
  template <typename Src>
  void ScanArgmaxChunk(const Src& src, ScanMode mode,
                       const ArgmaxChunk& chunk, std::size_t slot,
                       std::size_t seed_g, ArgmaxFold* fold,
                       ArgmaxStats* stats) const;

  /// Clears \p buf, growing its capacity geometrically (and bumping
  /// scratch_reallocs_) only when \p needed exceeds it.
  template <typename T>
  std::vector<T>& PrepareScratch(std::vector<T>* buf,
                                 std::size_t needed) const;

  std::vector<Key> base_keys_;       // Create-time keys, sorted, static.
  std::vector<Int128> base_prefix_;  // base_prefix_[i] = sum first i shifted.
  std::vector<Key> inserted_;        // Keys committed via InsertKey, sorted.
  FenwickTree<Int128> inserted_slot_sum_;  // Shifted inserted-key sums per
                                           // base slot (see PrefixAt).
  std::vector<Key> removed_;         // Removed base keys, sorted tombstones.
  FenwickTree<Int128> removed_idx_sum_;  // Their shifted sums by base index
                                         // (lazily allocated on first
                                         // base-key removal).
  TieredGaps gaps_;                  // Tiered maximal unoccupied runs
                                     // with per-tier aggregate boxes.
  KeyDomain domain_;
  Key shift_ = 0;                    // base_keys_[0]; sums use k - shift_.
  Key min_key_ = 0;
  Key max_key_ = 0;
  std::int64_t n_ = 0;               // Current key count (base + inserted).
  Int128 sum_k_ = 0;
  Int128 sum_k2_ = 0;
  Int128 sum_kr_ = 0;
  long double base_loss_ = 0;

  // Engine-owned argmax scratch, reused across rounds (see FindOptimal's
  // scratch note). Mutable: FindOptimal is logically const.
  mutable std::vector<GapGroup> argmax_gap_groups_;
  mutable std::vector<ArgmaxChunk> argmax_chunks_;
  // Unit bounds: the seed group's in slot 0, then one swept-group slot
  // per sweeping task (one when serial).
  mutable std::vector<double> argmax_bounds_;
  // Tiered-scan per-group arrays (sized by group count, ~sqrt(G)).
  mutable std::vector<double> argmax_tier_bounds_;
  mutable std::vector<double> argmax_tier_suffix_max_;
  mutable std::vector<std::int64_t> argmax_tier_suffix_cnt_;
  mutable std::vector<double> argmax_soa_;  // SoA staging of the batched
                                            // per-gap bound kernel, one
                                            // slot per sweeping task.
  mutable std::int64_t scratch_reallocs_ = 0;

  // Removal-candidate SoA: the current keys in sorted ~sqrt(n) blocks
  // with block-local int64 suffix key-sums and tier-relative
  // count_before/sum_after directory scalars (valid under the same
  // magnitude guard as the pruned bound arithmetic). Built lazily by
  // FindOptimalRemoval, then maintained incrementally by
  // InsertKey/RemoveKey in O(sqrt(n)) touched slots per commit; pure
  // insertion attacks never pay for it.
  mutable RemovalSoa rem_soa_;
};

}  // namespace lispoison

#endif  // LISPOISON_ATTACK_LOSS_LANDSCAPE_H_
