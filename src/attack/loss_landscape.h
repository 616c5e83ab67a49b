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
// *incrementally updatable*: InsertKey and RemoveKey commit an edit in
// O(sqrt(n)) work, after which every query reflects the edited keyset
// exactly — bit-identical to a fresh landscape built on those keys.
// The greedy attacks exploit this to skip the per-round
// KeySet/landscape reconstruction entirely.
//
// Invariants of the incremental representation:
//  - the current keys live in one KeyStore: sorted ~sqrt(n)-key blocks
//    with block-local int64 suffix sums (kept while PruneDomainOk()
//    holds) and a directory of exact per-block ranks (count_before),
//    Int128 suffix sums (sum_after) and gap summaries (the count of
//    non-empty gaps and the first and last key followed by one). A
//    commit touches one block plus one directory entry per block.
//  - a maximal gap is the space after a stored key, up to the next key
//    or the domain's end, plus one leading gap below the smallest key.
//    A gap's record (keys below it, their shifted sum) is the record of
//    the key before it, read in O(1) from the store.
//  - prefix statistics at any key are a directory search plus one
//    block; the smallest and largest keys are the store's ends.
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
// skeleton over a *candidate source* read off the key store's blocks:
// the gaps after the keys of consecutive block slices for insertion,
// the keys of a block for removal. A source supplies admissible
// double-precision bounds at three levels — per group, per sub-block of
// 64 units, per unit — and the exact evaluation; the skeleton seeds a
// running best, skips every group, sub-block or unit whose bound is
// below it, re-checks the survivors exactly, and exits once every
// remaining bound is below the best. The bounds provably dominate the
// exact evaluation, so the selected candidate stays bit-identical to
// the exhaustive scan.
//
// The bounds are precise because they never pay for the loss's
// cancellation. The loss numerator VarY - Cov^2/VarX nearly cancels:
// both terms are ~n^4/12 while candidates differ by a few loss units
// times n^2. Once per scan the reference point x = 0 is evaluated
// exactly (Int128 numerators V0, C0, VarY, long-double Q0 = C0^2/V0);
// per candidate only the changes VarX - V0 and Cov - C0 are formed in
// double, and their rounding is bounded by Higham's gamma_k terms on
// the magnitudes of those changes, not of VarY (see BoundCtx).
//
// The pruned scan is *tiered*: instead of re-scoring all O(n) gaps
// every round, it first scores one admissible range bound per group of
// block slices holding up to ~sqrt(G) of the G gaps (a slice whose
// keys are mostly gapless is a group alone), computed in O(1) from the
// first gap's exact (count, suffix-sum) record and the last gap's end —
// state the key store maintains incrementally across commits. A 64-key
// window with no gap is skipped in O(1) with no bound at all: its keys
// and the key after it are consecutive exactly when their key span
// equals their index span. The range bound exploits two
// structural facts: along the candidate axis the covariance numerator
// is piecewise linear with non-decreasing slopes (n1*c1 - sumY grows as
// candidates pass keys) and upward jumps at key crossings, so it lies
// above its left-endpoint tangent; and VarX is a gap-independent convex
// parabola, so Cov^2/VarX under the tangent takes its range minimum at
// an endpoint. Inside a group of more than 64 keys whose bound reaches
// the running best the same range bound is taken per 64-key window of
// a slice, from its first gap to its last, and only surviving windows
// are re-scored per gap, so per-round work is O(sqrt(n) + survivors).
// (Design notes from measurement: bounds persisted across rounds with
// forward-drift margins are useless here — any per-round drift
// allowance inflates the bound by more than the whole gap-to-gap loss
// spread — and plain interval arithmetic over a group's input box
// decorrelates Cov from VarX badly enough to never skip a group; the
// tangent form is what makes a group-granular bound tight. A blanket
// relative margin on the full magnitudes, as this engine used before
// the reference-point form, tracks VarY ~ n^4 instead of the loss
// spread: at n = 1M uniform keys it kept ~2,200 exact re-checks a round
// alive where ~1 gap lies within 1e-6 of the best.) Whenever a bound
// context is not provably admissible the round falls back to the
// exhaustive scan, so results are bit-identical either way.

#ifndef LISPOISON_ATTACK_LOSS_LANDSCAPE_H_
#define LISPOISON_ATTACK_LOSS_LANDSCAPE_H_

#include <functional>
#include <initializer_list>
#include <unordered_set>
#include <utility>
#include <vector>

#include "attack/key_store.h"
#include "common/status.h"
#include "common/types.h"
#include "data/keyset.h"

namespace lispoison {

class ThreadPool;

/// \brief Exact O(1) evaluator of the post-insertion minimized loss
/// L(kp) = min_{w,b} MSE(K ∪ {kp}) for any candidate poisoning key,
/// with O(sqrt(n)) incremental commits via InsertKey and RemoveKey.
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

  /// \brief Parallel build: the key store is built one block per task
  /// on \p pool (inline when it is null or runs one worker). The blocks
  /// depend only on the key count, and their exact integer partials
  /// fold serially, so the landscape is bit-identical for every thread
  /// count — asserted by landscape_parallel_create_test.
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
  Key min_key() const { return store_.front(); }
  Key max_key() const { return store_.back(); }

  /// \brief Second-smallest / second-largest current key. Requires
  /// size() >= 2. They bound FindOptimalWithoutEdge's candidate range.
  Key SecondMinKey() const;
  Key SecondMaxKey() const;

  /// \brief Commits poisoning key \p kp into the landscape: all
  /// aggregates, the key store, and BaseLoss() now describe the
  /// enlarged keyset, exactly as if the landscape had been rebuilt.
  ///
  /// Fails with OutOfRange outside the domain and InvalidArgument when
  /// kp is occupied. Cost O(sqrt(n)): one block of the key store plus
  /// its directory (see splice_moves()).
  Status InsertKey(Key kp);

  /// \brief The exact dual of InsertKey: removes the *current* key
  /// \p kp, after which every aggregate, the gaps (the two beside kp
  /// merge), the smallest and largest keys and BaseLoss() describe the
  /// shrunken keyset bit-identically to a fresh landscape built
  /// without kp.
  ///
  /// Fails with OutOfRange outside the domain, InvalidArgument when kp
  /// is not currently stored, and FailedPrecondition when fewer than
  /// two keys would remain (the regression needs two points). Cost
  /// O(sqrt(n)), as for InsertKey.
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
    /// group (key-store blocks, O(1) from the incrementally maintained
    /// state), one per 64-unit sub-block only inside groups whose bound
    /// reaches the running best, per-unit bounds only inside surviving
    /// sub-blocks, and exact re-checks only of the surviving units —
    /// O(sqrt(n) + survivors) bound work per round.
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
    /// fans out every pooled round. The default was measured on a 4-vCPU
    /// host with the earlier gap-tier groups (~sqrt(G) gaps each, not
    /// re-measured on key-store groups): it lay above the live work of
    /// tiered rounds at n <= 200k (under ~5k units), which ran no faster
    /// on the pool, and below that of tiered rounds at n = 1M (~29k)
    /// and n = 10M (~357k) and of exhaustive rounds from 20k units,
    /// which ran 1.2-2.8x faster when the host's cores were free.
    std::int64_t fan_out_units = 16384;
  };

  /// \brief Evaluation-count counters accumulated across FindOptimal
  /// and FindOptimalRemoval calls. A "gap" below is a unit that holds a
  /// candidate: a non-empty gap for insertion (the unit after a stored
  /// key whose successor is adjacent holds none and is never counted),
  /// a stored key for removal. Counter values
  /// depend only on the chunk partition: one chunk for the serial scan,
  /// which a pooled round also runs unless its live work reaches the
  /// fan-out threshold, and otherwise fixed chunks of consecutive
  /// groups, so they are equal at every pool size above one. Fanned-out
  /// chunks all prune against the one incumbent seeded before the
  /// fan-out, which keeps their exact work close to the serial scan's;
  /// only the returned Candidate is invariant across the two layouts.
  /// Coherence invariant of the tiered scan, asserted by the stateful
  /// property harness: per round, cached_bounds + invalidated_gaps
  /// equals the number of gaps (insertion) or keys (removal) in the
  /// scanned range.
  struct ArgmaxStats {
    std::int64_t rounds = 0;          ///< Argmax calls.
    std::int64_t exact_evals = 0;     ///< Exact Theorem 1 evaluations.
    std::int64_t bound_evals = 0;     ///< Double-precision bound scores
                                      ///< (per group, per sub-block of
                                      ///< a surviving group, per
                                      ///< candidate); a group or
                                      ///< sub-block with no gap scores
                                      ///< none.
    std::int64_t pruned_gaps = 0;     ///< Units never evaluated exactly.
    std::int64_t cached_bounds = 0;   ///< Units disposed of by their
                                      ///< group's bound alone (no
                                      ///< per-unit re-scoring).
    std::int64_t invalidated_gaps = 0;///< Units of groups that survived
                                      ///< the group filter this round
                                      ///< (scored per sub-block, and
                                      ///< per unit where that survived).
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
  /// every group and exact-checks one seed, whose loss is the
  /// incumbent; the live units are those of every group whose bound
  /// reaches it (every unit when exhaustive). From
  /// \p argmax.fan_out_units live units the scan runs on the pool in
  /// chunks of consecutive groups holding at least kArgmaxChunkGaps
  /// units, each pruning against the incumbent; a chunk whose every
  /// group bound is below it never runs. Below that
  /// the round is the serial scan. The chunk winners fold by the
  /// first-maximum-in-key-order rule, so the selected candidate is
  /// bit-identical for every thread count, and pooled exact work stays
  /// close to the serial scan's (greedy_differential_test).
  ///
  /// The scan is the argmax skeleton over the gap source: a unit is the
  /// gap after one stored key (up to the next key, or the domain's
  /// end), offered at its non-excluded endpoints; a group is a run of
  /// consecutive in-range key-store block slices that hold gaps, with
  /// up to ~sqrt(G) of the G gaps (one block where every key is
  /// followed by a gap, many on dense runs). The gap below the smallest
  /// key, when the range reaches it, is evaluated exactly beside the
  /// skeleton. With \p argmax.prune (the default) it runs *tiered*: one
  /// range bound per group (a covariance left-tangent from its first
  /// unit's record), a seed at the best gap bound of the group with the
  /// highest range bound, then a key-ordered sweep that skips whole
  /// groups whose range bound is below the best, bounds the surviving
  /// groups of more than 64 keys per 64-key sub-block of a slice (the
  /// same range bound from the sub-block's first unit), re-scores only
  /// surviving sub-blocks per gap, and exits once every remaining group
  /// bound is below the best. A sub-block with no gap is skipped in
  /// O(1). Range bounds ignore \p excluded (an excluded endpoint only
  /// makes them admissible over-estimates; the per-gap bounds skip
  /// excluded endpoints exactly). Outside PruneDomainOk() the call runs
  /// one exact Int128 walk over the store instead, and where the bound
  /// context is not provably admissible the exhaustive scan, so the
  /// result is bit-identical either way (argmax_pruning_test, the
  /// stateful property harness). \p stats, when non-null, is
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
  /// minimum (a removed maximum lies above every candidate). Every
  /// bound starts at an in-range record, above a removed minimum. With
  /// \p argmax.prune off it is the exhaustive scan, and outside
  /// PruneDomainOk() the exact walk. Results are
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
  /// unit is a stored key, a group one block of the key store
  /// (~sqrt(n)-key blocks of sorted keys + block-local int64 suffix
  /// key-sums, with a rank/suffix directory). No per-round landscape
  /// reconstruction, and O(sqrt(n)) maintenance per commit. Per-key
  /// bounds are the removal
  /// dual of the insertion bound (the same reference-point expansion
  /// with the opposite sign), computed by a batched auto-vectorizable
  /// kernel over the block arrays; the tiered scan's group bound is a
  /// chord per block, and per 64-key run inside a surviving block (the
  /// covariance is concave piecewise-linear along the stored keys, so
  /// the chord through a run's exact end records minorizes it).
  /// The commit structure and the bound groups are the same blocks, so
  /// the next round's chords see every commit exactly.
  /// Results are bit-identical to an index-ordered exhaustive scan
  /// (ties break toward the smaller key) for every prune and thread
  /// setting; whenever the bound arithmetic is not provably admissible
  /// (wide domains) the round falls back to an exact Int128 walk.
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

  /// \name Key-store maintenance telemetry: cumulative slots touched
  /// by InsertKey/RemoveKey commits (block array moves, directory
  /// updates, rebalance copies), the commit count, and the block
  /// geometry. Per commit the touched-slot delta is O(sqrt(n)) by
  /// construction — the n=10M bench gate asserts the measured growth
  /// from n=100k, and the stateful property harness bounds each commit
  /// by the block cap. splice_moves() and removal_commit_touched_slots()
  /// both read the one touched-slot counter.
  /// @{
  std::int64_t splice_moves() const { return store_.touched_slots(); }
  std::int64_t removal_commit_touched_slots() const {
    return store_.touched_slots();
  }
  std::int64_t removal_commits() const { return store_.commits(); }
  std::int64_t block_count() const {
    return static_cast<std::int64_t>(store_.block_count());
  }
  /// Max keys per block before a block splits.
  std::int64_t block_cap() const { return store_.block_cap(); }
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

  /// \brief One candidate unit of a tiered argmax scan with every bound
  /// that covers it (see AuditArgmaxBoundsForTesting).
  struct BoundAuditRow {
    Key key = 0;             ///< The unit's first best candidate.
    long double exact = 0;   ///< Its exact loss, the unit's largest.
    double unit_bound = 0;
    double sub_bound = 0;    ///< Its sub-block's bound; the group's
                             ///< bound when the group skips that level.
    double group_bound = 0;
  };

  /// \brief Test-only: evaluates, in key order, every group, sub-block
  /// and unit bound of the tiered scan of FindOptimal(interior_only =
  /// true) (\p removal: of FindOptimalRemoval with every key allowed)
  /// and the exact loss of every unit, and hands each unit to \p visit.
  /// Admissibility means every bound is >= the unit's exact loss. Fails
  /// with FailedPrecondition where the scan would fall back to the
  /// exhaustive one (no admissible bound context), and as the argmax
  /// does below its minimum key count.
  Status AuditArgmaxBoundsForTesting(
      bool removal, const std::function<void(const BoundAuditRow&)>& visit)
      const;

  /// \brief Current number of maximal gaps over the whole domain.
  /// O(sqrt(n)).
  std::int64_t gap_count() const {
    return (min_key() > domain_.lo ? 1 : 0) + store_.gap_count();
  }

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
  /// the gap, since gaps contain no keys). One exact Int128 walk over
  /// the stored keys from the last one below lo_bound: O(sqrt(n)) to
  /// start, then O(1) per key passed.
  template <typename F>
  void ForEachGapInRange(Key lo_bound, Key hi_bound, F&& f) const {
    if (lo_bound < domain_.lo) lo_bound = domain_.lo;
    if (hi_bound > domain_.hi) hi_bound = domain_.hi;
    if (lo_bound > hi_bound) return;
    if (lo_bound < min_key()) {
      f(lo_bound, hi_bound < min_key() ? hi_bound : min_key() - 1, Rank{0},
        Int128{0});
    }
    // Start at the last key below lo_bound (the first key when none
    // is), with the count and shifted sum of the keys up to it.
    KeyStore::Pos p = store_.Locate(lo_bound);
    PrefixStats at = PrefixAt(p);
    if (p.index > 0) {
      --p.index;
    } else if (p.block > 0) {
      --p.block;
      p.index = store_.block(p.block).keys.size() - 1;
    } else {
      at.count_less = 1;
      at.prefix_sum = static_cast<Int128>(min_key()) - shift_;
    }
    bool start = true;
    for (std::size_t b = p.block; b < store_.block_count(); ++b) {
      const std::vector<Key>& keys = store_.block(b).keys;
      for (std::size_t i = b == p.block ? p.index : 0; i < keys.size(); ++i) {
        if (!start) {
          ++at.count_less;
          at.prefix_sum += static_cast<Int128>(keys[i]) - shift_;
        }
        start = false;
        if (keys[i] >= hi_bound) return;
        const Key gap_hi = store_.GapHi(b, i);
        if (gap_hi <= keys[i] || gap_hi < lo_bound) continue;
        const Key lo = keys[i] + 1 < lo_bound ? lo_bound : keys[i] + 1;
        f(lo, gap_hi > hi_bound ? hi_bound : gap_hi, at.count_less,
          at.prefix_sum);
      }
    }
  }

  /// \brief ForEachGapInRange over the standard candidate range: the
  /// interior (min, max) of the current keys, or the whole domain.
  template <typename F>
  void ForEachGap(bool interior_only, F&& f) const {
    const Key lo = interior_only ? min_key() + 1 : domain_.lo;
    const Key hi = interior_only ? max_key() - 1 : domain_.hi;
    ForEachGapInRange(lo, hi, std::forward<F>(f));
  }

 private:
  void RecomputeCurrentLoss();

  /// True when the pruned bound arithmetic (and the key store's int64
  /// suffix sums) is provably admissible for the current n and domain
  /// span.
  bool PruneDomainOk() const;

  /// PrefixAt of a key at store position \p p: a directory read plus
  /// the keys of one block from p on (int64 local sums, or one Int128
  /// walk outside PruneDomainOk()).
  PrefixStats PrefixAt(const KeyStore::Pos& p) const;

  /// The rank side of the Theorem 1 loss for a fixed point count,
  /// computed once per scan; defined in the .cc.
  struct RankMoments;

  /// Exact minimized loss of the current keys with the stored key
  /// \p key (1-based rank \p rank, shifted key-sum \p sa of the keys
  /// above it) deleted; \p mom describes n - 1 points. The (rank, sa)
  /// pair comes from a key-store block's directory reconstruction or
  /// the fallback's running sum — exact, so the loss is bit-identical
  /// to the flat layout's.
  long double LossWithoutKey(Key key, Int128 rank, Int128 sa,
                             const RankMoments& mom) const;

  /// Exact loss of \p agg's keys plus \p kp (\p count_less keys below
  /// it, shifted key-sum \p suffix_sum above it); \p mom describes
  /// agg.n + 1 points. Aggregates::LossAfterInsert without the per-call
  /// rank moments.
  static long double LossAfterInsertion(const Aggregates& agg,
                                        const RankMoments& mom, Key kp,
                                        Rank count_less, Int128 suffix_sum);

  /// Per-scan double-precision bound context of both argmaxes (an
  /// insertion into, or a removal from, the current keys); defined in
  /// the .cc.
  struct BoundCtx;

  /// The argmax skeleton's two candidate sources — the gaps after the
  /// keys of a block, and the keys of a block — and its running best;
  /// defined in the .cc.
  struct GapSource;
  struct KeySource;
  struct ArgmaxFold;

  /// What an insertion argmax scans: the gaps inside [lo, hi], each
  /// candidate joining the keys `agg` describes. lo - 1 and hi + 1 are
  /// stored keys or lie outside the domain, so the range clips no gap.
  /// The gap records describe the current keys, so above a removed
  /// minimum they count rank_adj keys with shifted sum prefix_adj that
  /// `agg` lacks; every gap in [lo, hi] lies above it.
  struct GapSnapshot {
    Aggregates agg;
    Key lo = 0;
    Key hi = 0;
    Rank rank_adj = 0;
    Int128 prefix_adj = 0;
  };

  /// The insertion argmax of FindOptimal and FindOptimalWithoutEdge.
  Result<Candidate> ScanGaps(const GapSnapshot& snap,
                             const std::unordered_set<Key>* excluded,
                             ThreadPool* pool, const ArgmaxOptions& argmax,
                             ArgmaxStats* stats) const;

  /// The gaps after keys [begin, end) of store block `block`, `gaps` of
  /// them non-empty; its units start at `first_unit` of its group. The
  /// range bound inputs, in the snapshot: x_lo, c and s of the first
  /// candidate (the key after the first gap's key) and x_hi of the last
  /// (the last gap's end).
  struct GapSlice {
    std::size_t block = 0;
    std::size_t begin = 0;
    std::size_t end = 0;
    std::int64_t gaps = 0;
    std::int64_t first_unit = 0;
    double x_lo = 0;
    double x_hi = 0;
    double c = 0;
    double s = 0;
  };

  /// One gap-source group: slices [first, end) of argmax_gap_slices_,
  /// consecutive in key order, each starting at a multiple of the
  /// sub-block size in the group's units, so no sub-block spans two.
  struct GapGroup {
    std::size_t first = 0;
    std::size_t end = 0;
    std::int64_t units = 0;
    std::int64_t gaps = 0;
  };

  /// What CollectGapGroups found: the units of all groups and of the
  /// largest one.
  struct GapUnits {
    std::int64_t total = 0;
    std::int64_t max = 0;
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
  /// fan-out: bounds every group; in the first group with the highest
  /// bound, bounds its sub-blocks and stages their unit bounds
  /// best-first until no other sub-block can hold a higher unit bound;
  /// exact-checks the best unit, whose loss is the incumbent. The scan
  /// is then the serial one,
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
  /// the best; in a surviving group, bounds its 64-unit sub-blocks,
  /// skips those below the best and scores the units of the rest (group
  /// \p seed_g's sub-block bounds and staged unit bounds come from the
  /// read-only staged copies, whose consumed seed reads -inf); exits
  /// once every remaining group bound is below the best.
  /// Reads the shared bound arrays RunArgmax filled and writes only
  /// scratch slot \p slot.
  template <typename Src>
  void ScanArgmaxChunk(const Src& src, ScanMode mode,
                       const ArgmaxChunk& chunk, std::size_t slot,
                       std::size_t seed_g, ArgmaxFold* fold,
                       ArgmaxStats* stats) const;

  /// Bounds the 64-unit sub-blocks of group \p g into \p out (counted
  /// as bound work; \p soa is the source's staging) and returns the
  /// first best one; 0, with nothing written, when the group skips the
  /// level.
  template <typename Src>
  std::int64_t SubBlockBounds(const Src& src, std::size_t g, double* out,
                              double* soa, ArgmaxStats* stats) const;

  /// Fills argmax_gap_slices_ with the in-range slice of every block
  /// meeting [snap.lo, snap.hi] that holds a gap, and
  /// argmax_gap_groups_ with runs of consecutive slices holding up to
  /// ~sqrt(G) of the G gaps (a slice with more is a group alone, and so
  /// is one whose keys are mostly gapless). The gap below the smallest
  /// key is in none.
  GapUnits CollectGapGroups(const GapSnapshot& snap) const;

  /// The bound contexts of the two scans, expanded around one of their
  /// own candidates: the first unit of the middle collected slice (not
  /// usable when there is none), and the first key of the middle
  /// store block. \p mom describes the points after the edit.
  BoundCtx GapBoundCtx(const GapSnapshot& snap, const RankMoments& mom) const;
  BoundCtx KeyBoundCtx(const RankMoments& mom) const;

  /// The largest |k - shift()| over the current keys and \p extra,
  /// rounded up to double.
  double MaxShiftedMagnitude(std::initializer_list<Key> extra) const;

  /// Clears \p buf, growing its capacity geometrically (and bumping
  /// scratch_reallocs_) only when \p needed exceeds it.
  template <typename T>
  std::vector<T>& PrepareScratch(std::vector<T>* buf,
                                 std::size_t needed) const;

  KeyStore store_;                    // The current keys (see KeyStore).
  KeyDomain domain_;
  Key shift_ = 0;                    // Smallest Create-time key; sums
                                     // use k - shift_.
  std::int64_t n_ = 0;               // Current key count.
  Int128 sum_k_ = 0;
  Int128 sum_k2_ = 0;
  Int128 sum_kr_ = 0;
  long double base_loss_ = 0;

  // Engine-owned argmax scratch, reused across rounds (see FindOptimal's
  // scratch note). Mutable: FindOptimal is logically const.
  mutable std::vector<GapSlice> argmax_gap_slices_;
  mutable std::vector<GapGroup> argmax_gap_groups_;
  mutable std::vector<ArgmaxChunk> argmax_chunks_;
  // Unit bounds: the seed group's staged ones in slot 0, then one
  // swept-sub-block slot per sweeping task (one when serial).
  mutable std::vector<double> argmax_bounds_;
  // Sub-block bounds, laid out like argmax_bounds_: the seed group's in
  // slot 0, then one slot per sweeping task; and which of the seed
  // group's sub-blocks have staged unit bounds.
  mutable std::vector<double> argmax_sub_bounds_;
  mutable std::vector<char> argmax_seed_staged_;
  // Tiered-scan per-group arrays (sized by group count, ~sqrt(n)).
  mutable std::vector<double> argmax_tier_bounds_;
  mutable std::vector<double> argmax_tier_suffix_max_;
  mutable std::vector<std::int64_t> argmax_tier_suffix_cnt_;
  mutable std::vector<double> argmax_soa_;  // SoA staging of the batched
                                            // per-gap bound kernel, one
                                            // slot per sweeping task.
  mutable std::int64_t scratch_reallocs_ = 0;
};

}  // namespace lispoison

#endif  // LISPOISON_ATTACK_LOSS_LANDSCAPE_H_
