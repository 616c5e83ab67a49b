// Copyright (c) lispoison authors. Licensed under the MIT license.
//
// OnlineAdversary: the §V threat model executed end to end against the
// live serving engine. Instead of retraining the victim on K ∪ P
// offline (every arm before this one), the attacker here constructs its
// insert/delete/modify stream *online* with the incremental
// LossLandscape engine and replays it through the SearchBackend write
// path — racing legitimate QueryDriver traffic, overlay growth, async
// compactions, and retrains.
//
// The attacker's model of the victim: it partitions its *view* of the
// stored keys (everything it believes live: the base keyset plus its
// own committed writes) into contiguous `model_size`-key slices — the
// same equal-count partitioning an RMI second stage induces — and
// bookkeeps one incremental LossLandscape per slice. Per attack op it
// scans the per-model argmax candidates (lazily recomputed only for
// models it has touched), executes the globally best insertion /
// removal / relocation through the victim's real write path, and
// commits the outcome into its landscapes so the view tracks reality
// even when an op is rejected (a legitimate insert raced it to the same
// gap key).
//
// Retrain awareness: the victim's compactions retrain shard substrates
// on the merged key list, invalidating the loss surface the attacker
// planned against. The adversary polls the process-wide
// `serving.compactions` telemetry counter every few ops; observed
// movement triggers a *replan*. A replan rebuilds only the slices the
// attacker wrote into since their landscape was built (dirty slices,
// re-extracted from the view by key range); untouched slices keep
// their incrementally maintained landscape, so replan cost scales with
// the attacker's own write locality instead of the full view. When a
// dirty slice has drifted out of the fresh-RMI size envelope the
// replan falls back to the full equal-count repartition.
// This is the machinery behind the heal-or-amplify question the
// adversarial bench answers.
//
// Threading: RunOnlineAdversary drives its landscapes from the calling
// thread only (the engine's one-landscape-one-thread scratch contract);
// the victim's write path and the telemetry counters are fully
// thread-safe, so the bench runs it on a dedicated attacker thread
// concurrently with the driver.

#ifndef LISPOISON_WORKLOAD_ADVERSARY_H_
#define LISPOISON_WORKLOAD_ADVERSARY_H_

#include <cstdint>
#include <vector>

#include "attack/loss_landscape.h"
#include "common/status.h"
#include "common/types.h"
#include "data/keyset.h"
#include "workload/search_backend.h"

namespace lispoison {

/// \brief Knobs of the online attack stream.
struct AdversaryOptions {
  /// Attack operations to attempt (one op = one insert, one delete, or
  /// one modify; a modify issues two write-path calls).
  std::int64_t ops = 512;

  /// Fraction of ops drawn as deletions / modifications of legitimate
  /// keys; the remainder are poisoning insertions. Deletion targets
  /// come from the removal argmax (the key whose loss increase is
  /// largest), the paper's §V deletion attack executed online.
  double delete_fraction = 0.15;
  double modify_fraction = 0.15;

  /// Keys per attacker-side model slice (the assumed RMI second-stage
  /// partition granularity). Clamped to >= 8.
  std::int64_t model_size = 500;

  /// Candidate gaps strictly inside each model's key range only (the
  /// paper's default: no outlier injections a trivial defense catches).
  bool interior_only = true;

  /// Argmax configuration (the pruned tiered scan by default).
  LossLandscape::ArgmaxOptions argmax;

  /// Ops between polls of the `serving.compactions` counter; observed
  /// movement triggers a replan against the fresh substrate.
  std::int64_t replan_check_every = 8;

  /// Nanoseconds to sleep between attack ops (0 = none): paces the
  /// stream across the victim's serving window so the per-interval ROI
  /// rows see a sustained attack instead of one burst.
  std::int64_t pace_ns = 0;

  std::uint64_t seed = 7;
};

/// \brief Outcome of one online attack run.
struct AdversaryResult {
  std::int64_t ops_planned = 0;  ///< Attack ops attempted.
  std::int64_t inserts = 0;      ///< Poison keys accepted by the victim.
  std::int64_t deletes = 0;      ///< Legitimate keys removed.
  std::int64_t modifies = 0;     ///< Relocations (remove + insert pairs).
  std::int64_t rejected = 0;     ///< Write-path refusals (racing traffic
                                 ///< took the planned key first).
  std::int64_t skipped = 0;      ///< Ops with no feasible candidate.
  /// Attacker inserts shed with kResourceExhausted by a degraded shard
  /// (overlay hard cap). Unlike a duplicate rejection the key was NOT
  /// stored, so nothing is committed into the attacker's view. Counted
  /// into `adversary.shed` — the bench's shed telescoping identity sums
  /// this with the driver's inserts_shed against the backend total.
  std::int64_t shed = 0;
  /// Injected attacker-channel faults (FAULT_POINT("adversary.write")):
  /// ops dropped before reaching the victim; no state committed.
  std::int64_t write_faults = 0;
  std::int64_t replans = 0;      ///< Replans executed after retrains.
  std::int64_t retrains_observed = 0;  ///< serving.compactions movement
                                       ///< seen at the poll points.
  /// Replan work accounting: a replan rebuilds only the model slices
  /// whose view changed since their landscape was built (dirty slices);
  /// clean slices keep their incrementally maintained landscape. Summed
  /// over all replans — adversary_test pins rebuilt < kept + rebuilt.
  std::int64_t models_rebuilt = 0;
  std::int64_t models_kept = 0;

  /// Mean per-model regression loss of the attacker's view, before the
  /// first op and after the last (the attacker-side Theorem 1 signal;
  /// the victim-side truth is the serving latency the bench measures).
  double initial_mean_model_loss = 0;
  double final_mean_model_loss = 0;

  /// Poison keys still live at the end (inserted and not re-deleted),
  /// and legitimate keys the attacker removed — membership oracles for
  /// the tests.
  std::vector<Key> live_poison_keys;
  std::vector<Key> removed_legit_keys;

  LossLandscape::ArgmaxStats argmax_stats;  ///< Planning work counters.
  double elapsed_seconds = 0;
};

/// \brief Runs the online adversary against \p victim. \p base is the
/// legitimate keyset the victim was built on (the attacker's initial
/// view — the §V attacker knows the distribution it poisons).
Result<AdversaryResult> RunOnlineAdversary(SearchBackend* victim,
                                           const KeySet& base,
                                           const AdversaryOptions& options);

}  // namespace lispoison

#endif  // LISPOISON_WORKLOAD_ADVERSARY_H_
