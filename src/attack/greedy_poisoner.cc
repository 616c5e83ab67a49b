#include "attack/greedy_poisoner.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "attack/attack_telemetry.h"
#include "attack/loss_landscape.h"
#include "common/snapshot.h"
#include "common/telemetry.h"
#include "common/thread_pool.h"
#include "data/io.h"

namespace lispoison {

Result<GreedyPoisonResult> GreedyPoisonCdf(const KeySet& keyset,
                                           std::int64_t p,
                                           const AttackOptions& options) {
  return GreedyPoisonCdfCheckpointed(keyset, p, options,
                                     GreedyCheckpointOptions{});
}

namespace {

// Checkpoint metadata (one pod section in the snapshot). The Int128
// aggregate words make resume self-verifying: replaying the recorded
// poison keys through a freshly built landscape must land on exactly
// these integers, or the checkpoint is rejected as belonging to a
// different keyset/engine state.
struct GreedyCkptMeta {
  std::uint64_t keyset_fp = 0;
  std::int64_t p_total = 0;
  std::int64_t rounds_done = 0;
  std::int64_t interior_only = 0;
  std::int64_t n = 0;
  Key shift = 0;
  Int128 sum_k = 0;
  Int128 sum_k2 = 0;
  Int128 sum_kr = 0;
};

// Sections: "meta" (GreedyCkptMeta), "poison" (Key array, commit
// order), "traj" (raw long-double images — host format, same-machine
// resume only, like the rest of the snapshot container), "stats"
// (ArgmaxStats pod), "base_loss" (long double). WriteToFile is atomic,
// so a kill mid-write leaves the previous checkpoint intact.
Status WriteGreedyCheckpoint(const std::string& path, std::uint64_t fp,
                             std::int64_t p, const AttackOptions& options,
                             const LossLandscape& landscape,
                             const GreedyPoisonResult& result) {
  GreedyCkptMeta meta;
  meta.keyset_fp = fp;
  meta.p_total = p;
  meta.rounds_done = static_cast<std::int64_t>(result.poison_keys.size());
  meta.interior_only = options.interior_only ? 1 : 0;
  const LossLandscape::Aggregates agg = landscape.aggregates();
  meta.n = agg.n;
  meta.shift = agg.shift;
  meta.sum_k = agg.sum_k;
  meta.sum_k2 = agg.sum_k2;
  meta.sum_kr = agg.sum_kr;
  SnapshotWriter writer;
  writer.AddPodSection("meta", meta);
  writer.AddVectorSection("poison", result.poison_keys);
  writer.AddVectorSection("traj", result.loss_trajectory);
  writer.AddPodSection("stats", result.argmax_stats);
  writer.AddPodSection("base_loss", result.base_loss);
  return writer.WriteToFile(path);
}

// Restores the committed rounds recorded at \p path into \p landscape
// and \p result and returns how many there were; 0 when no checkpoint
// exists yet. A corrupt or foreign checkpoint is refused loudly instead
// of silently restarting a multi-hour run from scratch.
Result<std::int64_t> ResumeGreedyCheckpoint(const std::string& path,
                                            std::uint64_t fp, std::int64_t p,
                                            const AttackOptions& options,
                                            LossLandscape* landscape,
                                            GreedyPoisonResult* result) {
  auto reader_or = SnapshotReader::Open(path);
  if (!reader_or.ok()) {
    if (reader_or.status().code() == StatusCode::kNotFound) return 0;
    return reader_or.status();
  }
  LISPOISON_ASSIGN_OR_RETURN(const GreedyCkptMeta meta,
                             reader_or->ReadPod<GreedyCkptMeta>("meta"));
  if (meta.keyset_fp != fp) {
    return Status::FailedPrecondition(
        "checkpoint '" + path + "' was taken against a different keyset");
  }
  if (meta.p_total != p ||
      meta.interior_only != (options.interior_only ? 1 : 0)) {
    return Status::FailedPrecondition(
        "checkpoint '" + path + "' was taken for a different attack shape");
  }
  LISPOISON_ASSIGN_OR_RETURN(std::vector<Key> poison,
                             reader_or->ReadVector<Key>("poison"));
  LISPOISON_ASSIGN_OR_RETURN(std::vector<long double> traj,
                             reader_or->ReadVector<long double>("traj"));
  LISPOISON_ASSIGN_OR_RETURN(
      const LossLandscape::ArgmaxStats stats,
      reader_or->ReadPod<LossLandscape::ArgmaxStats>("stats"));
  LISPOISON_ASSIGN_OR_RETURN(const long double stored_base,
                             reader_or->ReadPod<long double>("base_loss"));
  if (meta.rounds_done != static_cast<std::int64_t>(poison.size()) ||
      poison.size() != traj.size() || meta.rounds_done > p) {
    return Status::FailedPrecondition("checkpoint '" + path +
                                      "' is internally inconsistent");
  }
  // Replay: each committed insertion is an exact integer commit, so
  // the rebuilt landscape holds bit-for-bit the engine state the
  // interrupted run held after round rounds_done.
  for (const Key kp : poison) {
    LISPOISON_RETURN_IF_ERROR(landscape->InsertKey(kp));
  }
  const LossLandscape::Aggregates agg = landscape->aggregates();
  if (agg.n != meta.n || agg.shift != meta.shift ||
      agg.sum_k != meta.sum_k || agg.sum_k2 != meta.sum_k2 ||
      agg.sum_kr != meta.sum_kr) {
    return Status::FailedPrecondition(
        "checkpoint '" + path +
        "' replay does not reproduce the recorded aggregates");
  }
  result->poison_keys = std::move(poison);
  result->loss_trajectory = std::move(traj);
  result->argmax_stats = stats;
  result->base_loss = stored_base;
  return meta.rounds_done;
}

}  // namespace

Result<GreedyPoisonResult> GreedyPoisonCdfCheckpointed(
    const KeySet& keyset, std::int64_t p, const AttackOptions& options,
    const GreedyCheckpointOptions& ckpt) {
  if (keyset.empty()) {
    return Status::InvalidArgument("cannot poison an empty keyset");
  }
  if (p < 1) {
    return Status::InvalidArgument("poisoning budget p must be >= 1");
  }
  // An empty path runs the plain attack: no fingerprint, no checkpoint
  // read or write.
  const bool checkpointing = !ckpt.path.empty();
  const std::uint64_t fp = checkpointing ? KeysetFingerprint(keyset) : 0;

  GreedyPoisonResult result;
  result.poison_keys.reserve(static_cast<std::size_t>(p));
  result.loss_trajectory.reserve(static_cast<std::size_t>(p));

  // One pool for all rounds; the chunked argmax reduction — and the
  // per-block Create below — are thread-count independent, so any
  // worker count builds the same landscape and selects the same keys.
  std::unique_ptr<ThreadPool> pool = MakeAttackPool(options);

  // One landscape for the whole attack: each committed poison updates
  // the aggregates and the key store in place, so the next round's
  // argmax sees the compound rank shifts exactly.
  LISPOISON_ASSIGN_OR_RETURN(LossLandscape landscape,
                             LossLandscape::Create(keyset, pool.get()));
  result.base_loss = landscape.BaseLoss();

  std::int64_t start = 0;
  if (checkpointing) {
    LISPOISON_ASSIGN_OR_RETURN(
        start, ResumeGreedyCheckpoint(ckpt.path, fp, p, options, &landscape,
                                      &result));
  }

  const LossLandscape::ArgmaxOptions argmax = options.ArgmaxKnobs();
  TraceSpan attack_span(
      TraceCategory::kAttack,
      checkpointing ? "greedy_poison_cdf_ckpt" : "greedy_poison_cdf",
      p - start);
  for (std::int64_t round = start; round < p; ++round) {
    const LossLandscape::ArgmaxStats stats_before = result.argmax_stats;
    auto best = landscape.FindOptimal(options.interior_only,
                                      /*excluded=*/nullptr, pool.get(),
                                      argmax, &result.argmax_stats);
    attack_internal::AttackTelemetry::Get().AddDelta(result.argmax_stats,
                                                     stats_before);
    if (!best.ok()) {
      return Status::ResourceExhausted(
          "poisoning range exhausted after " + std::to_string(round) +
          " of " + std::to_string(p) + " insertions");
    }
    LISPOISON_RETURN_IF_ERROR(landscape.InsertKey(best->key));
    result.poison_keys.push_back(best->key);
    result.loss_trajectory.push_back(best->loss);

    if (!checkpointing) continue;
    const std::int64_t committed = round + 1;
    const bool at_halt = committed == ckpt.halt_after;
    if (committed == p || at_halt ||
        (ckpt.every > 0 && committed % ckpt.every == 0)) {
      LISPOISON_RETURN_IF_ERROR(WriteGreedyCheckpoint(ckpt.path, fp, p,
                                                      options, landscape,
                                                      result));
    }
    if (at_halt && committed < p) {
      return Status::FailedPrecondition(
          "halted after " + std::to_string(committed) +
          " committed insertions (GreedyCheckpointOptions::halt_after)");
    }
  }
  result.poisoned_loss = result.loss_trajectory.back();
  result.commit_touched_slots = landscape.removal_commit_touched_slots();
  result.commits = landscape.removal_commits();
  return result;
}

Result<GreedyPoisonResult> GreedyPoisonCdfReference(
    const KeySet& keyset, std::int64_t p, const AttackOptions& options) {
  if (keyset.empty()) {
    return Status::InvalidArgument("cannot poison an empty keyset");
  }
  if (p < 1) {
    return Status::InvalidArgument("poisoning budget p must be >= 1");
  }

  GreedyPoisonResult result;
  result.poison_keys.reserve(static_cast<std::size_t>(p));
  result.loss_trajectory.reserve(static_cast<std::size_t>(p));

  // The working set starts as K and absorbs each committed poisoning key;
  // the next round's landscape sees updated ranks automatically (the
  // compound effect is recomputed exactly each round).
  std::vector<Key> work = keyset.keys();
  const KeyDomain domain = keyset.domain();

  // The oracle always runs the exhaustive scan — it is the
  // differential-testing ground truth the pruned argmax is proven
  // bit-identical against (tests/argmax_pruning_test.cc).
  LossLandscape::ArgmaxOptions exhaustive;
  exhaustive.prune = false;

  for (std::int64_t round = 0; round < p; ++round) {
    LISPOISON_ASSIGN_OR_RETURN(
        KeySet current, KeySet::Create(work, domain));
    LISPOISON_ASSIGN_OR_RETURN(LossLandscape landscape,
                               LossLandscape::Create(current));
    if (round == 0) result.base_loss = landscape.BaseLoss();
    auto best = landscape.FindOptimal(options.interior_only,
                                      /*excluded=*/nullptr, /*pool=*/nullptr,
                                      exhaustive, &result.argmax_stats);
    if (!best.ok()) {
      return Status::ResourceExhausted(
          "poisoning range exhausted after " + std::to_string(round) +
          " of " + std::to_string(p) + " insertions");
    }
    const Key kp = best->key;
    work.insert(std::lower_bound(work.begin(), work.end(), kp), kp);
    result.poison_keys.push_back(kp);
    result.loss_trajectory.push_back(best->loss);
  }
  result.poisoned_loss = result.loss_trajectory.back();
  return result;
}

Result<KeySet> ApplyPoison(const KeySet& keyset,
                           const std::vector<Key>& poison_keys) {
  return keyset.Union(poison_keys);
}

}  // namespace lispoison
