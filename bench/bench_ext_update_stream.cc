// Extension experiment (§VI future directions): poisoning THROUGH the
// update path of an updatable learned index. The index is the serving
// engine's RMI backend on one shard with inline (sync) compaction: new
// keys land in the insert overlay, and every compaction merges them
// into the base and retrains the RMI. The adversary's poison keys
// arrive interleaved with legitimate inserts; each compaction bakes the
// accumulated poison into the base RMI. Reports base RMI loss and the
// mean lookup work over the original keys along the stream, and exits
// non-zero unless the RMI retrained on every key sent ends above the
// clean start.
//
// Flags: --base=2000 --stream=400 --poison-share=0.5 --threshold=0.05
//        --seed=S
// --threshold is a fraction of the initial base: a compaction runs
// every max(1, ceil(threshold * base)) inserts.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "attack/rmi_poisoner.h"
#include "common/flags.h"
#include "common/rng.h"
#include "common/table.h"
#include "data/generators.h"
#include "index/rmi.h"
#include "workload/search_backend.h"

namespace lispoison {
namespace {

int Run(int argc, char** argv) {
  FlagParser flags(argc, argv);
  const std::int64_t base_n = flags.GetInt("base", 2000);
  const std::int64_t stream_n = flags.GetInt("stream", 400);
  const double poison_share = flags.GetDouble("poison-share", 0.5);
  const double threshold = flags.GetDouble("threshold", 0.05);
  Rng master(static_cast<std::uint64_t>(flags.GetInt("seed", 42)));

  const KeyDomain domain{0, 100 * base_n};
  Rng rng = master.Fork(1);
  auto base_or = GenerateUniform(base_n, domain, &rng);
  if (!base_or.ok()) return 1;
  const KeySet& original = *base_or;

  BackendOptions opts;
  opts.rmi.target_model_size = 100;
  opts.rmi.root_kind = RootModelKind::kOracle;
  opts.num_shards = 1;
  opts.sync_compaction = true;
  opts.compact_threshold = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(
             std::ceil(threshold * static_cast<double>(base_n))));
  auto backend_or = CreateBackend(BackendKind::kRmi, original, opts);
  if (!backend_or.ok()) return 1;
  SearchBackend& backend = **backend_or;

  // The keys the backend has accepted, sorted. One shard with sync
  // compaction retrains on exactly these at every compaction, so the
  // RMI trained over them is the backend's base RMI.
  std::vector<Key> accepted = original.keys();
  auto rmi_loss = [&](const std::vector<Key>& keys) -> long double {
    auto keyset = KeySet::Create(keys, domain);
    if (!keyset.ok()) return 0;
    auto rmi = Rmi::Train(*keyset, opts.rmi);
    return rmi.ok() ? rmi->RmiLoss() : 0;
  };
  auto mean_work = [&] {
    std::int64_t work = 0;
    for (const Key k : original.keys()) work += backend.Lookup(k).work;
    return static_cast<double>(work) /
           static_cast<double>(original.size());
  };

  std::printf("=== Extension: poisoning via the update stream ===\n");
  std::printf("base n=%lld, stream %lld inserts (%.0f%% adversarial), "
              "compaction every %lld inserts (%.0f%% of the base)\n\n",
              static_cast<long long>(base_n),
              static_cast<long long>(stream_n), 100 * poison_share,
              static_cast<long long>(opts.compact_threshold),
              100 * threshold);
  const long double loss0 = rmi_loss(accepted);
  std::printf("initial base RMI loss: %.4f\n\n", static_cast<double>(loss0));

  // Plan poison against the current base keyset; adversary replans
  // after every compaction (white-box assumption of the paper).
  const std::int64_t poison_total = static_cast<std::int64_t>(
      static_cast<double>(stream_n) * poison_share);
  const std::int64_t legit_total = stream_n - poison_total;

  TextTable table;
  table.SetHeader({"stream position", "retrains", "base RMI loss",
                   "vs clean start", "mean lookup work"});
  auto add_row = [&](const std::string& label, long double loss) {
    table.AddRow({label, TextTable::Fmt(backend.compactions()),
                  TextTable::Fmt(static_cast<double>(loss), 4),
                  TextTable::Fmt(static_cast<double>(loss / loss0), 4),
                  TextTable::Fmt(mean_work(), 2)});
  };

  Rng legit_rng = master.Fork(2);
  std::vector<Key> base_keys = accepted;
  long double base_loss = loss0;
  std::vector<Key> poison_queue;
  std::int64_t sent_poison = 0, sent_legit = 0, step = 0;
  std::int64_t last_retrains = -1, priced = 0;
  auto insert = [&](Key k) {
    if (!backend.Insert(k).ok()) return false;
    accepted.insert(std::lower_bound(accepted.begin(), accepted.end(), k), k);
    if (backend.compactions() != priced) {
      // This insert's inline compaction retrained the base on every
      // accepted key.
      priced = backend.compactions();
      base_keys = accepted;
      base_loss = rmi_loss(base_keys);
    }
    return true;
  };
  while (sent_poison < poison_total || sent_legit < legit_total) {
    // Replenish the adversary's plan after each compaction.
    if (poison_queue.empty() && sent_poison < poison_total &&
        backend.compactions() != last_retrains) {
      last_retrains = backend.compactions();
      auto keyset = KeySet::Create(base_keys, domain);
      if (keyset.ok()) {
        // RMI-aware plan (Algorithm 2) against the current base keys,
        // in chunks the overlay can absorb per compaction.
        const std::int64_t chunk =
            std::min<std::int64_t>(poison_total - sent_poison, 100);
        RmiAttackOptions plan_opts;
        plan_opts.poison_fraction =
            static_cast<double>(chunk) /
            static_cast<double>(keyset->size());
        plan_opts.model_size = 100;
        auto plan = PoisonRmi(*keyset, plan_opts);
        if (plan.ok()) poison_queue = plan->AllPoisonKeys();
      }
    }
    // Interleave: alternate legitimate and adversarial inserts at the
    // requested share.
    const bool send_poison =
        sent_poison < poison_total &&
        (sent_legit >= legit_total ||
         static_cast<double>(sent_poison) <
             poison_share * static_cast<double>(step + 1));
    if (send_poison && !poison_queue.empty()) {
      const Key kp = poison_queue.front();
      poison_queue.erase(poison_queue.begin());
      if (insert(kp)) ++sent_poison;
    } else {
      // Legitimate traffic: uniform fresh keys.
      Key k;
      int guard = 0;
      do {
        k = legit_rng.UniformInt(domain.lo, domain.hi);
      } while (backend.Lookup(k).found && ++guard < 100);
      if (insert(k)) ++sent_legit;
    }
    ++step;
    if (step % (stream_n / 8 > 0 ? stream_n / 8 : 1) == 0) {
      add_row(TextTable::Fmt(step), base_loss);
    }
  }
  const long double final_loss = rmi_loss(accepted);
  add_row("final (all keys sent)", final_loss);
  table.Print(std::cout);
  std::printf(
      "\nReading: every compaction folds the accumulated poison into the\n"
      "base model; the loss ratchets upward with the stream even though\n"
      "each individual insert looks like normal traffic. The final row\n"
      "prices an RMI retrained on every key sent; its lookup work is the\n"
      "live backend's, overlay included.\n");
  if (!(final_loss > loss0)) {
    std::fprintf(stderr,
                 "update-path poisoning failed: final loss %.4f does not "
                 "exceed the clean start %.4f\n",
                 static_cast<double>(final_loss), static_cast<double>(loss0));
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace lispoison

int main(int argc, char** argv) { return lispoison::Run(argc, argv); }
