#include "attack/rmi_poisoner.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <string>
#include <unordered_set>
#include <vector>

#include "attack/attack_telemetry.h"
#include "attack/loss_landscape.h"
#include "common/stats.h"
#include "common/telemetry.h"
#include "common/thread_pool.h"
#include "index/cdf_regression.h"

namespace lispoison {
namespace {

constexpr long double kInfeasible =
    -std::numeric_limits<long double>::infinity();

// ---------------------------------------------------------------------------
// Incremental implementation.
//
// Each second-stage model owns a persistent LossLandscape over its
// combined (legitimate + poison) keys. Greedy insertions update it in
// place; only the rare *applied* exchanges — which move a legitimate
// boundary key between models — rebuild the two touched landscapes.
// Exchange *simulations*, the hot loop of the volume-allocation phase,
// never materialize a model: the donor side is O(1) aggregate
// arithmetic, and the receiver side is the same pruned argmax as a
// greedy insertion, run over the receiver's existing gap decomposition
// with the boundary key taken out of a snapshot.
// ---------------------------------------------------------------------------

/// Attacker-side state of one second-stage model.
struct ModelState {
  std::vector<Key> legit;    // Sorted legitimate keys.
  std::vector<Key> poisons;  // Poison keys in insertion order.
  LossLandscape landscape;   // Persistent engine over legit ∪ poisons.
  long double loss = 0;      // == landscape.BaseLoss().
  LossLandscape::ArgmaxStats stats;  // Greedy-argmax work counters.

  /// Rebuilds the landscape from scratch (tight domain over the combined
  /// keys). Needed after exchanges, which restructure the legit set.
  Status Rebuild() {
    std::vector<Key> combined = legit;
    combined.insert(combined.end(), poisons.begin(), poisons.end());
    std::sort(combined.begin(), combined.end());
    LISPOISON_ASSIGN_OR_RETURN(KeySet keyset,
                               KeySet::CreateWithTightDomain(
                                   std::move(combined)));
    LISPOISON_ASSIGN_OR_RETURN(landscape, LossLandscape::Create(keyset));
    loss = landscape.BaseLoss();
    return Status::OK();
  }
};

/// Exact loss of the contiguous slice keys[first, first+count) under a
/// local regression with ranks 1..count. O(count), allocation-free.
long double SpanLoss(const std::vector<Key>& keys, std::int64_t first,
                     std::int64_t count) {
  if (count <= 0) return 0;
  LossLandscape::Aggregates agg;
  agg.shift = keys[static_cast<std::size_t>(first)];
  for (std::int64_t i = 0; i < count; ++i) {
    agg.InsertAboveAll(keys[static_cast<std::size_t>(first + i)]);
  }
  return agg.Loss();
}

/// Runs one greedy single-point insertion (one step of Algorithm 1) on
/// the model's persistent landscape. `occupied` holds every key taken
/// globally (legitimate keys of all models plus every committed poison):
/// after boundary exchanges the spans of adjacent models can overlap, so
/// a candidate optimal for this model may already be another model's
/// poison and must be skipped. Returns false when no unoccupied
/// candidate remains.
bool GreedyInsertOne(ModelState* state,
                     const std::unordered_set<Key>& occupied,
                     bool interior_only,
                     const LossLandscape::ArgmaxOptions& argmax) {
  if (state->landscape.size() == 0) return false;
  const LossLandscape::ArgmaxStats stats_before = state->stats;
  auto best = state->landscape.FindOptimal(interior_only, &occupied,
                                           /*pool=*/nullptr, argmax,
                                           &state->stats);
  // Stream this round's argmax work into the attack.* time series
  // (GreedyInsertOne runs inside ParallelFor — the counters are
  // per-thread cells, so concurrent rounds never contend).
  attack_internal::AttackTelemetry::Get().AddDelta(state->stats,
                                                   stats_before);
  if (!best.ok()) return false;
  if (!state->landscape.InsertKey(best->key).ok()) return false;
  state->poisons.push_back(best->key);
  state->loss = best->loss;
  return true;
}

/// Simulates the directed exchange donor -> receiver of one poisoning
/// slot between neighbouring models, together with the reverse move of
/// the boundary legitimate key, and returns the resulting change in the
/// *sum* of the two model losses (kInfeasible when the move is not
/// allowed). `left_to_right` distinguishes i->i+1 from i<-i+1.
///
/// Read-only on the models: the donor side is pure aggregate arithmetic
/// (remove its newest poison, absorb the boundary key at the edge); the
/// receiver side is LossLandscape::FindOptimalWithoutEdge, which uses
/// the receiver landscape's argmax scratch, so no two simulations with
/// one receiver may run at once. Its work is added to \p stats.
long double SimulateExchange(const ModelState& donor,
                             const ModelState& receiver, bool left_to_right,
                             const std::unordered_set<Key>& occupied,
                             std::int64_t threshold,
                             const LossLandscape::ArgmaxOptions& argmax,
                             LossLandscape::ArgmaxStats* stats) {
  if (donor.poisons.empty()) return kInfeasible;
  if (static_cast<std::int64_t>(receiver.poisons.size()) + 1 > threshold) {
    return kInfeasible;
  }
  // The legitimate donor is the *receiver of the poison slot*: it gives
  // its boundary legitimate key to the poison-donor model so both models
  // keep their total key counts.
  if (receiver.legit.size() < 2) return kInfeasible;

  // (C) + (B), donor side: drop the newest poison, absorb the boundary
  // legitimate key (which lies beyond the donor's whole span).
  const Key removed_poison = donor.poisons.back();
  const Key boundary =
      left_to_right ? receiver.legit.front() : receiver.legit.back();
  LossLandscape::Aggregates donor_agg = donor.landscape.aggregates();
  {
    const auto stats = donor.landscape.PrefixAt(removed_poison);
    const Int128 kq_s = static_cast<Int128>(removed_poison) - donor_agg.shift;
    donor_agg.Remove(removed_poison, stats.count_less,
                     donor_agg.sum_k - stats.prefix_sum - kq_s);
  }
  if (left_to_right) {
    donor_agg.InsertAboveAll(boundary);
  } else {
    donor_agg.InsertBelowAll(boundary);
  }
  const long double donor_after = donor_agg.Loss();

  // (B) + (A), receiver side: the best greedy insertion once the
  // boundary key, taken out as the receiver's smallest (i->i+1) or
  // largest (i<-i+1) key, is gone. After an earlier exchange a receiver
  // poison can lie beyond its boundary legitimate key; the snapshot
  // still takes the boundary out as the edge, so the simulated loss then
  // differs from the one ApplyExchange commits.
  const auto best = receiver.landscape.FindOptimalWithoutEdge(
      left_to_right ? LossLandscape::Edge::kMin : LossLandscape::Edge::kMax,
      boundary, &occupied, argmax, stats);
  if (!best.ok()) return kInfeasible;

  const long double before = donor.loss + receiver.loss;
  return (donor_after + best->loss) - before;
}

/// Applies the exchange for real (same move order as SimulateExchange).
/// Works on copies and commits only on success, so a move that turned
/// out infeasible (the state may have drifted since simulation) leaves
/// everything untouched.
///
/// Measured alternative: committing the receiver's boundary-key removal
/// in place (a copy of its landscape, then LossLandscape::RemoveKey)
/// instead of the tight-domain Rebuild is selection-identical
/// (interior candidate ranges depend only on the current min/max). It
/// was ~35% slower while the landscape kept gap tiers and overlays. On
/// the one key store it is no slower: serial PoisonRmi, medians of five
/// interleaved runs on a 4-vCPU guest, took 243 ms against Rebuild's
/// 306 ms at n=100k uniform with 200 models, and 119 ms against 124 ms
/// at n=50k with model size 500, with identical outcomes. Rebuild stays
/// until a change that switches the commit re-records the RMI rows.
bool ApplyExchange(ModelState* donor, ModelState* receiver,
                   bool left_to_right, std::unordered_set<Key>* occupied,
                   std::int64_t threshold, bool interior_only,
                   const LossLandscape::ArgmaxOptions& argmax) {
  if (donor->poisons.empty()) return false;
  if (static_cast<std::int64_t>(receiver->poisons.size()) + 1 > threshold) {
    return false;
  }
  if (receiver->legit.size() < 2) return false;
  // Copy only the key vectors — Rebuild() replaces the landscapes, so
  // deep-copying them here would be wasted work.
  ModelState d;
  d.legit = donor->legit;
  d.poisons = donor->poisons;
  d.stats = donor->stats;
  ModelState r;
  r.legit = receiver->legit;
  r.poisons = receiver->poisons;
  r.stats = receiver->stats;
  const Key removed_poison = d.poisons.back();
  d.poisons.pop_back();
  if (left_to_right) {
    const Key boundary = r.legit.front();
    r.legit.erase(r.legit.begin());
    d.legit.push_back(boundary);  // >= all of d's keys: stays sorted.
  } else {
    const Key boundary = r.legit.back();
    r.legit.pop_back();
    d.legit.insert(d.legit.begin(), boundary);  // <= all of d's keys.
  }
  if (!d.Rebuild().ok() || !r.Rebuild().ok()) return false;
  // The freed key becomes available again before the receiver's insert.
  occupied->erase(removed_poison);
  if (!GreedyInsertOne(&r, *occupied, interior_only, argmax)) {
    occupied->insert(removed_poison);
    return false;
  }
  occupied->insert(r.poisons.back());
  *donor = std::move(d);
  *receiver = std::move(r);
  return true;
}

// ---------------------------------------------------------------------------
// Reference implementation (pre-refactor): copy + sort + retrain per
// call. Exercised by the differential tests and the throughput bench.
// ---------------------------------------------------------------------------

struct RefModelState {
  std::vector<Key> legit;
  std::vector<Key> poisons;
  long double loss = 0;
};

long double RefComputeModelLoss(const RefModelState& state) {
  std::vector<Key> combined = state.legit;
  combined.insert(combined.end(), state.poisons.begin(), state.poisons.end());
  std::sort(combined.begin(), combined.end());
  if (combined.empty()) return 0;
  const Key shift = combined.front();
  MomentAccumulator acc;
  Rank r = 1;
  for (Key k : combined) acc.Add(k - shift, r++);
  return FitFromMoments(acc).mse;
}

bool RefGreedyInsertOne(RefModelState* state,
                        const std::unordered_set<Key>& occupied,
                        bool interior_only) {
  std::vector<Key> combined = state->legit;
  combined.insert(combined.end(), state->poisons.begin(),
                  state->poisons.end());
  std::sort(combined.begin(), combined.end());
  if (combined.empty()) return false;
  auto keyset = KeySet::CreateWithTightDomain(std::move(combined));
  if (!keyset.ok()) return false;
  auto landscape = LossLandscape::Create(*keyset);
  if (!landscape.ok()) return false;
  bool have = false;
  Key best_key = 0;
  long double best_loss = 0;
  for (const Key kp : landscape->GapEndpoints(interior_only)) {
    if (occupied.count(kp)) continue;
    auto loss = landscape->LossAt(kp);
    if (!loss.ok()) continue;
    if (!have || *loss > best_loss) {
      best_key = kp;
      best_loss = *loss;
      have = true;
    }
  }
  if (!have) return false;
  state->poisons.push_back(best_key);
  state->loss = best_loss;
  return true;
}

long double RefSimulateExchange(const RefModelState& donor,
                                const RefModelState& receiver,
                                bool left_to_right,
                                const std::unordered_set<Key>& occupied,
                                std::int64_t threshold, bool interior_only) {
  if (donor.poisons.empty()) return kInfeasible;
  if (static_cast<std::int64_t>(receiver.poisons.size()) + 1 > threshold) {
    return kInfeasible;
  }
  if (receiver.legit.size() < 2) return kInfeasible;

  RefModelState d = donor;
  RefModelState r = receiver;
  d.poisons.pop_back();
  if (left_to_right) {
    const Key boundary = r.legit.front();
    r.legit.erase(r.legit.begin());
    d.legit.push_back(boundary);
  } else {
    const Key boundary = r.legit.back();
    r.legit.pop_back();
    d.legit.insert(d.legit.begin(), boundary);
  }
  d.loss = RefComputeModelLoss(d);
  r.loss = RefComputeModelLoss(r);
  if (!RefGreedyInsertOne(&r, occupied, interior_only)) return kInfeasible;
  const long double before = donor.loss + receiver.loss;
  const long double after = d.loss + r.loss;
  return after - before;
}

bool RefApplyExchange(RefModelState* donor, RefModelState* receiver,
                      bool left_to_right, std::unordered_set<Key>* occupied,
                      std::int64_t threshold, bool interior_only) {
  if (donor->poisons.empty()) return false;
  if (static_cast<std::int64_t>(receiver->poisons.size()) + 1 > threshold) {
    return false;
  }
  if (receiver->legit.size() < 2) return false;
  RefModelState d = *donor;
  RefModelState r = *receiver;
  d.poisons.pop_back();
  if (left_to_right) {
    const Key boundary = r.legit.front();
    r.legit.erase(r.legit.begin());
    d.legit.push_back(boundary);
  } else {
    const Key boundary = r.legit.back();
    r.legit.pop_back();
    d.legit.insert(d.legit.begin(), boundary);
  }
  const Key removed_poison = donor->poisons.back();
  d.loss = RefComputeModelLoss(d);
  r.loss = RefComputeModelLoss(r);
  occupied->erase(removed_poison);
  if (!RefGreedyInsertOne(&r, *occupied, interior_only)) {
    occupied->insert(removed_poison);
    return false;
  }
  occupied->insert(r.poisons.back());
  *donor = std::move(d);
  *receiver = std::move(r);
  return true;
}

/// Shared option validation; fills in the derived quantities.
struct DerivedOptions {
  std::int64_t num_models = 0;
  std::int64_t budget = 0;
  std::int64_t threshold = 0;
  std::int64_t max_exchanges = 0;
};

Result<DerivedOptions> ValidateOptions(const KeySet& keyset,
                                       const RmiAttackOptions& options) {
  if (keyset.empty()) {
    return Status::InvalidArgument("cannot poison an empty keyset");
  }
  if (options.poison_fraction <= 0 || options.poison_fraction > 0.5) {
    return Status::InvalidArgument(
        "poison_fraction must lie in (0, 0.5]; the paper bounds it by 20%");
  }
  if (options.alpha < 1.0) {
    return Status::InvalidArgument("alpha must be >= 1");
  }
  const std::int64_t n = keyset.size();
  DerivedOptions derived;
  derived.num_models = options.num_models;
  if (derived.num_models <= 0) {
    if (options.model_size <= 0) {
      return Status::InvalidArgument(
          "either num_models or model_size must be positive");
    }
    derived.num_models = (n + options.model_size - 1) / options.model_size;
  }
  if (derived.num_models > n) derived.num_models = n;
  derived.budget = static_cast<std::int64_t>(
      std::floor(options.poison_fraction * static_cast<double>(n)));
  if (derived.budget < 1) {
    return Status::InvalidArgument(
        "poisoning budget floor(phi*n) is zero; increase phi or n");
  }
  derived.threshold = static_cast<std::int64_t>(std::ceil(
      options.alpha * options.poison_fraction * static_cast<double>(n) /
      static_cast<double>(derived.num_models)));
  derived.max_exchanges =
      options.max_exchanges > 0
          ? options.max_exchanges
          : (options.max_exchanges < 0 ? 0 : 16 * derived.num_models);
  return derived;
}

}  // namespace

std::vector<Key> RmiAttackResult::AllPoisonKeys() const {
  std::vector<Key> all;
  for (const auto& p : per_model_poison) {
    all.insert(all.end(), p.begin(), p.end());
  }
  return all;
}

Result<RmiAttackResult> PoisonRmi(const KeySet& keyset,
                                  const RmiAttackOptions& options) {
  LISPOISON_ASSIGN_OR_RETURN(DerivedOptions derived,
                             ValidateOptions(keyset, options));
  const std::int64_t n = keyset.size();
  const std::int64_t num_models = derived.num_models;
  const std::int64_t budget = derived.budget;
  const std::int64_t threshold = derived.threshold;
  TraceSpan attack_span(TraceCategory::kAttack, "poison_rmi", budget);

  ThreadPool pool(options.num_threads);
  LossLandscape::ArgmaxOptions argmax;
  argmax.prune = options.prune_argmax;

  // ---- Clean baseline: equal partition of K into N models. ----
  const std::int64_t base = n / num_models;
  const std::int64_t extra = n % num_models;
  std::vector<ModelState> models(static_cast<std::size_t>(num_models));
  RmiAttackResult result;
  {
    std::int64_t first = 0;
    for (std::int64_t i = 0; i < num_models; ++i) {
      const std::int64_t count = base + (i < extra ? 1 : 0);
      models[static_cast<std::size_t>(i)].legit.assign(
          keyset.keys().begin() + first, keyset.keys().begin() + first + count);
      first += count;
    }
  }
  // Fit every model's persistent landscape in parallel.
  std::vector<char> build_ok(models.size(), 1);
  pool.ParallelFor(num_models, [&](std::int64_t i) {
    build_ok[static_cast<std::size_t>(i)] =
        models[static_cast<std::size_t>(i)].Rebuild().ok() ? 1 : 0;
  });
  for (const char ok : build_ok) {
    if (!ok) return Status::Internal("second-stage model fit failed");
  }
  result.clean_losses.reserve(models.size());
  long double clean_sum = 0;
  for (const auto& m : models) {
    result.clean_losses.push_back(m.loss);
    clean_sum += m.loss;
  }
  result.clean_rmi_loss = clean_sum / static_cast<long double>(num_models);

  // Global occupancy: every legitimate key plus every committed poison.
  // Adjacent models' spans can overlap after boundary exchanges, so
  // availability must be checked globally, not per model.
  std::unordered_set<Key> occupied(keyset.keys().begin(),
                                   keyset.keys().end());

  // ---- Initial volume allocation: budget / N poisons per model. ----
  // Before any exchange, every model's candidate range lies strictly
  // inside its own span and the spans are disjoint, so the per-model
  // greedy loops are independent: run them in parallel against the
  // read-only legitimate occupancy and merge the poisons afterwards.
  std::vector<std::int64_t> quota(models.size(), 0);
  {
    const std::int64_t per_model = budget / num_models;
    std::int64_t remainder = budget % num_models;
    for (std::int64_t i = 0; i < num_models; ++i) {
      std::int64_t q = per_model + (remainder > 0 ? 1 : 0);
      if (remainder > 0) --remainder;
      quota[static_cast<std::size_t>(i)] = std::min(q, threshold);
    }
  }
  pool.ParallelFor(num_models, [&](std::int64_t i) {
    auto& m = models[static_cast<std::size_t>(i)];
    for (std::int64_t q = 0; q < quota[static_cast<std::size_t>(i)]; ++q) {
      if (!GreedyInsertOne(&m, occupied, options.interior_only, argmax)) {
        break;
      }
    }
  });
  std::int64_t unplaced = budget;
  for (std::size_t i = 0; i < models.size(); ++i) {
    for (const Key kp : models[i].poisons) occupied.insert(kp);
    unplaced -= static_cast<std::int64_t>(models[i].poisons.size());
  }
  // Second pass: place any leftovers wherever the threshold and domain
  // allow, scanning models round-robin.
  if (unplaced > 0) {
    bool progress = true;
    while (unplaced > 0 && progress) {
      progress = false;
      for (auto& m : models) {
        if (unplaced == 0) break;
        if (static_cast<std::int64_t>(m.poisons.size()) >= threshold) {
          continue;
        }
        if (GreedyInsertOne(&m, occupied, options.interior_only, argmax)) {
          occupied.insert(m.poisons.back());
          --unplaced;
          progress = true;
        }
      }
    }
    if (unplaced > 0) {
      return Status::ResourceExhausted(
          "key domain cannot absorb the poisoning budget: " +
          std::to_string(unplaced) + " keys unplaced");
    }
  }

  // ---- Greedy volume re-allocation via CHANGELOSS. ----
  // Directed entries: change[i][0] is the i -> i+1 exchange (poison slot
  // moves right, model i+1 receives it), change[i][1] is i <- i+1 (slot
  // moves left, model i receives it). A simulation scans its receiver's
  // landscape with that landscape's argmax scratch, so the first batch
  // fans out by receiver: task j fills both entries model j receives.
  // After an applied exchange the six affected entries are recomputed
  // inline. The argmax reduction stays serial and in fixed order.
  const std::int64_t pairs = num_models - 1;
  std::vector<std::array<long double, 2>> change(
      static_cast<std::size_t>(std::max<std::int64_t>(pairs, 0)));
  // Simulation work per receiving model, summed in model order below.
  std::vector<LossLandscape::ArgmaxStats> exchange_stats(models.size());
  auto simulate = [&](std::int64_t i, int dir) {
    const auto left = static_cast<std::size_t>(i);
    const std::size_t donor = dir == 0 ? left : left + 1;
    const std::size_t receiver = dir == 0 ? left + 1 : left;
    change[left][static_cast<std::size_t>(dir)] = SimulateExchange(
        models[donor], models[receiver], /*left_to_right=*/dir == 0,
        occupied, threshold, argmax, &exchange_stats[receiver]);
  };
  auto recompute_pair = [&](std::int64_t i) {
    if (i < 0 || i >= pairs) return;
    simulate(i, 0);
    simulate(i, 1);
  };
  pool.ParallelFor(num_models, [&](std::int64_t j) {
    if (j > 0) simulate(j - 1, 0);
    if (j < pairs) simulate(j, 1);
  });

  const std::int64_t max_exchanges = derived.max_exchanges;
  const long double eps_sum =
      options.epsilon * static_cast<long double>(num_models);
  while (true) {
    std::int64_t best_pair = -1;
    int best_dir = 0;
    long double best_delta = eps_sum;
    for (std::int64_t i = 0; i < pairs; ++i) {
      for (int dir = 0; dir < 2; ++dir) {
        const long double d = change[static_cast<std::size_t>(i)][dir];
        if (d > best_delta) {
          best_delta = d;
          best_pair = i;
          best_dir = dir;
        }
      }
    }
    if (best_pair < 0) break;  // No exchange improves L_RMI by > epsilon.
    if (result.exchanges_applied >= max_exchanges) {
      result.exchange_cap_hit = true;  // One still would.
      break;
    }
    ModelState* donor;
    ModelState* receiver;
    bool left_to_right;
    if (best_dir == 0) {
      donor = &models[static_cast<std::size_t>(best_pair)];
      receiver = &models[static_cast<std::size_t>(best_pair) + 1];
      left_to_right = true;
    } else {
      donor = &models[static_cast<std::size_t>(best_pair) + 1];
      receiver = &models[static_cast<std::size_t>(best_pair)];
      left_to_right = false;
    }
    if (!ApplyExchange(donor, receiver, left_to_right, &occupied, threshold,
                       options.interior_only, argmax)) {
      // Mark infeasible so the loop does not retry it forever.
      change[static_cast<std::size_t>(best_pair)][best_dir] = kInfeasible;
      continue;
    }
    result.exchanges_applied += 1;
    // Six entries reference the two touched models: the pair itself and
    // both neighbouring pairs.
    recompute_pair(best_pair - 1);
    recompute_pair(best_pair);
    recompute_pair(best_pair + 1);
  }

  // ---- Collect results. ----
  result.per_model_poison.reserve(models.size());
  result.poisoned_losses.reserve(models.size());
  result.per_model_ratio.reserve(models.size());
  long double poisoned_sum = 0;
  for (std::size_t i = 0; i < models.size(); ++i) {
    result.per_model_poison.push_back(models[i].poisons);
    result.poisoned_losses.push_back(models[i].loss);
    result.per_model_ratio.push_back(
        SafeRatioLoss(models[i].loss, result.clean_losses[i]));
    result.argmax_stats.Add(models[i].stats);
    result.exchange_stats.Add(exchange_stats[i]);
    poisoned_sum += models[i].loss;
    result.total_poison_keys +=
        static_cast<std::int64_t>(models[i].poisons.size());
  }
  result.poisoned_rmi_loss =
      poisoned_sum / static_cast<long double>(num_models);
  result.rmi_ratio_loss =
      SafeRatioLoss(result.poisoned_rmi_loss, result.clean_rmi_loss);

  // ---- Victim-side validation: retrain on K ∪ P re-partitioned. ----
  {
    LISPOISON_ASSIGN_OR_RETURN(KeySet poisoned,
                               keyset.Union(result.AllPoisonKeys()));
    const std::int64_t np = poisoned.size();
    const std::int64_t vbase = np / num_models;
    const std::int64_t vextra = np % num_models;
    std::vector<long double> victim_losses(
        static_cast<std::size_t>(num_models), 0);
    pool.ParallelFor(num_models, [&](std::int64_t i) {
      const std::int64_t count = vbase + (i < vextra ? 1 : 0);
      const std::int64_t first = vbase * i + std::min(i, vextra);
      victim_losses[static_cast<std::size_t>(i)] =
          SpanLoss(poisoned.keys(), first, count);
    });
    long double sum = 0;
    for (const long double l : victim_losses) sum += l;
    result.retrained_rmi_loss = sum / static_cast<long double>(num_models);
    result.retrained_rmi_ratio =
        SafeRatioLoss(result.retrained_rmi_loss, result.clean_rmi_loss);
  }
  return result;
}

Result<RmiAttackResult> PoisonRmiReference(const KeySet& keyset,
                                           const RmiAttackOptions& options) {
  LISPOISON_ASSIGN_OR_RETURN(DerivedOptions derived,
                             ValidateOptions(keyset, options));
  const std::int64_t n = keyset.size();
  const std::int64_t num_models = derived.num_models;
  const std::int64_t budget = derived.budget;
  const std::int64_t threshold = derived.threshold;

  // ---- Clean baseline: equal partition of K into N models. ----
  const std::int64_t base = n / num_models;
  const std::int64_t extra = n % num_models;
  std::vector<RefModelState> models(static_cast<std::size_t>(num_models));
  RmiAttackResult result;
  result.clean_losses.reserve(static_cast<std::size_t>(num_models));
  {
    std::int64_t first = 0;
    for (std::int64_t i = 0; i < num_models; ++i) {
      const std::int64_t count = base + (i < extra ? 1 : 0);
      auto& m = models[static_cast<std::size_t>(i)];
      m.legit.assign(keyset.keys().begin() + first,
                     keyset.keys().begin() + first + count);
      m.loss = RefComputeModelLoss(m);
      result.clean_losses.push_back(m.loss);
      first += count;
    }
  }
  long double clean_sum = 0;
  for (const auto l : result.clean_losses) clean_sum += l;
  result.clean_rmi_loss = clean_sum / static_cast<long double>(num_models);

  std::unordered_set<Key> occupied(keyset.keys().begin(),
                                   keyset.keys().end());

  // ---- Initial volume allocation: budget / N poisons per model. ----
  const std::int64_t per_model = budget / num_models;
  std::int64_t remainder = budget % num_models;
  std::int64_t unplaced = 0;
  for (std::int64_t i = 0; i < num_models; ++i) {
    auto& m = models[static_cast<std::size_t>(i)];
    std::int64_t quota = per_model + (remainder > 0 ? 1 : 0);
    if (remainder > 0) --remainder;
    quota = std::min(quota, threshold);
    for (std::int64_t q = 0; q < quota; ++q) {
      if (!RefGreedyInsertOne(&m, occupied, options.interior_only)) {
        unplaced += quota - q;
        break;
      }
      occupied.insert(m.poisons.back());
    }
  }
  if (unplaced > 0) {
    bool progress = true;
    while (unplaced > 0 && progress) {
      progress = false;
      for (auto& m : models) {
        if (unplaced == 0) break;
        if (static_cast<std::int64_t>(m.poisons.size()) >= threshold) {
          continue;
        }
        if (RefGreedyInsertOne(&m, occupied, options.interior_only)) {
          occupied.insert(m.poisons.back());
          --unplaced;
          progress = true;
        }
      }
    }
    if (unplaced > 0) {
      return Status::ResourceExhausted(
          "key domain cannot absorb the poisoning budget: " +
          std::to_string(unplaced) + " keys unplaced");
    }
  }

  // ---- Greedy volume re-allocation via CHANGELOSS. ----
  const std::int64_t pairs = num_models - 1;
  std::vector<std::array<long double, 2>> change(
      static_cast<std::size_t>(std::max<std::int64_t>(pairs, 0)));
  auto recompute_pair = [&](std::int64_t i) {
    if (i < 0 || i >= pairs) return;
    auto& left = models[static_cast<std::size_t>(i)];
    auto& right = models[static_cast<std::size_t>(i) + 1];
    change[static_cast<std::size_t>(i)][0] =
        RefSimulateExchange(left, right, /*left_to_right=*/true, occupied,
                            threshold, options.interior_only);
    change[static_cast<std::size_t>(i)][1] =
        RefSimulateExchange(right, left, /*left_to_right=*/false, occupied,
                            threshold, options.interior_only);
  };
  for (std::int64_t i = 0; i < pairs; ++i) recompute_pair(i);

  const std::int64_t max_exchanges = derived.max_exchanges;
  const long double eps_sum =
      options.epsilon * static_cast<long double>(num_models);
  while (result.exchanges_applied < max_exchanges) {
    std::int64_t best_pair = -1;
    int best_dir = 0;
    long double best_delta = eps_sum;
    for (std::int64_t i = 0; i < pairs; ++i) {
      for (int dir = 0; dir < 2; ++dir) {
        const long double d = change[static_cast<std::size_t>(i)][dir];
        if (d > best_delta) {
          best_delta = d;
          best_pair = i;
          best_dir = dir;
        }
      }
    }
    if (best_pair < 0) break;
    RefModelState* donor;
    RefModelState* receiver;
    bool left_to_right;
    if (best_dir == 0) {
      donor = &models[static_cast<std::size_t>(best_pair)];
      receiver = &models[static_cast<std::size_t>(best_pair) + 1];
      left_to_right = true;
    } else {
      donor = &models[static_cast<std::size_t>(best_pair) + 1];
      receiver = &models[static_cast<std::size_t>(best_pair)];
      left_to_right = false;
    }
    if (!RefApplyExchange(donor, receiver, left_to_right, &occupied,
                          threshold, options.interior_only)) {
      change[static_cast<std::size_t>(best_pair)][best_dir] = kInfeasible;
      continue;
    }
    result.exchanges_applied += 1;
    recompute_pair(best_pair - 1);
    recompute_pair(best_pair);
    recompute_pair(best_pair + 1);
  }

  // ---- Collect results. ----
  result.per_model_poison.reserve(models.size());
  result.poisoned_losses.reserve(models.size());
  result.per_model_ratio.reserve(models.size());
  long double poisoned_sum = 0;
  for (std::size_t i = 0; i < models.size(); ++i) {
    result.per_model_poison.push_back(models[i].poisons);
    result.poisoned_losses.push_back(models[i].loss);
    result.per_model_ratio.push_back(
        SafeRatioLoss(models[i].loss, result.clean_losses[i]));
    poisoned_sum += models[i].loss;
    result.total_poison_keys +=
        static_cast<std::int64_t>(models[i].poisons.size());
  }
  result.poisoned_rmi_loss =
      poisoned_sum / static_cast<long double>(num_models);
  result.rmi_ratio_loss =
      SafeRatioLoss(result.poisoned_rmi_loss, result.clean_rmi_loss);

  // ---- Victim-side validation: retrain on K ∪ P re-partitioned. ----
  {
    LISPOISON_ASSIGN_OR_RETURN(KeySet poisoned,
                               keyset.Union(result.AllPoisonKeys()));
    const std::int64_t np = poisoned.size();
    const std::int64_t vbase = np / num_models;
    const std::int64_t vextra = np % num_models;
    std::int64_t first = 0;
    long double sum = 0;
    for (std::int64_t i = 0; i < num_models; ++i) {
      const std::int64_t count = vbase + (i < vextra ? 1 : 0);
      RefModelState vm;
      vm.legit.assign(poisoned.keys().begin() + first,
                      poisoned.keys().begin() + first + count);
      sum += RefComputeModelLoss(vm);
      first += count;
    }
    result.retrained_rmi_loss = sum / static_cast<long double>(num_models);
    result.retrained_rmi_ratio =
        SafeRatioLoss(result.retrained_rmi_loss, result.clean_rmi_loss);
  }
  return result;
}

}  // namespace lispoison
