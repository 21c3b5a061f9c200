#include "engine/lemma_db.h"

#include <algorithm>
#include <utility>

namespace lcdb {

namespace {

/// Rescale threshold for the growing activity increment (the MiniSat-style
/// constant-time decay). Doubles keep ~15 significant digits; rescaling at
/// 1e100 leaves relative order exact.
constexpr double kActivityRescale = 1e100;

/// Worst-first eviction order: transients before frequents before cores,
/// coldest activity first, ties broken toward the oldest lemma. Strict
/// weak order over distinct ids, so eviction is deterministic.
struct EvictRank {
  LemmaDatabase::Tier tier;
  double activity;
  uint64_t id;
  bool operator<(const EvictRank& o) const {
    if (tier != o.tier) return static_cast<int>(tier) > static_cast<int>(o.tier);
    if (activity != o.activity) return activity < o.activity;
    return id < o.id;
  }
};

LemmaDatabase::Options Normalize(LemmaDatabase::Options o) {
  if (o.max_entries == 0) o.max_entries = 1;
  if (o.decay_interval == 0) o.decay_interval = 1;
  if (o.activity_decay <= 0.0 || o.activity_decay > 1.0) o.activity_decay = 1.0;
  return o;
}

}  // namespace

LemmaDatabase::LemmaDatabase(Options options) : options_(Normalize(options)) {}

LemmaDatabase::Entry* LemmaDatabase::FindLocked(uint64_t hash,
                                                const std::string& key) {
  auto bucket = index_.find(hash);
  if (bucket == index_.end()) return nullptr;
  bool collided = false;
  Entry* found = nullptr;
  for (uint64_t id : bucket->second) {
    auto it = entries_.find(id);
    if (it == entries_.end()) continue;
    if (it->second.key == key) {
      found = &it->second;
    } else {
      collided = true;
    }
  }
  if (found == nullptr && collided) ++stats_.collisions;
  return found;
}

void LemmaDatabase::TouchLocked(Entry& entry) {
  entry.activity += activity_inc_;
  if (entry.activity > kActivityRescale) {
    // Rescale every activity and the increment together; relative order
    // (and hence eviction choice) is unchanged.
    for (auto& [id, e] : entries_) e.activity *= 1.0 / kActivityRescale;
    activity_inc_ *= 1.0 / kActivityRescale;
  }
  ++entry.uses;
  if (entry.tier == Tier::kTransient && entry.uses >= options_.frequent_uses) {
    entry.tier = Tier::kFrequent;
  }
}

std::vector<DisjunctId> LemmaDatabase::OccurrencesOfLocked(
    const std::vector<LinearAtom>& atoms) const {
  std::vector<DisjunctId> occ;
  if (!bound_) return occ;
  for (const LinearAtom& atom : atoms) {
    auto it = atom_index_.find(StableAtomHash(atom));
    if (it == atom_index_.end()) continue;
    occ.insert(occ.end(), it->second.begin(), it->second.end());
  }
  std::sort(occ.begin(), occ.end());
  occ.erase(std::unique(occ.begin(), occ.end()), occ.end());
  return occ;
}

void LemmaDatabase::InsertLocked(uint64_t hash, const std::string& key,
                                 LemmaValue value,
                                 const std::vector<LinearAtom>& atoms,
                                 uint64_t pivots, bool infeasible_core) {
  Entry entry;
  entry.id = next_id_++;
  entry.hash = hash;
  entry.key = key;
  entry.value = std::move(value);
  entry.activity = activity_inc_;
  entry.uses = 0;
  entry.tier = (infeasible_core || pivots >= options_.core_pivots)
                   ? Tier::kCore
                   : Tier::kTransient;
  for (DisjunctId d : OccurrencesOfLocked(atoms)) {
    if (d < disjunct_lemmas_.size()) disjunct_lemmas_[d].push_back(entry.id);
  }
  index_[hash].push_back(entry.id);
  entries_.emplace(entry.id, std::move(entry));
  ++stats_.insertions;

  if (++inserts_since_decay_ >= options_.decay_interval) {
    inserts_since_decay_ = 0;
    // Growing the increment decays every existing activity relative to
    // future bumps — the constant-time form of multiplying all scores by
    // activity_decay.
    activity_inc_ *= 1.0 / options_.activity_decay;
    ++stats_.decays;
  }
  ReduceLocked();
}

void LemmaDatabase::EraseLocked(uint64_t id, Entry& entry,
                                uint64_t* tier_counter) {
  auto bucket = index_.find(entry.hash);
  if (bucket != index_.end()) {
    auto& chain = bucket->second;
    chain.erase(std::remove(chain.begin(), chain.end(), id), chain.end());
    if (chain.empty()) index_.erase(bucket);
  }
  // Occurrence buckets are pruned lazily (dead ids are skipped on
  // invalidation), so no per-disjunct scan here.
  if (tier_counter != nullptr) ++*tier_counter;
  entries_.erase(id);
}

void LemmaDatabase::ReduceLocked() {
  if (entries_.size() <= options_.max_entries) return;
  // Batch-evict down to 7/8 of capacity: amortizes the ranking scan over
  // the next capacity/8 insertions while keeping the bound tight for tiny
  // capacities (7/8 of 2 is still 1 below the trigger point).
  const size_t target =
      options_.max_entries - options_.max_entries / 8;
  std::vector<EvictRank> ranks;
  ranks.reserve(entries_.size());
  for (const auto& [id, e] : entries_) {
    ranks.push_back(EvictRank{e.tier, e.activity, id});
  }
  std::sort(ranks.begin(), ranks.end());
  const size_t to_evict = entries_.size() - target;
  for (size_t i = 0; i < to_evict && i < ranks.size(); ++i) {
    auto it = entries_.find(ranks[i].id);
    if (it == entries_.end()) continue;
    uint64_t* counter = nullptr;
    switch (it->second.tier) {
      case Tier::kCore: counter = &stats_.evictions_core; break;
      case Tier::kFrequent: counter = &stats_.evictions_frequent; break;
      case Tier::kTransient: counter = &stats_.evictions_transient; break;
    }
    EraseLocked(ranks[i].id, it->second, counter);
  }
}

std::optional<FeasibilityResult> LemmaDatabase::LookupFeasibility(
    const CanonicalSystem& canon) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry* entry = FindLocked(canon.hash, canon.encoding);
  if (entry == nullptr || entry->value.is_implication) {
    ++stats_.misses;
    return std::nullopt;
  }
  ++stats_.hits;
  TouchLocked(*entry);
  return entry->value.feasibility;
}

void LemmaDatabase::InsertFeasibility(const CanonicalSystem& canon,
                                      const FeasibilityResult& result,
                                      uint64_t pivots) {
  std::lock_guard<std::mutex> lock(mu_);
  if (FindLocked(canon.hash, canon.encoding) != nullptr) return;
  LemmaValue value;
  value.is_implication = false;
  value.feasibility = result;
  // An infeasible verdict is the system's own infeasible core — the
  // highest-value lemma kind (it prunes whole disjuncts), pinned core.
  InsertLocked(canon.hash, canon.encoding, std::move(value), canon.atoms,
               pivots, /*infeasible_core=*/!result.feasible);
}

std::optional<bool> LemmaDatabase::LookupImplication(uint64_t hash,
                                                     const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry* entry = FindLocked(hash, key);
  if (entry == nullptr || !entry->value.is_implication) {
    ++stats_.misses;
    return std::nullopt;
  }
  ++stats_.hits;
  TouchLocked(*entry);
  return entry->value.implication;
}

void LemmaDatabase::InsertImplication(uint64_t hash, const std::string& key,
                                      const std::vector<LinearAtom>& lhs_atoms,
                                      bool consistent, uint64_t pivots) {
  std::lock_guard<std::mutex> lock(mu_);
  if (FindLocked(hash, key) != nullptr) return;
  LemmaValue value;
  value.is_implication = true;
  value.implication = consistent;
  // A proved implication (`consistent == false`) prunes redundancy tests
  // the same way an infeasible core prunes feasibility: pin it core.
  InsertLocked(hash, key, std::move(value), lhs_atoms, pivots,
               /*infeasible_core=*/!consistent);
}

void LemmaDatabase::BindDisjuncts(const DnfFormula& representation) {
  // Fingerprint outside the lock: canonicalization is pure.
  std::string fingerprint_bytes;
  for (const Conjunction& c : representation.disjuncts()) {
    fingerprint_bytes += CanonicalizeConjunction(c).encoding;
    fingerprint_bytes += ';';
  }
  const uint64_t fingerprint = StableHash64(fingerprint_bytes);

  std::lock_guard<std::mutex> lock(mu_);
  if (bound_ && fingerprint == bound_fingerprint_) return;
  ++stats_.rebinds;
  bound_ = true;
  bound_fingerprint_ = fingerprint;
  atom_index_.clear();
  disjunct_lemmas_.assign(representation.disjuncts().size(), {});
  for (DisjunctId d = 0; d < representation.disjuncts().size(); ++d) {
    for (const LinearAtom& atom : representation.disjuncts()[d].atoms()) {
      atom_index_[StableAtomHash(atom)].push_back(d);
    }
  }
  // Existing lemmas were filed under the previous representation's
  // disjunct ids, which the assign above dropped. The lemmas themselves stay
  // valid (pure truths) but become unattributed.
}

size_t LemmaDatabase::InvalidateDisjunct(DisjunctId disjunct) {
  std::lock_guard<std::mutex> lock(mu_);
  size_t dropped = 0;
  if (disjunct < disjunct_lemmas_.size()) {
    std::vector<uint64_t> ids;
    ids.swap(disjunct_lemmas_[disjunct]);
    for (uint64_t id : ids) {
      auto it = entries_.find(id);
      if (it == entries_.end()) continue;  // evicted since; lazily pruned
      EraseLocked(id, it->second, nullptr);
      ++dropped;
    }
  }
  stats_.invalidations += dropped;
  return dropped;
}

size_t LemmaDatabase::OccurrenceCount(DisjunctId disjunct) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (disjunct >= disjunct_lemmas_.size()) return 0;
  size_t live = 0;
  for (uint64_t id : disjunct_lemmas_[disjunct]) {
    if (entries_.count(id) != 0) ++live;
  }
  return live;
}

void LemmaDatabase::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  index_.clear();
  for (auto& bucket : disjunct_lemmas_) bucket.clear();
}

size_t LemmaDatabase::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

std::array<size_t, 3> LemmaDatabase::TierCounts() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::array<size_t, 3> counts{0, 0, 0};
  for (const auto& [id, e] : entries_) {
    ++counts[static_cast<size_t>(e.tier)];
  }
  return counts;
}

LemmaDbStats LemmaDatabase::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace lcdb
