#include "engine/lemma_db.h"

#include <algorithm>
#include <tuple>
#include <utility>

namespace lcdb {

LemmaDatabase::LemmaDatabase(size_t max_entries, KernelStats* stats)
    : max_entries_(std::max<size_t>(max_entries, 1)), stats_(stats) {}

LemmaDatabase::Entry* LemmaDatabase::Find(uint64_t hash,
                                          const std::string& key) {
  auto bucket = buckets_.find(hash);
  if (bucket == buckets_.end()) return nullptr;
  for (Entry& entry : bucket->second) {
    if (entry.key == key) return &entry;
  }
  ++stats_->canonicalization_collisions;
  return nullptr;
}

void LemmaDatabase::Touch(Entry& entry) {
  ++stats_->lemma_hits;
  ++entry.uses;
  if (entry.tier == Tier::kTransient && entry.uses >= kFrequentUses) {
    entry.tier = Tier::kFrequent;
  }
}

void LemmaDatabase::Insert(uint64_t hash, Entry entry, uint64_t pivots,
                           bool core) {
  entry.id = next_id_++;
  entry.tier = (core || pivots >= kCorePivots) ? Tier::kCore
                                               : Tier::kTransient;
  buckets_[hash].push_back(std::move(entry));
  ++size_;
  ++stats_->lemma_insertions;
  Reduce();
}

void LemmaDatabase::Reduce() {
  if (size_ <= max_entries_) return;
  // Batch-evict down to 7/8 of capacity: amortizes the ranking scan over
  // the next capacity/8 insertions while keeping the bound tight for tiny
  // capacities (7/8 of 2 is still 1 below the trigger point).
  const size_t target = max_entries_ - max_entries_ / 8;
  // Worst first: transients before frequents before cores (the reverse of
  // the Tier order), oldest id first within a tier. Ids are unique, so the
  // order is strict and eviction deterministic.
  std::vector<std::tuple<int, uint64_t, uint64_t>> ranks;  // (-tier, id, hash)
  ranks.reserve(size_);
  for (const auto& [hash, chain] : buckets_) {
    for (const Entry& e : chain) {
      ranks.emplace_back(-static_cast<int>(e.tier), e.id, hash);
    }
  }
  const size_t to_evict = size_ - target;
  std::partial_sort(ranks.begin(), ranks.begin() + to_evict, ranks.end());
  for (size_t i = 0; i < to_evict; ++i) {
    const auto [neg_tier, id, hash] = ranks[i];
    switch (static_cast<Tier>(-neg_tier)) {
      case Tier::kCore: ++stats_->lemma_evictions_core; break;
      case Tier::kFrequent: ++stats_->lemma_evictions_frequent; break;
      case Tier::kTransient: ++stats_->lemma_evictions_transient; break;
    }
    ++stats_->cache_evictions;
    auto bucket = buckets_.find(hash);
    std::vector<Entry>& chain = bucket->second;
    chain.erase(std::find_if(chain.begin(), chain.end(),
                             [id = id](const Entry& e) { return e.id == id; }));
    if (chain.empty()) buckets_.erase(bucket);
    --size_;
  }
}

const FeasibilityResult* LemmaDatabase::LookupFeasibility(
    const CanonicalSystem& canon) {
  Entry* entry = Find(canon.hash, canon.encoding);
  if (entry == nullptr || entry->is_implication) {
    ++stats_->lemma_misses;
    return nullptr;
  }
  Touch(*entry);
  return &entry->feasibility;
}

void LemmaDatabase::InsertFeasibility(const CanonicalSystem& canon,
                                      const FeasibilityResult& result,
                                      uint64_t pivots) {
  if (Find(canon.hash, canon.encoding) != nullptr) return;
  Entry entry;
  entry.key = canon.encoding;
  entry.feasibility = result;
  // An infeasible verdict is the system's own infeasible core — the
  // highest-value lemma kind (it prunes whole disjuncts), pinned core.
  Insert(canon.hash, std::move(entry), pivots, /*core=*/!result.feasible);
}

std::optional<bool> LemmaDatabase::LookupImplication(uint64_t hash,
                                                     const std::string& key) {
  Entry* entry = Find(hash, key);
  if (entry == nullptr || !entry->is_implication) {
    ++stats_->lemma_misses;
    return std::nullopt;
  }
  Touch(*entry);
  return entry->implication;
}

void LemmaDatabase::InsertImplication(uint64_t hash, const std::string& key,
                                      bool consistent, uint64_t pivots) {
  if (Find(hash, key) != nullptr) return;
  Entry entry;
  entry.key = key;
  entry.is_implication = true;
  entry.implication = consistent;
  // A proved implication (`consistent == false`) prunes redundancy tests
  // the same way an infeasible core prunes feasibility: pin it core.
  Insert(hash, std::move(entry), pivots, /*core=*/!consistent);
}

void LemmaDatabase::Clear() {
  buckets_.clear();
  size_ = 0;
}

std::array<size_t, 3> LemmaDatabase::TierCounts() const {
  std::array<size_t, 3> counts{0, 0, 0};
  for (const auto& [hash, chain] : buckets_) {
    for (const Entry& e : chain) ++counts[static_cast<size_t>(e.tier)];
  }
  return counts;
}

}  // namespace lcdb
