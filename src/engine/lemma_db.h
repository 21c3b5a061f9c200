#ifndef LCDB_ENGINE_LEMMA_DB_H_
#define LCDB_ENGINE_LEMMA_DB_H_

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "constraint/canonical.h"
#include "engine/kernel_stats.h"
#include "lp/feasibility.h"

namespace lcdb {

/// The constraint kernel's memo: a tiered store of kernel lemmas, owned by
/// exactly one ConstraintKernel (engine/kernel.h).
///
/// A lemma is a proved fact about a canonical constraint system, keyed by
/// its canonical byte encoding (constraint/canonical.h):
///
///  * a feasibility verdict — decision plus rational witness; an
///    *infeasible* verdict doubles as the system's infeasible core and is
///    pinned in the top quality tier;
///  * a proved implication — whether `system AND NOT(atom)` is
///    satisfiable, keyed by `encoding(system) + '!' + encoding(atom)`
///    (feasibility encodings never contain '!', so the keyspaces are
///    disjoint inside one pool).
///
/// Lemma truth is a pure function of the canonical encoding, so entries
/// never go stale: eviction affects hit rates only, never answers.
///
/// Tiers: kCore (infeasible cores, proved implications, and verdicts whose
/// oracle solve cost >= kCorePivots pivots), kFrequent (promoted after
/// kFrequentUses hits), kTransient (the rest). When occupancy exceeds the
/// capacity, the store batch-evicts down to 7/8 of it: transients before
/// frequents before cores, oldest first within a tier.
///
/// Counters (hits, misses, insertions, per-tier evictions, collisions) go
/// straight into the owner's KernelStats. Not thread-safe: the owning
/// kernel's mutex guards every call.
class LemmaDatabase {
 public:
  enum class Tier : uint8_t { kCore = 0, kFrequent = 1, kTransient = 2 };

  /// Hits before a transient lemma is promoted to kFrequent.
  static constexpr uint32_t kFrequentUses = 3;
  /// Oracle pivot cost at or above which a lemma enters kCore directly.
  static constexpr uint64_t kCorePivots = 32;

  /// `max_entries` bounds the one pool of feasibility and implication
  /// lemmas (0 is treated as 1); `stats` receives the store's counters and
  /// must outlive it.
  LemmaDatabase(size_t max_entries, KernelStats* stats);

  LemmaDatabase(const LemmaDatabase&) = delete;
  LemmaDatabase& operator=(const LemmaDatabase&) = delete;

  /// Feasibility lemma for `canon`, or null. The pointer is valid until
  /// the next insertion or Clear().
  const FeasibilityResult* LookupFeasibility(const CanonicalSystem& canon);

  /// Records a proved feasibility verdict. `pivots` is the oracle cost of
  /// the proof (tier assignment); infeasible verdicts are core regardless.
  void InsertFeasibility(const CanonicalSystem& canon,
                         const FeasibilityResult& result, uint64_t pivots);

  /// Implication lemma under the composite key (see class comment).
  std::optional<bool> LookupImplication(uint64_t hash, const std::string& key);

  /// Records a proved implication verdict; `consistent == false` (a proved
  /// implication) is core regardless of `pivots`.
  void InsertImplication(uint64_t hash, const std::string& key,
                         bool consistent, uint64_t pivots);

  void Clear();  ///< Drops all lemmas (counters kept).
  size_t size() const { return size_; }
  size_t capacity() const { return max_entries_; }
  /// Live-entry counts indexed by Tier (core, frequent, transient).
  std::array<size_t, 3> TierCounts() const;

 private:
  struct Entry {
    uint64_t id = 0;  ///< insertion sequence number: the age order
    std::string key;
    bool is_implication = false;
    bool implication = false;       // valid when is_implication
    FeasibilityResult feasibility;  // valid when !is_implication
    uint32_t uses = 0;
    Tier tier = Tier::kTransient;
  };

  /// The entry stored under exactly `key`, counting a collision when the
  /// hash bucket holds only other keys.
  Entry* Find(uint64_t hash, const std::string& key);
  /// Counts a hit and promotes a transient lemma at kFrequentUses.
  void Touch(Entry& entry);
  void Insert(uint64_t hash, Entry entry, uint64_t pivots, bool core);
  /// Batch eviction once occupancy exceeds the capacity.
  void Reduce();

  const size_t max_entries_;
  KernelStats* const stats_;
  uint64_t next_id_ = 0;
  size_t size_ = 0;
  /// canonical hash -> the entries with that hash (collision chains).
  std::unordered_map<uint64_t, std::vector<Entry>> buckets_;
};

}  // namespace lcdb

#endif  // LCDB_ENGINE_LEMMA_DB_H_
