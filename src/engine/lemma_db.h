#ifndef LCDB_ENGINE_LEMMA_DB_H_
#define LCDB_ENGINE_LEMMA_DB_H_

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "constraint/canonical.h"
#include "constraint/dnf_formula.h"
#include "lp/feasibility.h"

namespace lcdb {

/// Per-database-disjunct index into the lemma store (see LemmaDatabase).
/// The index is positional: disjunct `i` of the bound representation's
/// `disjuncts()` vector.
using DisjunctId = uint32_t;

/// Counters of one lemma database. Cumulative since construction; the
/// kernel folds the since-ResetStats delta into KernelStats, which is how
/// the `kernel.lemma.*` metrics family and the evaluator's per-query
/// attribution are fed.
struct LemmaDbStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  /// Evictions split by the tier of the dropped lemma — the
  /// eviction-quality signal (dropping core lemmas is bad, dropping
  /// transients is the design working as intended).
  uint64_t evictions_core = 0;
  uint64_t evictions_frequent = 0;
  uint64_t evictions_transient = 0;
  /// Lemmas dropped by InvalidateDisjunct through the occurrence lists.
  uint64_t invalidations = 0;
  /// Activity-decay steps applied (every Options::decay_interval inserts).
  uint64_t decays = 0;
  /// Same-hash-different-encoding lookups, resolved exactly.
  uint64_t collisions = 0;
  /// Occurrence-index rebuilds (a bind to a different representation).
  uint64_t rebinds = 0;

  uint64_t evictions_total() const {
    return evictions_core + evictions_frequent + evictions_transient;
  }

  LemmaDbStats operator-(const LemmaDbStats& o) const {
    LemmaDbStats d = *this;
    d.hits -= o.hits;
    d.misses -= o.misses;
    d.insertions -= o.insertions;
    d.evictions_core -= o.evictions_core;
    d.evictions_frequent -= o.evictions_frequent;
    d.evictions_transient -= o.evictions_transient;
    d.invalidations -= o.invalidations;
    d.decays -= o.decays;
    d.collisions -= o.collisions;
    d.rebinds -= o.rebinds;
    return d;
  }
};

/// Cross-query, activity-managed store of kernel lemmas — the constraint
/// kernel's memo, managed CDCL-style (in the style of QBF/SAT
/// learnt-constraint databases: score by activity with periodic
/// decay, bump on use, evict by quality tier, keep occurrence lists for
/// targeted invalidation).
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
///    disjoint inside one store).
///
/// Lemma truth is a pure function of the canonical encoding, so entries
/// never go stale: eviction and invalidation affect hit rates only, never
/// answers. That is what makes the store safely shareable across queries,
/// across ScopedKernel scopes, and across kernels (a kernel holds a
/// shared_ptr; see ConstraintKernel).
///
/// Replacement protocol:
///  * every hit bumps the lemma's activity by a geometrically growing
///    increment — the classic constant-time equivalent of multiplying
///    every other lemma's score by `activity_decay` each period;
///  * lemmas are tiered: kCore (infeasible cores and verdicts whose oracle
///    solve cost >= core_pivots pivots), kFrequent (promoted after
///    frequent_uses hits), kTransient (the rest);
///  * when occupancy exceeds `max_entries`, the worst (tier, activity)
///    entries are batch-evicted down to 7/8 of capacity — transients
///    before frequents before cores, coldest first, ties to the oldest.
///    Recency plays no role.
///
/// Occurrence lists: BindDisjuncts() indexes the canonical atoms of a
/// database representation's disjuncts; every inserted lemma records which
/// disjuncts share at least one atom with it. InvalidateDisjunct(i) drops
/// exactly the live lemmas whose occurrence lists mention disjunct `i` —
/// the hook incremental re-evaluation needs when one disjunct of the
/// database changes.
///
/// Thread safety: all state is guarded by an internal mutex.
class LemmaDatabase {
 public:
  enum class Tier : uint8_t { kCore = 0, kFrequent = 1, kTransient = 2 };

  struct Options {
    /// Occupancy bound over the unified store (feasibility + implication
    /// lemmas share one pool).
    size_t max_entries = 1u << 18;
    /// Multiplicative decay applied to all activities each period
    /// (implemented as growth of the bump increment).
    double activity_decay = 0.95;
    /// Insertions per decay step.
    size_t decay_interval = 64;
    /// Hits before a transient lemma is promoted to kFrequent.
    uint32_t frequent_uses = 3;
    /// Oracle pivot cost at or above which a lemma enters kCore directly.
    uint64_t core_pivots = 32;
  };

  LemmaDatabase() : LemmaDatabase(Options()) {}
  explicit LemmaDatabase(Options options);

  LemmaDatabase(const LemmaDatabase&) = delete;
  LemmaDatabase& operator=(const LemmaDatabase&) = delete;

  // --- Lemma lookup / insertion (called by the kernel under memoize) ---

  /// Feasibility lemma for `canon`, bumping its activity, or nullopt.
  std::optional<FeasibilityResult> LookupFeasibility(
      const CanonicalSystem& canon);

  /// Records a proved feasibility verdict. `pivots` is the oracle cost of
  /// the proof (tier assignment); infeasible verdicts are core regardless.
  void InsertFeasibility(const CanonicalSystem& canon,
                         const FeasibilityResult& result, uint64_t pivots);

  /// Implication lemma under the composite key (see class comment).
  std::optional<bool> LookupImplication(uint64_t hash, const std::string& key);

  /// Records a proved implication; `lhs_atoms` (the canonical system on
  /// the left of the implication) drive the occurrence list.
  void InsertImplication(uint64_t hash, const std::string& key,
                         const std::vector<LinearAtom>& lhs_atoms,
                         bool consistent, uint64_t pivots);

  // --- Occurrence lists / invalidation ---

  /// Binds the store to a database representation: indexes each disjunct's
  /// canonical atoms so later insertions can record occurrence lists.
  /// Binding the same representation again is a cheap no-op; binding a
  /// different one rebuilds the index and clears the now-meaningless old
  /// occurrence lists (the lemmas themselves stay — they are pure truths).
  void BindDisjuncts(const DnfFormula& representation);

  /// Drops every live lemma whose occurrence list mentions `disjunct` and
  /// returns the number dropped.
  size_t InvalidateDisjunct(DisjunctId disjunct);

  /// Live lemmas currently mentioning `disjunct` (what InvalidateDisjunct
  /// would drop).
  size_t OccurrenceCount(DisjunctId disjunct) const;

  // --- Introspection ---

  void Clear();  ///< Drops all lemmas (stats kept).
  size_t size() const;
  size_t capacity() const { return options_.max_entries; }
  /// Live-entry counts indexed by Tier (core, frequent, transient).
  std::array<size_t, 3> TierCounts() const;
  LemmaDbStats stats() const;

 private:
  struct LemmaValue {
    bool is_implication = false;
    bool implication = false;        // valid when is_implication
    FeasibilityResult feasibility;   // valid when !is_implication
  };
  struct Entry {
    uint64_t id = 0;  ///< insertion sequence number, stable for its life
    uint64_t hash = 0;
    std::string key;
    LemmaValue value;
    double activity = 0.0;
    uint32_t uses = 0;
    Tier tier = Tier::kTransient;
    std::vector<DisjunctId> occurrences;  ///< sorted disjunct ids
  };

  Entry* FindLocked(uint64_t hash, const std::string& key);
  void TouchLocked(Entry& entry);
  void InsertLocked(uint64_t hash, const std::string& key, LemmaValue value,
                    const std::vector<LinearAtom>& atoms, uint64_t pivots,
                    bool infeasible_core);
  void ReduceLocked();
  void EraseLocked(uint64_t id, Entry& entry, uint64_t* tier_counter);
  std::vector<DisjunctId> OccurrencesOfLocked(
      const std::vector<LinearAtom>& atoms) const;

  const Options options_;
  mutable std::mutex mu_;
  LemmaDbStats stats_;

  uint64_t next_id_ = 0;
  double activity_inc_ = 1.0;
  uint64_t inserts_since_decay_ = 0;

  /// id -> entry; node-based, so Entry addresses are stable under growth.
  std::unordered_map<uint64_t, Entry> entries_;
  /// canonical hash -> ids of entries with that hash (collision chains).
  std::unordered_map<uint64_t, std::vector<uint64_t>> index_;

  /// Occurrence machinery. `atom_index_` maps a canonical atom hash to the
  /// bound disjuncts containing that atom; `disjunct_lemmas_` maps a
  /// disjunct to the (lazily pruned) ids of lemmas that recorded it.
  uint64_t bound_fingerprint_ = 0;
  bool bound_ = false;
  std::unordered_map<uint64_t, std::vector<DisjunctId>> atom_index_;
  std::vector<std::vector<uint64_t>> disjunct_lemmas_;
};

}  // namespace lcdb

#endif  // LCDB_ENGINE_LEMMA_DB_H_
