#ifndef LCDB_ENGINE_KERNEL_STATS_H_
#define LCDB_ENGINE_KERNEL_STATS_H_

#include <cstdint>
#include <string>

namespace lcdb {

/// Telemetry of a constraint kernel (engine/kernel.h). The paper's PTIME
/// data-complexity results (Theorems 4.3 and 6.1) are bounds on the number
/// of oracle decisions an evaluation makes; these counters make that number
/// a first-class measured quantity. All counters are cumulative since
/// construction or the last ResetStats().
struct KernelStats {
  /// Feasibility questions asked of the kernel (cache hits included).
  uint64_t feasibility_queries = 0;
  /// Implication / consistency-with-negation questions asked.
  uint64_t implication_queries = 0;
  /// Questions answered by canonicalization alone (syntactically false or
  /// empty systems, constant atoms) — no cache lookup, no LP.
  uint64_t trivial_answers = 0;
  /// Underlying LP oracle invocations (the cache misses that paid).
  uint64_t oracle_calls = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t implication_cache_hits = 0;
  uint64_t implication_cache_misses = 0;
  /// Lookups that found entries with the same 64-bit hash but a different
  /// canonical encoding (resolved exactly by the encoding comparison).
  uint64_t canonicalization_collisions = 0;
  /// Entries dropped by the occupancy bound (lemma evictions, all tiers).
  uint64_t cache_evictions = 0;
  /// MaximizeLp calls and tableau pivots spent on this kernel's oracle
  /// calls (deltas of the process-wide simplex counters).
  uint64_t simplex_invocations = 0;
  uint64_t simplex_pivots = 0;

  /// Lemma-database family (engine/lemma_db.h) — the memoizing kernel's
  /// activity-managed lemma store; all zero under memoize off. Hits/misses
  /// count lemma lookups (the union of the feasibility and implication
  /// keyspaces); evictions are split by the quality tier of the dropped
  /// lemma; invalidations count lemmas dropped through per-disjunct
  /// occurrence lists.
  uint64_t lemma_hits = 0;
  uint64_t lemma_misses = 0;
  uint64_t lemma_insertions = 0;
  uint64_t lemma_evictions_core = 0;
  uint64_t lemma_evictions_frequent = 0;
  uint64_t lemma_evictions_transient = 0;
  uint64_t lemma_invalidations = 0;
  uint64_t lemma_decays = 0;
  /// Gauge, not a counter: live lemmas at snapshot time. Difference and
  /// accumulation both keep the most recent value.
  uint64_t lemma_occupancy = 0;

  KernelStats& operator+=(const KernelStats& o) {
    feasibility_queries += o.feasibility_queries;
    implication_queries += o.implication_queries;
    trivial_answers += o.trivial_answers;
    oracle_calls += o.oracle_calls;
    cache_hits += o.cache_hits;
    cache_misses += o.cache_misses;
    implication_cache_hits += o.implication_cache_hits;
    implication_cache_misses += o.implication_cache_misses;
    canonicalization_collisions += o.canonicalization_collisions;
    cache_evictions += o.cache_evictions;
    simplex_invocations += o.simplex_invocations;
    simplex_pivots += o.simplex_pivots;
    lemma_hits += o.lemma_hits;
    lemma_misses += o.lemma_misses;
    lemma_insertions += o.lemma_insertions;
    lemma_evictions_core += o.lemma_evictions_core;
    lemma_evictions_frequent += o.lemma_evictions_frequent;
    lemma_evictions_transient += o.lemma_evictions_transient;
    lemma_invalidations += o.lemma_invalidations;
    lemma_decays += o.lemma_decays;
    lemma_occupancy = o.lemma_occupancy;  // gauge: latest wins
    return *this;
  }

  /// Counter-wise difference (for before/after snapshots).
  KernelStats operator-(const KernelStats& o) const {
    KernelStats d = *this;
    d.feasibility_queries -= o.feasibility_queries;
    d.implication_queries -= o.implication_queries;
    d.trivial_answers -= o.trivial_answers;
    d.oracle_calls -= o.oracle_calls;
    d.cache_hits -= o.cache_hits;
    d.cache_misses -= o.cache_misses;
    d.implication_cache_hits -= o.implication_cache_hits;
    d.implication_cache_misses -= o.implication_cache_misses;
    d.canonicalization_collisions -= o.canonicalization_collisions;
    d.cache_evictions -= o.cache_evictions;
    d.simplex_invocations -= o.simplex_invocations;
    d.simplex_pivots -= o.simplex_pivots;
    d.lemma_hits -= o.lemma_hits;
    d.lemma_misses -= o.lemma_misses;
    d.lemma_insertions -= o.lemma_insertions;
    d.lemma_evictions_core -= o.lemma_evictions_core;
    d.lemma_evictions_frequent -= o.lemma_evictions_frequent;
    d.lemma_evictions_transient -= o.lemma_evictions_transient;
    d.lemma_invalidations -= o.lemma_invalidations;
    d.lemma_decays -= o.lemma_decays;
    // d.lemma_occupancy stays *this's value (gauge semantics).
    return d;
  }

  std::string ToString() const {
    std::string out = "oracle_calls=" + std::to_string(oracle_calls);
    out += " feasibility_queries=" + std::to_string(feasibility_queries);
    out += " implication_queries=" + std::to_string(implication_queries);
    out += " cache_hits=" + std::to_string(cache_hits);
    out += " cache_misses=" + std::to_string(cache_misses);
    out += " impl_hits=" + std::to_string(implication_cache_hits);
    out += " impl_misses=" + std::to_string(implication_cache_misses);
    out += " trivial=" + std::to_string(trivial_answers);
    out += " collisions=" + std::to_string(canonicalization_collisions);
    out += " evictions=" + std::to_string(cache_evictions);
    out += " simplex_invocations=" + std::to_string(simplex_invocations);
    out += " simplex_pivots=" + std::to_string(simplex_pivots);
    out += " lemma_hits=" + std::to_string(lemma_hits);
    out += " lemma_evictions=" +
           std::to_string(lemma_evictions_core + lemma_evictions_frequent +
                          lemma_evictions_transient);
    out += " lemma_invalidations=" + std::to_string(lemma_invalidations);
    return out;
  }
};

}  // namespace lcdb

#endif  // LCDB_ENGINE_KERNEL_STATS_H_
