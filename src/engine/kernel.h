#ifndef LCDB_ENGINE_KERNEL_H_
#define LCDB_ENGINE_KERNEL_H_

#include <cstdint>
#include <mutex>
#include <optional>
#include <vector>

#include "constraint/canonical.h"
#include "constraint/conjunction.h"
#include "engine/kernel_stats.h"
#include "engine/lemma_db.h"
#include "lp/feasibility.h"

namespace lcdb {

/// Memoizing front-end for the LP feasibility oracle — the single choke
/// point every expensive decision in the system flows through (DNF pruning,
/// Fourier-Motzkin redundancy elimination, arrangement probes,
/// decomposition cell tests, semantic implication/equivalence).
///
/// Systems are canonicalized (constraint/canonical.h) before lookup, so the
/// same conjunction reaching the oracle from different layers, in different
/// atom orders or scalings, is decided once and served from cache after.
/// Both question kinds are memoized:
///
///  * feasibility:  canonical system -> FeasibilityResult
///    (decision plus rational witness);
///  * implication:  (canonical system, canonical atom) ->
///    whether `system AND NOT(atom)` is satisfiable, the redundancy /
///    implication primitive.
///
/// The memo is a lemma store (engine/lemma_db.h) that is a plain member of
/// this kernel: lemmas live as long as the kernel, are evicted by quality
/// tier and then age, and are counted into this kernel's KernelStats. A
/// QuerySession keeps one memoizing kernel across its calls, so a later
/// query is served what an earlier one decided. Verdicts are byte-identical
/// with or without memoization — only hit rates differ.
///
/// One mutex guards the kernel's stats and its lemma store, so a later PR
/// can fan region-quantifier expansion out across threads against one
/// shared kernel; the underlying LP solve runs outside the lock.
///
/// Options::memoize turns memoization off entirely (every query pays an
/// oracle call and no store exists); canonicalization, trivial-answer
/// short-circuits and telemetry stay active, which is exactly what the
/// cache ablation measures.
class ConstraintKernel {
 public:
  struct Options {
    /// Off switch for all memoization (ablation).
    bool memoize = true;
    /// Occupancy bound of the kernel's lemma store.
    size_t max_entries = 1u << 18;
  };

  ConstraintKernel() : ConstraintKernel(Options()) {}
  explicit ConstraintKernel(Options options) : options_(options) {
    if (options_.memoize) lemmas_.emplace(options_.max_entries, &stats_);
  }

  ConstraintKernel(const ConstraintKernel&) = delete;
  ConstraintKernel& operator=(const ConstraintKernel&) = delete;

  // --- LP-level entry points (drop-in for lp/feasibility.h) ---

  /// Memoized CheckFeasibility: decision plus witness point.
  FeasibilityResult CheckFeasibility(
      size_t num_vars, const std::vector<LinearConstraint>& constraints);

  /// Is `constraints AND NOT(c)` satisfiable? The negation goes through
  /// LinearAtom::Negate; its per-branch systems are themselves routed
  /// through the feasibility cache.
  bool IsConsistentWithNegation(size_t num_vars,
                                const std::vector<LinearConstraint>& constraints,
                                const LinearConstraint& c);

  /// Boundedness passthrough: counted in the telemetry (one oracle call)
  /// but not cached — callers cache at a higher level.
  bool IsBoundedSystem(size_t num_vars,
                       const std::vector<LinearConstraint>& constraints);

  // --- Conjunction-level entry points (atoms already canonical) ---

  FeasibilityResult Feasibility(const Conjunction& conj);
  bool IsFeasible(const Conjunction& conj) {
    return Feasibility(conj).feasible;
  }

  /// Is `conj AND NOT(atom)` satisfiable?
  bool IsConsistentWithNegation(const Conjunction& conj,
                                const LinearAtom& atom);

  /// Exact semantic implication: every point of `conj` satisfies `atom`.
  bool ImpliesAtom(const Conjunction& conj, const LinearAtom& atom) {
    return !IsConsistentWithNegation(conj, atom);
  }

  const Options& options() const { return options_; }

  /// The kernel's lemma store, or null (memoize off). Reading it while
  /// another thread queries the kernel is a data race.
  const LemmaDatabase* lemma_db() const {
    return lemmas_.has_value() ? &*lemmas_ : nullptr;
  }

  KernelStats stats() const;
  void ResetStats();
  /// Drops all lemmas (stats are kept).
  void ClearCache();

 private:
  FeasibilityResult CachedFeasibility(const CanonicalSystem& canon);
  bool DecideConsistentWithNegation(const CanonicalSystem& canon,
                                    const LinearAtom& atom);

  const Options options_;
  /// Guards stats_ and lemmas_.
  mutable std::mutex mu_;
  KernelStats stats_;
  /// Present iff options_.memoize; counts into stats_.
  std::optional<LemmaDatabase> lemmas_;
};

/// The process-wide default kernel (memoizing, default lemma-store bound).
ConstraintKernel& DefaultKernel();

/// The kernel all oracle consumers route through: the innermost
/// ScopedKernel override on the current thread, or the process default.
ConstraintKernel& CurrentKernel();

/// RAII override installing `kernel` as CurrentKernel() on this thread for
/// the scope's lifetime — how benchmarks and tests run a workload against a
/// fresh or cache-disabled kernel without plumbing a handle through every
/// layer.
class ScopedKernel {
 public:
  explicit ScopedKernel(ConstraintKernel& kernel);
  ~ScopedKernel();

  ScopedKernel(const ScopedKernel&) = delete;
  ScopedKernel& operator=(const ScopedKernel&) = delete;

 private:
  ConstraintKernel* previous_;
};

}  // namespace lcdb

#endif  // LCDB_ENGINE_KERNEL_H_
