#include "engine/kernel.h"

#include <utility>

#include "engine/governor.h"
#include "util/failpoint.h"

namespace lcdb {

namespace {
thread_local ConstraintKernel* t_current_kernel = nullptr;
}  // namespace

ConstraintKernel& DefaultKernel() {
  // Leaked on purpose: consumers may run during static destruction.
  static ConstraintKernel* kernel = new ConstraintKernel();
  return *kernel;
}

ConstraintKernel& CurrentKernel() {
  return t_current_kernel != nullptr ? *t_current_kernel : DefaultKernel();
}

ScopedKernel::ScopedKernel(ConstraintKernel& kernel)
    : previous_(t_current_kernel) {
  t_current_kernel = &kernel;
}

ScopedKernel::~ScopedKernel() { t_current_kernel = previous_; }

FeasibilityResult ConstraintKernel::CheckFeasibility(
    size_t num_vars, const std::vector<LinearConstraint>& constraints) {
  return CachedFeasibility(CanonicalizeSystem(num_vars, constraints));
}

FeasibilityResult ConstraintKernel::Feasibility(const Conjunction& conj) {
  return CachedFeasibility(CanonicalizeConjunction(conj));
}

bool ConstraintKernel::IsConsistentWithNegation(
    size_t num_vars, const std::vector<LinearConstraint>& constraints,
    const LinearConstraint& c) {
  return DecideConsistentWithNegation(
      CanonicalizeSystem(num_vars, constraints),
      LinearAtom(c.coeffs, c.rel, c.rhs));
}

bool ConstraintKernel::IsConsistentWithNegation(const Conjunction& conj,
                                               const LinearAtom& atom) {
  return DecideConsistentWithNegation(CanonicalizeConjunction(conj), atom);
}

bool ConstraintKernel::IsBoundedSystem(
    size_t num_vars, const std::vector<LinearConstraint>& constraints) {
  LCDB_FAILPOINT("kernel.decide");
  GovernorOnFeasibilityQuery();
  const SimplexCounters before = GetSimplexCounters();
  const bool bounded = lcdb::IsBoundedSystem(num_vars, constraints);
  const SimplexCounters after = GetSimplexCounters();
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.oracle_calls;
  stats_.simplex_invocations += after.invocations - before.invocations;
  stats_.simplex_pivots += after.pivots - before.pivots;
  return bounded;
}

FeasibilityResult ConstraintKernel::CachedFeasibility(
    const CanonicalSystem& canon) {
  // Injection + budget site, deliberately before the lock and before any
  // cache mutation: an interrupt here (or anywhere in the LP solve below)
  // can only suppress an insertion, so the caches stay complete-or-absent.
  LCDB_FAILPOINT("kernel.decide");
  GovernorOnFeasibilityQuery();
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.feasibility_queries;
    if (canon.syntactically_false) {
      ++stats_.trivial_answers;
      return {false, {}};
    }
    if (canon.atoms.empty()) {
      // TRUE system: the origin is a witness.
      ++stats_.trivial_answers;
      return {true, Vec(canon.num_vars)};
    }
  }
  if (lemma_db_ != nullptr) {
    // The lemma DB takes its own lock; never nested under mu_.
    std::optional<FeasibilityResult> hit = lemma_db_->LookupFeasibility(canon);
    std::lock_guard<std::mutex> lock(mu_);
    if (hit.has_value()) {
      ++stats_.cache_hits;
      return *hit;
    }
    ++stats_.cache_misses;
  }
  // The LP solve runs outside the lock so a future parallel caller is not
  // serialized on the simplex; a concurrent duplicate miss only costs a
  // redundant solve, never a wrong answer.
  std::vector<LinearConstraint> constraints;
  constraints.reserve(canon.atoms.size());
  for (const LinearAtom& atom : canon.atoms) {
    constraints.push_back(atom.ToLinearConstraint());
  }
  const SimplexCounters before = GetSimplexCounters();
  FeasibilityResult result =
      lcdb::CheckFeasibility(canon.num_vars, constraints);
  const SimplexCounters after = GetSimplexCounters();
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.oracle_calls;
    stats_.simplex_invocations += after.invocations - before.invocations;
    stats_.simplex_pivots += after.pivots - before.pivots;
  }
  if (lemma_db_ != nullptr) {
    // The solve cost drives the tier: expensive proofs and infeasible
    // cores are worth keeping regardless of activity.
    lemma_db_->InsertFeasibility(canon, result, after.pivots - before.pivots);
  }
  return result;
}

bool ConstraintKernel::DecideConsistentWithNegation(
    const CanonicalSystem& canon, const LinearAtom& atom) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.implication_queries;
    if (canon.syntactically_false) {
      // An infeasible system is consistent with nothing.
      ++stats_.trivial_answers;
      return false;
    }
    if (atom.IsConstant()) {
      ++stats_.trivial_answers;
      if (atom.ConstantValue()) return false;  // NOT(true) is unsatisfiable
      // NOT(false) imposes nothing: fall through to plain feasibility.
    }
  }
  if (atom.IsConstant()) {
    return CachedFeasibility(canon).feasible;  // constant-true returned above
  }

  std::string key = canon.encoding;
  key.push_back('!');
  AppendAtomEncoding(atom, &key);
  const uint64_t hash = StableHash64(key);
  if (lemma_db_ != nullptr) {
    std::optional<bool> hit = lemma_db_->LookupImplication(hash, key);
    std::lock_guard<std::mutex> lock(mu_);
    if (hit.has_value()) {
      ++stats_.implication_cache_hits;
      return *hit;
    }
    ++stats_.implication_cache_misses;
  }
  // Decide each branch of the negation through the feasibility cache, so
  // the per-branch systems are shared with every other consumer that asks
  // about them directly.
  const SimplexCounters before = GetSimplexCounters();
  bool consistent = false;
  for (const LinearAtom& negated : atom.Negate()) {
    std::vector<LinearAtom> atoms = canon.atoms;
    atoms.push_back(negated);
    Conjunction branch(canon.num_vars, std::move(atoms));
    if (CachedFeasibility(CanonicalizeConjunction(branch)).feasible) {
      consistent = true;
      break;
    }
  }
  if (lemma_db_ != nullptr) {
    // A proved implication (consistent == false) is pinned core inside the
    // store; the pivot delta across the branch solves prices the proof.
    const SimplexCounters after = GetSimplexCounters();
    lemma_db_->InsertImplication(hash, key, canon.atoms, consistent,
                                 after.pivots - before.pivots);
  }
  return consistent;
}

void ConstraintKernel::BindLemmaOccurrences(const DnfFormula& representation) {
  if (lemma_db_ != nullptr) lemma_db_->BindDisjuncts(representation);
}

size_t ConstraintKernel::InvalidateDisjunct(DisjunctId disjunct) {
  return lemma_db_ != nullptr ? lemma_db_->InvalidateDisjunct(disjunct) : 0;
}

KernelStats ConstraintKernel::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  KernelStats out = stats_;
  if (lemma_db_ != nullptr) {
    // Fold in this kernel's share of the (possibly shared) lemma store:
    // the cumulative DB counters minus the attach/ResetStats baseline.
    // Lock order is always kernel -> lemma DB, never the reverse.
    const LemmaDbStats d = lemma_db_->stats() - lemma_baseline_;
    out.lemma_hits = d.hits;
    out.lemma_misses = d.misses;
    out.lemma_insertions = d.insertions;
    out.lemma_evictions_core = d.evictions_core;
    out.lemma_evictions_frequent = d.evictions_frequent;
    out.lemma_evictions_transient = d.evictions_transient;
    out.lemma_invalidations = d.invalidations;
    out.lemma_decays = d.decays;
    out.lemma_occupancy = lemma_db_->size();
    // The aggregate counters read the store's totals.
    out.cache_evictions = d.evictions_total();
    out.canonicalization_collisions = d.collisions;
  }
  return out;
}

void ConstraintKernel::ResetStats() {
  std::lock_guard<std::mutex> lock(mu_);
  stats_ = KernelStats();
  if (lemma_db_ != nullptr) lemma_baseline_ = lemma_db_->stats();
}

void ConstraintKernel::ClearCache() {
  if (lemma_db_ != nullptr) lemma_db_->Clear();
}

}  // namespace lcdb
