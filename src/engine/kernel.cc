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
  // can only suppress an insertion, so the store stays complete-or-absent.
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
    if (lemmas_.has_value()) {
      if (const FeasibilityResult* hit = lemmas_->LookupFeasibility(canon)) {
        ++stats_.cache_hits;
        return *hit;
      }
      ++stats_.cache_misses;
    }
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
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.oracle_calls;
  stats_.simplex_invocations += after.invocations - before.invocations;
  stats_.simplex_pivots += after.pivots - before.pivots;
  if (lemmas_.has_value()) {
    // The solve cost drives the tier: expensive proofs and infeasible
    // cores are pinned core.
    lemmas_->InsertFeasibility(canon, result, after.pivots - before.pivots);
  }
  return result;
}

bool ConstraintKernel::DecideConsistentWithNegation(
    const CanonicalSystem& canon, const LinearAtom& atom) {
  std::string key;
  uint64_t hash = 0;
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
    } else if (lemmas_.has_value()) {
      key = canon.encoding;
      key.push_back('!');
      AppendAtomEncoding(atom, &key);
      hash = StableHash64(key);
      if (std::optional<bool> hit = lemmas_->LookupImplication(hash, key)) {
        ++stats_.implication_cache_hits;
        return *hit;
      }
      ++stats_.implication_cache_misses;
    }
  }
  if (atom.IsConstant()) {
    return CachedFeasibility(canon).feasible;  // constant-true returned above
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
  if (lemmas_.has_value()) {
    // A proved implication (consistent == false) is pinned core inside the
    // store; the pivot delta across the branch solves prices the proof.
    const SimplexCounters after = GetSimplexCounters();
    std::lock_guard<std::mutex> lock(mu_);
    lemmas_->InsertImplication(hash, key, consistent,
                               after.pivots - before.pivots);
  }
  return consistent;
}

KernelStats ConstraintKernel::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  KernelStats out = stats_;
  if (lemmas_.has_value()) out.lemma_occupancy = lemmas_->size();
  return out;
}

void ConstraintKernel::ResetStats() {
  std::lock_guard<std::mutex> lock(mu_);
  stats_ = KernelStats();
}

void ConstraintKernel::ClearCache() {
  std::lock_guard<std::mutex> lock(mu_);
  if (lemmas_.has_value()) lemmas_->Clear();
}

}  // namespace lcdb
