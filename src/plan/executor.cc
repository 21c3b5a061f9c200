#include "plan/executor.h"

#include <string>

#include "constraint/simplify.h"
#include "core/resume.h"
#include "engine/governor.h"
#include "geometry/convex_closure.h"
#include "qe/fourier_motzkin.h"
#include "util/failpoint.h"
#include "util/status.h"

namespace lcdb {

PlanExecutor::PlanExecutor(const CompiledPlan& plan,
                           const RegionExtension& ext,
                           const Evaluator::Options& options,
                           Evaluator::Stats* stats)
    : plan_(plan), ext_(ext), options_(options), stats_(stats),
      num_columns_(plan.num_columns),
      relations_(ext, options, stats,
                 [this](const PlanNode& node, RegionEnv& renv,
                        const SetEnv& senv) {
                   return EvalBool(node, renv, senv);
                 }) {}

DnfFormula PlanExecutor::Run() {
  // Named injection site for the whole-plan path (failpoint_test.cc): fires
  // after compilation/optimization but before the first operator runs.
  LCDB_FAILPOINT("plan.execute");
  try {
    RegionEnv renv;
    const SetEnv senv;
    return Eval(*plan_.root, renv, senv);
  } catch (...) {
    // This executor dies with the unwind, so completed fixpoint/closure
    // entries must be harvested into the ambient resume collector here —
    // the Evaluate boundary never sees the executor's caches.
    HarvestResumeState();
    throw;
  }
}

void PlanExecutor::HarvestResumeState() {
  if (ResumeCollector* resume = CurrentResumeCollectorOrNull()) {
    relations_.HarvestResumeState(*resume);
  }
}

bool PlanExecutor::CacheKey(const PlanNode& node, const RegionEnv& renv,
                            const SetEnv& senv, Tuple* key) const {
  key->clear();
  for (const std::string& r : node.free_region) {  // name-sorted
    auto it = renv.find(r);
    LCDB_CHECK(it != renv.end());
    key->push_back(it->second);
  }
  // Set-dependent results are cached per fixpoint *stage* via the binding's
  // version stamp.
  for (const std::string& m : node.free_sets) {
    key->push_back(senv.at(m).version);
  }
  return true;
}

DnfFormula PlanExecutor::Eval(const PlanNode& node, RegionEnv& renv,
                              const SetEnv& senv) {
  // Cancellation point per plan node — in particular one per region-
  // quantifier expansion step, the executor's widest loops.
  GovernorCheckpoint();
  ++stats_->node_evaluations;
  if (profile_ != nullptr) ++(*profile_)[&node].calls;
  Tuple key;
  const bool cacheable = options_.memoize &&
                         node.cache == CachePolicy::kByRegionKey &&
                         CacheKey(node, renv, senv, &key);
  if (cacheable) {
    auto& per_node = memo_[&node];
    auto it = per_node.find(key);
    if (it != per_node.end()) {
      ++stats_->memo_hits;
      if (profile_ != nullptr) ++(*profile_)[&node].memo_hits;
      if (IsTimedPlanOp(node.op)) {
        ++stats_->op_timings[PlanOpName(node.op)].memo_hits;
      }
      return it->second;
    }
  }
  DnfFormula result =
      profile_ == nullptr
          ? EvalUncached(node, renv, senv)
          : ProfiledEval(profile_, node,
                         [&] { return EvalUncached(node, renv, senv); });
  if (profile_ != nullptr) {
    (*profile_)[&node].rows = result.disjuncts().size();
  }
  if (cacheable) memo_[&node].emplace(std::move(key), result);
  return result;
}

DnfFormula PlanExecutor::EvalUncached(const PlanNode& node, RegionEnv& renv,
                                      const SetEnv& senv) {
  const size_t m = num_columns_;
  switch (node.op) {
    case PlanOp::kConstFormula:
      return *node.const_formula;
    case PlanOp::kInRegion: {
      const Conjunction& region =
          ext_.RegionFormula(renv.at(node.region_args[0]));
      DnfFormula region_formula(region.num_vars(), {region});
      return region_formula.Substitute(node.subst, m);
    }
    case PlanOp::kLiftBool:
      return relations_.EvalBound(*node.children[0], renv, senv)
                 ? DnfFormula::True(m)
                 : DnfFormula::False(m);
    case PlanOp::kNegateSym:
      return Eval(*node.children[0], renv, senv).Negate();
    case PlanOp::kAndSym: {
      DnfFormula a = Eval(*node.children[0], renv, senv);
      if (a.IsSyntacticallyFalse()) return a;
      return a.And(Eval(*node.children[1], renv, senv));
    }
    case PlanOp::kOrSym: {
      DnfFormula a = Eval(*node.children[0], renv, senv);
      if (a.IsSyntacticallyTrue()) return a;
      return a.Or(Eval(*node.children[1], renv, senv));
    }
    case PlanOp::kImpliesSym: {
      DnfFormula a = Eval(*node.children[0], renv, senv);
      if (a.IsSyntacticallyFalse()) return DnfFormula::True(m);
      return a.Negate().Or(Eval(*node.children[1], renv, senv));
    }
    case PlanOp::kIffSym: {
      DnfFormula a = Eval(*node.children[0], renv, senv);
      DnfFormula b = Eval(*node.children[1], renv, senv);
      return a.And(b).Or(a.Negate().And(b.Negate()));
    }
    case PlanOp::kHull: {
      ScopedOpTimer timer(&stats_->op_timings, node.op);
      DnfFormula body = Eval(*node.children[0], renv, senv);
      DnfFormula projected = body.Substitute(node.hull_project,
                                             node.hull_arity);
      Result<DnfFormula> hull = ConvexClosure(projected);
      LCDB_CHECK_MSG(hull.ok(), "convex closure failed");
      return hull->Substitute(node.subst, m);
    }
    case PlanOp::kExistsElim: {
      ScopedOpTimer timer(&stats_->op_timings, node.op);
      ++stats_->qe_eliminations;
      return ExistsVariable(Eval(*node.children[0], renv, senv), node.column);
    }
    case PlanOp::kForallElim: {
      ScopedOpTimer timer(&stats_->op_timings, node.op);
      ++stats_->qe_eliminations;
      return ForallVariable(Eval(*node.children[0], renv, senv), node.column);
    }
    case PlanOp::kExpandExists: {
      ScopedOpTimer timer(&stats_->op_timings, node.op);
      ++stats_->region_expansions;
      DnfFormula acc = DnfFormula::False(m);
      for (size_t r = 0; r < ext_.num_regions(); ++r) {
        renv[node.region_var] = r;
        acc = acc.Or(Eval(*node.children[0], renv, senv));
        if (acc.IsSyntacticallyTrue()) break;
      }
      renv.erase(node.region_var);
      return acc;
    }
    case PlanOp::kExpandForall: {
      ScopedOpTimer timer(&stats_->op_timings, node.op);
      ++stats_->region_expansions;
      DnfFormula acc = DnfFormula::True(m);
      for (size_t r = 0; r < ext_.num_regions(); ++r) {
        renv[node.region_var] = r;
        acc = acc.And(Eval(*node.children[0], renv, senv));
        if (acc.IsSyntacticallyFalse()) break;
      }
      renv.erase(node.region_var);
      return acc;
    }
    default:
      LCDB_CHECK_MSG(false, "boolean operator in symbolic context");
      return DnfFormula::False(m);
  }
}

bool PlanExecutor::EvalBool(const PlanNode& node, RegionEnv& renv,
                            const SetEnv& senv) {
  GovernorCheckpoint();
  ++stats_->bool_evaluations;
  if (profile_ != nullptr) ++(*profile_)[&node].calls;
  Tuple key;
  const bool cacheable = options_.memoize &&
                         node.cache == CachePolicy::kByRegionKey &&
                         CacheKey(node, renv, senv, &key);
  if (cacheable) {
    auto& per_node = bool_memo_[&node];
    auto it = per_node.find(key);
    if (it != per_node.end()) {
      ++stats_->memo_hits;
      if (profile_ != nullptr) ++(*profile_)[&node].memo_hits;
      if (IsTimedPlanOp(node.op)) {
        ++stats_->op_timings[PlanOpName(node.op)].memo_hits;
      }
      return it->second;
    }
  }
  const bool result =
      profile_ == nullptr
          ? EvalBoolUncached(node, renv, senv)
          : ProfiledEval(profile_, node,
                         [&] { return EvalBoolUncached(node, renv, senv); });
  if (profile_ != nullptr) {
    (*profile_)[&node].rows = result ? 1 : 0;
  }
  if (cacheable) bool_memo_[&node].emplace(std::move(key), result);
  return result;
}

bool PlanExecutor::EvalBoolUncached(const PlanNode& node, RegionEnv& renv,
                                    const SetEnv& senv) {
  switch (node.op) {
    case PlanOp::kRbitMember:
      return EvalRbit(node, renv, senv);
    case PlanOp::kNonEmpty:
      // Element-sort subtree in a boolean context: all element variables
      // inside are bound, so the child's formula is constant — test
      // emptiness.
      return !Eval(*node.children[0], renv, senv).IsEmpty();
    default:
      LCDB_CHECK_MSG(false, "not a leaf of the relation module");
      return false;
  }
}

/// rBIT (Definition 5.1), a leaf of the relation module: see
/// plan/relation_eval.h for the semantics notes.
bool PlanExecutor::EvalRbit(const PlanNode& node, RegionEnv& renv,
                            const SetEnv& senv) {
  ScopedOpTimer timer(&stats_->op_timings, node.op);
  DnfFormula body = Eval(*node.children[0], renv, senv);
  const size_t col = node.column;
  for (size_t c = 0; c < num_columns_; ++c) {
    if (c != col && VariableOccurs(body, c)) {
      // Cannot happen for type-checked queries.
      LCDB_CHECK_MSG(false, "rBIT body depends on another element variable");
    }
  }
  // Singleton test: nonempty, and implied to equal its witness value.
  Vec witness = body.FindWitness();
  if (witness.empty()) return false;  // empty set: no unique rational
  const Rational a = witness[col];
  Vec point_coeffs(num_columns_);
  point_coeffs[col] = Rational(1);
  DnfFormula exactly_a =
      DnfFormula::FromAtom(LinearAtom(point_coeffs, RelOp::kEq, a));
  if (!Implies(body, exactly_a)) return false;  // more than one value

  const size_t rn = renv.at(node.region_args[0]);
  const size_t rd = renv.at(node.region_args[1]);
  if (a.IsZero()) {
    return rn == rd && ext_.RegionDim(rn) > 0;
  }
  if (ext_.RegionDim(rn) != 0 || ext_.RegionDim(rd) != 0) return false;
  const size_t i = ext_.ZeroDimRank(rn);
  const size_t j = ext_.ZeroDimRank(rd);
  return a.num().Bit(i) && a.den().Bit(j);
}

}  // namespace lcdb
