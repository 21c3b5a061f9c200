#ifndef LCDB_PLAN_EXECUTOR_H_
#define LCDB_PLAN_EXECUTOR_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/evaluator.h"
#include "db/region_extension.h"
#include "plan/plan_ir.h"

namespace lcdb {

/// Executes a compiled (and usually optimized) plan against a region
/// extension. The executor is the *only* layer of the pipeline that touches
/// DnfFormula algebra, quantifier elimination and the constraint kernel;
/// the planner and optimizer only build and rewrite the operator DAG.
///
/// Its recursion fixes the algebra's short-circuits and accumulation order,
/// so the answer formula is a pure function of the plan: the raw plan, the
/// optimized plan and the bytecode VM (plan/vm.h) all reproduce the pinned
/// golden answers (tests/golden/) byte for byte. Caching
/// follows each node's CachePolicy — assigned by the optimizer's
/// MarkCacheable pass — keyed by the values of the node's free region
/// variables plus the stage versions of its free set variables.
///
/// The executor is single-query: construct, call Run() once, read the
/// updated stats. Expensive operators (QE, region expansion, hull,
/// fixpoints, closures, rBIT) report wall-clock per-operator timings into
/// Stats::op_timings.
class PlanExecutor {
 public:
  PlanExecutor(const CompiledPlan& plan, const RegionExtension& ext,
               const Evaluator::Options& options, Evaluator::Stats* stats);

  /// Evaluates the plan root symbolically; the result ranges over the
  /// plan's num_columns element columns.
  DnfFormula Run();

  /// Turns on per-plan-node profiling (EXPLAIN ANALYZE): every node
  /// evaluation records its inclusive wall-clock, kernel decisions, memo
  /// hits, governor checkpoints and result cardinality into `profile`.
  /// Must be called before Run(); `profile` must outlive the executor.
  /// Profiling perturbs only timings, never results.
  void EnableProfiling(PlanProfile* profile) { profile_ = profile; }

 private:
  using RegionEnv = std::map<std::string, size_t>;
  using Tuple = std::vector<size_t>;
  using TupleSet = std::set<Tuple>;
  struct SetBinding {
    const TupleSet* tuples = nullptr;
    size_t version = 0;
  };
  using SetEnv = std::map<std::string, SetBinding>;

  DnfFormula Eval(const PlanNode& node, RegionEnv& renv, SetEnv& senv);
  DnfFormula EvalUncached(const PlanNode& node, RegionEnv& renv,
                          SetEnv& senv);
  bool EvalBool(const PlanNode& node, RegionEnv& renv, SetEnv& senv);
  bool EvalBoolUncached(const PlanNode& node, RegionEnv& renv, SetEnv& senv);

  /// Wraps one uncached evaluation with the profile measurements
  /// (profiling mode only; `rows` extracts the result cardinality).
  template <typename Fn>
  auto Profiled(const PlanNode& node, Fn&& eval);

  bool EvalRegionAtom(const PlanNode& node, RegionEnv& renv);
  bool EvalRbit(const PlanNode& node, RegionEnv& renv, SetEnv& senv);
  /// Deposits completed fixpoint/closure cache entries into the ambient
  /// ResumeCollector (core/resume.h). Called from Run's unwind path: the
  /// executor's caches are stack-local and die with the interrupt.
  void HarvestResumeState();
  const TupleSet& FixpointSet(const PlanNode& node);
  const std::vector<std::vector<bool>>& ClosureMatrix(const PlanNode& node);
  size_t TupleIndex(const Tuple& tuple) const;

  /// Cache key under the node's CachePolicy: free-region values
  /// (name-sorted) then free-set stage versions.
  bool CacheKey(const PlanNode& node, const RegionEnv& renv,
                const SetEnv& senv, Tuple* key) const;

  const CompiledPlan& plan_;
  const RegionExtension& ext_;
  const Evaluator::Options& options_;
  Evaluator::Stats* stats_;
  PlanProfile* profile_ = nullptr;  ///< EXPLAIN ANALYZE sink, usually null
  size_t num_columns_;

  std::map<const PlanNode*, std::map<Tuple, DnfFormula>> memo_;
  std::map<const PlanNode*, std::map<Tuple, bool>> bool_memo_;
  std::map<const PlanNode*, TupleSet> fixpoint_cache_;
  std::map<const PlanNode*, std::vector<std::vector<bool>>> closure_cache_;
  size_t set_version_counter_ = 0;
};

}  // namespace lcdb

#endif  // LCDB_PLAN_EXECUTOR_H_
