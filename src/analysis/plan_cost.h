#ifndef LCDB_ANALYSIS_PLAN_COST_H_
#define LCDB_ANALYSIS_PLAN_COST_H_

#include <cstddef>
#include <vector>

#include "analysis/diagnostics.h"
#include "plan/plan_ir.h"

namespace lcdb {

/// Options of the tier-2 cost pass. The budget mirrors the evaluator's
/// tuple-space cap: the pass warns when the *estimated* BigInt work of a
/// query exceeds what the configured space bound implies, refining the
/// tier-1 analyzer's purely syntactic LCDB004 check with plan-shape
/// knowledge (memoization, hoisting, short-circuit structure).
struct PlanCostOptions {
  size_t max_tuple_space = 1u << 22;
  /// BigInt operations budgeted per unit of tuple space before the
  /// cost-refined LCDB004 warning fires.
  double ops_per_tuple = 64.0;
};

/// Result of AnalyzePlanCost: per-node estimates (for the EXPLAIN cost
/// column), aggregate telemetry (the plan.cost.* metrics family) and the
/// diagnostics the estimates imply.
struct PlanCostReport {
  PlanCostMap costs;
  PlanCostStats stats;
  std::vector<Diagnostic> diagnostics;
};

/// Tier-2 static analyzer: a cost model over the *optimized* plan. Where
/// the tier-1 analyzer (analysis/analyzer.h) inspects the AST before any
/// plan exists, this pass runs after optimization and prices what will
/// actually execute:
///
///  * `est_calls` propagates top-down through the DAG. Symbolic nodes and
///    the relation module's leaves (nonempty, rBIT) are counted one
///    binding at a time — quantifier loops multiply by their region
///    fan-out, fixpoint bodies by stages x tuple space, closure bodies by
///    the squared tuple space — and memo-marked nodes collapse to their
///    key-space size (values of the free region variables, times the stage
///    count when the node is set-dependent). Every other boolean node runs
///    set-at-a-time (plan/relation_eval.h) and is counted once per
///    evaluation of its boundary: per lift_bool execution, per fixpoint
///    stage, once per closure;
///  * `est_rows` propagates bottom-up (disjunct counts through the DNF
///    algebra, with caps);
///  * `est_bigint_ops` prices each node's own work in the
///    Grimson-Heintz-Kuijpers unit — BigInt arithmetic operations — per
///    call as a function of its children's row estimates and the column
///    count, or, for a set-at-a-time node, as the 64-bit word count of its
///    relation per evaluation.
///
/// Two diagnostics come out of the estimates:
///
///   LCDB011 warning  a cache-marked subplan can never hit: the estimated
///                    arrivals do not exceed the memo key space, so every
///                    store is written once and never read (expected for
///                    hoisted loop invariants; flagged so the EXPLAIN
///                    reader knows the cache column is not a win there);
///   LCDB004 warning  cost-refined budget check: the estimated total
///                    BigInt work exceeds ops_per_tuple x max_tuple_space
///                    even after memoization collapses repeats.
///
/// Both are spanless (plan nodes carry no source spans) and never errors:
/// estimates must not reject queries. Everything here is a deterministic
/// function of the plan shape and the region count — no clocks, no kernel
/// calls — so EXPLAIN output is byte-stable across runs.
PlanCostReport AnalyzePlanCost(const CompiledPlan& plan,
                               const PlanCostOptions& options = {});

}  // namespace lcdb

#endif  // LCDB_ANALYSIS_PLAN_COST_H_
