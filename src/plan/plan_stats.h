#ifndef LCDB_PLAN_PLAN_STATS_H_
#define LCDB_PLAN_PLAN_STATS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

namespace lcdb {

/// Per-pass telemetry of the plan optimizer (plan/optimizer.h). Each counter
/// is the number of rewrites one pass performed while compiling one query;
/// together they explain *why* an optimized execution visits fewer nodes
/// than the raw lowering (EXPERIMENTS.md, "Optimizer-counter telemetry").
struct PlanPassStats {
  /// Nodes in the final (optimized, shared) plan DAG.
  size_t plan_nodes = 0;
  /// Constant subplans folded at compile time (dead-branch pruning; the
  /// folds use the kernel's feasibility oracle through DnfFormula algebra).
  size_t folded_constants = 0;
  /// Branches of and/or/implies nodes discarded because a sibling folded to
  /// a dominating constant.
  size_t pruned_branches = 0;
  /// Region-pure symbolic subtrees narrowed to boolean evaluation mode.
  size_t narrowed_subtrees = 0;
  /// Same-polarity region-quantifier chains whose loop order was changed
  /// by the estimated-fan-out heuristic.
  size_t reordered_quantifiers = 0;
  /// Loop-invariant conjuncts hoisted out of region-quantifier loops.
  size_t hoisted_invariants = 0;
  /// and/or chains whose operands were re-ordered cheapest-first.
  size_t reordered_conjuncts = 0;
  /// Structurally identical subplans merged by common-subplan elimination.
  size_t cse_merged = 0;
  /// Nodes the hoisting pass marked cacheable.
  size_t cacheable_marked = 0;

  std::string ToString() const {
    std::string out = "plan_nodes=" + std::to_string(plan_nodes);
    out += " folded=" + std::to_string(folded_constants);
    out += " pruned=" + std::to_string(pruned_branches);
    out += " narrowed=" + std::to_string(narrowed_subtrees);
    out += " reordered_quantifiers=" + std::to_string(reordered_quantifiers);
    out += " hoisted=" + std::to_string(hoisted_invariants);
    out += " reordered_conjuncts=" + std::to_string(reordered_conjuncts);
    out += " cse_merged=" + std::to_string(cse_merged);
    out += " cacheable=" + std::to_string(cacheable_marked);
    return out;
  }
};

/// Wall-clock attribution of one evaluation to coarse plan operators
/// (fixpoint iteration, closure construction, QE, region expansion, hull,
/// rBIT). Only the expensive operators are timed; cheap connective visits
/// are counted but not clocked.
struct OpTiming {
  uint64_t count = 0;
  uint64_t total_ns = 0;
  /// Evaluations of this operator served from the executor memo instead of
  /// running (and being timed). Without this the time a memoized re-visit
  /// *saves* silently inflates the parent's inclusive share.
  uint64_t memo_hits = 0;
};

using OpTimings = std::map<std::string, OpTiming>;

struct PlanNode;

/// Tier-2 cost estimate of one plan node (analysis/plan_cost.h). All
/// quantities are deterministic functions of the plan shape and the region
/// count — no wall-clock, no randomness — so EXPLAIN output is byte-stable.
struct PlanCostEstimate {
  /// Evaluations one execution performs (after the memo collapses repeats).
  double est_calls = 0;
  /// Result disjuncts of one evaluation (symbolic nodes; 1 for boolean).
  double est_rows = 0;
  /// Node-local BigInt operations over all evaluations (children excluded —
  /// their own entries carry them).
  double est_bigint_ops = 0;
  /// Cache-marked but the estimate says no memo key can ever repeat
  /// (LCDB011).
  bool dead_cache = false;
};

/// Per-node cost estimates keyed by node identity, like PlanProfile.
using PlanCostMap = std::map<const PlanNode*, PlanCostEstimate>;

/// Tier-2 (plan-level) cost-analyzer telemetry (analysis/plan_cost.h),
/// aggregated over the optimized plan of the most recent compile. The
/// estimates use the Grimson–Heintz–Kuijpers cost unit: BigInt arithmetic
/// operations, the native cost of linear-constraint evaluation.
struct PlanCostStats {
  /// Nodes the cost pass visited (== optimized plan DAG nodes).
  uint64_t nodes = 0;
  /// Estimated total BigInt operations of one execution (capped).
  uint64_t total_bigint_ops = 0;
  /// Estimated disjunct count of the answer formula.
  uint64_t est_answer_rows = 0;
  /// Cache-marked nodes whose estimated calls can never repeat a memo key
  /// (each emitted as an LCDB011 warning).
  uint64_t dead_caches = 0;
  /// Diagnostics the pass emitted (LCDB011 dead caches + cost-refined
  /// LCDB004 budget warnings).
  uint64_t warnings = 0;
};

/// Measured execution profile of one plan node (EXPLAIN ANALYZE). All
/// quantities are *inclusive* — a parent's time/queries contain its
/// children's — matching how the span tree nests. Collected only when the
/// executor runs with profiling enabled; the normal path never touches it.
struct PlanNodeProfile {
  /// Evaluations of this node (cache hits included in `calls`, broken out
  /// in `memo_hits`).
  uint64_t calls = 0;
  uint64_t memo_hits = 0;
  /// Inclusive wall-clock of the non-cached evaluations.
  uint64_t total_ns = 0;
  /// Kernel decisions issued below this node (feasibility + implication),
  /// and how many of those the kernel's caches answered.
  uint64_t kernel_queries = 0;
  uint64_t kernel_cache_hits = 0;
  /// Governor checkpoints passed below this node (0 when ungoverned).
  uint64_t governor_checkpoints = 0;
  /// Result cardinality of the last evaluation: disjuncts for symbolic
  /// nodes, 0/1 for boolean ones.
  uint64_t rows = 0;
};

/// Per-node profile of one plan execution, keyed by node identity (plan
/// nodes are shared DAG nodes kept alive by the CompiledPlan).
using PlanProfile = std::map<const PlanNode*, PlanNodeProfile>;

}  // namespace lcdb

#endif  // LCDB_PLAN_PLAN_STATS_H_
