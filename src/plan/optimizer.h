#ifndef LCDB_PLAN_OPTIMIZER_H_
#define LCDB_PLAN_OPTIMIZER_H_

#include "plan/plan_ir.h"
#include "plan/plan_stats.h"

namespace lcdb {

/// Deterministic pass pipeline over the plan IR. Passes run in a fixed
/// order; each preserves the executed answer formula *byte for byte*
/// (DESIGN.md, "Pass pipeline and its invariants"):
///
///  1. FoldConstants — compile-time evaluation of constant subplans using
///     the exact DnfFormula algebra the executor would apply, so folds are
///     representation-identical; branches dominated by a folded constant
///     are pruned (the kernel's feasibility oracle decides emptiness).
///  2. NarrowRegionPure — region-pure symbolic subtrees (whose value is
///     provably the canonical True(m)/False(m)) are re-lowered into
///     short-circuiting boolean mode under a single lift_bool bridge.
///  3. ReorderQuantifiers — same-polarity boolean region-quantifier chains
///     are re-ordered by estimated effective fan-out (single-variable
///     guard counts), most-guarded variable outermost.
///  4. HoistInvariants — loop-invariant conjuncts move out of boolean
///     region loops (and out of implication guards under forall), so a
///     failed guard skips the whole inner loop.
///  5. OrderConjuncts — boolean and/or chains re-ordered cheapest-first
///     (short-circuit friendly; operands are pure, so order is free).
///  6. CommonSubplanElimination — structurally identical subplans are
///     hash-consed into shared nodes, pooling their executor caches.
///  7. MarkCacheable — set-variable-independent subplans the executor
///     memoizes (symbolic nodes and the nonempty/rbit leaves) are marked
///     for per-region-key caching, hoisting them out of fixpoint iteration.
///     This pass is the only memoization decision; with the pipeline
///     disabled no subformula caching happens.
void OptimizePlan(CompiledPlan* plan, PlanPassStats* stats);

}  // namespace lcdb

#endif  // LCDB_PLAN_OPTIMIZER_H_
