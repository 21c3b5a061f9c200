#ifndef LCDB_ANALYSIS_PLAN_VERIFY_H_
#define LCDB_ANALYSIS_PLAN_VERIFY_H_

#include <string_view>

#include "analysis/verify_stats.h"
#include "plan/plan_ir.h"
#include "util/status.h"

namespace lcdb {

/// Tier-3 static verification of the plan IR (LCDB012).
///
/// The executor trusts a long list of structural invariants that nothing
/// re-checks once the optimizer has rewritten the tree. `VerifyPlan`
/// re-establishes every one of them over the (possibly shared) plan DAG:
///
///  * **Mode consistency** — each operator has the arity the executor
///    dispatches on, and every child produces the mode (symbolic vs
///    boolean) the parent consumes. A boolean child under `and.sym` would
///    make the executor read a DnfFormula that was never produced.
///  * **Payload presence** — `const.formula` carries a formula, QE and
///    rBIT columns are inside the plan's column space, region atoms carry
///    the argument count their `source_kind` dictates, fixpoint /closure
///    members carry matching bound-variable and argument tuples.
///  * **Annotation consistency** — `free_region` / `free_sets` /
///    `region_pure` / `worth_caching` / `est_fanout` equal what
///    `DeriveAnnotations` recomputes from the children. The executor keys
///    memo entries by `free_region` order, so a stale annotation silently
///    corrupts the cache.
///  * **Cache-key well-formedness** — `CachePolicy::kByRegionKey` appears
///    only on worth-caching, non-constant nodes whose key is narrow
///    (`free_sets` empty, or at most one free region variable), mirroring
///    the optimizer's MarkCacheable contract.
///  * **Scope discipline / closedness** — the root has no free region or
///    set variables; together with annotation consistency this proves
///    every `in`/atom/set reference is bound by an enclosing quantifier,
///    fixpoint or closure binder on every DAG path.
///  * **Shape sanity** — no null children, no cycles through the shared
///    DAG (the executor's recursive walk would not terminate).
///
/// A violation is reported as a clean `kInternal` Status whose message
/// starts with `LCDB012:` and names `context` (the pipeline stage or
/// optimizer pass that produced the plan) plus a specific sub-reason —
/// never a crash. Verification is read-only and runs in one DFS over the
/// DAG (each shared node checked once).
Status VerifyPlan(const PlanNode& root, size_t num_columns,
                  size_t num_regions, std::string_view context,
                  VerifyStats* stats = nullptr);

/// Convenience wrapper over a CompiledPlan, as the evaluator calls it after
/// `OptimizePlan` (and after `BuildPlan` when optimization is disabled).
Status VerifyPlan(const CompiledPlan& plan, std::string_view context,
                  VerifyStats* stats = nullptr);

}  // namespace lcdb

#endif  // LCDB_ANALYSIS_PLAN_VERIFY_H_
