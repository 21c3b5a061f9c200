// Unit tests of the plan pipeline itself: optimizer pass counters, the
// cost win the passes buy (node evaluations), and the explain rendering.
// Byte-identity of answers across modes is covered by
// plan_equivalence_test.cc.

#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <string>

#include "core/evaluator.h"
#include "core/parser.h"
#include "core/queries.h"
#include "core/typecheck.h"
#include "db/region_extension.h"
#include "db/workloads.h"
#include "plan/optimizer.h"
#include "plan/planner.h"

namespace lcdb {
namespace {

Evaluator::Stats EvalStats(const RegionExtension& ext, const std::string& text,
                           bool optimize) {
  auto query = ParseQuery(text, ext.database().relation_name());
  EXPECT_TRUE(query.ok()) << query.status().ToString();
  Evaluator::Options options;
  options.optimize = optimize;
  Evaluator evaluator(ext, options);
  auto answer = evaluator.Evaluate(**query);
  EXPECT_TRUE(answer.ok()) << answer.status().ToString();
  return evaluator.stats();
}

std::string Explain(const RegionExtension& ext, const std::string& text,
                    bool optimize = true) {
  auto query = ParseQuery(text, ext.database().relation_name());
  EXPECT_TRUE(query.ok()) << query.status().ToString();
  Evaluator::Options options;
  options.optimize = optimize;
  Evaluator evaluator(ext, options);
  auto explained = evaluator.Explain(**query);
  EXPECT_TRUE(explained.ok()) << explained.status().ToString();
  return explained.ok() ? *explained : "<error>";
}

bool Contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

TEST(PlanOptimizerTest, NodeEvaluationsStrictlyLowerOnRegLfpWorkload) {
  // The acceptance experiment: on the bench_reglfp workload (RegionConn
  // over a comb arrangement) the pass pipeline must strictly reduce
  // Stats::node_evaluations versus the unoptimized plan.
  ConstraintDatabase db = MakeComb(3, true);
  auto ext = MakeArrangementExtension(db);
  const auto with = EvalStats(*ext, RegionConnQueryText(), true);
  const auto without = EvalStats(*ext, RegionConnQueryText(), false);
  EXPECT_LT(with.node_evaluations, without.node_evaluations);
  // The win comes from narrowing the region-pure sentence to boolean mode:
  // symbolic visits all but vanish.
  EXPECT_GT(with.plan.narrowed_subtrees, 0u);
  EXPECT_LE(with.node_evaluations, 2u);
}

TEST(PlanOptimizerTest, RegionConnPassCounters) {
  ConstraintDatabase db = MakeComb(2, true);
  auto ext = MakeArrangementExtension(db);
  const auto stats = EvalStats(*ext, RegionConnQueryText(), true);
  EXPECT_GT(stats.plan.plan_nodes, 0u);
  EXPECT_GT(stats.plan.narrowed_subtrees, 0u);
  // forall Rx Ry (subset(Rx) & subset(Ry) -> ...): subset(Rx) is invariant
  // in the inner Ry loop and must be hoisted past it.
  EXPECT_GT(stats.plan.hoisted_invariants, 0u);
  EXPECT_GT(stats.plan.cacheable_marked, 0u);
}

TEST(PlanOptimizerTest, MarksOnlyNodesTheExecutorMemoizes) {
  // Boolean nodes other than the nonempty/rbit leaves run set-at-a-time and
  // never read a cache mark. RegionConn on the comb is all such nodes below
  // its root lift_bool, which is the one mark and, evaluated once, the one
  // dead cache.
  ConstraintDatabase db = MakeComb(2, true);
  auto ext = MakeArrangementExtension(db);
  auto query = ParseQuery(RegionConnQueryText(), db.relation_name());
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  auto info = TypeCheck(**query, db);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  CompiledPlan plan = BuildPlan(**query, *info, *ext);
  PlanPassStats pass_stats;
  OptimizePlan(&plan, &pass_stats);

  std::set<const PlanNode*> seen;
  size_t relation_nodes = 0;
  size_t marked = 0;
  std::function<void(const PlanNode&)> visit = [&](const PlanNode& node) {
    if (!seen.insert(&node).second) return;
    if (!node.IsPerBinding()) {
      ++relation_nodes;
      EXPECT_NE(node.cache, CachePolicy::kByRegionKey) << PlanOpName(node.op);
    }
    if (node.cache == CachePolicy::kByRegionKey) ++marked;
    for (const PlanPtr& child : node.children) visit(*child);
  };
  visit(*plan.root);
  EXPECT_GT(relation_nodes, 0u);
  EXPECT_EQ(marked, 1u);
  EXPECT_EQ(pass_stats.cacheable_marked, 1u);
  EXPECT_EQ(plan.root->op, PlanOp::kLiftBool);
  EXPECT_EQ(plan.root->cache, CachePolicy::kByRegionKey);

  Evaluator evaluator(*ext);
  ASSERT_TRUE(evaluator.Explain(**query).ok());
  EXPECT_EQ(evaluator.stats().plan_cost.dead_caches, 1u);
}

TEST(PlanOptimizerTest, ConstantFoldingAndPruning) {
  ConstraintDatabase db = MakeComb(2, true);
  auto ext = MakeArrangementExtension(db);
  const auto folded =
      EvalStats(*ext, "exists R . (subset(R) & (1 < 2))", true);
  EXPECT_GT(folded.plan.folded_constants, 0u);
  const auto pruned =
      EvalStats(*ext, "exists R . (subset(R) & (1 > 2))", true);
  EXPECT_GT(pruned.plan.pruned_branches, 0u);
  // A constant-false body kills the whole region loop at compile time: the
  // execution visits only the root.
  EXPECT_LE(pruned.node_evaluations + pruned.bool_evaluations, 2u);
}

TEST(PlanOptimizerTest, CommonSubplanElimination) {
  ConstraintDatabase db = MakeComb(2, true);
  auto ext = MakeArrangementExtension(db);
  const auto stats =
      EvalStats(*ext, "exists R . (subset(R) & subset(R))", true);
  EXPECT_GT(stats.plan.cse_merged, 0u);
}

TEST(PlanOptimizerTest, QuantifierAndConjunctReordering) {
  ConstraintDatabase db = MakeComb(2, true);
  auto ext = MakeArrangementExtension(db);
  // R' has a cheap single-variable guard, R has none: the chain must be
  // reordered to loop over R' outermost.
  const auto quantifiers =
      EvalStats(*ext, "exists R R' . (subset(R') & adj(R, R'))", true);
  EXPECT_GT(quantifiers.plan.reordered_quantifiers, 0u);
  // The cheap region atom must be tested before the nested region loop.
  const auto conjuncts = EvalStats(
      *ext, "exists R . ((exists R' . adj(R, R')) & subset(R))", true);
  EXPECT_GT(conjuncts.plan.reordered_conjuncts, 0u);
}

TEST(PlanOptimizerTest, OptimizeOffDisablesCaching) {
  // With the pipeline disabled no MarkCacheable pass runs, so the executor
  // never memoizes — the ablation the EXPERIMENTS.md row measures. The
  // exists-x subformula depends only on R, so under the R' loop it is a
  // cache hit for every R' after the first.
  ConstraintDatabase db = MakeComb(2, true);
  auto ext = MakeArrangementExtension(db);
  const std::string query =
      "forall R R' . ((exists x . in(x, x; R)) | adj(R, R') | true)";
  const auto raw = EvalStats(*ext, query, false);
  EXPECT_EQ(raw.memo_hits, 0u);
  const auto optimized = EvalStats(*ext, query, true);
  EXPECT_GT(optimized.memo_hits, 0u);
  EXPECT_LT(optimized.node_evaluations, raw.node_evaluations);
}

TEST(PlanOptimizerTest, OpTimingsPopulated) {
  ConstraintDatabase db = MakeComb(2, true);
  auto ext = MakeArrangementExtension(db);
  const auto stats = EvalStats(*ext, RegionConnQueryText(), true);
  auto it = stats.op_timings.find("fixpoint");
  ASSERT_NE(it, stats.op_timings.end());
  EXPECT_EQ(it->second.count, 1u);
}

TEST(PlanExplainTest, OptimizedPlanRendering) {
  ConstraintDatabase db = MakeComb(2, true);
  auto ext = MakeArrangementExtension(db);
  const std::string out = Explain(*ext, RegionConnQueryText());
  // Narrowed to boolean loops, with per-operator annotations and the pass
  // counter footer.
  EXPECT_TRUE(Contains(out, "all_region")) << out;
  EXPECT_TRUE(Contains(out, "fixpoint lfp")) << out;
  EXPECT_TRUE(Contains(out, "cache=region-key")) << out;
  EXPECT_TRUE(Contains(out, "fanout=")) << out;
  EXPECT_TRUE(Contains(out, "plan_nodes=")) << out;
}

TEST(PlanExplainTest, RawPlanKeepsSymbolicOperators) {
  ConstraintDatabase db = MakeComb(2, true);
  auto ext = MakeArrangementExtension(db);
  const std::string out = Explain(*ext, RegionConnQueryText(), false);
  EXPECT_TRUE(Contains(out, "expand.forall")) << out;
  EXPECT_FALSE(Contains(out, "cache=region-key")) << out;
}

TEST(PlanExplainTest, SharedSubplansPrintedOnce) {
  ConstraintDatabase db = MakeComb(2, true);
  auto ext = MakeArrangementExtension(db);
  const std::string out =
      Explain(*ext, "exists R . (subset(R) | subset(R))");
  EXPECT_TRUE(Contains(out, "(shared, see above)")) << out;
}

TEST(PlanExplainTest, QueriesWithFreeElementVariables) {
  ConstraintDatabase db = MakeComb(2, true);
  auto ext = MakeArrangementExtension(db);
  // The in(...) atom keeps the subtree element-sorted, so the quantifier
  // stays a symbolic region expansion (no narrowing applies).
  const std::string out =
      Explain(*ext, "exists R . (subset(R) & in(x, y; R))");
  EXPECT_TRUE(Contains(out, "expand.exists")) << out;
  EXPECT_TRUE(Contains(out, "in_region")) << out;
}

}  // namespace
}  // namespace lcdb
