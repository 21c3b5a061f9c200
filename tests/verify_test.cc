// Tests for the tier-3 static verifier (analysis/plan_verify.h): corpus
// acceptance with zero false positives, hand-built violations of every plan
// invariant class, the --no-verify ablation, and the analysis.verify.*
// metrics family.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "analysis/plan_verify.h"
#include "core/evaluator.h"
#include "core/parser.h"
#include "core/queries.h"
#include "core/typecheck.h"
#include "db/io.h"
#include "db/region_extension.h"
#include "db/workloads.h"
#include "engine/kernel.h"
#include "plan/optimizer.h"
#include "plan/planner.h"
#include "util/status.h"

namespace lcdb {
namespace {

ConstraintDatabase IntervalsDb() {
  return *LoadDatabaseFromString(
      "relation S(x)\nformula (x > 0 & x < 1) | x = 5");
}

/// Parse + typecheck + plan + optimize, the way the evaluator facade does.
CompiledPlan CompilePlan(const RegionExtension& ext, const std::string& text) {
  auto query = ParseQuery(text, ext.database().relation_name());
  EXPECT_TRUE(query.ok()) << query.status().ToString();
  auto info = TypeCheck(**query, ext.database());
  EXPECT_TRUE(info.ok()) << info.status().ToString();
  CompiledPlan plan = BuildPlan(**query, *info, ext);
  PlanPassStats pass_stats;
  OptimizePlan(&plan, &pass_stats);
  return plan;
}

PlanPtr Node(PlanOp op) {
  auto n = std::make_shared<PlanNode>();
  n->op = op;
  return n;
}

// ---------------------------------------------------------------------------
// Plan verifier: acceptance.

TEST(PlanVerifyTest, AcceptsOptimizedAndRawPlans) {
  ConstraintDatabase db = IntervalsDb();
  auto ext = MakeArrangementExtension(db);
  ConstraintKernel kernel;
  ScopedKernel scoped(kernel);
  const std::string text = "exists x . (S(x) & x > 0)";
  VerifyStats stats;
  CompiledPlan optimized = CompilePlan(*ext, text);
  EXPECT_TRUE(VerifyPlan(optimized, "test", &stats).ok());
  auto query = ParseQuery(text, db.relation_name());
  auto info = TypeCheck(**query, db);
  CompiledPlan raw = BuildPlan(**query, *info, *ext);
  EXPECT_TRUE(VerifyPlan(raw, "test", &stats).ok());
  EXPECT_EQ(stats.plans_verified, 2u);
  EXPECT_GT(stats.plan_nodes_verified, 0u);
  EXPECT_EQ(stats.violations, 0u);
}

TEST(PlanVerifyTest, AcceptsRegionConnectivityPlan) {
  ConstraintDatabase db = MakeComb(2, true);
  auto ext = MakeArrangementExtension(db);
  ConstraintKernel kernel;
  ScopedKernel scoped(kernel);
  CompiledPlan plan = CompilePlan(*ext, RegionConnQueryText());
  EXPECT_TRUE(VerifyPlan(plan, "test").ok());
}

// ---------------------------------------------------------------------------
// Plan verifier: one hand-built violation per invariant class. Every
// rejection is a clean LCDB012 kInternal naming the context and sub-reason.

void ExpectPlanRejected(const PlanNode& root, const std::string& substring,
                        size_t num_columns = 1, size_t num_regions = 3) {
  Status s = VerifyPlan(root, num_columns, num_regions, "unit");
  ASSERT_FALSE(s.ok()) << "expected rejection containing '" << substring
                       << "'";
  EXPECT_EQ(s.code(), StatusCode::kInternal);
  EXPECT_NE(s.message().find("LCDB012"), std::string::npos) << s.ToString();
  EXPECT_NE(s.message().find("unit"), std::string::npos) << s.ToString();
  EXPECT_NE(s.message().find(substring), std::string::npos) << s.ToString();
}

TEST(PlanVerifyTest, RejectsWrongArity) {
  PlanPtr root = Node(PlanOp::kNegateSym);  // needs exactly one child
  ExpectPlanRejected(*root, "operator arity");
}

TEST(PlanVerifyTest, RejectsNullChild) {
  PlanPtr root = Node(PlanOp::kNegateSym);
  root->children.push_back(nullptr);
  ExpectPlanRejected(*root, "null child");
}

TEST(PlanVerifyTest, RejectsModeConfusion) {
  // Boolean child under a symbolic connective: the executor would read a
  // DnfFormula that was never produced.
  PlanPtr sym = Node(PlanOp::kConstFormula);
  sym->const_formula = DnfFormula::False(1);
  DeriveAnnotations(sym.get(), 3);
  PlanPtr boolean = Node(PlanOp::kConstBool);
  DeriveAnnotations(boolean.get(), 3);
  PlanPtr root = Node(PlanOp::kAndSym);
  root->children = {sym, boolean};
  ExpectPlanRejected(*root, "mode confusion");
}

TEST(PlanVerifyTest, RejectsCycle) {
  PlanPtr a = Node(PlanOp::kNegateSym);
  PlanPtr b = Node(PlanOp::kNegateSym);
  a->children.push_back(b);
  b->children.push_back(a);  // cycle: the executor's walk would not return
  ExpectPlanRejected(*a, "cycle");
  // Break it so the shared_ptr loop does not leak.
  b->children.clear();
}

TEST(PlanVerifyTest, RejectsMissingPayload) {
  PlanPtr root = Node(PlanOp::kConstFormula);  // no formula attached
  ExpectPlanRejected(*root, "missing payload");
}

TEST(PlanVerifyTest, RejectsColumnOutOfRange) {
  PlanPtr child = Node(PlanOp::kConstFormula);
  child->const_formula = DnfFormula::False(1);
  DeriveAnnotations(child.get(), 3);
  PlanPtr root = Node(PlanOp::kExistsElim);
  root->column = 7;  // plan has 1 column
  root->children.push_back(child);
  ExpectPlanRejected(*root, "column out of range");
}

TEST(PlanVerifyTest, RejectsStaleAnnotations) {
  PlanPtr root = Node(PlanOp::kInRegion);
  root->region_args = {"R"};
  DeriveAnnotations(root.get(), 3);
  ASSERT_FALSE(root->free_region.empty());
  root->free_region.clear();  // stale: would silently corrupt memo keys
  ExpectPlanRejected(*root, "annotation mismatch");
}

TEST(PlanVerifyTest, RejectsCacheMarkedConstant) {
  PlanPtr root = Node(PlanOp::kConstBool);
  DeriveAnnotations(root.get(), 3);
  root->cache = CachePolicy::kByRegionKey;
  ExpectPlanRejected(*root, "cache key ill-formed");
}

TEST(PlanVerifyTest, RejectsUnclosedRoot) {
  PlanPtr root = Node(PlanOp::kInRegion);
  root->region_args = {"R"};
  DeriveAnnotations(root.get(), 3);
  ExpectPlanRejected(*root, "plan not closed");
}

TEST(VerifyGateTest, EvaluateRunsThePlanVerifier) {
  ConstraintDatabase db = IntervalsDb();
  auto ext = MakeArrangementExtension(db);
  ConstraintKernel kernel;
  ScopedKernel scoped(kernel);
  const std::string text = "exists x . (S(x) & x > 0)";
  Evaluator evaluator(*ext);
  auto parsed = ParseQuery(text, db.relation_name());
  ASSERT_TRUE(parsed.ok());
  auto answer = evaluator.Evaluate(**parsed);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  const VerifyStats& verify = evaluator.stats().verify;
  EXPECT_EQ(verify.plans_verified, 1u);
  EXPECT_EQ(verify.violations, 0u);
  const auto values = evaluator.stats().ToMetrics().values;
  ASSERT_TRUE(values.count("analysis.verify.plans"));
  EXPECT_EQ(values.at("analysis.verify.plans"), 1u);
  ASSERT_TRUE(values.count("analysis.verify.plan_nodes"));
  EXPECT_GE(values.at("analysis.verify.plan_nodes"), 1u);
  ASSERT_TRUE(values.count("analysis.verify.violations"));
  EXPECT_EQ(values.at("analysis.verify.violations"), 0u);
}

TEST(VerifyGateTest, NoVerifyAblationSkipsVerifiersAndStillAnswers) {
  ConstraintDatabase db = IntervalsDb();
  auto ext = MakeArrangementExtension(db);
  ConstraintKernel kernel;
  ScopedKernel scoped(kernel);
  const std::string text = "exists x . (S(x) & x > 0)";
  Evaluator::Options options;
  options.verify = false;
  Evaluator evaluator(*ext, options);
  auto parsed = ParseQuery(text, db.relation_name());
  ASSERT_TRUE(parsed.ok());
  auto answer = evaluator.Evaluate(**parsed);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_EQ(evaluator.stats().verify.plans_verified, 0u);
  // The family stays schema-stable at zero.
  const auto values = evaluator.stats().ToMetrics().values;
  ASSERT_TRUE(values.count("analysis.verify.plans"));
  EXPECT_EQ(values.at("analysis.verify.plans"), 0u);
}

TEST(VerifyGateTest, ExplainRunsThePlanVerifier) {
  ConstraintDatabase db = IntervalsDb();
  auto ext = MakeArrangementExtension(db);
  ConstraintKernel kernel;
  ScopedKernel scoped(kernel);
  Evaluator evaluator(*ext);
  auto parsed = ParseQuery("exists x . (S(x) & x > 0)", db.relation_name());
  ASSERT_TRUE(parsed.ok());
  ASSERT_TRUE(evaluator.Explain(**parsed).ok());
  EXPECT_EQ(evaluator.stats().verify.plans_verified, 1u);
  // Per compile, not cumulative: a second Explain reports its own plan.
  ASSERT_TRUE(evaluator.Explain(**parsed).ok());
  EXPECT_EQ(evaluator.stats().verify.plans_verified, 1u);
}

}  // namespace
}  // namespace lcdb
