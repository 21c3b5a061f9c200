// Tests for the per-query resource governor (engine/governor.h): every
// budget trips with the right status code, the zero-budget and already-
// expired-deadline edge cases behave, and — the robustness contract — an
// evaluator whose query was killed mid-fixpoint answers the next query
// byte-identically to a fresh evaluator, on both execution paths.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "constraint/parser.h"
#include "core/evaluator.h"
#include "core/parser.h"
#include "core/queries.h"
#include "db/region_extension.h"
#include "db/workloads.h"
#include "engine/governor.h"
#include "engine/kernel.h"

namespace lcdb {
namespace {

ConstraintDatabase Db1ForPfp() {
  auto f = ParseDnf("(x > 0 & x < 1) | x = 5", {"x"});
  EXPECT_TRUE(f.ok()) << f.status().ToString();
  return ConstraintDatabase("S", *f, {"x"});
}

/// Evaluates `text` under `limits` on a fresh kernel (so kernel caches from
/// other tests cannot absorb the budgeted work) and returns the status.
Status GovernedStatus(const RegionExtension& ext, const std::string& text,
                      const GovernorLimits& limits) {
  ConstraintKernel kernel;
  ScopedKernel scoped_kernel(kernel);
  QueryGovernor governor(limits);
  ScopedGovernor scoped(governor);
  auto r = EvaluateQueryText(ext, text);
  return r.status();
}

TEST(GovernorTest, UngovernedQueryStillWorks) {
  ConstraintDatabase db = MakeComb(2, true);
  auto ext = MakeArrangementExtension(db);
  auto r = EvaluateSentenceText(*ext, RegionConnQueryText());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(*r);
}

TEST(GovernorTest, GovernedWithinBudgetSucceedsAndCounts) {
  ConstraintDatabase db = MakeComb(2, true);
  auto ext = MakeArrangementExtension(db);
  QueryGovernor governor(GovernorLimits{});  // all budgets unlimited
  ScopedGovernor scoped(governor);
  auto r = EvaluateSentenceText(*ext, RegionConnQueryText());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(*r);
  const GovernorStats stats = governor.stats();
  EXPECT_GT(stats.checkpoints, 0u);
  EXPECT_EQ(stats.budget_trips, 0u);
  EXPECT_TRUE(stats.tripped_budget.empty());
}

// NOTE: the conn query over the comb needs no kernel decisions at eval time
// (adjacency and subset flags are precomputed when the arrangement is
// built), so the kernel-facing budgets are exercised with an element-sort
// projection, which must simplify through the feasibility oracle.

TEST(GovernorTest, FeasibilityBudgetTrips) {
  ConstraintDatabase db = MakeComb(2, true);
  auto ext = MakeArrangementExtension(db);
  GovernorLimits limits;
  limits.max_feasibility_queries = 3;
  Status s = GovernedStatus(*ext, "exists x . S(x, y)", limits);
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted) << s.ToString();
  EXPECT_NE(s.message().find("feasibility"), std::string::npos);
}

TEST(GovernorTest, ZeroFeasibilityBudgetTripsOnFirstQuery) {
  // An explicit 0 is a real budget (kUnlimited is the sentinel): the very
  // first kernel decision trips it.
  ConstraintDatabase db = MakeComb(2, true);
  auto ext = MakeArrangementExtension(db);
  GovernorLimits limits;
  limits.max_feasibility_queries = 0;
  Status s = GovernedStatus(*ext, "exists x . S(x, y)", limits);
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted) << s.ToString();
}

TEST(GovernorTest, SimplexPivotBudgetTrips) {
  ConstraintDatabase db = MakeComb(2, true);
  auto ext = MakeArrangementExtension(db);
  GovernorLimits limits;
  limits.max_simplex_pivots = 2;
  Status s = GovernedStatus(*ext, "exists x . S(x, y)", limits);
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted) << s.ToString();
  EXPECT_NE(s.message().find("pivot"), std::string::npos);
}

TEST(GovernorTest, FixpointIterationBudgetTrips) {
  ConstraintDatabase db = MakeComb(2, true);
  auto ext = MakeArrangementExtension(db);
  GovernorLimits limits;
  limits.max_fixpoint_iterations = 1;  // conn's LFP needs several stages
  Status s = GovernedStatus(*ext, RegionConnQueryText(), limits);
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted) << s.ToString();
  EXPECT_NE(s.message().find("fixpoint"), std::string::npos);
}

TEST(GovernorTest, TupleSpaceBudgetTrips) {
  ConstraintDatabase db = MakeComb(2, true);  // 63 regions
  auto ext = MakeArrangementExtension(db);
  GovernorLimits limits;
  limits.max_tuple_space = 10;  // 63^2 pairs in conn's LFP
  Status s = GovernedStatus(*ext, RegionConnQueryText(), limits);
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted) << s.ToString();
  EXPECT_NE(s.message().find("tuple space"), std::string::npos);
}

TEST(GovernorTest, DnfDisjunctBudgetTrips) {
  // Projecting the comb onto one axis produces one disjunct per part —
  // far over a budget of 1.
  ConstraintDatabase db = MakeComb(2, true);
  auto ext = MakeArrangementExtension(db);
  GovernorLimits limits;
  limits.max_dnf_disjuncts = 1;
  Status s = GovernedStatus(*ext, "exists x . S(x, y)", limits);
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted) << s.ToString();
  EXPECT_NE(s.message().find("disjunct"), std::string::npos);
}

TEST(GovernorTest, BigIntBitBudgetTrips) {
  // Zero-budget edge for the coefficient ceiling: any surviving nonzero
  // coefficient has bit length >= 1 > 0.
  ConstraintDatabase db = MakeComb(2, true);
  auto ext = MakeArrangementExtension(db);
  GovernorLimits limits;
  limits.max_bigint_bits = 0;
  Status s = GovernedStatus(*ext, "exists x . S(x, y)", limits);
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted) << s.ToString();
  EXPECT_NE(s.message().find("bits"), std::string::npos);
}

TEST(GovernorTest, ExpiredDeadlineTripsImmediately) {
  // wall_clock_ms = 0 is a real deadline that has already passed when the
  // query starts; the first strided deadline check raises it.
  ConstraintDatabase db = MakeComb(2, true);
  auto ext = MakeArrangementExtension(db);
  GovernorLimits limits;
  limits.wall_clock_ms = 0;
  Status s = GovernedStatus(*ext, RegionConnQueryText(), limits);
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded) << s.ToString();
  EXPECT_TRUE(s.IsResourceFailure());
}

TEST(GovernorTest, CancelFlagStopsTheQuery) {
  ConstraintDatabase db = MakeComb(2, true);
  auto ext = MakeArrangementExtension(db);
  QueryGovernor governor((GovernorLimits()));
  governor.RequestCancel();  // cancel before the query even starts
  ScopedGovernor scoped(governor);
  auto r = EvaluateSentenceText(*ext, RegionConnQueryText());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled) << r.status().ToString();
  EXPECT_EQ(governor.stats().tripped_budget, "cancel");
}

TEST(GovernorTest, StatsNameTheTrippedBudget) {
  ConstraintDatabase db = MakeComb(2, true);
  auto ext = MakeArrangementExtension(db);
  auto parsed = ParseQuery(RegionConnQueryText(), db.relation_name());
  ASSERT_TRUE(parsed.ok());
  Evaluator evaluator(*ext);
  GovernorLimits limits;
  limits.max_fixpoint_iterations = 1;
  QueryGovernor governor(limits);
  ScopedGovernor scoped(governor);
  auto r = evaluator.Evaluate(**parsed);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(evaluator.stats().governor.tripped_budget,
            "max_fixpoint_iterations");
  EXPECT_GE(evaluator.stats().governor.budget_trips, 1u);
}

/// The robustness contract: kill a query mid-fixpoint, then answer the same
/// query on the *same* evaluator without a budget and require the result to
/// be byte-identical to a fresh evaluator's.
TEST(GovernorTest, PostTripReuseIsByteIdenticalPlanPath) {
  ConstraintDatabase db = MakeComb(2, true);
  auto ext = MakeArrangementExtension(db);
  auto parsed = ParseQuery(RegionConnQueryText(), db.relation_name());
  ASSERT_TRUE(parsed.ok());

  Evaluator survivor(*ext);
  {
    GovernorLimits limits;
    limits.max_fixpoint_iterations = 2;  // dies inside the conn LFP
    QueryGovernor governor(limits);
    ScopedGovernor scoped(governor);
    auto killed = survivor.Evaluate(**parsed);
    ASSERT_FALSE(killed.ok());
    EXPECT_EQ(killed.status().code(), StatusCode::kResourceExhausted);
  }
  auto after = survivor.Evaluate(**parsed);  // ungoverned retry, same object
  ASSERT_TRUE(after.ok()) << after.status().ToString();

  Evaluator fresh(*ext);
  auto reference = fresh.Evaluate(**parsed);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  EXPECT_EQ(after->ToString(), reference->ToString());
}

TEST(GovernorTest, TupleSpaceOptionStillAStatus) {
  // The evaluator's own Options::max_tuple_space cap (no governor at all)
  // reports kResourceExhausted instead of crashing.
  ConstraintDatabase db = MakeComb(2, true);
  auto ext = MakeArrangementExtension(db);
  Evaluator::Options tiny;
  tiny.max_tuple_space = 100;
  auto r = EvaluateSentenceText(*ext, RegionConnQueryText(), tiny);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST(GovernorTest, ExtensionBuildBudgetTripIsAStatus) {
  // The Build* API is the recovery boundary for construction: a budget
  // tripping inside the arrangement's face splits surfaces as a Status
  // naming the budget, not as an escaping exception.
  ConstraintDatabase db = MakeComb(2, true);
  ConstraintKernel kernel;  // fresh: cached feasibility answers skip budgets
  ScopedKernel scoped_kernel(kernel);
  GovernorLimits limits;
  limits.max_feasibility_queries = 0;
  QueryGovernor governor(limits);
  ScopedGovernor scoped(governor);
  auto built = BuildArrangementExtension(db);
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kResourceExhausted)
      << built.status().ToString();
  EXPECT_EQ(governor.stats().tripped_budget, "max_feasibility_queries");
}

TEST(GovernorTest, ExtensionBuildWithinBudgetSucceeds) {
  ConstraintDatabase db = MakeComb(2, true);
  QueryGovernor governor((GovernorLimits()));  // unlimited
  ScopedGovernor scoped(governor);
  auto arr = BuildArrangementExtension(db);
  ASSERT_TRUE(arr.ok()) << arr.status().ToString();
  EXPECT_EQ((*arr)->num_regions(), MakeArrangementExtension(db)->num_regions());
  auto dec = BuildDecompositionExtension(db);
  ASSERT_TRUE(dec.ok()) << dec.status().ToString();
  EXPECT_GT((*dec)->num_regions(), 0u);
}

TEST(GovernorTest, CancelFromAnotherThreadStopsTheQuery) {
  // RequestCancel is documented callable from any thread; this is the
  // TSan-checked proof. The worker evaluates in a loop under its governor;
  // once the main thread flips the flag, the next cooperative checkpoint
  // (a kernel feasibility query — each round gets a fresh kernel so the
  // cache cannot absorb them) must trip kCancelled.
  ConstraintDatabase db = MakeComb(2, true);
  auto ext = MakeArrangementExtension(db);
  QueryGovernor governor((GovernorLimits()));

  std::atomic<bool> first_round_done{false};
  Status final_status;
  std::thread worker([&] {
    ScopedGovernor scoped(governor);
    for (int i = 0; i < 100000; ++i) {
      ConstraintKernel kernel;
      ScopedKernel scoped_kernel(kernel);
      auto r = EvaluateSentenceText(*ext, RegionConnQueryText());
      if (!r.ok()) {
        final_status = r.status();
        return;
      }
      first_round_done.store(true);
    }
  });
  while (!first_round_done.load()) std::this_thread::yield();
  governor.RequestCancel();  // from outside the evaluating thread
  worker.join();
  EXPECT_EQ(final_status.code(), StatusCode::kCancelled)
      << final_status.ToString();
  EXPECT_EQ(governor.stats().tripped_budget, "cancel");
}

TEST(GovernorTest, DivergentPfpStillConvergesUnderHashDetection) {
  // The hash-based PFP cycle detector must agree with the old exact-set
  // scheme: [pfp M R : !(M(R))] flips between {} and everything, so the
  // revisit of {} ends it with the empty result (sentence => false), and
  // the hash hit's replay verification must not change that.
  ConstraintDatabase db = Db1ForPfp();
  auto ext = MakeArrangementExtension(db);
  auto r = EvaluateSentenceText(*ext, "exists A . [pfp M R : !(M(R))](A)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FALSE(*r);
}

}  // namespace
}  // namespace lcdb
