// Fault-injection matrix (util/failpoint.h): every named site must surface an injected failure as a clean Status at
// the Evaluate boundary — and after disarming, the same evaluator must
// answer byte-identically to a fresh one, proving the unwind left every
// kernel cache and memo table consistent.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/evaluator.h"
#include "core/parser.h"
#include "core/queries.h"
#include "db/region_extension.h"
#include "db/workloads.h"
#include "engine/kernel.h"
#include "util/failpoint.h"
#include "util/interrupt.h"

namespace lcdb {
namespace {

/// RAII: no test leaves failpoints armed for its neighbors.
struct FailpointGuard {
  ~FailpointGuard() { DisarmAllFailpoints(); }
};

TEST(FailpointTest, UnarmedSitesCostNothingAndCountNothing) {
  FailpointGuard guard;
  ConstraintDatabase db = MakeComb(1, true);
  auto ext = MakeArrangementExtension(db);
  auto r = EvaluateSentenceText(*ext, RegionConnQueryText());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Hit accounting is active only while something is armed.
  EXPECT_EQ(FailpointHitCount("kernel.decide"), 0u);
}

TEST(FailpointTest, ArmDisarmLifecycle) {
  FailpointGuard guard;
  ArmFailpoint("kernel.decide", StatusCode::kInternal, "boom");
  ConstraintDatabase db = MakeComb(1, true);
  EXPECT_THROW(MakeArrangementExtension(db), QueryInterrupt);
  EXPECT_GE(FailpointHitCount("kernel.decide"), 1u);
  DisarmFailpoint("kernel.decide");
  auto ext = MakeArrangementExtension(db);  // healthy again
  EXPECT_GT(ext->num_regions(), 0u);
}

TEST(FailpointTest, SkipHitsDelaysTheFailure) {
  FailpointGuard guard;
  ConstraintDatabase db = MakeComb(1, true);
  auto ext = MakeArrangementExtension(db);
  // The first 5 kernel decisions succeed; the 6th throws, mid-query. (An
  // element projection is used because conn's region atoms are precomputed
  // and would never reach the kernel at eval time.)
  ArmFailpoint("kernel.decide", StatusCode::kInternal, "late boom",
               /*skip_hits=*/5);
  auto r = EvaluateSentenceText(*ext, "exists x y . (S(x, y) & x < y)");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
  EXPECT_GE(FailpointHitCount("kernel.decide"), 6u);
}

TEST(FailpointTest, ArrangementSplitFiresAtBuildTime) {
  FailpointGuard guard;
  // The arrangement builds eagerly in MakeArrangementExtension — outside
  // Evaluate's recovery boundary — so the interrupt reaches the caller as
  // an exception; lcdbsh's command loop is the catch there.
  ArmFailpoint("arrangement.split", StatusCode::kResourceExhausted,
               "split fault");
  ConstraintDatabase db = MakeComb(1, true);
  try {
    MakeArrangementExtension(db);
    FAIL() << "expected QueryInterrupt";
  } catch (const QueryInterrupt& interrupt) {
    EXPECT_EQ(interrupt.status().code(), StatusCode::kResourceExhausted);
    EXPECT_NE(std::string(interrupt.what()).find("arrangement.split"),
              std::string::npos);
  }
}

/// One matrix cell: inject at `site`, confirm the query dies with the
/// injected code, disarm, and confirm the surviving evaluator's answer is
/// byte-identical to a fresh evaluator's.
void InjectAndRecover(const std::string& site,
                      const std::string& query_text) {
  FailpointGuard guard;
  ConstraintDatabase db = MakeComb(2, true);
  auto ext = MakeArrangementExtension(db);
  auto parsed = ParseQuery(query_text, db.relation_name());
  ASSERT_TRUE(parsed.ok()) << query_text;

  // A fresh kernel isolates this cell from cross-test cache state: the
  // injected unwind crosses *this* kernel's caches, and the byte-identical
  // check below proves they stayed consistent.
  ConstraintKernel kernel;
  ScopedKernel scoped(kernel);

  Evaluator survivor(*ext);
  ArmFailpoint(site, StatusCode::kInternal, "injected fault");
  auto killed = survivor.Evaluate(**parsed);
  DisarmFailpoint(site);
  ASSERT_FALSE(killed.ok()) << site << " did not fire";
  EXPECT_EQ(killed.status().code(), StatusCode::kInternal) << site;
  EXPECT_NE(killed.status().message().find(site), std::string::npos);
  EXPECT_GE(FailpointHitCount(site), 1u) << site;

  auto after = survivor.Evaluate(**parsed);
  ASSERT_TRUE(after.ok()) << site << ": " << after.status().ToString();
  Evaluator fresh(*ext);
  auto reference = fresh.Evaluate(**parsed);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(after->ToString(), reference->ToString()) << site;
}

// conn exercises kernel decisions, QE and the LFP; the TC query exercises
// closure building. Each site runs on the plan-tree executor.

TEST(FailpointTest, KernelDecidePlanPath) {
  InjectAndRecover("kernel.decide", "exists x . S(x, y)");
}

TEST(FailpointTest, QeProjectPlanPath) {
  InjectAndRecover("qe.project", "exists x . S(x, y)");
}

TEST(FailpointTest, FixpointStagePlanPath) {
  InjectAndRecover("fixpoint.stage", RegionConnQueryText());
}

TEST(FailpointTest, ClosureBuildPlanPath) {
  InjectAndRecover("closure.build",
                   "exists A B . ([tc R ; R' : adj(R, R')](A ; B))");
}

TEST(FailpointTest, PlanExecutePlanPath) {
  InjectAndRecover("plan.execute", RegionConnQueryText());
}

TEST(FailpointTest, MidFixpointInjectionLeavesCachesConsistent) {
  // Sharper variant of the matrix: die on the *third* Kleene stage, deep
  // inside the LFP, with the shared default kernel already warm — the next
  // evaluation must still be byte-identical to a fresh evaluator's.
  FailpointGuard guard;
  ConstraintDatabase db = MakeComb(2, true);
  auto ext = MakeArrangementExtension(db);
  auto parsed = ParseQuery(RegionConnQueryText(), db.relation_name());
  ASSERT_TRUE(parsed.ok());
  Evaluator survivor(*ext);
  ArmFailpoint("fixpoint.stage", StatusCode::kInternal, "mid-fixpoint",
               /*skip_hits=*/2);
  auto killed = survivor.Evaluate(**parsed);
  DisarmAllFailpoints();
  ASSERT_FALSE(killed.ok());
  auto after = survivor.Evaluate(**parsed);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  Evaluator fresh(*ext);
  auto reference = fresh.Evaluate(**parsed);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(after->ToString(), reference->ToString());
}

TEST(FailpointTest, ExplainIsAlsoRecoverable) {
  FailpointGuard guard;
  ConstraintDatabase db = MakeComb(1, true);
  auto ext = MakeArrangementExtension(db);
  auto parsed =
      ParseQuery("exists x . (S(x, y) & x > 0 & x < 1)", db.relation_name());
  ASSERT_TRUE(parsed.ok());
  Evaluator evaluator(*ext);
  // The optimizer's folding pass consults the kernel (DNF simplification of
  // the relation's constant formula), so injection reaches Explain too —
  // and must come back as a Status, not an abort.
  ArmFailpoint("kernel.decide", StatusCode::kInternal, "explain fault");
  auto plan = evaluator.Explain(**parsed);
  DisarmAllFailpoints();
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kInternal);
  auto healthy = evaluator.Explain(**parsed);
  EXPECT_TRUE(healthy.ok()) << healthy.status().ToString();
}

}  // namespace
}  // namespace lcdb
