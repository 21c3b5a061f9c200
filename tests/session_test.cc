// QuerySession (engine/session.h): failure taxonomy, the deterministic
// degradation ladder, bounded retries with budget escalation and
// checkpoint/resume, the quarantine list, lemma reuse across calls on the
// session's one kernel, and the session.* metrics export.
// Failpoints are *persistent* — once past skip_hits they fire on every
// subsequent hit until disarmed — so an armed internal fault drives the
// ladder all the way down, which is exactly what the ladder-order test
// wants.

#include <gtest/gtest.h>

#include <string>

#include "core/evaluator.h"
#include "core/queries.h"
#include "db/io.h"
#include "db/workloads.h"
#include "engine/governor.h"
#include "engine/session.h"
#include "util/failpoint.h"
#include "util/status.h"

namespace lcdb {
namespace {

class SessionTest : public ::testing::Test {
 protected:
  void TearDown() override { DisarmAllFailpoints(); }
};

TEST_F(SessionTest, ClassifyFailure) {
  EXPECT_EQ(ClassifyFailure(Status::Ok()), FailureClass::kNone);
  EXPECT_EQ(ClassifyFailure(Status::ParseError("x")), FailureClass::kInvalid);
  EXPECT_EQ(ClassifyFailure(Status::InvalidArgument("x")),
            FailureClass::kInvalid);
  EXPECT_EQ(ClassifyFailure(Status::ResourceExhausted("x")),
            FailureClass::kResource);
  EXPECT_EQ(ClassifyFailure(Status::DeadlineExceeded("x")),
            FailureClass::kResource);
  EXPECT_EQ(ClassifyFailure(Status::Cancelled("x")), FailureClass::kCancelled);
  EXPECT_EQ(ClassifyFailure(Status::Internal("x")), FailureClass::kFault);
  EXPECT_EQ(ClassifyFailure(Status::Unsupported("x")), FailureClass::kFault);
}

TEST_F(SessionTest, SuccessfulQueryPassesThrough) {
  ConstraintDatabase db = MakeComb(2, true);
  auto ext = MakeArrangementExtension(db);
  QuerySession session(*ext);
  auto truth = session.EvaluateSentence(RegionConnQueryText());
  ASSERT_TRUE(truth.ok()) << truth.status().ToString();
  EXPECT_TRUE(*truth);
  EXPECT_EQ(session.stats().queries, 1u);
  EXPECT_EQ(session.stats().successes, 1u);
  EXPECT_EQ(session.stats().attempts, 1u);
  EXPECT_EQ(session.stats().retries, 0u);
}

TEST_F(SessionTest, InvalidQueriesNeverRetry) {
  ConstraintDatabase db = MakeComb(2, true);
  auto ext = MakeArrangementExtension(db);
  QuerySession session(*ext);
  // Parse error: rejected before any attempt runs.
  auto parse = session.Evaluate("exists . (");
  ASSERT_FALSE(parse.ok());
  EXPECT_EQ(session.stats().invalid, 1u);
  EXPECT_EQ(session.stats().attempts, 0u);
  // Type error: one attempt, classified invalid, no retries.
  auto type = session.Evaluate("S(x)");  // arity mismatch (db arity 2)
  ASSERT_FALSE(type.ok());
  EXPECT_EQ(session.stats().invalid, 2u);
  EXPECT_EQ(session.stats().attempts, 1u);
  EXPECT_EQ(session.stats().retries, 0u);
  // Invalid inputs never count toward quarantine.
  EXPECT_FALSE(session.IsQuarantined("S(x)"));
}

TEST_F(SessionTest, LadderDropsRungsInOrderOnPersistentFault) {
  ConstraintDatabase db = MakeComb(2, true);
  auto ext = MakeArrangementExtension(db);
  SessionOptions options;
  options.trace = true;
  options.max_retries = 10;
  options.quarantine_threshold = 100;
  QuerySession session(*ext, options);
  ArmFailpoint("fixpoint.stage", StatusCode::kInternal, "injected fault");
  auto answer = session.Evaluate(RegionConnQueryText());
  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), StatusCode::kInternal);
  // Every rung dropped, newest machinery first, then nothing left to shed.
  const auto& log = session.degradation_log();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0].rung, "memoize->off");
  EXPECT_EQ(log[1].rung, "trace->off");
  EXPECT_EQ(session.stats().degradations, 2u);
  EXPECT_EQ(session.stats().retries, 2u);
  EXPECT_EQ(session.stats().attempts, 3u);
  EXPECT_EQ(session.stats().failures, 1u);
}

TEST_F(SessionTest, PersistentPlanFaultDegradesThenSessionRecovers) {
  // A persistent fault at the plan-executor entry fails every attempt; the
  // ladder still degrades in order (memoize->off first). Once the fault is
  // disarmed the *same* session serves the query again — a failed call
  // must leave no residue beyond its quarantine streak.
  ConstraintDatabase db = MakeComb(2, true);
  auto ext = MakeArrangementExtension(db);
  SessionOptions options;
  options.quarantine_threshold = 100;
  QuerySession session(*ext, options);
  ArmFailpoint("plan.execute", StatusCode::kInternal, "injected fault");
  auto failed = session.Evaluate(RegionConnQueryText());
  ASSERT_FALSE(failed.ok());
  EXPECT_GE(session.stats().degradations, 1u);
  EXPECT_EQ(session.degradation_log().front().rung, "memoize->off");
  DisarmAllFailpoints();
  // The fault gone, the same session answers again (no quarantine yet).
  auto truth = session.EvaluateSentence(RegionConnQueryText());
  ASSERT_TRUE(truth.ok()) << truth.status().ToString();
  EXPECT_TRUE(*truth);
}

TEST_F(SessionTest, ResourceRetryEscalatesBudgetsAndResumes) {
  ConstraintDatabase db = MakeComb(2, true);
  auto ext = MakeArrangementExtension(db);
  // Reference answer, unbudgeted.
  auto reference = EvaluateSentenceText(*ext, RegionConnQueryText());
  ASSERT_TRUE(reference.ok());
  SessionOptions options;
  // A one-iteration budget trips inside the first Kleene loop; escalation
  // (x4 per retry) plus resume (completed stages are never redone) must
  // land the query within a few retries.
  options.limits.max_fixpoint_iterations = 1;
  options.budget_escalation = 4;
  options.max_retries = 6;
  QuerySession session(*ext, options);
  auto truth = session.EvaluateSentence(RegionConnQueryText());
  ASSERT_TRUE(truth.ok()) << truth.status().ToString();
  EXPECT_EQ(*truth, *reference);
  EXPECT_EQ(session.stats().successes, 1u);
  EXPECT_GT(session.stats().retries, 0u);
  EXPECT_GT(session.stats().budget_escalations, 0u);
  EXPECT_GT(session.stats().resumes, 0u);
}

TEST_F(SessionTest, CancelledNeverRetries) {
  ConstraintDatabase db = MakeComb(2, true);
  auto ext = MakeArrangementExtension(db);
  SessionOptions options;
  options.max_retries = 5;
  QuerySession session(*ext, options);
  ArmFailpoint("fixpoint.stage", StatusCode::kCancelled, "injected cancel");
  auto answer = session.Evaluate(RegionConnQueryText());
  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(session.stats().attempts, 1u);
  EXPECT_EQ(session.stats().retries, 0u);
  // A cancel is the caller's choice, not a poisoned query.
  EXPECT_FALSE(session.IsQuarantined(RegionConnQueryText()));
}

TEST_F(SessionTest, QuarantineAfterDeterministicFailures) {
  ConstraintDatabase db = MakeComb(2, true);
  auto ext = MakeArrangementExtension(db);
  SessionOptions options;
  options.max_retries = 0;
  options.quarantine_threshold = 2;
  QuerySession session(*ext, options);
  const std::string text = RegionConnQueryText();
  ArmFailpoint("fixpoint.stage", StatusCode::kInternal, "injected fault");
  EXPECT_FALSE(session.Evaluate(text).ok());
  EXPECT_FALSE(session.IsQuarantined(text));
  EXPECT_FALSE(session.Evaluate(text).ok());
  EXPECT_TRUE(session.IsQuarantined(text));
  EXPECT_EQ(session.stats().quarantined, 1u);
  // The third call is rejected without running an attempt.
  const uint64_t attempts_before = session.stats().attempts;
  auto rejected = session.Evaluate(text);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(session.stats().attempts, attempts_before);
  EXPECT_EQ(session.stats().quarantine_rejections, 1u);
  // Lifting the quarantine (and the fault) restores service.
  DisarmAllFailpoints();
  session.ClearQuarantine();
  EXPECT_EQ(session.stats().quarantined, 0u);
  auto truth = session.EvaluateSentence(text);
  ASSERT_TRUE(truth.ok()) << truth.status().ToString();
  // A success resets the failure streak.
  EXPECT_FALSE(session.IsQuarantined(text));
}

TEST_F(SessionTest, SuccessResetsFailureStreak) {
  ConstraintDatabase db = MakeComb(2, true);
  auto ext = MakeArrangementExtension(db);
  SessionOptions options;
  options.max_retries = 0;
  options.quarantine_threshold = 2;
  QuerySession session(*ext, options);
  const std::string text = RegionConnQueryText();
  ArmFailpoint("fixpoint.stage", StatusCode::kInternal, "injected fault");
  EXPECT_FALSE(session.Evaluate(text).ok());
  DisarmAllFailpoints();
  EXPECT_TRUE(session.Evaluate(text).ok());  // streak back to zero
  ArmFailpoint("fixpoint.stage", StatusCode::kInternal, "injected fault");
  EXPECT_FALSE(session.Evaluate(text).ok());
  // One failure since the success: still below the threshold of 2.
  EXPECT_FALSE(session.IsQuarantined(text));
}

TEST_F(SessionTest, MetricsExportMergesSessionAndEvaluatorFamilies) {
  ConstraintDatabase db = MakeComb(2, true);
  auto ext = MakeArrangementExtension(db);
  QuerySession session(*ext);
  ASSERT_TRUE(session.Evaluate(RegionConnQueryText()).ok());
  MetricsSnapshot snapshot = session.Metrics();
  // The session.* family the issue specifies...
  EXPECT_EQ(snapshot.values.at("session.queries"), 1u);
  EXPECT_EQ(snapshot.values.at("session.successes"), 1u);
  EXPECT_EQ(snapshot.values.at("session.retries"), 0u);
  EXPECT_EQ(snapshot.values.at("session.resumes"), 0u);
  EXPECT_EQ(snapshot.values.at("session.degradations"), 0u);
  EXPECT_EQ(snapshot.values.at("session.quarantined"), 0u);
  // ...merged over the wrapped evaluator's families in one namespace.
  EXPECT_GT(snapshot.values.at("evaluator.node_evaluations"), 0u);
  EXPECT_GT(snapshot.values.at("evaluator.fixpoint_iterations"), 0u);
  // The kernel family is present even when this region-only query needs no
  // feasibility decision at evaluation time (adjacency is precomputed).
  EXPECT_EQ(snapshot.values.count("kernel.feasibility_queries"), 1u);
  EXPECT_EQ(snapshot.labels.at("session.last_failure_class"), "none");
  const std::string json = snapshot.ToJson();
  EXPECT_NE(json.find("\"session.queries\":1"), std::string::npos);
}

TEST_F(SessionTest, LemmasSurviveAcrossCalls) {
  auto db = LoadDatabaseFromFile(std::string(LCDB_TEST_DATA_DIR) +
                                 "/intervals.lcdb");
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  auto ext = MakeArrangementExtension(*db);
  const std::string query = "exists x . (S(x) & x > 2)";
  // Every call runs on the session's one kernel, so the second call is
  // served entirely from the lemmas the first one proved.
  QuerySession session(*ext);
  auto first = session.Evaluate(query);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(session.Metrics().values.at("kernel.oracle_calls"), 5u);
  auto second = session.Evaluate(query);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  const MetricsSnapshot metrics = session.Metrics();
  EXPECT_EQ(metrics.values.at("kernel.oracle_calls"), 0u);
  EXPECT_GT(metrics.values.at("kernel.lemma.hits"), 0u);
  EXPECT_EQ(metrics.values.at("kernel.lemma.misses"), 0u);
  EXPECT_EQ(first->ToString(), second->ToString());
  ASSERT_NE(session.kernel().lemma_db(), nullptr);
  EXPECT_GT(session.kernel().lemma_db()->size(), 0u);

  // A session without memoization keeps no store.
  SessionOptions off;
  off.kernel.memoize = false;
  QuerySession unmemoized(*ext, off);
  auto plain = unmemoized.Evaluate(query);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  EXPECT_EQ(plain->ToString(), first->ToString());
  EXPECT_EQ(unmemoized.kernel().lemma_db(), nullptr);
}

TEST_F(SessionTest, MetricsSnapshotMerge) {
  MetricsSnapshot a;
  a.values["x"] = 2;
  a.labels["l"] = "old";
  MetricsSnapshot b;
  b.values["x"] = 3;
  b.values["y"] = 1;
  b.labels["l"] = "new";
  b.histograms["h"].buckets = {1, 2};
  b.histograms["h"].count = 3;
  b.histograms["h"].sum = 5;
  a.Merge(b);
  EXPECT_EQ(a.values["x"], 5u);
  EXPECT_EQ(a.values["y"], 1u);
  EXPECT_EQ(a.labels["l"], "new");
  EXPECT_EQ(a.histograms["h"].count, 3u);
  a.Merge(b);
  EXPECT_EQ(a.histograms["h"].buckets[1], 4u);
}

TEST_F(SessionTest, SetLimitsAppliesToSubsequentQueries) {
  ConstraintDatabase db = MakeComb(2, true);
  auto ext = MakeArrangementExtension(db);
  SessionOptions options;
  options.max_retries = 0;
  options.quarantine_threshold = 100;
  QuerySession session(*ext, options);
  ASSERT_TRUE(session.Evaluate(RegionConnQueryText()).ok());
  GovernorLimits strangled;
  strangled.max_fixpoint_iterations = 0;  // trips on the first Kleene stage
  session.set_limits(strangled);
  auto starved = session.Evaluate(RegionConnQueryText());
  ASSERT_FALSE(starved.ok());
  EXPECT_TRUE(starved.status().IsResourceFailure());
  session.set_limits(GovernorLimits{});
  EXPECT_TRUE(session.Evaluate(RegionConnQueryText()).ok());
}

}  // namespace
}  // namespace lcdb
