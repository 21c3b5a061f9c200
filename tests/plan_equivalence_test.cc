// Equivalence harness for the compile -> optimize -> execute pipeline: every
// seed database in data/, under both the arrangement and the decomposition
// extension, and every canned query from core/queries.h must produce
// *byte-identical* QueryAnswer formulas through
//   (a) the raw plan (optimize = false),
//   (b) the optimized plan (optimize = true), and
//   (c) the bytecode VM over the optimized plan (use_bytecode = true),
//       traced and untraced — tracing must never change an answer.
// Each mode diffs against the pinned golden corpus (tests/golden.h), not
// against another mode. The optimizer's contract is representation
// preservation, not mere logical equivalence, so the comparison is on
// ToString() output.
// LCDB_TEST_DATA_DIR / LCDB_TEST_GOLDEN_DIR are injected by CMake.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "constraint/parser.h"
#include "core/evaluator.h"
#include "core/parser.h"
#include "core/queries.h"
#include "db/io.h"
#include "db/region_extension.h"
#include "db/workloads.h"
#include "engine/kernel.h"
#include "engine/trace.h"
#include "golden.h"
#include "util/failpoint.h"
#include "util/status.h"

namespace lcdb {
namespace {

ConstraintDatabase Load(const std::string& name) {
  auto db = LoadDatabaseFromFile(std::string(LCDB_TEST_DATA_DIR) + "/" + name);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  return *db;
}

/// An evaluation mode of the sweep.
struct Mode {
  const char* name;
  bool optimize;
  bool use_bytecode;
};
constexpr Mode kRaw{"raw plan", false, false};
constexpr Mode kOptimized{"optimized plan", true, false};
constexpr Mode kVm{"bytecode VM", true, true};

std::string AnswerVia(const RegionExtension& ext, const FormulaNode& query,
                      const Mode& mode, bool memoize = true) {
  Evaluator::Options options;
  options.optimize = mode.optimize;
  options.use_bytecode = mode.use_bytecode;
  options.memoize = memoize;
  Evaluator evaluator(ext, options);
  auto answer = evaluator.Evaluate(query);
  EXPECT_TRUE(answer.ok()) << answer.status().ToString();
  if (!answer.ok()) return "<error>";
  return answer->ToString();
}

/// `check_raw` additionally runs the unoptimized plan, which executes with
/// no subformula caching at all — skipped for the workloads where that
/// ablation is minutes-expensive (it is still covered on the cheap ones).
void ExpectModesMatchGolden(const std::string& instance,
                            const RegionExtension& ext,
                            const std::string& text, bool check_raw = true) {
  auto query = ParseQuery(text, ext.database().relation_name());
  ASSERT_TRUE(query.ok()) << text << "\n" << query.status().ToString();
  auto expect = [&](const Mode& mode) {
    ExpectGoldenAnswer(instance, text, AnswerVia(ext, **query, mode),
                       mode.name);
  };
  if (check_raw) expect(kRaw);
  expect(kOptimized);
  expect(kVm);
  {
    // Traced VM run: span emission sits on the dispatch hot path, so it is
    // swept too — tracing must be observation only.
    QueryTracer tracer;
    ScopedTracer scoped(tracer);
    ExpectGoldenAnswer(instance, text, AnswerVia(ext, **query, kVm),
                       "traced bytecode VM");
  }
}

/// Queries exercising every operator family, parameterized on the
/// database's arity (element tuples must match it).
std::vector<std::string> QueriesForArity(size_t arity) {
  std::vector<std::string> queries = {
      RegionConnQueryText(),
      RegionConnTcQueryText(false),
      RegionConnTcQueryText(true),
      "exists R . (subset(R) & !(bounded(R)))",
      "forall R . (subset(R) -> exists R' . (adj(R, R') | R = R'))",
      "exists R R' . [rbit x : x > 0](R, R')",
  };
  if (arity == 1) {
    queries.push_back("exists R . (subset(R) & in(x; R))");
    queries.push_back("forall y . ([hull u : S(u)](y) -> y = y)");
    queries.push_back("exists y . (S(y) & y >= 0)");
  } else if (arity == 2) {
    queries.push_back("exists R . (subset(R) & in(x, y; R))");
    queries.push_back("exists x . S(x, y)");
    queries.push_back(
        "forall x y . (S(x, y) -> exists R . (in(x, y; R) & subset(R)))");
  }
  return queries;
}

TEST(PlanEquivalenceTest, DataFiles) {
  for (const std::string& name : DataFileNames()) {
    SCOPED_TRACE(name);
    ConstraintDatabase db = Load(name);
    auto ext = MakeArrangementExtension(db);
    for (const std::string& text : QueriesForArity(db.arity())) {
      ExpectModesMatchGolden(InstanceOf(name), *ext, text);
    }
  }
}

TEST(PlanEquivalenceTest, DecompositionDataFiles) {
  // The same sweep over the Section 7 decomposition extension, whose
  // regions overlap and whose adj / subset are lazy LP decisions: TC, DTC
  // and adjacency run through different base relations here than on an
  // arrangement. Pinned as instance "<file>_decomp".
  for (const std::string& name : DataFileNames()) {
    SCOPED_TRACE(name);
    ConstraintDatabase db = Load(name);
    auto ext = BuildDecompositionExtension(db);
    ASSERT_TRUE(ext.ok()) << ext.status().ToString();
    std::string instance = InstanceOf(name);
    instance.append("_decomp");
    for (const std::string& text : QueriesForArity(db.arity())) {
      ExpectModesMatchGolden(instance, **ext, text);
    }
  }
}

TEST(PlanEquivalenceTest, LeafRouteSweep) {
  // The set-at-a-time evaluator (plan/relation_eval.h) under the tightest
  // tuple budget the canned queries admit, max_tuple_space = n²: no
  // relation outgrows its fixpoint's or closure's own tuple space, so only
  // those checks can trip, and the answers must not move. Its leaves are
  // the nonempty and rBIT nodes, filled one binding at a time by the
  // executor: the rBIT query fills them below lift_bool, and region-pure
  // RegionConn has none.
  for (const std::string& name : DataFileNames()) {
    SCOPED_TRACE(name);
    ConstraintDatabase db = Load(name);
    for (bool decomposition : {false, true}) {
      SCOPED_TRACE(decomposition ? "decomposition" : "arrangement");
      auto ext = decomposition ? BuildDecompositionExtension(db)
                               : BuildArrangementExtension(db);
      ASSERT_TRUE(ext.ok()) << ext.status().ToString();
      const size_t n = (*ext)->num_regions();
      std::string instance = InstanceOf(name);
      if (decomposition) instance.append("_decomp");
      for (const std::string& text : QueriesForArity(db.arity())) {
        auto query = ParseQuery(text, db.relation_name());
        ASSERT_TRUE(query.ok()) << query.status().ToString();
        for (const Mode& mode : {kRaw, kOptimized}) {
          Evaluator::Options options;
          options.optimize = mode.optimize;
          options.max_tuple_space = n * n;
          Evaluator evaluator(**ext, options);
          auto answer = evaluator.Evaluate(**query);
          ASSERT_TRUE(answer.ok()) << answer.status().ToString();
          ExpectGoldenAnswer(instance, text, answer->ToString(),
                             std::string(mode.name) + " (leaf route)");
          if (text.find("rbit") != std::string::npos) {
            EXPECT_GT(evaluator.stats().bool_evaluations, 0u)
                << "the rBIT leaf was not filled";
          }
          if (text == RegionConnQueryText()) {
            EXPECT_EQ(evaluator.stats().bool_evaluations, 0u);
            EXPECT_GT(evaluator.stats().relation_word_ops, 0u);
          }
        }
      }
    }
  }
}

TEST(PlanEquivalenceTest, LiteralConnQuery) {
  // The paper's literal Conn query (element quantifiers + LFP) on small
  // box instances, connected and disconnected.
  for (bool connected : {true, false}) {
    SCOPED_TRACE(connected ? "connected" : "disconnected");
    auto f = ParseDnf(connected
                          ? "x >= 0 & x <= 1 & y >= 0 & y <= 1"
                          : "(x >= 0 & x <= 1 & y >= 0 & y <= 1) | "
                            "(x >= 3 & x <= 4 & y >= 0 & y <= 1)",
                      {"x", "y"});
    ASSERT_TRUE(f.ok()) << f.status().ToString();
    ConstraintDatabase db("S", *f, {"x", "y"});
    auto ext = MakeArrangementExtension(db);
    ExpectModesMatchGolden(
        connected ? "conn_connected" : "conn_disconnected", *ext,
        ConnQueryText(2), /*check_raw=*/false);
  }
}

TEST(PlanEquivalenceTest, RiverScenario) {
  // Fixpoint with set-dependent body over the Figure 6 encoding, in both
  // the polluted and clean configurations.
  for (bool polluted : {true, false}) {
    SCOPED_TRACE(polluted ? "polluted" : "clean");
    ConstraintDatabase db = polluted
                                ? MakeRiverScenario(3, {1}, {0}, {2})
                                : MakeRiverScenario(3, {1}, {0}, {});
    auto ext = MakeArrangementExtension(db);
    ExpectModesMatchGolden(polluted ? "river_polluted" : "river_clean", *ext,
                           RiverPollutionQueryText(), /*check_raw=*/false);
  }
}

/// Golden instance of the MakeComb(2, true) fixpoint tests below.
constexpr char kComb2[] = "comb2";

TEST(PlanEquivalenceTest, FixpointFlavours) {
  // LFP / IFP / PFP variants of reachability plus a diverging PFP.
  ConstraintDatabase db = MakeComb(2, true);
  auto ext = MakeArrangementExtension(db);
  std::string lfp = RegionConnQueryText();
  std::string ifp = lfp;
  ifp.replace(ifp.find("[lfp"), 4, "[ifp");
  std::string pfp = lfp;
  pfp.replace(pfp.find("[lfp"), 4, "[pfp");
  for (const std::string& text :
       {lfp, ifp, pfp,
        std::string("exists A . [pfp M R : !(M(R))](A)")}) {
    ExpectModesMatchGolden(kComb2, *ext, text);
  }
}

TEST(PlanEquivalenceTest, MemoizationOffAgrees) {
  // The ablation configuration (no caching anywhere) must also match.
  ConstraintDatabase db = MakeComb(2, true);
  auto ext = MakeArrangementExtension(db);
  const std::string text = RegionConnQueryText();
  auto query = ParseQuery(text, db.relation_name());
  ASSERT_TRUE(query.ok());
  for (const Mode& mode : {kOptimized, kVm}) {
    ExpectGoldenAnswer(kComb2, text,
                       AnswerVia(*ext, **query, mode, /*memoize=*/false),
                       std::string(mode.name) + " (memoize off)");
  }
}

TEST(PlanEquivalenceTest, KernelBackendSweep) {
  // Kernel-backend sweep: the activity-managed lemma database and
  // memoize-off must both match the golden answers, on both the tree walk
  // and the bytecode VM, across the data/ seed databases and the canned
  // query set. Lemma truth is a pure function of the canonical encoding, so
  // the backend can only change hit rates — this sweep is the executable
  // form of that contract.
  for (bool memoize : {true, false}) {
    SCOPED_TRACE(memoize ? "lemma-db" : "memoize-off");
    for (const std::string& name : DataFileNames()) {
      SCOPED_TRACE(name);
      ConstraintDatabase db = Load(name);
      auto ext = MakeArrangementExtension(db);
      for (const std::string& text : QueriesForArity(db.arity())) {
        auto query = ParseQuery(text, db.relation_name());
        ASSERT_TRUE(query.ok()) << query.status().ToString();
        ConstraintKernel::Options kernel_options;
        kernel_options.memoize = memoize;
        ConstraintKernel kernel(kernel_options);
        ScopedKernel scope(kernel);
        for (const Mode& mode : {kOptimized, kVm}) {
          ExpectGoldenAnswer(InstanceOf(name), text,
                             AnswerVia(*ext, **query, mode), mode.name);
        }
      }
    }
  }
}

TEST(PlanEquivalenceTest, InterruptResumeSweep) {
  // Checkpoint/resume equivalence (core/resume.h): interrupt the Kleene
  // loop at stage k via the fixpoint.stage failpoint, resume with the token
  // the failure Status carries, and require the final answer byte-identical
  // to the golden one — across every backend (plan tree, bytecode VM) x
  // kernel memoization (lemma DB, off) x interrupt stage.
  ConstraintDatabase db = MakeComb(2, true);
  auto ext = MakeArrangementExtension(db);
  const std::string text = RegionConnQueryText();
  auto query = ParseQuery(text, db.relation_name());
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  for (const Mode& mode : {kOptimized, kVm}) {
    SCOPED_TRACE(mode.name);
    for (bool memoize : {true, false}) {
      SCOPED_TRACE(memoize ? "lemma-db" : "memoize-off");
      ConstraintKernel::Options kernel_options;
      kernel_options.memoize = memoize;
      ConstraintKernel kernel(kernel_options);
      ScopedKernel scope(kernel);
      Evaluator::Options options;
      options.use_bytecode = mode.use_bytecode;
      for (uint64_t stage : {0u, 1u, 2u}) {
        SCOPED_TRACE("interrupt at stage " + std::to_string(stage));
        Evaluator evaluator(*ext, options);
        ArmFailpoint("fixpoint.stage", StatusCode::kResourceExhausted,
                     "injected stage interrupt", stage);
        auto interrupted = evaluator.Evaluate(**query);
        DisarmAllFailpoints();
        ASSERT_FALSE(interrupted.ok());
        ASSERT_TRUE(interrupted.status().IsResourceFailure());
        const uint64_t token = interrupted.status().resume_token();
        ASSERT_NE(token, 0u) << "resource failure carried no resume token";
        auto resumed = evaluator.Evaluate(**query, token);
        ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
        ExpectGoldenAnswer(kComb2, text, resumed->ToString(),
                           std::string(mode.name) + " (resumed)");
        const Evaluator::Stats& s = evaluator.stats();
        EXPECT_GT(s.resume_fixpoints_resumed + s.resume_sets_restored, 0u)
            << "resume did not reuse the checkpoint";
      }
    }
  }
}

TEST(PlanEquivalenceTest, ResumeRestoresCompletedFixpoints) {
  // Interrupt *after* the left conjunct's fixpoint completed (the
  // closure.build site fires when the right conjunct's TC matrix starts):
  // the resumed run must restore the finished fixpoint set wholesale
  // instead of recomputing it.
  ConstraintDatabase db = MakeComb(2, true);
  auto ext = MakeArrangementExtension(db);
  const std::string text =
      "(" + RegionConnQueryText() + ") & (" + RegionConnTcQueryText() + ")";
  auto query = ParseQuery(text, db.relation_name());
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  for (bool use_bytecode : {false, true}) {
    SCOPED_TRACE(use_bytecode ? "vm" : "tree");
    Evaluator::Options options;
    options.use_bytecode = use_bytecode;
    Evaluator reference_evaluator(*ext, options);
    auto reference = reference_evaluator.Evaluate(**query);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    Evaluator evaluator(*ext, options);
    ArmFailpoint("closure.build", StatusCode::kDeadlineExceeded,
                 "injected post-fixpoint interrupt");
    auto interrupted = evaluator.Evaluate(**query);
    DisarmAllFailpoints();
    ASSERT_FALSE(interrupted.ok());
    const uint64_t token = interrupted.status().resume_token();
    ASSERT_NE(token, 0u);
    auto resumed = evaluator.Evaluate(**query, token);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    EXPECT_EQ(resumed->ToString(), reference->ToString());
    EXPECT_GT(evaluator.stats().resume_sets_restored, 0u);
  }
}

TEST(PlanEquivalenceTest, ResumeSurvivesVmToTreeDegradation) {
  // The QuerySession's vm->tree rung: a checkpoint captured on the VM must
  // replay on the tree executor (site keys are shared plan ordinals and the
  // resume fingerprint treats the two as one backend).
  ConstraintDatabase db = MakeComb(2, true);
  auto ext = MakeArrangementExtension(db);
  auto query = ParseQuery(RegionConnQueryText(), db.relation_name());
  ASSERT_TRUE(query.ok());
  Evaluator::Options tree_options;
  Evaluator tree_reference(*ext, tree_options);
  auto reference = tree_reference.Evaluate(**query);
  ASSERT_TRUE(reference.ok());
  Evaluator::Options options;
  options.use_bytecode = true;
  Evaluator evaluator(*ext, options);
  ArmFailpoint("fixpoint.stage", StatusCode::kResourceExhausted,
               "injected stage interrupt", 1);
  auto interrupted = evaluator.Evaluate(**query);
  DisarmAllFailpoints();
  ASSERT_FALSE(interrupted.ok());
  const uint64_t token = interrupted.status().resume_token();
  ASSERT_NE(token, 0u);
  evaluator.mutable_options().use_bytecode = false;  // degrade to the tree
  auto resumed = evaluator.Evaluate(**query, token);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed->ToString(), reference->ToString());
  EXPECT_GT(evaluator.stats().resume_fixpoints_resumed, 0u);
}

TEST(PlanEquivalenceTest, ResumeTokenValidation) {
  // Tokens are single-use, instance-scoped and query-bound: replay, cross-
  // query use and unknown tokens are clean argument errors.
  ConstraintDatabase db = MakeComb(2, true);
  auto ext = MakeArrangementExtension(db);
  auto query = ParseQuery(RegionConnQueryText(), db.relation_name());
  ASSERT_TRUE(query.ok());
  Evaluator evaluator(*ext, Evaluator::Options{});
  ArmFailpoint("fixpoint.stage", StatusCode::kResourceExhausted,
               "injected stage interrupt", 1);
  auto interrupted = evaluator.Evaluate(**query);
  DisarmAllFailpoints();
  ASSERT_FALSE(interrupted.ok());
  const uint64_t token = interrupted.status().resume_token();
  ASSERT_NE(token, 0u);

  // Wrong query: the fingerprint rejects and the token is consumed.
  auto other = ParseQuery("exists R . subset(R)", db.relation_name());
  ASSERT_TRUE(other.ok());
  auto mismatch = evaluator.Evaluate(**other, token);
  ASSERT_FALSE(mismatch.ok());
  EXPECT_EQ(mismatch.status().code(), StatusCode::kInvalidArgument);
  // Replay of the consumed token: unknown.
  auto replay = evaluator.Evaluate(**query, token);
  ASSERT_FALSE(replay.ok());
  EXPECT_EQ(replay.status().code(), StatusCode::kInvalidArgument);
  // A token the evaluator never issued.
  auto unknown = evaluator.Evaluate(**query, token + 1234);
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kInvalidArgument);
  // Token 0 is a plain evaluation.
  auto plain = evaluator.Evaluate(**query, 0);
  EXPECT_TRUE(plain.ok()) << plain.status().ToString();
}

TEST(PlanEquivalenceTest, BytecodeRequiresOptimizedPlan) {
  // Lowering is defined over optimized plans only; the combination must be
  // a clean argument error, never a silent fallback to the tree walk.
  ConstraintDatabase db = MakeComb(2, true);
  auto ext = MakeArrangementExtension(db);
  auto query = ParseQuery("exists y . (S(y) & y >= 0)", db.relation_name());
  ASSERT_TRUE(query.ok());
  Evaluator::Options options;
  options.use_bytecode = true;
  options.optimize = false;
  Evaluator evaluator(*ext, options);
  auto answer = evaluator.Evaluate(**query);
  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(answer.status().message().find("optimized plan"),
            std::string::npos);
}

}  // namespace
}  // namespace lcdb
