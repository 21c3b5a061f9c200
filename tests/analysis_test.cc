// Static query analyzer tests: one triggering query and one near-miss per
// LCDB diagnostic code, the caret/JSON renderers, span threading from the
// parser, the Evaluate integration (clean kInvalidArgument with carets),
// the analysis.* metrics family, the tier-2 plan-cost pass (plan.cost.*
// metrics, EXPLAIN's cost column and its LCDB004 budget warning), and a
// corpus sweep asserting that every query the test suite actually
// evaluates is analyzer-error-free.
// LCDB_TEST_DATA_DIR / LCDB_TEST_SOURCE_DIR are injected by CMake.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/analyzer.h"
#include "core/evaluator.h"
#include "core/parser.h"
#include "core/queries.h"
#include "core/typecheck.h"
#include "db/io.h"
#include "db/region_extension.h"
#include "db/workloads.h"

namespace lcdb {
namespace {

#ifndef LCDB_TEST_DATA_DIR
#define LCDB_TEST_DATA_DIR "data"
#endif
#ifndef LCDB_TEST_SOURCE_DIR
#define LCDB_TEST_SOURCE_DIR "."
#endif

// Arity-1 database (relation "S") for element-variable queries.
const ConstraintDatabase& Db1() {
  static const ConstraintDatabase db = *LoadDatabaseFromString(
      "relation S(x)\nformula (x > 0 & x < 1) | x = 5");
  return db;
}

// Arity-2 database (relation "S") for region-heavy queries.
const ConstraintDatabase& Db2() {
  static const ConstraintDatabase db = MakeComb(1, true);
  return db;
}

// Parses, typechecks and analyzes; any front-end failure is a test failure.
AnalysisResult Analyze(const std::string& text, const ConstraintDatabase& db,
                       const AnalyzerOptions& options = {}) {
  auto query = ParseQuery(text, db.relation_name());
  EXPECT_TRUE(query.ok()) << text << "\n" << query.status().ToString();
  if (!query.ok()) return {};
  auto info = TypeCheck(**query, db);
  EXPECT_TRUE(info.ok()) << text << "\n" << info.status().ToString();
  if (!info.ok()) return {};
  return AnalyzeQuery(**query, *info, options);
}

const Diagnostic* Find(const AnalysisResult& result, const std::string& code) {
  for (const Diagnostic& d : result.diagnostics) {
    if (d.code == code) return &d;
  }
  return nullptr;
}

bool HasCode(const AnalysisResult& result, const std::string& code) {
  return Find(result, code) != nullptr;
}

// ---------------------------------------------------------------------------
// LCDB001 — LFP positivity (error).

TEST(AnalyzerTest, Lcdb001NegatedLfpVariableIsAnError) {
  const std::string text = "exists A . [lfp M R : !(M(R))](A)";
  AnalysisResult result = Analyze(text, Db2());
  ASSERT_TRUE(HasCode(result, "LCDB001")) << RenderDiagnostics(
      result.diagnostics, text);
  EXPECT_TRUE(result.has_errors());
  const Diagnostic* d = Find(result, "LCDB001");
  EXPECT_EQ(d->severity, DiagSeverity::kError);
  // The span points at the offending set atom, not the whole query.
  ASSERT_TRUE(d->span.valid());
  EXPECT_EQ(text.substr(d->span.begin, d->span.end - d->span.begin), "M(R)");
  EXPECT_NE(d->fix.find("even number of negations"), std::string::npos);
}

TEST(AnalyzerTest, Lcdb001DoubleNegationIsPositive) {
  // Two negations cancel: the body is positive in M (Definition 5.1).
  AnalysisResult result =
      Analyze("exists A . [lfp M R : !(!(M(R)))](A)", Db2());
  EXPECT_FALSE(HasCode(result, "LCDB001"));
  EXPECT_FALSE(result.has_errors());
}

TEST(AnalyzerTest, Lcdb001ImplicationLhsIsNegative) {
  AnalysisResult result =
      Analyze("exists A . [lfp M R : (M(R) -> subset(R))](A)", Db2());
  EXPECT_TRUE(HasCode(result, "LCDB001"));
}

// ---------------------------------------------------------------------------
// LCDB002 — IFP/PFP non-positivity (note only; their semantics don't need
// monotonicity).

TEST(AnalyzerTest, Lcdb002NonPositivePfpIsANote) {
  AnalysisResult result =
      Analyze("exists A . [pfp M R : !(M(R))](A)", Db2());
  const Diagnostic* d = Find(result, "LCDB002");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, DiagSeverity::kNote);
  EXPECT_FALSE(result.has_errors());
  EXPECT_FALSE(HasCode(result, "LCDB001"));
}

TEST(AnalyzerTest, Lcdb002PositiveIfpIsClean) {
  AnalysisResult result =
      Analyze("exists A . [ifp M R : M(R) | subset(R)](A)", Db2());
  EXPECT_FALSE(HasCode(result, "LCDB002"));
}

// ---------------------------------------------------------------------------
// LCDB003 — range restriction of free element variables (error).

TEST(AnalyzerTest, Lcdb003PurelyNegativeFreeVariableIsAnError) {
  AnalysisResult result = Analyze("!(S(x, x))", Db2());
  const Diagnostic* d = Find(result, "LCDB003");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, DiagSeverity::kError);
  EXPECT_NE(d->message.find("'x'"), std::string::npos);
}

TEST(AnalyzerTest, Lcdb003PositiveOccurrenceSatisfiesIt) {
  AnalysisResult result = Analyze("x < 2 & !(S(x, x))", Db2());
  EXPECT_FALSE(HasCode(result, "LCDB003"));
}

TEST(AnalyzerTest, Lcdb003IffCountsAsBothPolarities) {
  // p <-> q expands to implications in both directions, so an occurrence
  // under <-> can be taken positively.
  AnalysisResult result = Analyze("S(x, x) <-> x > 0", Db2());
  EXPECT_FALSE(HasCode(result, "LCDB003"));
}

// ---------------------------------------------------------------------------
// LCDB004 — tuple-space growth (warning past the cap, error on overflow).

TEST(AnalyzerTest, Lcdb004WarnsPastConfiguredCap) {
  AnalyzerOptions options;
  options.num_regions = 100;
  options.max_tuple_space = 10;  // 100^2 = 10000 > 10
  AnalysisResult result =
      Analyze("exists A B . [lfp M R R' : M(R, R')](A, B)", Db2(), options);
  const Diagnostic* d = Find(result, "LCDB004");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, DiagSeverity::kWarning);
  EXPECT_NE(d->message.find("10000"), std::string::npos);
  EXPECT_FALSE(result.has_errors());
}

TEST(AnalyzerTest, Lcdb004OverflowIsAnError) {
  AnalyzerOptions options;
  options.num_regions = size_t{1} << 20;  // (2^20)^4 overflows 64 bits
  AnalysisResult result = Analyze(
      "exists A B C D . [lfp M R R' Q Q' : M(R, R', Q, Q')](A, B, C, D)",
      Db2(), options);
  const Diagnostic* d = Find(result, "LCDB004");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, DiagSeverity::kError);
}

TEST(AnalyzerTest, Lcdb004SilentWithoutARegionCount) {
  // Lint without an extension (num_regions = 0) can't bound the space.
  AnalyzerOptions options;
  options.max_tuple_space = 1;
  AnalysisResult result =
      Analyze("exists A B . [lfp M R R' : M(R, R')](A, B)", Db2(), options);
  EXPECT_FALSE(HasCode(result, "LCDB004"));
}

// ---------------------------------------------------------------------------
// LCDB005 — DTC determinism precondition (warning).

TEST(AnalyzerTest, Lcdb005UnpinnedDtcTargetWarns) {
  AnalysisResult result =
      Analyze("exists A B . [dtc R ; R' : adj(R, R')](A ; B)", Db2());
  const Diagnostic* d = Find(result, "LCDB005");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, DiagSeverity::kWarning);
  EXPECT_NE(d->message.find("R'"), std::string::npos);
}

TEST(AnalyzerTest, Lcdb005RegionEqualityPinsTheTarget) {
  AnalysisResult result = Analyze(
      "exists A B . [dtc R ; R' : adj(R, R') & R' = R](A ; B)", Db2());
  EXPECT_FALSE(HasCode(result, "LCDB005"));
}

TEST(AnalyzerTest, Lcdb005PlainTcIsExempt) {
  // TC follows every edge by definition; only DTC needs determinism.
  AnalysisResult result =
      Analyze("exists A B . [tc R ; R' : adj(R, R')](A ; B)", Db2());
  EXPECT_FALSE(HasCode(result, "LCDB005"));
}

// ---------------------------------------------------------------------------
// LCDB006 / LCDB007 — kernel-backed guard truth (warnings).

TEST(AnalyzerTest, Lcdb006VacuousGuardWarns) {
  const std::string text = "exists x . (S(x) & (x > 2 & x < 1))";
  AnalysisResult result = Analyze(text, Db1());
  const Diagnostic* d = Find(result, "LCDB006");
  ASSERT_NE(d, nullptr) << RenderDiagnostics(result.diagnostics, text);
  EXPECT_EQ(d->severity, DiagSeverity::kWarning);
  EXPECT_EQ(result.stats.guards_proved_unsat, 1u);
}

TEST(AnalyzerTest, Lcdb007TautologicalGuardWarns) {
  AnalysisResult result =
      Analyze("exists x . (S(x) & (x < 1 | x >= 1))", Db1());
  EXPECT_TRUE(HasCode(result, "LCDB007"));
  EXPECT_EQ(result.stats.guards_proved_tautology, 1u);
}

TEST(AnalyzerTest, GuardWithBothOutcomesPossibleIsClean) {
  AnalysisResult result = Analyze("exists x . (S(x) & x > 2)", Db1());
  EXPECT_FALSE(HasCode(result, "LCDB006"));
  EXPECT_FALSE(HasCode(result, "LCDB007"));
  EXPECT_EQ(result.stats.guards_classified, 1u);
}

TEST(AnalyzerTest, GuardClassificationCanBeDisabled) {
  AnalyzerOptions options;
  options.classify_guards = false;
  AnalysisResult result =
      Analyze("exists x . (S(x) & (x > 2 & x < 1))", Db1(), options);
  EXPECT_FALSE(HasCode(result, "LCDB006"));
  EXPECT_EQ(result.stats.guards_classified, 0u);
}

TEST(AnalyzerTest, OversizedGuardsAreSkippedNotSolved) {
  // (The vacuous guard above is no good here: DNF conjunction simplifies
  // it to an empty formula before the size check sees any atoms.)
  AnalyzerOptions options;
  options.guard.max_atoms = 0;
  AnalysisResult result =
      Analyze("exists x . (S(x) & (x < 1 | x >= 1))", Db1(), options);
  EXPECT_FALSE(HasCode(result, "LCDB007"));
  EXPECT_EQ(result.stats.guards_skipped_size, 1u);
  EXPECT_EQ(result.stats.guards_classified, 0u);
}

// ---------------------------------------------------------------------------
// LCDB008 — unused bound variables (warning).

TEST(AnalyzerTest, Lcdb008UnusedElementBinderWarns) {
  AnalysisResult result = Analyze("exists x y . (S(x) & x > 0)", Db1());
  const Diagnostic* d = Find(result, "LCDB008");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, DiagSeverity::kWarning);
  EXPECT_NE(d->message.find("'y'"), std::string::npos);
}

TEST(AnalyzerTest, Lcdb008UnusedRegionBinderWarns) {
  AnalysisResult result = Analyze("exists A B . subset(A)", Db2());
  const Diagnostic* d = Find(result, "LCDB008");
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->message.find("'B'"), std::string::npos);
}

TEST(AnalyzerTest, Lcdb008UsedBindersAreClean) {
  AnalysisResult result = Analyze("exists x y . S(x, y)", Db2());
  EXPECT_FALSE(HasCode(result, "LCDB008"));
}

// ---------------------------------------------------------------------------
// LCDB009 — fixpoint body independent of its set variable (warning).

TEST(AnalyzerTest, Lcdb009ConstantFixpointBodyWarns) {
  AnalysisResult result =
      Analyze("exists A . [lfp M R : subset(R)](A)", Db2());
  const Diagnostic* d = Find(result, "LCDB009");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, DiagSeverity::kWarning);
}

TEST(AnalyzerTest, Lcdb009BodyUsingTheSetVariableIsClean) {
  AnalysisResult result =
      Analyze("exists A . [lfp M R : M(R) | subset(R)](A)", Db2());
  EXPECT_FALSE(HasCode(result, "LCDB009"));
}

// ---------------------------------------------------------------------------
// LCDB010 — TC applied to identical tuples (note).

TEST(AnalyzerTest, Lcdb010ReflexiveTcApplicationIsANote) {
  AnalysisResult result =
      Analyze("exists A . [tc R ; R' : adj(R, R')](A ; A)", Db2());
  const Diagnostic* d = Find(result, "LCDB010");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, DiagSeverity::kNote);
}

TEST(AnalyzerTest, Lcdb010DistinctTuplesAreClean) {
  AnalysisResult result =
      Analyze("exists A B . [tc R ; R' : adj(R, R')](A ; B)", Db2());
  EXPECT_FALSE(HasCode(result, "LCDB010"));
}

// ---------------------------------------------------------------------------
// LCDB900 / LCDB901 — lint front-end wrapping of parse/typecheck failures.

TEST(LintTest, Lcdb900ParseFailure) {
  LintReport report = LintQueryText("not a valid query ((((", Db1());
  EXPECT_FALSE(report.parse_ok);
  EXPECT_TRUE(report.has_errors());
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_EQ(report.diagnostics[0].code, "LCDB900");
}

TEST(LintTest, Lcdb901TypecheckFailure) {
  LintReport report = LintQueryText("subset(R)", Db1());
  EXPECT_TRUE(report.parse_ok);
  EXPECT_FALSE(report.typecheck_ok);
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_EQ(report.diagnostics[0].code, "LCDB901");
  EXPECT_NE(report.diagnostics[0].message.find("free region variable"),
            std::string::npos);
}

TEST(LintTest, CleanQueryReportsNothing) {
  LintReport report = LintQueryText("exists x . (S(x) & x > 2)", Db1());
  EXPECT_TRUE(report.parse_ok);
  EXPECT_TRUE(report.typecheck_ok);
  EXPECT_FALSE(report.has_errors());
  EXPECT_TRUE(report.diagnostics.empty());
}

// ---------------------------------------------------------------------------
// Rendering and JSON.

TEST(DiagnosticsTest, CaretRenderingPointsAtTheSpan) {
  const std::string text = "exists A . [lfp M R : !(M(R))](A)";
  AnalysisResult result = Analyze(text, Db2());
  std::string rendered = RenderDiagnostics(result.diagnostics, text);
  EXPECT_NE(rendered.find("error[LCDB001]"), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("--> offset"), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("^^^^"), std::string::npos) << rendered;
  EXPECT_NE(rendered.find(text), std::string::npos) << rendered;
}

TEST(DiagnosticsTest, JsonShape) {
  const std::string text = "exists A . [lfp M R : !(M(R))](A)";
  AnalysisResult result = Analyze(text, Db2());
  std::string json = DiagnosticsToJson(result.diagnostics);
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
  EXPECT_NE(json.find("\"code\":\"LCDB001\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"severity\":\"error\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"begin\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"fix\":"), std::string::npos) << json;
}

TEST(DiagnosticsTest, EmptyListIsAnEmptyJsonArray) {
  EXPECT_EQ(DiagnosticsToJson({}), "[]");
}

// Golden: the exact serialized `--lint=json` object for a deterministic
// LCDB006 lint — key set, key order, span offsets and fix note. Tooling
// parses this stream; any schema change must be deliberate and show up
// here.
TEST(DiagnosticsTest, JsonGoldenKeySet) {
  const std::string text = "exists x . (S(x) & (x > 2 & x < 1))";
  LintReport report = LintQueryText(text, Db1());
  ASSERT_TRUE(report.parse_ok && report.typecheck_ok);
  EXPECT_EQ(
      DiagnosticsToJson(report.diagnostics),
      "[{\"code\":\"LCDB006\",\"severity\":\"warning\",\"message\":"
      "\"subquery is provably unsatisfiable (vacuous)\",\"begin\":20,"
      "\"end\":33,\"fix\":\"this branch contributes nothing; remove it or "
      "fix the bounds\"}]");
}

// --lint output is deduplicated and stable: one diagnostic per distinct
// (code, span, message), identical output on repeated runs, and textually
// identical guards at *different* spans are never over-merged.
TEST(DiagnosticsTest, LintOutputIsStableAndMinimal) {
  const std::string text =
      "exists x . (S(x) & (x > 2 & x < 1) & (x > 2 & x < 1))";
  LintReport first = LintQueryText(text, Db1());
  LintReport second = LintQueryText(text, Db1());
  EXPECT_EQ(DiagnosticsToJson(first.diagnostics),
            DiagnosticsToJson(second.diagnostics));
  std::vector<std::tuple<std::string, size_t, size_t, std::string>> keys;
  size_t vacuous = 0;
  for (const Diagnostic& d : first.diagnostics) {
    keys.emplace_back(d.code, d.span.begin, d.span.end, d.message);
    if (d.code == "LCDB006") ++vacuous;
  }
  std::vector<std::tuple<std::string, size_t, size_t, std::string>> unique =
      keys;
  std::sort(unique.begin(), unique.end());
  unique.erase(std::unique(unique.begin(), unique.end()), unique.end());
  EXPECT_EQ(keys.size(), unique.size())
      << "duplicate diagnostics in: " << DiagnosticsToJson(first.diagnostics);
  // The two guards sit at distinct source spans: both must survive.
  EXPECT_EQ(vacuous, 2u) << DiagnosticsToJson(first.diagnostics);
  EXPECT_EQ(first.stats.warnings,
            static_cast<uint64_t>(first.stats.diagnostics))
      << "stats must be recounted after deduplication";
}

// ---------------------------------------------------------------------------
// Evaluate integration: analyzer errors become clean kInvalidArgument
// statuses with caret-rendered diagnostics, before any engine work.

TEST(AnalyzerIntegrationTest, EvaluateRejectsNonPositiveLfpWithCarets) {
  auto ext = MakeArrangementExtension(Db2());
  auto result =
      EvaluateSentenceText(*ext, "exists A . [lfp M R : !(M(R))](A)");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  const std::string message = result.status().ToString();
  EXPECT_NE(message.find("LCDB001"), std::string::npos) << message;
  EXPECT_NE(message.find('^'), std::string::npos) << message;
}

TEST(AnalyzerIntegrationTest, WarningsDoNotBlockEvaluation) {
  auto ext = MakeArrangementExtension(Db1());
  // Vacuous guard (LCDB006) is advisory; the query still evaluates.
  auto result =
      EvaluateSentenceText(*ext, "exists x . (S(x) & (x > 2 & x < 1))");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(*result);
}

TEST(AnalyzerIntegrationTest, StatsFlowIntoTheMetricsRegistry) {
  auto ext = MakeArrangementExtension(Db1());
  Evaluator evaluator(*ext);
  auto parsed = ParseQuery("exists x . (S(x) & (x > 2 & x < 1))", "S");
  ASSERT_TRUE(parsed.ok());
  ASSERT_TRUE(evaluator.Evaluate(**parsed).ok());
  const auto values = evaluator.stats().ToMetrics().values;
  ASSERT_TRUE(values.count("analysis.queries_analyzed"));
  EXPECT_GE(values.at("analysis.queries_analyzed"), 1u);
  ASSERT_TRUE(values.count("analysis.warnings"));
  EXPECT_GE(values.at("analysis.warnings"), 1u);
  EXPECT_GE(values.at("analysis.guards_proved_unsat"), 1u);
}

// ---------------------------------------------------------------------------
// Tier-2 plan-cost pass (analysis/plan_cost.h).

TEST(PlanCostTest, PlanCostStatsExported) {
  // The tier-2 pass runs on every optimized compile; its aggregates land
  // in stats and the plan.cost.* metrics family.
  ConstraintDatabase db = MakeComb(2, true);
  auto ext = MakeArrangementExtension(db);
  auto query = ParseQuery(RegionConnQueryText(), db.relation_name());
  ASSERT_TRUE(query.ok());
  Evaluator evaluator(*ext);
  ASSERT_TRUE(evaluator.Evaluate(**query).ok());
  EXPECT_GT(evaluator.stats().plan_cost.nodes, 0u);
  EXPECT_GT(evaluator.stats().plan_cost.total_bigint_ops, 0u);
  EXPECT_NE(evaluator.stats().ToJson().find("\"plan.cost.nodes\":"),
            std::string::npos);

  // Explain carries the cost column and footer.
  auto explain = evaluator.Explain(**query);
  ASSERT_TRUE(explain.ok());
  EXPECT_NE(explain->find("| est: calls="), std::string::npos);
  EXPECT_NE(explain->find("-- cost: nodes="), std::string::npos);
}

TEST(PlanCostTest, ExplainRefreshesPlanCost) {
  // Explain runs the same compile phases as Evaluate, cost pass included,
  // so stats().plan_cost describes its own query — never the previous
  // compile's.
  ConstraintDatabase db = MakeComb(2, true);
  auto ext = MakeArrangementExtension(db);
  auto big = ParseQuery(RegionConnQueryText(), db.relation_name());
  auto small = ParseQuery("exists R . subset(R)", db.relation_name());
  ASSERT_TRUE(big.ok() && small.ok());
  Evaluator reference(*ext);
  ASSERT_TRUE(reference.Evaluate(**small).ok());
  const PlanCostStats expected = reference.stats().plan_cost;

  Evaluator evaluator(*ext);
  ASSERT_TRUE(evaluator.Evaluate(**big).ok());
  ASSERT_NE(evaluator.stats().plan_cost.nodes, expected.nodes);
  ASSERT_TRUE(evaluator.Explain(**small).ok());
  EXPECT_EQ(evaluator.stats().plan_cost.nodes, expected.nodes);
  EXPECT_EQ(evaluator.stats().plan_cost.total_bigint_ops,
            expected.total_bigint_ops);
}

TEST(PlanCostTest, BudgetWarningPricesRelationsByWordCount) {
  constexpr char kCostWarning[] = "warning[LCDB004]: estimated execution cost";
  ConstraintDatabase db = MakeComb(2, true);
  auto ext = MakeArrangementExtension(db);
  // RegionConn's fixpoint body runs set-at-a-time: priced once per stage
  // at its relations' word counts, it fits the default budget.
  auto region_conn = ParseQuery(RegionConnQueryText(), db.relation_name());
  ASSERT_TRUE(region_conn.ok());
  Evaluator evaluator(*ext);
  auto explained = evaluator.Explain(**region_conn);
  ASSERT_TRUE(explained.ok()) << explained.status().ToString();
  EXPECT_EQ(explained->find(kCostWarning), std::string::npos) << *explained;
  EXPECT_EQ(evaluator.stats().plan_cost.warnings,
            evaluator.stats().plan_cost.dead_caches);

  // The literal Conn adds element quantifiers and region expansions, priced
  // one binding at a time; over a small tuple-space budget it still draws
  // the warning.
  auto literal = ParseQuery(ConnQueryText(2), db.relation_name());
  ASSERT_TRUE(literal.ok());
  Evaluator::Options tight;
  tight.max_tuple_space = 1u << 12;  // just above comb(2)'s 63^2 pairs
  Evaluator budgeted(*ext, tight);
  auto expensive = budgeted.Explain(**literal);
  ASSERT_TRUE(expensive.ok()) << expensive.status().ToString();
  EXPECT_NE(expensive->find(kCostWarning), std::string::npos) << *expensive;
}

// ---------------------------------------------------------------------------
// Corpus sweep: every query the repo actually evaluates must be free of
// analyzer *errors* (warnings and notes are allowed — e.g. the DTC variant
// of the connectivity query legitimately draws LCDB005).

void ExpectNoAnalyzerErrors(const std::string& text,
                            const ConstraintDatabase& db,
                            const std::string& origin) {
  LintReport report = LintQueryText(text, db);
  if (!report.parse_ok || !report.typecheck_ok) return;  // not our corpus
  EXPECT_EQ(report.stats.errors, 0u)
      << origin << ": " << text << "\n"
      << RenderDiagnostics(report.diagnostics, text);
}

TEST(AnalyzerCorpusTest, CannedQueriesOverDataFilesHaveNoErrors) {
  const std::vector<std::string> files = {
      "comb.lcdb", "intervals.lcdb", "pentagon.lcdb", "triangle.lcdb",
      "wedge.lcdb"};
  for (const std::string& name : files) {
    auto db =
        LoadDatabaseFromFile(std::string(LCDB_TEST_DATA_DIR) + "/" + name);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    const std::vector<std::string> queries = {
        RegionConnQueryText(),
        RegionConnTcQueryText(false),
        RegionConnTcQueryText(true),
        ConnQueryText(db->arity()),
        RiverPollutionQueryText(),
    };
    for (const std::string& query : queries) {
      ExpectNoAnalyzerErrors(query, *db, name);
    }
  }
}

TEST(AnalyzerCorpusTest, SmokeScriptQueriesHaveNoErrors) {
  // The lcdbsh smoke script's `query`/`explain` lines must evaluate, so
  // none of them may trip an analyzer error. (Its `lint` lines demonstrate
  // errors on purpose and are excluded.) The script's `db` command defines
  // an arity-1 relation S, which is what we lint against.
  std::ifstream smoke(std::string(LCDB_TEST_SOURCE_DIR) +
                      "/tests/lcdbsh_smoke.txt");
  ASSERT_TRUE(smoke.good());
  size_t checked = 0;
  std::string line;
  while (std::getline(smoke, line)) {
    std::string text;
    if (line.rfind("query ", 0) == 0) {
      text = line.substr(6);
    } else if (line.rfind("explain analyze ", 0) == 0) {
      text = line.substr(16);
    } else if (line.rfind("explain ", 0) == 0) {
      text = line.substr(8);
    } else {
      continue;
    }
    LintReport report = LintQueryText(text, Db1());
    if (!report.parse_ok || !report.typecheck_ok) continue;  // pathological
    ++checked;
    EXPECT_EQ(report.stats.errors, 0u)
        << text << "\n" << RenderDiagnostics(report.diagnostics, text);
  }
  EXPECT_GE(checked, 5u);  // the script evaluates at least this many
}

}  // namespace
}  // namespace lcdb
