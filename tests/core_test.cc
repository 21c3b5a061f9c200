#include <gtest/gtest.h>

#include "constraint/parser.h"
#include "constraint/simplify.h"
#include "core/evaluator.h"
#include "core/parser.h"
#include "core/queries.h"
#include "core/typecheck.h"
#include "db/workloads.h"

namespace lcdb {
namespace {

ConstraintDatabase Db1(const std::string& formula) {
  auto f = ParseDnf(formula, {"x"});
  EXPECT_TRUE(f.ok()) << f.status().ToString();
  return ConstraintDatabase("S", *f, {"x"});
}

ConstraintDatabase Db2(const std::string& formula) {
  auto f = ParseDnf(formula, {"x", "y"});
  EXPECT_TRUE(f.ok()) << f.status().ToString();
  return ConstraintDatabase("S", *f, {"x", "y"});
}

FormulaPtr Parse(const std::string& text, const std::string& relation = "S") {
  auto r = ParseQuery(text, relation);
  EXPECT_TRUE(r.ok()) << r.status().ToString() << " for: " << text;
  return r.ok() ? std::move(*r) : MakeFalse();
}

bool Sentence(const ConstraintDatabase& db, const std::string& text) {
  auto ext = MakeArrangementExtension(db);
  auto result = EvaluateSentenceText(*ext, text);
  EXPECT_TRUE(result.ok()) << result.status().ToString() << " for: " << text;
  return result.ok() && *result;
}

TEST(QueryParserTest, RoundTripToString) {
  for (const char* text : {
           "S(x, y)",
           "exists x . S(x, x + 1)",
           "forall x y . (S(x, y) -> x <= y)",
           "exists R . (subset(R) & dim(R) = 1)",
           "adj(R1, R2) | R1 = R2",
           "in(x, 2y + 1; R)",
           "[lfp M R R' : (R = R' & subset(R)) | (exists Z . (M(R, Z) & "
           "adj(Z, R') & subset(R')))](Rx, Ry)",
           "[tc R ; R' : adj(R, R')](A ; B)",
           "[rbit x : x = 5/3](Rn, Rd)",
       }) {
    FormulaPtr f = Parse(text);
    // Reparse the printed form; printing again must be a fixed point.
    FormulaPtr g = Parse(f->ToString());
    EXPECT_EQ(f->ToString(), g->ToString()) << text;
  }
}

TEST(QueryParserTest, SyntaxErrors) {
  const std::string r = "S";
  EXPECT_FALSE(ParseQuery("", r).ok());
  EXPECT_FALSE(ParseQuery("S(x", r).ok());
  EXPECT_FALSE(ParseQuery("exists . S(x)", r).ok());
  EXPECT_FALSE(ParseQuery("exists x y S(x, y)", r).ok());  // missing '.'
  EXPECT_FALSE(ParseQuery("x <", r).ok());
  EXPECT_FALSE(ParseQuery("[lfp M : true](R)", r).ok());
  EXPECT_FALSE(ParseQuery("[tc R : adj(R, R)](A ; B)", r).ok());
  EXPECT_FALSE(ParseQuery("unknownpred(x)", r).ok());
  EXPECT_FALSE(ParseQuery("S(x) extra", r).ok());
  EXPECT_FALSE(ParseQuery("x + * 3 < 1", r).ok());
  EXPECT_FALSE(ParseQuery("R = x", r).ok());
}

TEST(TypeCheckTest, RejectsIllFormedQueries) {
  ConstraintDatabase db = Db2("x >= 0 & y >= 0");
  auto check = [&](const std::string& text) {
    auto q = ParseQuery(text, "S");
    EXPECT_TRUE(q.ok()) << text;
    return TypeCheck(**q, db).status();
  };
  // Free region variable.
  EXPECT_FALSE(check("subset(R)").ok());
  // Relation arity mismatch.
  EXPECT_FALSE(check("exists x . S(x)").ok());
  // Unknown relation.
  {
    auto q = ParseQuery("exists x y . T(x, y)", "T");
    ASSERT_TRUE(q.ok());
    EXPECT_FALSE(TypeCheck(**q, db).ok());
  }
  // Unbound set variable.
  EXPECT_FALSE(check("exists R Z . M(R, Z)").ok());
  // LFP body not positive in M: typechecks (scoping and sorts are fine) but
  // the static analyzer rejects it before evaluation (LCDB001; see
  // analysis_test.cc). Evaluate surfaces it as kInvalidArgument.
  EXPECT_TRUE(check("exists A B . [lfp M R R' : !(M(R, R'))](A, B)").ok());
  {
    auto ext = MakeArrangementExtension(db);
    auto r = EvaluateSentenceText(*ext,
                                  "exists A B . [lfp M R R' : !(M(R, R'))]"
                                  "(A, B)");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(r.status().message().find("LCDB001"), std::string::npos);
  }
  // LFP body with a free element variable.
  EXPECT_FALSE(check("exists x A B . [lfp M R R' : M(R, R') | x > 0](A, B)")
                   .ok());
  // LFP body using an outer region variable.
  EXPECT_FALSE(
      check("exists Q A B . [lfp M R R' : M(R, R') | adj(R, Q)](A, B)").ok());
  // TC body with element variable.
  EXPECT_FALSE(
      check("exists x A B . [tc R ; R' : adj(R, R') & x = x](A ; B)").ok());
  // Set arity mismatch.
  EXPECT_FALSE(
      check("exists A . [lfp M R R' : M(R, R) | M(R, R', R)](A, A)").ok());
  // Shadowing.
  EXPECT_FALSE(check("exists x . exists x . S(x, x)").ok());
  // rBIT body with an extra free element variable.
  EXPECT_FALSE(
      check("exists y A B . [rbit x : x = y](A, B) & y = y").ok());
  // Positive queries pass.
  EXPECT_TRUE(check("exists x y . S(x, y)").ok());
  EXPECT_TRUE(check(ConnQueryText(2)).ok());
  EXPECT_TRUE(check(RegionConnQueryText()).ok());
}

TEST(TypeCheckTest, PositivityAnalysis) {
  auto positive = [](const std::string& text) {
    auto q = ParseQuery(text, "S");
    EXPECT_TRUE(q.ok());
    // The parsed fixpoint body is children[0] of the LFP node under the
    // two exists-quantifier wrappers; instead test IsPositiveIn directly on
    // the whole formula.
    return IsPositiveIn(**q, "M");
  };
  EXPECT_TRUE(positive("M(R, R)"));
  EXPECT_FALSE(positive("!(M(R, R))"));
  EXPECT_TRUE(positive("!(!(M(R, R)))"));
  EXPECT_FALSE(positive("M(R, R) -> adj(R, R)"));
  EXPECT_TRUE(positive("adj(R, R) -> M(R, R)"));
  EXPECT_FALSE(positive("M(R, R) <-> adj(R, R)"));
  EXPECT_TRUE(positive("N(R) <-> adj(R, R)"));  // other set variables free
  EXPECT_TRUE(positive("exists Z . (M(R, Z) & adj(Z, R))"));
}

TEST(RegFoTest, BooleanSentences1D) {
  ConstraintDatabase db = Db1("(x > 0 & x < 1) | x = 5");
  EXPECT_TRUE(Sentence(db, "exists x . S(x)"));
  EXPECT_TRUE(Sentence(db, "exists x . (S(x) & x > 2)"));
  EXPECT_FALSE(Sentence(db, "exists x . (S(x) & x > 6)"));
  EXPECT_TRUE(Sentence(db, "forall x . (S(x) -> x > 0)"));
  EXPECT_FALSE(Sentence(db, "forall x . (S(x) -> x < 3)"));
  EXPECT_TRUE(Sentence(db, "forall x . (x > 0 & x < 1 -> S(x))"));
}

TEST(RegFoTest, RegionSentences) {
  // Closed triangle: regions of dims 0,1,2 inside S.
  ConstraintDatabase db = Db2("x >= 0 & y >= 0 & x + y <= 4");
  EXPECT_TRUE(Sentence(db, "exists R . (subset(R) & dim(R) = 2)"));
  EXPECT_TRUE(Sentence(db, "exists R . (subset(R) & dim(R) = 0)"));
  EXPECT_TRUE(Sentence(db, "forall R . (subset(R) -> bounded(R))"));
  EXPECT_FALSE(Sentence(db, "forall R . bounded(R)"));
  EXPECT_TRUE(Sentence(db, "exists R R' . (subset(R) & subset(R') & "
                           "adj(R, R') & dim(R) = 0 & dim(R') = 1)"));
  // Every point of S lies in a region contained in S.
  EXPECT_TRUE(Sentence(
      db, "forall x y . (S(x, y) -> exists R . (in(x, y; R) & subset(R)))"));
  // The containment relation is functional on arrangements.
  EXPECT_TRUE(Sentence(db, "forall x y . exists R . in(x, y; R)"));
  EXPECT_FALSE(Sentence(
      db,
      "exists x y R R' . (in(x, y; R) & in(x, y; R') & !(R = R'))"));
}

TEST(RegFoTest, NonBooleanAnswers) {
  ConstraintDatabase db = Db1("(x > 0 & x < 1) | (x > 2 & x < 3)");
  auto ext = MakeArrangementExtension(db);
  // Identity query returns (a representation of) S itself.
  auto identity = EvaluateQueryText(*ext, "S(x)");
  ASSERT_TRUE(identity.ok()) << identity.status().ToString();
  EXPECT_EQ(identity->free_vars, std::vector<std::string>{"x"});
  EXPECT_TRUE(AreEquivalent(identity->formula, db.representation()));
  // Shift: exists y (S(y) & x = y + 1)  ==  (1,2) | (3,4).
  auto shifted = EvaluateQueryText(*ext, "exists y . (S(y) & x = y + 1)");
  ASSERT_TRUE(shifted.ok()) << shifted.status().ToString();
  auto expected = ParseDnf("(x > 1 & x < 2) | (x > 3 & x < 4)", {"x"});
  ASSERT_TRUE(expected.ok());
  EXPECT_TRUE(AreEquivalent(shifted->formula, *expected));
  // Downward closure: exists y (S(y) & x < y)  ==  x < 3.
  auto below = EvaluateQueryText(*ext, "exists y . (S(y) & x < y)");
  ASSERT_TRUE(below.ok());
  auto expected2 = ParseDnf("x < 3", {"x"});
  EXPECT_TRUE(AreEquivalent(below->formula, *expected2));
  // A region-flavoured non-boolean query: points in 1-dimensional regions
  // contained in S (the open intervals).
  auto open_part = EvaluateQueryText(
      *ext, "exists R . (in(x; R) & subset(R) & dim(R) = 1)");
  ASSERT_TRUE(open_part.ok());
  EXPECT_TRUE(AreEquivalent(open_part->formula, db.representation()));
}

TEST(RegFoTest, TwoVariableAnswer) {
  ConstraintDatabase db = Db2("x >= 0 & y >= 0 & x + y <= 4");
  auto ext = MakeArrangementExtension(db);
  auto r = EvaluateQueryText(*ext, "S(x, y) & x = y");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->free_vars.size(), 2u);
  auto expected = ParseDnf("x >= 0 & y >= 0 & x + y <= 4 & x = y",
                           {"x", "y"});
  EXPECT_TRUE(AreEquivalent(r->formula, *expected));
}

TEST(RegLfpTest, PaperConnQuery1D) {
  // Connected: one interval (two overlapping disjunct representations).
  ConstraintDatabase connected = Db1("(x >= 0 & x <= 2) | (x >= 1 & x <= 3)");
  EXPECT_TRUE(Sentence(connected, ConnQueryText(1)));
  // Disconnected: two separated intervals.
  ConstraintDatabase split = Db1("(x >= 0 & x <= 1) | (x >= 2 & x <= 3)");
  EXPECT_FALSE(Sentence(split, ConnQueryText(1)));
  // Touching intervals are connected (shared endpoint region).
  ConstraintDatabase touching = Db1("(x >= 0 & x <= 1) | (x >= 1 & x <= 2)");
  EXPECT_TRUE(Sentence(touching, ConnQueryText(1)));
  // Half-open gap: (0,1) and [1,2] touch at 1 but 1 is only in the second.
  ConstraintDatabase half = Db1("(x > 0 & x < 1) | (x > 1 & x < 2)");
  EXPECT_FALSE(Sentence(half, ConnQueryText(1)));
}

TEST(RegLfpTest, RegionConnOnCombs) {
  for (size_t teeth : {1u, 2u, 3u}) {
    ConstraintDatabase connected = MakeComb(teeth, true);
    ConstraintDatabase split = MakeComb(teeth, false);
    EXPECT_TRUE(Sentence(connected, RegionConnQueryText())) << teeth;
    EXPECT_EQ(Sentence(split, RegionConnQueryText()), teeth == 1) << teeth;
  }
  EXPECT_TRUE(Sentence(MakeStaircase(3), RegionConnQueryText()));
  EXPECT_FALSE(Sentence(MakeBoxGrid(2), RegionConnQueryText()));
}

TEST(RegLfpTest, PaperConnQuery2D) {
  // The literal point-quantified Conn on a small 2D instance.
  ConstraintDatabase two_boxes =
      Db2("(x >= 0 & x <= 1 & y >= 0 & y <= 1) | "
          "(x >= 3 & x <= 4 & y >= 0 & y <= 1)");
  EXPECT_FALSE(Sentence(two_boxes, ConnQueryText(2)));
  ConstraintDatabase one_box = Db2("x >= 0 & x <= 1 & y >= 0 & y <= 1");
  EXPECT_TRUE(Sentence(one_box, ConnQueryText(2)));
}

TEST(RegLfpTest, LfpEqualsIfpOnPositiveBody) {
  ConstraintDatabase db = MakeComb(2, true);
  auto ext = MakeArrangementExtension(db);
  const std::string lfp = RegionConnQueryText();
  std::string ifp = lfp;
  ifp.replace(ifp.find("[lfp"), 4, "[ifp");
  auto a = EvaluateSentenceText(*ext, lfp);
  auto b = EvaluateSentenceText(*ext, ifp);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(*a, *b);
}

TEST(RegPfpTest, ConvergentAndDivergent) {
  ConstraintDatabase db = Db1("x >= 0 & x <= 1");
  // Convergent PFP (monotone body): behaves like LFP.
  EXPECT_TRUE(Sentence(db,
                       "exists A . [pfp M R : M(R) | subset(R)](A)"));
  // Divergent PFP: complementation flips every stage, never a fixpoint;
  // the result is the empty set.
  EXPECT_FALSE(Sentence(db, "exists A . [pfp M R : !(M(R))](A)"));
}

TEST(RegTcTest, TcMatchesLfpConnectivity) {
  for (bool connected : {true, false}) {
    ConstraintDatabase db = MakeComb(2, connected);
    auto ext = MakeArrangementExtension(db);
    auto via_lfp = EvaluateSentenceText(*ext, RegionConnQueryText());
    auto via_tc = EvaluateSentenceText(*ext, RegionConnTcQueryText(false));
    ASSERT_TRUE(via_lfp.ok() && via_tc.ok());
    EXPECT_EQ(*via_lfp, *via_tc);
    EXPECT_EQ(*via_tc, connected);
  }
}

TEST(RegTcTest, TcReflexive) {
  ConstraintDatabase db = Db1("x = 0");
  // Even with an empty edge relation, X reaches itself (length-1 sequence).
  EXPECT_TRUE(Sentence(db, "forall X . [tc R ; R' : false](X ; X)"));
  EXPECT_FALSE(
      Sentence(db, "exists X Y . (!(X = Y) & [tc R ; R' : false](X ; Y))"));
}

TEST(RegTcTest, DtcRequiresUniqueSuccessor) {
  // S = [0, 1]: the open interval (0, 1) has TWO adjacent in-S endpoint
  // vertices, so the in-S adjacency step from the 1-dimensional region is
  // not deterministic — TC reaches a vertex from it, DTC does not.
  ConstraintDatabase db = Db1("x >= 0 & x <= 1");
  auto ext = MakeArrangementExtension(db);
  auto tc = EvaluateSentenceText(
      *ext,
      "exists X Y . (dim(X) = 1 & subset(X) & dim(Y) = 0 & subset(Y) & "
      "[tc R ; R' : subset(R) & subset(R') & adj(R, R')](X ; Y))");
  ASSERT_TRUE(tc.ok()) << tc.status().ToString();
  EXPECT_TRUE(*tc);
  auto dtc = EvaluateSentenceText(
      *ext,
      "exists X Y . (dim(X) = 1 & subset(X) & dim(Y) = 0 & subset(Y) & "
      "[dtc R ; R' : subset(R) & subset(R') & adj(R, R')](X ; Y))");
  ASSERT_TRUE(dtc.ok());
  EXPECT_FALSE(*dtc);
  // From a vertex, the in-S successor IS unique, so DTC reaches the
  // interval in the opposite direction.
  auto dtc_rev = EvaluateSentenceText(
      *ext,
      "exists X Y . (dim(X) = 0 & subset(X) & dim(Y) = 1 & subset(Y) & "
      "[dtc R ; R' : subset(R) & subset(R') & adj(R, R')](X ; Y))");
  ASSERT_TRUE(dtc_rev.ok());
  EXPECT_TRUE(*dtc_rev);
}

TEST(RbitTest, BitsOfFiveThirds) {
  // 0-dim regions at x = 1, 2, 3: ranks 0, 1, 2.
  ConstraintDatabase db = Db1("x = 1 | x = 2 | x = 3");
  auto ext = MakeArrangementExtension(db);
  // a = 5/3: numerator 5 = 101b (bits 0 and 2), denominator 3 = 11b
  // (bits 0 and 1).
  auto probe = [&](int64_t pn, int64_t pd) {
    std::string q = "exists Rn Rd . (in(" + std::to_string(pn) +
                    "; Rn) & in(" + std::to_string(pd) +
                    "; Rd) & [rbit x : x = 5/3](Rn, Rd))";
    auto r = EvaluateSentenceText(*ext, q);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() && *r;
  };
  EXPECT_TRUE(probe(1, 1));   // bit0 num, bit0 den
  EXPECT_TRUE(probe(1, 2));   // bit0 num, bit1 den
  EXPECT_TRUE(probe(3, 1));   // bit2 num, bit0 den
  EXPECT_FALSE(probe(2, 1));  // bit1 of 5 is 0
  EXPECT_FALSE(probe(1, 3));  // bit2 of 3 is 0
  EXPECT_FALSE(probe(3, 3));
}

TEST(RbitTest, ZeroAndNonSingletonCases) {
  ConstraintDatabase db = Db1("(x >= 0 & x <= 1) | x = 4");
  auto ext = MakeArrangementExtension(db);
  // a = 0: pairs (R, R) of equal higher-dimensional regions.
  auto zero_eq = EvaluateSentenceText(
      *ext, "exists R . (dim(R) = 1 & [rbit x : x = 0](R, R))");
  ASSERT_TRUE(zero_eq.ok());
  EXPECT_TRUE(*zero_eq);
  auto zero_point = EvaluateSentenceText(
      *ext, "exists R . (dim(R) = 0 & [rbit x : x = 0](R, R))");
  ASSERT_TRUE(zero_point.ok());
  EXPECT_FALSE(*zero_point);
  auto zero_neq = EvaluateSentenceText(
      *ext,
      "exists R R' . (!(R = R') & [rbit x : x = 0](R, R'))");
  ASSERT_TRUE(zero_neq.ok());
  EXPECT_FALSE(*zero_neq);
  // Non-singleton body: empty relation.
  auto interval = EvaluateSentenceText(
      *ext, "exists R R' . [rbit x : x > 0](R, R')");
  ASSERT_TRUE(interval.ok());
  EXPECT_FALSE(*interval);
  auto empty = EvaluateSentenceText(
      *ext, "exists R R' . [rbit x : x > 0 & x < 0](R, R')");
  ASSERT_TRUE(empty.ok());
  EXPECT_FALSE(*empty);
  // Region-parameterized body: a is the rank-dependent... the body may use
  // the applied regions themselves (P̄ parameters of Definition 5.1).
  auto param = EvaluateSentenceText(
      *ext,
      "exists R R' . (dim(R) = 0 & in(4; R) & [rbit x : in(x; R)](R, R'))");
  ASSERT_TRUE(param.ok());
  // Body defines {4}; numerator 4 = 100b, so bit must be at rank 2 — but
  // there are only ranks 0 and 1 (points 0, 1, 4 => ranks 0,1,2). Rank of
  // the region containing 4 is 2, and bit 2 of 4 is 1; denominator 1 has
  // bit 0 at rank 0. So some pair exists.
  EXPECT_TRUE(*param);
}

TEST(EvaluatorTest, MemoizationAblationAgrees) {
  ConstraintDatabase db = MakeComb(2, true);
  auto ext = MakeArrangementExtension(db);
  Evaluator::Options with_memo;
  Evaluator::Options without_memo;
  without_memo.memoize = false;
  auto a = EvaluateSentenceText(*ext, RegionConnQueryText(), with_memo);
  auto b = EvaluateSentenceText(*ext, RegionConnQueryText(), without_memo);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(*a, *b);
}

TEST(EvaluatorTest, StatsPopulated) {
  ConstraintDatabase db = MakeComb(2, true);
  auto ext = MakeArrangementExtension(db);
  FormulaPtr q = Parse(RegionConnQueryText());
  Evaluator ev(*ext);
  auto r = ev.EvaluateSentence(*q);
  ASSERT_TRUE(r.ok());
  // RegionConn is region-pure: it runs set-at-a-time, with no leaf left
  // for per-binding boolean evaluation.
  EXPECT_GT(ev.stats().relation_word_ops, 0u);
  EXPECT_EQ(ev.stats().bool_evaluations, 0u);
  EXPECT_GT(ev.stats().fixpoint_iterations, 0u);
  EXPECT_EQ(ev.stats().fixpoints_computed, 1u);
  EXPECT_GT(ev.stats().region_expansions, 0u);
  // A query whose per-region subformula is re-evaluated across an outer
  // region quantifier exercises the memo table.
  FormulaPtr q2 = Parse(
      "forall R R' . ((exists x . in(x, x; R)) | adj(R, R') | true)");
  Evaluator ev2(*ext);
  auto r2 = ev2.EvaluateSentence(*q2);
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(*r2);
  EXPECT_GT(ev2.stats().memo_hits, 0u);
  EXPECT_GT(ev2.stats().qe_eliminations, 0u);
}

TEST(EvaluatorTest, DecompositionExtensionQueries) {
  // Region-level queries work over the Section 7 decomposition as well.
  ConstraintDatabase two_boxes =
      Db2("(x >= 0 & x <= 1 & y >= 0 & y <= 1) | "
          "(x >= 3 & x <= 4 & y >= 0 & y <= 1)");
  auto ext = MakeDecompositionExtension(two_boxes);
  auto conn = EvaluateSentenceText(*ext, RegionConnQueryText());
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();
  EXPECT_FALSE(*conn);
  ConstraintDatabase one_box = Db2("x >= 0 & x <= 1 & y >= 0 & y <= 1");
  auto ext2 = MakeDecompositionExtension(one_box);
  auto conn2 = EvaluateSentenceText(*ext2, RegionConnQueryText());
  ASSERT_TRUE(conn2.ok());
  EXPECT_TRUE(*conn2);
  // Note 7.1: decomposition regions need not cover R^d — points outside S
  // are in no region.
  auto covered = EvaluateSentenceText(
      *ext2, "forall x y . exists R . in(x, y; R)");
  ASSERT_TRUE(covered.ok());
  EXPECT_FALSE(*covered);
  // But every point of S is in at least one region (Appendix A).
  auto covers_s = EvaluateSentenceText(
      *ext2, "forall x y . (S(x, y) -> exists R . in(x, y; R))");
  ASSERT_TRUE(covers_s.ok());
  EXPECT_TRUE(*covers_s);
}

TEST(EvaluatorTest, EmptyDatabase) {
  ConstraintDatabase db("S", DnfFormula::False(1), {"x"});
  EXPECT_FALSE(Sentence(db, "exists x . S(x)"));
  EXPECT_TRUE(Sentence(db, RegionConnQueryText()));  // vacuously connected
  EXPECT_TRUE(Sentence(db, ConnQueryText(1)));
}

TEST(EvaluatorTest, SentenceRejectsFreeVariables) {
  ConstraintDatabase db = Db1("x = 0");
  auto ext = MakeArrangementExtension(db);
  auto r = EvaluateSentenceText(*ext, "S(x)");
  EXPECT_FALSE(r.ok());
}

TEST(EvaluatorTest, TupleSpaceCapIsAStatusNotACrash) {
  ConstraintDatabase db = MakeComb(2, true);  // 63 regions
  auto ext = MakeArrangementExtension(db);
  Evaluator::Options tiny;
  tiny.max_tuple_space = 100;  // 63^2 tuples exceed this
  auto r = EvaluateSentenceText(*ext, RegionConnQueryText(), tiny);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(r.status().IsResourceFailure());
  // A unary fixed point fits.
  auto ok = EvaluateSentenceText(
      *ext, "exists A . [lfp M R : M(R) | subset(R)](A)", tiny);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_TRUE(*ok);
}

TEST(RiverTest, PaperPollutionQuery) {
  // chem1 upstream at 0, chem2 downstream at 2: combination found.
  {
    ConstraintDatabase db = MakeRiverScenario(3, {}, {0}, {2});
    auto ext = MakeArrangementExtension(db);
    auto r = EvaluateSentenceText(*ext, RiverPollutionQueryText());
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(*r);
  }
  // Only chem1, no chem2: no marking.
  {
    ConstraintDatabase db = MakeRiverScenario(3, {}, {0}, {});
    auto ext = MakeArrangementExtension(db);
    auto r = EvaluateSentenceText(*ext, RiverPollutionQueryText());
    ASSERT_TRUE(r.ok());
    EXPECT_FALSE(*r);
  }
  // Only chem2: no marking either (the chem1 conjunct never fires).
  {
    ConstraintDatabase db = MakeRiverScenario(3, {}, {}, {2});
    auto ext = MakeArrangementExtension(db);
    auto r = EvaluateSentenceText(*ext, RiverPollutionQueryText());
    ASSERT_TRUE(r.ok());
    EXPECT_FALSE(*r);
  }
}

}  // namespace
}  // namespace lcdb
