#include <fstream>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "golden.h"
#include "lp/feasibility.h"
#include "lp/simplex.h"

namespace lcdb {
namespace {

Vec V(std::initializer_list<int64_t> values) {
  Vec out;
  for (int64_t v : values) out.emplace_back(v);
  return out;
}

LinearConstraint C(std::initializer_list<int64_t> coeffs, RelOp rel,
                   int64_t rhs) {
  return LinearConstraint(V(coeffs), rel, Rational(rhs));
}

TEST(SimplexTest, SimpleMaximization) {
  // max x + y  s.t.  x <= 3, y <= 4, x + y <= 5, x,y >= 0.
  std::vector<LinearConstraint> cs = {
      C({1, 0}, RelOp::kLe, 3), C({0, 1}, RelOp::kLe, 4),
      C({1, 1}, RelOp::kLe, 5), C({1, 0}, RelOp::kGe, 0),
      C({0, 1}, RelOp::kGe, 0)};
  LpResult r = MaximizeLp(2, cs, V({1, 1}));
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_EQ(r.objective, Rational(5));
  EXPECT_TRUE(cs[2].Satisfies(r.solution));
}

TEST(SimplexTest, FreeVariablesCanGoNegative) {
  // max -x  s.t.  x >= -7   =>  optimum at x = -7.
  std::vector<LinearConstraint> cs = {C({1}, RelOp::kGe, -7)};
  LpResult r = MaximizeLp(1, cs, V({-1}));
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_EQ(r.objective, Rational(7));
  EXPECT_EQ(r.solution[0], Rational(-7));
}

TEST(SimplexTest, EqualityConstraints) {
  // max y  s.t.  x + y = 10, x - y = 4  =>  x = 7, y = 3.
  std::vector<LinearConstraint> cs = {C({1, 1}, RelOp::kEq, 10),
                                      C({1, -1}, RelOp::kEq, 4)};
  LpResult r = MaximizeLp(2, cs, V({0, 1}));
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_EQ(r.solution[0], Rational(7));
  EXPECT_EQ(r.solution[1], Rational(3));
}

TEST(SimplexTest, Infeasible) {
  std::vector<LinearConstraint> cs = {C({1}, RelOp::kLe, 0),
                                      C({1}, RelOp::kGe, 1)};
  EXPECT_EQ(MaximizeLp(1, cs, V({1})).status, LpStatus::kInfeasible);
}

TEST(SimplexTest, Unbounded) {
  std::vector<LinearConstraint> cs = {C({1}, RelOp::kGe, 0)};
  EXPECT_EQ(MaximizeLp(1, cs, V({1})).status, LpStatus::kUnbounded);
}

TEST(SimplexTest, RationalOptimum) {
  // max x  s.t.  3x <= 1  =>  x = 1/3.
  std::vector<LinearConstraint> cs = {C({3}, RelOp::kLe, 1)};
  LpResult r = MaximizeLp(1, cs, V({1}));
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_EQ(r.objective, Rational(1, 3));
}

TEST(SimplexTest, DegenerateVertexTerminates) {
  // Many constraints through the same optimum; Bland's rule must not cycle.
  std::vector<LinearConstraint> cs = {
      C({1, 1}, RelOp::kLe, 2),  C({1, -1}, RelOp::kLe, 0),
      C({-1, 1}, RelOp::kLe, 0), C({2, 2}, RelOp::kLe, 4),
      C({1, 0}, RelOp::kLe, 1),  C({0, 1}, RelOp::kLe, 1)};
  LpResult r = MaximizeLp(2, cs, V({1, 1}));
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_EQ(r.objective, Rational(2));
}

TEST(SimplexTest, NegativeRhsRequiresPhase1) {
  // x <= -3, x >= -10: optimum of max x is -3.
  std::vector<LinearConstraint> cs = {C({1}, RelOp::kLe, -3),
                                      C({1}, RelOp::kGe, -10)};
  LpResult r = MaximizeLp(1, cs, V({1}));
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_EQ(r.objective, Rational(-3));
}

TEST(FeasibilityTest, StrictSystemFeasible) {
  // 0 < x < 1.
  std::vector<LinearConstraint> cs = {C({1}, RelOp::kGt, 0),
                                      C({1}, RelOp::kLt, 1)};
  FeasibilityResult r = CheckFeasibility(1, cs);
  ASSERT_TRUE(r.feasible);
  EXPECT_GT(r.witness[0], Rational(0));
  EXPECT_LT(r.witness[0], Rational(1));
}

TEST(FeasibilityTest, StrictSystemInfeasibleAtPoint) {
  // x >= 1 and x < 1: only the closure intersects.
  std::vector<LinearConstraint> cs = {C({1}, RelOp::kGe, 1),
                                      C({1}, RelOp::kLt, 1)};
  EXPECT_FALSE(CheckFeasibility(1, cs).feasible);
}

TEST(FeasibilityTest, OpenHalfplaneIntersection) {
  // x + y > 2, x < 0  =>  y > 2 feasible.
  std::vector<LinearConstraint> cs = {C({1, 1}, RelOp::kGt, 2),
                                      C({1, 0}, RelOp::kLt, 0)};
  FeasibilityResult r = CheckFeasibility(2, cs);
  ASSERT_TRUE(r.feasible);
  for (const auto& c : cs) EXPECT_TRUE(c.Satisfies(r.witness));
}

TEST(FeasibilityTest, EqualityPlusStrict) {
  // x = y, x > 3: witness on the diagonal above 3.
  std::vector<LinearConstraint> cs = {C({1, -1}, RelOp::kEq, 0),
                                      C({1, 0}, RelOp::kGt, 3)};
  FeasibilityResult r = CheckFeasibility(2, cs);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.witness[0], r.witness[1]);
  EXPECT_GT(r.witness[0], Rational(3));
}

TEST(FeasibilityTest, PointSystem) {
  std::vector<LinearConstraint> cs = {C({1, 0}, RelOp::kEq, 2),
                                      C({0, 1}, RelOp::kEq, -5)};
  FeasibilityResult r = CheckFeasibility(2, cs);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.witness, V({2, -5}));
}

TEST(FeasibilityTest, DegenerateStrictContradiction) {
  // x < 0 and x > 0.
  std::vector<LinearConstraint> cs = {C({1}, RelOp::kLt, 0),
                                      C({1}, RelOp::kGt, 0)};
  EXPECT_FALSE(CheckFeasibility(1, cs).feasible);
}

TEST(FeasibilityTest, EmptyConstraintListIsFeasible) {
  FeasibilityResult r = CheckFeasibility(3, {});
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.witness.size(), 3u);
}

TEST(BoundednessTest, BoxIsBounded) {
  std::vector<LinearConstraint> cs = {
      C({1, 0}, RelOp::kGe, 0), C({1, 0}, RelOp::kLe, 1),
      C({0, 1}, RelOp::kGe, 0), C({0, 1}, RelOp::kLe, 1)};
  EXPECT_TRUE(IsBoundedSystem(2, cs));
}

TEST(BoundednessTest, HalfplaneIsUnbounded) {
  std::vector<LinearConstraint> cs = {C({1, 0}, RelOp::kGe, 0)};
  EXPECT_FALSE(IsBoundedSystem(2, cs));
}

TEST(BoundednessTest, LineSegmentViaEqualities) {
  // Segment: y = 0, 0 <= x <= 1 in R^2.
  std::vector<LinearConstraint> cs = {C({0, 1}, RelOp::kEq, 0),
                                      C({1, 0}, RelOp::kGe, 0),
                                      C({1, 0}, RelOp::kLe, 1)};
  EXPECT_TRUE(IsBoundedSystem(2, cs));
}

TEST(BoundednessTest, EmptySetIsBounded) {
  std::vector<LinearConstraint> cs = {C({1}, RelOp::kLe, 0),
                                      C({1}, RelOp::kGe, 1)};
  EXPECT_TRUE(IsBoundedSystem(1, cs));
}

class LpPropertyTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(LpPropertyTest, WitnessSatisfiesAllConstraints) {
  std::mt19937_64 rng(GetParam());
  std::uniform_int_distribution<int64_t> coeff(-5, 5);
  std::uniform_int_distribution<int64_t> rhs(-10, 10);
  std::uniform_int_distribution<int> rel_pick(0, 4);
  const RelOp rels[] = {RelOp::kLt, RelOp::kLe, RelOp::kEq, RelOp::kGe,
                        RelOp::kGt};
  int feasible_count = 0;
  for (int iter = 0; iter < 60; ++iter) {
    const size_t n = 1 + (iter % 3);
    const size_t m = 1 + static_cast<size_t>(iter % 5);
    std::vector<LinearConstraint> cs;
    for (size_t i = 0; i < m; ++i) {
      Vec a(n);
      for (size_t j = 0; j < n; ++j) a[j] = Rational(coeff(rng));
      cs.emplace_back(std::move(a), rels[rel_pick(rng)], Rational(rhs(rng)));
    }
    FeasibilityResult r = CheckFeasibility(n, cs);
    if (r.feasible) {
      ++feasible_count;
      ASSERT_EQ(r.witness.size(), n);
      for (const auto& c : cs) {
        EXPECT_TRUE(c.Satisfies(r.witness));
      }
    }
  }
  // Random small systems are feasible reasonably often; guards against a
  // solver that trivially answers "infeasible".
  EXPECT_GT(feasible_count, 5);
}

TEST_P(LpPropertyTest, OptimumDominatesRandomFeasiblePoints) {
  std::mt19937_64 rng(GetParam() * 131 + 17);
  std::uniform_int_distribution<int64_t> coeff(-4, 4);
  std::uniform_int_distribution<int64_t> box(1, 10);
  for (int iter = 0; iter < 30; ++iter) {
    const size_t n = 2;
    // Random objective over a random box [-b1,b1] x [-b2,b2].
    const int64_t b1 = box(rng), b2 = box(rng);
    std::vector<LinearConstraint> cs = {
        C({1, 0}, RelOp::kLe, b1), C({1, 0}, RelOp::kGe, -b1),
        C({0, 1}, RelOp::kLe, b2), C({0, 1}, RelOp::kGe, -b2)};
    Vec obj(n);
    obj[0] = Rational(coeff(rng));
    obj[1] = Rational(coeff(rng));
    LpResult r = MaximizeLp(n, cs, obj);
    ASSERT_EQ(r.status, LpStatus::kOptimal);
    // Optimum equals |c1|*b1 + |c2|*b2 for a box.
    Rational expected = obj[0].Abs() * Rational(b1) + obj[1].Abs() * Rational(b2);
    EXPECT_EQ(r.objective, expected);
    EXPECT_EQ(Dot(obj, r.solution), r.objective);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LpPropertyTest,
                         ::testing::Values(7u, 77u, 777u, 7777u));

// Pinned exact outputs of the LP oracle: tests/golden/lp_corpus.txt holds
// one line per seeded call with its status, objective, solution or witness,
// and the pivots it spent. Any change to the simplex that moves a single
// pivot or witness shows here, before it can reorder a query's answer text.
// Regenerate only after an intended change:
//
//   LCDB_REGENERATE_GOLDEN=1 build/tests/lp_test --gtest_filter='LpCorpus*'

constexpr const char* kLpCorpusPath = LCDB_TEST_GOLDEN_DIR "/lp_corpus.txt";

/// Uniform in [lo, hi] from raw generator output (the standard
/// distributions are not portable across standard libraries).
int64_t Uniform(std::mt19937_64& rng, int64_t lo, int64_t hi) {
  return lo + static_cast<int64_t>(rng() % static_cast<uint64_t>(hi - lo + 1));
}

/// p/q with |p| <= 6 and 1 <= q <= 5.
Rational SmallFraction(std::mt19937_64& rng) {
  const int64_t p = Uniform(rng, -6, 6);
  return Rational(p, Uniform(rng, 1, 5));
}

std::string VecText(const Vec& v) {
  std::string out = "(";
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ",";
    out += v[i].ToString();
  }
  return out + ")";
}

/// The corpus: mostly MaximizeLp calls over <=/=/>= rows, every fifth a
/// CheckFeasibility call that may carry strict rows. About one row in ten is
/// scaled by 2^61 + 3, so its entries leave BigInt's inline int64 range.
std::vector<std::string> LpCorpusLines() {
  std::mt19937_64 rng(20000521);
  const Rational big(BigInt(int64_t{1} << 61) + BigInt(3));
  const RelOp closed[] = {RelOp::kLe, RelOp::kEq, RelOp::kGe};
  const RelOp any[] = {RelOp::kLt, RelOp::kLe, RelOp::kEq, RelOp::kGe,
                       RelOp::kGt};
  std::vector<std::string> lines;
  for (int call = 0; call < 1000; ++call) {
    const bool feasibility = call % 5 == 4;
    const size_t n = static_cast<size_t>(Uniform(rng, 1, 5));
    const size_t m = static_cast<size_t>(Uniform(rng, 1, 9));
    std::vector<LinearConstraint> cs;
    for (size_t r = 0; r < m; ++r) {
      Vec a(n);
      for (Rational& x : a) x = SmallFraction(rng);
      Rational b = SmallFraction(rng);
      const RelOp rel =
          feasibility ? any[Uniform(rng, 0, 4)] : closed[Uniform(rng, 0, 2)];
      if (Uniform(rng, 0, 9) == 0) {
        for (Rational& x : a) x *= big;
        b *= big;
      }
      cs.emplace_back(std::move(a), rel, std::move(b));
    }
    std::string line = std::to_string(call);
    const SimplexCounters before = GetSimplexCounters();
    if (feasibility) {
      const FeasibilityResult r = CheckFeasibility(n, cs);
      line += r.feasible ? " feasible witness=" + VecText(r.witness)
                         : " infeasible";
    } else {
      Vec objective(n);
      for (Rational& x : objective) x = SmallFraction(rng);
      const LpResult r = MaximizeLp(n, cs, objective);
      switch (r.status) {
        case LpStatus::kOptimal:
          line += " optimal objective=" + r.objective.ToString() +
                  " solution=" + VecText(r.solution);
          break;
        case LpStatus::kInfeasible:
          line += " infeasible";
          break;
        case LpStatus::kUnbounded:
          line += " unbounded";
          break;
      }
    }
    line += " pivots=" +
            std::to_string(GetSimplexCounters().pivots - before.pivots);
    lines.push_back(std::move(line));
  }
  return lines;
}

TEST(LpCorpusTest, MatchesPinnedCorpus) {
  const std::vector<std::string> lines = LpCorpusLines();
  if (RegeneratingGolden()) {
    std::ofstream out(kLpCorpusPath, std::ios::trunc);
    out << "# Pinned LP oracle outputs: <call> <status> [objective, solution "
           "or witness] pivots=<n>.\n"
        << "# Regenerate with:\n"
        << "#   LCDB_REGENERATE_GOLDEN=1 build/tests/lp_test "
           "--gtest_filter='LpCorpus*'\n";
    for (const std::string& line : lines) out << line << "\n";
    ASSERT_TRUE(out.good()) << "cannot write " << kLpCorpusPath;
    return;
  }
  std::ifstream in(kLpCorpusPath);
  ASSERT_TRUE(in.good()) << "cannot read " << kLpCorpusPath;
  std::vector<std::string> pinned;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty() && line[0] != '#') pinned.push_back(line);
  }
  ASSERT_EQ(pinned.size(), lines.size()) << kLpCorpusPath;
  for (size_t i = 0; i < lines.size(); ++i) {
    ASSERT_EQ(lines[i], pinned[i]) << "first differing line of the corpus";
  }
}

}  // namespace
}  // namespace lcdb
