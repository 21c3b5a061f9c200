// Tests for the constraint kernel (engine/kernel.h) and the
// canonicalization pass behind its cache keys (constraint/canonical.h):
// scaling/order invariance and hash stability of the canonical form, cache
// hit/miss/eviction accounting, and end-to-end equivalence of cached vs
// uncached evaluation on the paper's workloads (river pollution, region
// connectivity, the Figure 5 multiplication trick), and one kernel shared
// by several threads.

#include <algorithm>
#include <atomic>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "constraint/canonical.h"
#include "constraint/simplify.h"
#include "core/evaluator.h"
#include "core/queries.h"
#include "db/region_extension.h"
#include "db/workloads.h"
#include "engine/kernel.h"
#include "geometry/generator_region.h"
#include "qe/fourier_motzkin.h"

namespace lcdb {
namespace {

Vec V(std::initializer_list<int64_t> values) {
  Vec out;
  for (int64_t v : values) out.emplace_back(v);
  return out;
}

// --- Canonicalization -----------------------------------------------------

TEST(CanonicalTest, ScalingInvariance) {
  // 2x + 4y <= 6 and x + 2y <= 3 describe the same half-plane; both
  // canonicalize to the same encoding and hash.
  CanonicalSystem a = CanonicalizeSystem(
      2, {LinearConstraint(V({2, 4}), RelOp::kLe, Rational(6))});
  CanonicalSystem b = CanonicalizeSystem(
      2, {LinearConstraint(V({1, 2}), RelOp::kLe, Rational(3))});
  EXPECT_EQ(a.encoding, b.encoding);
  EXPECT_EQ(a.hash, b.hash);
  // Rational scaling and relation orientation normalize the same way:
  // -x/3 - 2y/3 >= -1 is again the same constraint.
  CanonicalSystem c = CanonicalizeSystem(
      2, {LinearConstraint({Rational(-1, 3), Rational(-2, 3)}, RelOp::kGe,
                           Rational(-1))});
  EXPECT_EQ(a.encoding, c.encoding);
}

TEST(CanonicalTest, AtomOrderAndDuplicateInvariance) {
  LinearConstraint first(V({1, 0}), RelOp::kLe, Rational(1));
  LinearConstraint second(V({0, 1}), RelOp::kLt, Rational(2));
  CanonicalSystem a = CanonicalizeSystem(2, {first, second});
  CanonicalSystem b = CanonicalizeSystem(2, {second, first, second});
  EXPECT_EQ(a.encoding, b.encoding);
  EXPECT_EQ(a.hash, b.hash);
  EXPECT_EQ(a.atoms.size(), 2u);
}

TEST(CanonicalTest, ConstantAtomsFold) {
  // A constant-true atom (0 <= 1) imposes nothing.
  CanonicalSystem with_true = CanonicalizeSystem(
      2, {LinearConstraint(V({0, 0}), RelOp::kLe, Rational(1)),
          LinearConstraint(V({1, 0}), RelOp::kLe, Rational(0))});
  CanonicalSystem bare = CanonicalizeSystem(
      2, {LinearConstraint(V({1, 0}), RelOp::kLe, Rational(0))});
  EXPECT_EQ(with_true.encoding, bare.encoding);
  // A constant-false atom (0 <= -1) makes the whole system trivially false.
  CanonicalSystem contradiction = CanonicalizeSystem(
      2, {LinearConstraint(V({1, 0}), RelOp::kLe, Rational(0)),
          LinearConstraint(V({0, 0}), RelOp::kLe, Rational(-1))});
  EXPECT_TRUE(contradiction.syntactically_false);
  EXPECT_EQ(contradiction.encoding, "n2:F");
}

TEST(CanonicalTest, HashAndEncodingStability) {
  // Golden values: the cache key format must stay stable across runs and
  // platforms, since telemetry (collision counts) and any future persisted
  // cache depend on it.
  EXPECT_EQ(StableHash64(""), 1469598103934665603ull);
  EXPECT_EQ(StableHash64("abc"), 16242233503745875709ull);
  CanonicalSystem s = CanonicalizeSystem(
      2, {LinearConstraint(V({1, 2}), RelOp::kLe, Rational(3))});
  EXPECT_EQ(s.encoding, "n2:l1,2|3;");
  EXPECT_EQ(s.hash, 16908621879805183800ull);
  EXPECT_EQ(s.hash, StableHash64(s.encoding));
}

TEST(CanonicalTest, ConjunctionAndSystemEntryPointsAgree) {
  // The Conjunction-level and LP-level canonicalizers must produce the same
  // key for the same system — that alignment is what makes cache entries
  // shared across layers.
  Conjunction conj(2, {LinearAtom(V({2, -2}), RelOp::kLt, Rational(4)),
                       LinearAtom(V({0, 3}), RelOp::kEq, Rational(6))});
  CanonicalSystem from_conj = CanonicalizeConjunction(conj);
  CanonicalSystem from_system =
      CanonicalizeSystem(conj.num_vars(), conj.ToConstraints());
  EXPECT_EQ(from_conj.encoding, from_system.encoding);
  EXPECT_EQ(from_conj.hash, from_system.hash);
}

// --- Kernel cache accounting ---------------------------------------------

TEST(KernelTest, RepeatedQueryHitsCache) {
  ConstraintKernel kernel;
  Conjunction conj(2, {LinearAtom(V({1, 0}), RelOp::kLe, Rational(1)),
                       LinearAtom(V({0, 1}), RelOp::kGe, Rational(0))});
  EXPECT_TRUE(kernel.IsFeasible(conj));
  EXPECT_TRUE(kernel.IsFeasible(conj));
  // A scaled copy of the same system is the same cache entry.
  Conjunction scaled(2, {LinearAtom(V({3, 0}), RelOp::kLe, Rational(3)),
                         LinearAtom(V({0, 2}), RelOp::kGe, Rational(0))});
  EXPECT_TRUE(kernel.IsFeasible(scaled));
  const KernelStats stats = kernel.stats();
  EXPECT_EQ(stats.feasibility_queries, 3u);
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_hits, 2u);
  EXPECT_EQ(stats.oracle_calls, 1u);
}

TEST(KernelTest, MemoizeOffAlwaysPaysOracle) {
  ConstraintKernel kernel(ConstraintKernel::Options{/*memoize=*/false});
  Conjunction conj(1, {LinearAtom(V({1}), RelOp::kLt, Rational(0))});
  EXPECT_TRUE(kernel.IsFeasible(conj));
  EXPECT_TRUE(kernel.IsFeasible(conj));
  const KernelStats stats = kernel.stats();
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.oracle_calls, 2u);
  EXPECT_GE(stats.simplex_invocations, 2u);
  // Without memoization there is no lemma store, so its counters stay zero.
  EXPECT_EQ(kernel.lemma_db(), nullptr);
  EXPECT_EQ(stats.lemma_hits, 0u);
  EXPECT_EQ(stats.lemma_insertions, 0u);
}

TEST(KernelTest, TrivialAnswersSkipOracle) {
  ConstraintKernel kernel;
  // Syntactically false and empty systems are decided by canonicalization.
  EXPECT_FALSE(
      kernel
          .CheckFeasibility(
              2, {LinearConstraint(V({0, 0}), RelOp::kLe, Rational(-1))})
          .feasible);
  FeasibilityResult empty = kernel.CheckFeasibility(2, {});
  EXPECT_TRUE(empty.feasible);
  EXPECT_EQ(empty.witness.size(), 2u);
  const KernelStats stats = kernel.stats();
  EXPECT_EQ(stats.trivial_answers, 2u);
  EXPECT_EQ(stats.oracle_calls, 0u);
}

TEST(KernelTest, WitnessSatisfiesEveryConstraint) {
  ConstraintKernel kernel;
  Conjunction conj(2, {LinearAtom(V({1, 1}), RelOp::kLt, Rational(3)),
                       LinearAtom(V({1, -1}), RelOp::kGe, Rational(1)),
                       LinearAtom(V({0, 1}), RelOp::kGt, Rational(0))});
  FeasibilityResult r = kernel.Feasibility(conj);
  ASSERT_TRUE(r.feasible);
  for (const LinearAtom& atom : conj.atoms()) {
    EXPECT_TRUE(atom.Satisfies(r.witness));
  }
  // The cached copy returns the same witness.
  FeasibilityResult again = kernel.Feasibility(conj);
  EXPECT_EQ(again.witness, r.witness);
  EXPECT_EQ(kernel.stats().cache_hits, 1u);
}

TEST(KernelTest, ImplicationCacheHits) {
  ConstraintKernel kernel;
  Conjunction conj(1, {LinearAtom(V({1}), RelOp::kLe, Rational(1))});
  LinearAtom weaker(V({1}), RelOp::kLe, Rational(2));
  LinearAtom unrelated(V({1}), RelOp::kGe, Rational(0));
  EXPECT_TRUE(kernel.ImpliesAtom(conj, weaker));
  EXPECT_TRUE(kernel.ImpliesAtom(conj, weaker));
  EXPECT_FALSE(kernel.ImpliesAtom(conj, unrelated));
  const KernelStats stats = kernel.stats();
  EXPECT_EQ(stats.implication_queries, 3u);
  EXPECT_EQ(stats.implication_cache_hits, 1u);
  EXPECT_EQ(stats.implication_cache_misses, 2u);
}

TEST(KernelTest, EvictionKeepsAnswersCorrect) {
  ConstraintKernel kernel(
      ConstraintKernel::Options{/*memoize=*/true, /*max_entries=*/2});
  for (int round = 0; round < 2; ++round) {
    for (int64_t k = 0; k < 6; ++k) {
      Conjunction conj(1, {LinearAtom(V({1}), RelOp::kLe, Rational(k)),
                           LinearAtom(V({1}), RelOp::kGe, Rational(k))});
      EXPECT_TRUE(kernel.IsFeasible(conj)) << "k=" << k;
    }
  }
  const KernelStats stats = kernel.stats();
  EXPECT_GT(stats.cache_evictions, 0u);
  EXPECT_EQ(stats.feasibility_queries, 12u);
}

TEST(KernelTest, ConcurrentQueriesMatchSerialVerdicts) {
  // One kernel shared by four threads: its mutex guards the stats and the
  // lemma store, and the capacity of 32 keeps evictions running during
  // lookups. Every verdict must match a serial kernel's.
  constexpr size_t kSystems = 200;
  constexpr int kThreads = 4;
  constexpr int kRounds = 3;
  std::mt19937_64 rng(20261020);
  auto small = [&rng](int lo, int hi) {
    return static_cast<int64_t>(rng() % static_cast<uint64_t>(hi - lo + 1)) +
           lo;
  };
  const RelOp kRels[] = {RelOp::kLe, RelOp::kLt, RelOp::kGe, RelOp::kEq};
  auto random_atom = [&] {
    Vec coeffs = V({small(-3, 3), small(-3, 3)});
    if (VecIsZero(coeffs)) coeffs = V({1, 0});
    return LinearAtom(coeffs, kRels[rng() % 4], Rational(small(-5, 5)));
  };
  std::vector<Conjunction> systems;
  std::vector<LinearAtom> extras;
  for (size_t i = 0; i < kSystems; ++i) {
    std::vector<LinearAtom> atoms;
    const int64_t n = small(1, 4);
    for (int64_t a = 0; a < n; ++a) atoms.push_back(random_atom());
    systems.emplace_back(2, std::move(atoms));
    extras.push_back(random_atom());
  }

  ConstraintKernel serial;
  std::vector<bool> feasible(kSystems), consistent(kSystems);
  for (size_t i = 0; i < kSystems; ++i) {
    feasible[i] = serial.IsFeasible(systems[i]);
    consistent[i] = serial.IsConsistentWithNegation(systems[i], extras[i]);
  }

  ConstraintKernel shared(
      ConstraintKernel::Options{/*memoize=*/true, /*max_entries=*/32});
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<size_t> order(kSystems);
      for (size_t i = 0; i < kSystems; ++i) order[i] = i;
      std::shuffle(order.begin(), order.end(), std::mt19937_64(t + 1));
      for (int round = 0; round < kRounds; ++round) {
        for (size_t i : order) {
          if (shared.IsFeasible(systems[i]) != feasible[i]) ++mismatches;
          if (shared.IsConsistentWithNegation(systems[i], extras[i]) !=
              consistent[i]) {
            ++mismatches;
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(mismatches.load(), 0);
  const KernelStats stats = shared.stats();
  EXPECT_GT(stats.lemma_hits, 0u);
  EXPECT_GT(stats.cache_evictions, 0u);
  EXPECT_LE(stats.lemma_occupancy, 32u);
  EXPECT_EQ(stats.lemma_hits,
            stats.cache_hits + stats.implication_cache_hits);
}

TEST(KernelTest, ScopedKernelOverridesCurrent) {
  ConstraintKernel& before = CurrentKernel();
  ConstraintKernel local;
  {
    ScopedKernel scope(local);
    EXPECT_EQ(&CurrentKernel(), &local);
    Conjunction conj(1, {LinearAtom(V({1}), RelOp::kEq, Rational(7))});
    EXPECT_TRUE(conj.IsFeasible());  // routed through `local`
    EXPECT_EQ(local.stats().feasibility_queries, 1u);
  }
  EXPECT_EQ(&CurrentKernel(), &before);
}

TEST(RedundancyTest, ImpliedConstraintDetected) {
  // Within x <= 1, the constraint x <= 5 is implied (negation inconsistent);
  // x <= 0 is not, nor is x = 0, whose negation splits into x < 0 or x > 0.
  ConstraintKernel kernel;
  const std::vector<LinearConstraint> sys = {
      LinearConstraint(V({1}), RelOp::kLe, Rational(1))};
  EXPECT_FALSE(kernel.IsConsistentWithNegation(
      1, sys, LinearConstraint(V({1}), RelOp::kLe, Rational(5))));
  EXPECT_TRUE(kernel.IsConsistentWithNegation(
      1, sys, LinearConstraint(V({1}), RelOp::kLe, Rational(0))));
  EXPECT_TRUE(kernel.IsConsistentWithNegation(
      1, sys, LinearConstraint(V({1}), RelOp::kEq, Rational(0))));
}

// --- Cached vs uncached equivalence on real workloads ---------------------

TEST(KernelEquivalenceTest, QePresimplifyMatchesPlainElimination) {
  // The Fourier-Motzkin presimplify pass (redundancy elimination before
  // projection) must not change the eliminated formula's meaning.
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    std::vector<LinearAtom> atoms;
    for (int64_t i = 0; i < 9; ++i) {
      const int64_t a = static_cast<int64_t>((seed * 31 + i * 17) % 7) - 3;
      const int64_t b = static_cast<int64_t>((seed * 13 + i * 29) % 7) - 3;
      const int64_t c = static_cast<int64_t>((seed * 7 + i * 11) % 7) - 3;
      Vec coeffs = V({a, b, c});
      if (VecIsZero(coeffs)) coeffs = V({1, 0, 0});
      atoms.emplace_back(coeffs, i % 3 == 0 ? RelOp::kGe : RelOp::kLe,
                         Rational(static_cast<int64_t>((seed + i) % 5) - 2));
    }
    DnfFormula f(3, {Conjunction(3, atoms)});
    DnfFormula pre = ExistsVariables(f, {0, 1}, QeOptions{true});
    DnfFormula plain = ExistsVariables(f, {0, 1}, QeOptions{false});
    EXPECT_TRUE(AreEquivalent(pre, plain)) << "seed=" << seed;
  }
}

TEST(KernelEquivalenceTest, RiverQueryCachedVsUncached) {
  ConstraintDatabase db = MakeRiverScenario(2, {}, {0}, {1});
  auto ext = MakeArrangementExtension(db);
  ConstraintKernel on(ConstraintKernel::Options{/*memoize=*/true});
  ConstraintKernel off(ConstraintKernel::Options{/*memoize=*/false});

  bool sentence_on = false, sentence_off = false;
  DnfFormula open_on = DnfFormula::False(0);
  DnfFormula open_off = DnfFormula::False(0);
  {
    ScopedKernel scope(on);
    auto sentence = EvaluateSentenceText(*ext, RiverPollutionQueryText());
    ASSERT_TRUE(sentence.ok()) << sentence.status().ToString();
    sentence_on = *sentence;
    auto open = EvaluateQueryText(*ext, "exists y . S(x, y)");
    ASSERT_TRUE(open.ok()) << open.status().ToString();
    open_on = open->formula;
  }
  {
    ScopedKernel scope(off);
    auto sentence = EvaluateSentenceText(*ext, RiverPollutionQueryText());
    ASSERT_TRUE(sentence.ok()) << sentence.status().ToString();
    sentence_off = *sentence;
    auto open = EvaluateQueryText(*ext, "exists y . S(x, y)");
    ASSERT_TRUE(open.ok()) << open.status().ToString();
    open_off = open->formula;
  }

  EXPECT_TRUE(sentence_on);
  EXPECT_EQ(sentence_on, sentence_off);
  EXPECT_GT(on.stats().cache_hits, 0u);
  EXPECT_EQ(off.stats().cache_hits, 0u);
  // The cache must save actual LP work, not just bookkeeping.
  EXPECT_LT(on.stats().simplex_invocations, off.stats().simplex_invocations);
  ScopedKernel scope(on);
  EXPECT_TRUE(AreEquivalent(open_on, open_off));
}

TEST(KernelEquivalenceTest, MultiplicationFigureCachedVsUncached) {
  // Figure 5's trick: x * y = z iff (x, y-1) lies on the closed segment
  // from (0, y) to (z, 0). The Contains test runs through the kernel's
  // feasibility oracle; cached and uncached kernels must agree on every
  // probe of a small rational grid.
  ConstraintKernel on(ConstraintKernel::Options{/*memoize=*/true});
  ConstraintKernel off(ConstraintKernel::Options{/*memoize=*/false});
  auto says_product = [](const Rational& x, const Rational& y,
                         const Rational& z) {
    GeneratorRegion segment =
        GeneratorRegion::ClosedSegment({Rational(0), y}, {z, Rational(0)});
    return segment.Contains({x, y - Rational(1)});
  };
  for (int64_t xn = 1; xn <= 3; ++xn) {
    for (int64_t yn = 1; yn <= 3; ++yn) {
      const Rational x(xn, 2);
      const Rational y = Rational(yn, 2) + Rational(1);
      for (const Rational& z :
           {x * y, x * y + Rational(1, 97), x * y - Rational(1, 97)}) {
        bool verdict_on, verdict_off;
        {
          ScopedKernel scope(on);
          verdict_on = says_product(x, y, z);
        }
        {
          ScopedKernel scope(off);
          verdict_off = says_product(x, y, z);
        }
        EXPECT_EQ(verdict_on, verdict_off);
        EXPECT_EQ(verdict_on, z == x * y);
      }
    }
  }
  EXPECT_GT(on.stats().feasibility_queries, 0u);
}

}  // namespace
}  // namespace lcdb
