// Tests of the kernel's lemma store (engine/lemma_db.h) and its integration
// with the constraint kernel: tier-then-age eviction, promotion, the one
// pool of both lemma kinds, lemma reuse across Evaluate calls on one
// kernel, and the kernel.lemma.* metrics family.

#include <array>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "constraint/canonical.h"
#include "constraint/conjunction.h"
#include "constraint/dnf_formula.h"
#include "constraint/parser.h"
#include "core/evaluator.h"
#include "db/database.h"
#include "db/region_extension.h"
#include "engine/kernel.h"
#include "engine/lemma_db.h"
#include "engine/metrics.h"

namespace lcdb {
namespace {

// Conjunction over one variable: lo <= x <= hi (as strict/loose mix is
// irrelevant here, loose on both ends).
Conjunction Interval(int lo, int hi) {
  std::vector<LinearAtom> atoms;
  atoms.emplace_back(std::vector<Rational>{Rational(1)}, RelOp::kGe,
                     Rational(lo));
  atoms.emplace_back(std::vector<Rational>{Rational(1)}, RelOp::kLe,
                     Rational(hi));
  return Conjunction(1, std::move(atoms));
}

CanonicalSystem Canon(const Conjunction& conj) {
  return CanonicalizeConjunction(conj);
}

FeasibilityResult Feasible() {
  FeasibilityResult r;
  r.feasible = true;
  r.witness = Vec(1);
  return r;
}

// A hit bumps the lemma's use count (the activity that drives promotion)
// and counts into the owner's KernelStats.
TEST(LemmaDatabaseTest, HitBumpsActivityAndStats) {
  KernelStats stats;
  LemmaDatabase db(/*max_entries=*/16, &stats);
  const CanonicalSystem canon = Canon(Interval(0, 1));
  EXPECT_EQ(db.LookupFeasibility(canon), nullptr);
  db.InsertFeasibility(canon, Feasible(), /*pivots=*/1);
  const FeasibilityResult* hit = db.LookupFeasibility(canon);
  ASSERT_NE(hit, nullptr);
  EXPECT_TRUE(hit->feasible);
  EXPECT_EQ(stats.lemma_hits, 1u);
  EXPECT_EQ(stats.lemma_misses, 1u);
  EXPECT_EQ(stats.lemma_insertions, 1u);
  EXPECT_EQ(db.size(), 1u);
}

TEST(LemmaDatabaseTest, InfeasibleVerdictsArePinnedCore) {
  KernelStats stats;
  LemmaDatabase db(/*max_entries=*/16, &stats);
  const CanonicalSystem canon = Canon(Interval(3, 1));  // empty interval
  FeasibilityResult infeasible;
  infeasible.feasible = false;
  db.InsertFeasibility(canon, infeasible, /*pivots=*/0);
  const std::array<size_t, 3> tiers = db.TierCounts();
  EXPECT_EQ(tiers[0], 1u);  // kCore
  EXPECT_EQ(tiers[1], 0u);
  EXPECT_EQ(tiers[2], 0u);
}

TEST(LemmaDatabaseTest, FrequentPromotionAfterRepeatedUse) {
  KernelStats stats;
  LemmaDatabase db(/*max_entries=*/16, &stats);
  const CanonicalSystem canon = Canon(Interval(0, 1));
  db.InsertFeasibility(canon, Feasible(), /*pivots=*/1);
  EXPECT_EQ(db.TierCounts()[2], 1u);  // transient on insert
  for (uint32_t i = 1; i < LemmaDatabase::kFrequentUses; ++i) {
    db.LookupFeasibility(canon);
  }
  EXPECT_EQ(db.TierCounts()[2], 1u);  // one hit short of promotion
  db.LookupFeasibility(canon);
  EXPECT_EQ(db.TierCounts()[1], 1u);  // promoted to frequent
  EXPECT_EQ(db.TierCounts()[2], 0u);
}

// Eviction ranks by tier, then age: the oldest transient goes first, and a
// lemma promoted by use (frequent) or pinned by its proof cost (core)
// outlives every transient, however recently the transient was inserted.
TEST(LemmaDatabaseTest, EvictionPrefersColdTransientsOverActiveAndCore) {
  KernelStats stats;
  // max_entries/8 is 0 at capacity 4, so each overflow evicts exactly one
  // entry — the worst-ranked one.
  LemmaDatabase db(/*max_entries=*/4, &stats);
  const CanonicalSystem core = Canon(Interval(0, 1));
  db.InsertFeasibility(core, Feasible(), LemmaDatabase::kCorePivots);
  const CanonicalSystem hot = Canon(Interval(2, 3));
  db.InsertFeasibility(hot, Feasible(), /*pivots=*/1);
  for (uint32_t i = 0; i < LemmaDatabase::kFrequentUses; ++i) {
    db.LookupFeasibility(hot);
  }
  const CanonicalSystem cold1 = Canon(Interval(4, 5));
  const CanonicalSystem cold2 = Canon(Interval(6, 7));
  db.InsertFeasibility(cold1, Feasible(), /*pivots=*/1);
  db.InsertFeasibility(cold2, Feasible(), /*pivots=*/1);
  EXPECT_EQ(db.size(), 4u);
  EXPECT_EQ(db.TierCounts(), (std::array<size_t, 3>{1, 1, 2}));

  // The fifth insertion overflows: the oldest transient, cold1, goes.
  const CanonicalSystem fresh = Canon(Interval(8, 9));
  db.InsertFeasibility(fresh, Feasible(), /*pivots=*/1);
  EXPECT_EQ(db.size(), 4u);
  EXPECT_EQ(stats.lemma_evictions_transient, 1u);
  EXPECT_EQ(stats.cache_evictions, 1u);
  EXPECT_EQ(db.LookupFeasibility(cold1), nullptr);
  EXPECT_NE(db.LookupFeasibility(cold2), nullptr);
  EXPECT_NE(db.LookupFeasibility(fresh), nullptr);

  // Two more overflows drop the two remaining transients, oldest first,
  // before any frequent or core lemma.
  db.InsertFeasibility(Canon(Interval(10, 11)), Feasible(), /*pivots=*/1);
  EXPECT_EQ(db.LookupFeasibility(cold2), nullptr);
  db.InsertFeasibility(Canon(Interval(12, 13)), Feasible(), /*pivots=*/1);
  EXPECT_EQ(db.LookupFeasibility(fresh), nullptr);
  EXPECT_EQ(stats.lemma_evictions_transient, 3u);
  EXPECT_EQ(stats.lemma_evictions_frequent, 0u);
  EXPECT_EQ(stats.lemma_evictions_core, 0u);
  EXPECT_NE(db.LookupFeasibility(core), nullptr);
  EXPECT_NE(db.LookupFeasibility(hot), nullptr);
}

TEST(LemmaDatabaseTest, EvictionReachesFrequentThenCoreOldestFirst) {
  KernelStats stats;
  LemmaDatabase db(/*max_entries=*/2, &stats);
  const CanonicalSystem core1 = Canon(Interval(0, 1));
  db.InsertFeasibility(core1, Feasible(), LemmaDatabase::kCorePivots);
  const CanonicalSystem frequent = Canon(Interval(2, 3));
  db.InsertFeasibility(frequent, Feasible(), /*pivots=*/1);
  for (uint32_t i = 0; i < LemmaDatabase::kFrequentUses; ++i) {
    db.LookupFeasibility(frequent);
  }
  // With no transient left, a frequent lemma goes before any core.
  const CanonicalSystem core2 = Canon(Interval(4, 5));
  db.InsertFeasibility(core2, Feasible(), LemmaDatabase::kCorePivots);
  EXPECT_EQ(stats.lemma_evictions_frequent, 1u);
  EXPECT_EQ(db.LookupFeasibility(frequent), nullptr);
  // A store of cores only drops its oldest core.
  const CanonicalSystem core3 = Canon(Interval(6, 7));
  db.InsertFeasibility(core3, Feasible(), LemmaDatabase::kCorePivots);
  EXPECT_EQ(stats.lemma_evictions_core, 1u);
  EXPECT_EQ(db.LookupFeasibility(core1), nullptr);
  EXPECT_NE(db.LookupFeasibility(core2), nullptr);
  // Tier outranks age: a new transient is the first to go.
  const CanonicalSystem transient = Canon(Interval(8, 9));
  db.InsertFeasibility(transient, Feasible(), /*pivots=*/1);
  EXPECT_EQ(stats.lemma_evictions_transient, 1u);
  EXPECT_EQ(db.LookupFeasibility(transient), nullptr);
  EXPECT_EQ(db.size(), 2u);
  EXPECT_EQ(stats.cache_evictions, 3u);
}

TEST(LemmaDatabaseTest, ImplicationAndFeasibilityShareOnePool) {
  KernelStats stats;
  LemmaDatabase db(/*max_entries=*/16, &stats);
  const CanonicalSystem canon = Canon(Interval(0, 10));
  std::string key = canon.encoding;
  key.push_back('!');
  const uint64_t hash = StableHash64(key);
  db.InsertImplication(hash, key, /*consistent=*/false, /*pivots=*/1);
  db.InsertFeasibility(canon, Feasible(), /*pivots=*/1);
  EXPECT_EQ(db.size(), 2u);
  std::optional<bool> impl = db.LookupImplication(hash, key);
  ASSERT_TRUE(impl.has_value());
  EXPECT_FALSE(*impl);
  // A proved implication (consistent == false) is pinned core.
  EXPECT_GE(db.TierCounts()[0], 1u);
  // The feasibility keyspace never contains '!', so the pool stays disjoint:
  // the feasibility lemma is still found under its own key.
  EXPECT_NE(db.LookupFeasibility(canon), nullptr);
}

// --- Kernel integration ---

Conjunction ParseConj(const std::string& text) {
  DnfFormula f = ParseDnf(text, {"x"}).value();
  return f.disjuncts()[0];
}

TEST(KernelLemmaTest, ClearCacheDropsLemmas) {
  ConstraintKernel kernel;
  ASSERT_NE(kernel.lemma_db(), nullptr);
  ScopedKernel scope(kernel);
  const Conjunction conj = ParseConj("x >= 0 & x <= 1");
  CurrentKernel().IsFeasible(conj);
  EXPECT_EQ(kernel.lemma_db()->size(), 1u);
  kernel.ClearCache();
  EXPECT_EQ(kernel.lemma_db()->size(), 0u);
  // The cleared store re-learns on the next query.
  CurrentKernel().IsFeasible(conj);
  EXPECT_EQ(kernel.lemma_db()->size(), 1u);
}

TEST(KernelLemmaTest, SecondEvaluateHitsLemmasAndInvalidationIsExact) {
  // Two well-separated disjuncts; the query's constraint work touches both.
  DnfFormula rep(1, {Interval(0, 1), Interval(5, 6)});
  ConstraintDatabase db("S", rep, {"x"});
  auto ext = MakeArrangementExtension(db);
  ConstraintKernel kernel;
  ASSERT_NE(kernel.lemma_db(), nullptr);
  ScopedKernel scope(kernel);
  const std::string query = "S(x) & x >= 5";

  auto first = EvaluateQueryText(*ext, query);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_GT(kernel.lemma_db()->size(), 0u);
  const uint64_t first_oracle_calls = kernel.stats().oracle_calls;
  ASSERT_GT(first_oracle_calls, 0u);

  // Second Evaluate on the same database: lemmas learned by the first run
  // answer from the store.
  kernel.ResetStats();
  auto second = EvaluateQueryText(*ext, query);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_GT(kernel.stats().lemma_hits, 0u);
  EXPECT_EQ(first->formula, second->formula);

  // Invalidation is exact: ClearCache drops every lemma, and the next
  // Evaluate re-learns by paying the first run's oracle calls again, with
  // a byte-identical answer.
  kernel.ClearCache();
  EXPECT_EQ(kernel.lemma_db()->size(), 0u);
  kernel.ResetStats();
  auto third = EvaluateQueryText(*ext, query);
  ASSERT_TRUE(third.ok()) << third.status().ToString();
  EXPECT_EQ(first->formula, third->formula);
  EXPECT_EQ(kernel.stats().oracle_calls, first_oracle_calls);
}

TEST(KernelLemmaTest, MetricsRegistryExportsLemmaFamily) {
  ConstraintKernel kernel;
  const Conjunction conj = ParseConj("x >= 0 & x <= 1");
  ScopedKernel scope(kernel);
  CurrentKernel().IsFeasible(conj);
  CurrentKernel().IsFeasible(conj);
  MetricsRegistry registry;
  registry.RegisterKernelStats(kernel.stats());
  const MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.values.at("kernel.lemma.hits"), 1u);
  EXPECT_EQ(snapshot.values.at("kernel.lemma.insertions"), 1u);
  EXPECT_EQ(snapshot.values.at("kernel.lemma.occupancy"), 1u);
  EXPECT_NE(snapshot.ToJson().find("\"kernel.lemma.hits\""),
            std::string::npos);
}

}  // namespace
}  // namespace lcdb
