// Mutation harness for the tier-3 plan verifier: seeded mutants over the
// compiled corpus (every data/*.lcdb seed database x the canned queries from
// core/queries.h) must each be rejected by VerifyPlan with the expected
// LCDB012 sub-reason, and the *unmutated* corpus must verify cleanly and
// evaluate with the verifier armed (the zero-false-positive half of the
// contract).
//
// The mutant sample is seeded from LCDB_VERIFY_SEED (CI passes
// GITHUB_RUN_ID, so every CI run probes a different sample); any seed must
// pass. Mutation operators edit one plan node in place, verify, then
// restore — a final re-verification per plan proves the restore was exact.
// LCDB_TEST_DATA_DIR is injected by CMake.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <memory>
#include <random>
#include <string>
#include <unordered_set>
#include <utility>
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
#include "plan/plan_ir.h"
#include "plan/planner.h"
#include "util/status.h"

namespace lcdb {
namespace {

#ifndef LCDB_TEST_DATA_DIR
#define LCDB_TEST_DATA_DIR "data"
#endif

/// At most this many mutants per (plan, operator) pair; positions are
/// sampled with the run seed so different CI runs probe different sites.
constexpr size_t kSitesPerOperator = 4;

uint64_t RunSeed() {
  static const uint64_t seed = [] {
    uint64_t s = 0xc0ffee;  // fixed default for local runs
    if (const char* env = std::getenv("LCDB_VERIFY_SEED");
        env != nullptr && *env != '\0') {
      s = std::strtoull(env, nullptr, 10);
    }
    std::cerr << "[verify_mutation] LCDB_VERIFY_SEED=" << s << "\n";
    return s;
  }();
  return seed;
}

/// The corpus: every seed database in data/ with every canned query that
/// typechecks against it (mirrors the analyzer / plan-equivalence sweeps).
struct CorpusEntry {
  std::string label;
  std::string text;
  std::shared_ptr<RegionExtension> ext;
};

void BuildCorpus(std::vector<CorpusEntry>* corpus) {
  for (const char* name : {"comb.lcdb", "intervals.lcdb", "pentagon.lcdb",
                           "triangle.lcdb", "wedge.lcdb"}) {
    auto db =
        LoadDatabaseFromFile(std::string(LCDB_TEST_DATA_DIR) + "/" + name);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    std::shared_ptr<RegionExtension> ext = MakeArrangementExtension(*db);
    const std::vector<std::string> texts = {
        RegionConnQueryText(),
        RegionConnTcQueryText(false),
        RegionConnTcQueryText(true),
        ConnQueryText(db->arity()),
        RiverPollutionQueryText(),
        "exists R R' . [rbit x : x > 0](R, R')",
    };
    for (const std::string& text : texts) {
      auto query = ParseQuery(text, db->relation_name());
      if (!query.ok()) continue;
      auto info = TypeCheck(**query, *db);
      if (!info.ok()) continue;  // e.g. arity-mismatched canned query
      corpus->push_back({std::string(name) + " :: " + text, text, ext});
    }
  }
  ASSERT_FALSE(corpus->empty());
}

CompiledPlan CompileEntry(const CorpusEntry& entry) {
  auto query = ParseQuery(entry.text, entry.ext->database().relation_name());
  EXPECT_TRUE(query.ok()) << entry.label;
  auto info = TypeCheck(**query, entry.ext->database());
  EXPECT_TRUE(info.ok()) << entry.label;
  CompiledPlan plan = BuildPlan(**query, *info, *entry.ext);
  PlanPassStats pass_stats;
  OptimizePlan(&plan, &pass_stats);
  return plan;
}

bool MessageMatches(const std::string& message,
                    const std::vector<std::string>& expected) {
  for (const std::string& want : expected) {
    if (message.find(want) != std::string::npos) return true;
  }
  return false;
}

/// Fisher-Yates shuffle, then keep the first kSitesPerOperator sites.
template <typename T>
std::vector<T> Sample(std::vector<T> sites, std::mt19937_64& rng) {
  for (size_t i = sites.size(); i > 1; --i) {
    std::uniform_int_distribution<size_t> pick(0, i - 1);
    std::swap(sites[i - 1], sites[pick(rng)]);
  }
  if (sites.size() > kSitesPerOperator) sites.resize(kSitesPerOperator);
  return sites;
}

// ---------------------------------------------------------------------------
// Plan mutation operators: mutate one node field in place, verify, restore.

struct PlanMutation {
  const char* name;
  std::function<bool(const PlanNode&)> eligible;
  /// Mutates the node and returns the undo closure.
  std::function<std::function<void()>(PlanNode&)> apply;
  std::vector<std::string> expected;
};

std::vector<PlanMutation> PlanMutations() {
  std::vector<PlanMutation> ops;
  // Stale annotation: clear a nonempty free-region set (would corrupt memo
  // keys silently at runtime).
  ops.push_back({"clear-free-region",
                 [](const PlanNode& n) { return !n.free_region.empty(); },
                 [](PlanNode& n) -> std::function<void()> {
                   auto saved = n.free_region;
                   n.free_region.clear();
                   return [&n, saved] { n.free_region = saved; };
                 },
                 {"annotation mismatch"}});
  ops.push_back({"bump-est-fanout",
                 [](const PlanNode&) { return true; },
                 [](PlanNode& n) -> std::function<void()> {
                   const size_t saved = n.est_fanout;
                   n.est_fanout = saved + 17;
                   return [&n, saved] { n.est_fanout = saved; };
                 },
                 {"annotation mismatch"}});
  // Ill-formed cache key: cache-mark a constant.
  ops.push_back({"cache-mark-constant",
                 [](const PlanNode& n) {
                   return (n.op == PlanOp::kConstFormula ||
                           n.op == PlanOp::kConstBool) &&
                          n.cache == CachePolicy::kNone;
                 },
                 [](PlanNode& n) -> std::function<void()> {
                   n.cache = CachePolicy::kByRegionKey;
                   return [&n] { n.cache = CachePolicy::kNone; };
                 },
                 {"cache key ill-formed"}});
  // Missing binder on a region quantifier.
  ops.push_back({"clear-region-binder",
                 [](const PlanNode& n) {
                   return n.op == PlanOp::kExpandExists ||
                          n.op == PlanOp::kExpandForall ||
                          n.op == PlanOp::kAnyRegion ||
                          n.op == PlanOp::kAllRegion;
                 },
                 [](PlanNode& n) -> std::function<void()> {
                   auto saved = n.region_var;
                   n.region_var.clear();
                   return [&n, saved] { n.region_var = saved; };
                 },
                 {"missing binder"}});
  // Mode confusion: swap a symbolic connective for its boolean twin, so
  // its (symbolic) children no longer match the operator's mode.
  ops.push_back({"retype-connective",
                 [](const PlanNode& n) {
                   return n.op == PlanOp::kAndSym || n.op == PlanOp::kOrSym;
                 },
                 [](PlanNode& n) -> std::function<void()> {
                   const PlanOp saved = n.op;
                   n.op = saved == PlanOp::kAndSym ? PlanOp::kAndBool
                                                   : PlanOp::kOrBool;
                   return [&n, saved] { n.op = saved; };
                 },
                 {"mode confusion"}});
  return ops;
}

/// Preorder over the plan DAG, each distinct node once.
void CollectNodes(PlanNode* node, std::unordered_set<PlanNode*>* seen,
                  std::vector<PlanNode*>* out) {
  if (node == nullptr || !seen->insert(node).second) return;
  out->push_back(node);
  for (const PlanPtr& child : node->children) {
    CollectNodes(child.get(), seen, out);
  }
}

size_t MutatePlan(CompiledPlan& plan, const std::string& label,
                  std::mt19937_64& rng) {
  std::vector<PlanNode*> nodes;
  std::unordered_set<PlanNode*> seen;
  CollectNodes(plan.root.get(), &seen, &nodes);
  size_t mutants = 0;
  for (const PlanMutation& mutation : PlanMutations()) {
    std::vector<PlanNode*> sites;
    for (PlanNode* node : nodes) {
      if (mutation.eligible(*node)) sites.push_back(node);
    }
    for (PlanNode* node : Sample(std::move(sites), rng)) {
      std::function<void()> undo = mutation.apply(*node);
      Status verdict = VerifyPlan(plan, "mutation");
      EXPECT_FALSE(verdict.ok())
          << label << ": plan mutant survived operator " << mutation.name
          << " on " << PlanOpName(node->op);
      if (!verdict.ok()) {
        EXPECT_TRUE(MessageMatches(verdict.message(), mutation.expected))
            << label << ": plan operator " << mutation.name
            << " killed with the wrong sub-reason:\n"
            << verdict.ToString();
      }
      undo();
      ++mutants;
    }
  }
  EXPECT_TRUE(VerifyPlan(plan, "mutation").ok()) << label;
  return mutants;
}

// ---------------------------------------------------------------------------

TEST(VerifyMutationTest, CorpusHasNoFalsePositives) {
  ConstraintKernel kernel;
  ScopedKernel scoped(kernel);
  std::vector<CorpusEntry> corpus;
  BuildCorpus(&corpus);
  for (const CorpusEntry& entry : corpus) {
    SCOPED_TRACE(entry.label);
    // Static acceptance.
    CompiledPlan plan = CompileEntry(entry);
    EXPECT_TRUE(VerifyPlan(plan, "corpus").ok());
    // End-to-end acceptance with the verifier gate armed (the default).
    auto answer = EvaluateQueryText(*entry.ext, entry.text);
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  }
}

TEST(VerifyMutationTest, SeededMutantsAllKilled) {
  ConstraintKernel kernel;
  ScopedKernel scoped(kernel);
  std::mt19937_64 rng(RunSeed());
  std::vector<CorpusEntry> corpus;
  BuildCorpus(&corpus);
  size_t total = 0;
  for (const CorpusEntry& entry : corpus) {
    SCOPED_TRACE(entry.label);
    CompiledPlan plan = CompileEntry(entry);
    total += MutatePlan(plan, entry.label, rng);
  }
  std::cerr << "[verify_mutation] mutants=" << total << "\n";
  EXPECT_GE(total, 300u);
}

}  // namespace
}  // namespace lcdb
