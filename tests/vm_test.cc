// Tests for the plan bytecode pipeline (plan/bytecode.h, plan/vm.h): the
// disassembler's golden listing, inline-cache hit/miss/invalidation
// accounting across ScopedKernel swaps, vm.* stats plumbing, the
// use_bytecode && !optimize rejection, per-op memo-hit attribution parity
// between the tree walk and the VM, governor budget trips landing
// mid-bytecode-loop, and failpoint unwinds leaving the evaluator reusable.

#include <gtest/gtest.h>

#include <string>

#include "analysis/bytecode_verify.h"
#include "constraint/parser.h"
#include "core/evaluator.h"
#include "core/parser.h"
#include "core/queries.h"
#include "core/typecheck.h"
#include "db/region_extension.h"
#include "db/workloads.h"
#include "engine/governor.h"
#include "engine/kernel.h"
#include "plan/bytecode.h"
#include "plan/optimizer.h"
#include "plan/planner.h"
#include "plan/vm.h"
#include "util/failpoint.h"
#include "util/status.h"

namespace lcdb {
namespace {

ConstraintDatabase IntervalsDb() {
  auto f = ParseDnf("(x > 0 & x < 1) | x = 5", {"x"});
  EXPECT_TRUE(f.ok()) << f.status().ToString();
  return ConstraintDatabase("S", *f, {"x"});
}

/// Compiles `text` against `ext` to an optimized bytecode program, the way
/// the evaluator facade does — tier-3 verification included, since the VM
/// refuses programs whose `verified` flag is unset.
BytecodeProgram Compile(const RegionExtension& ext, const std::string& text) {
  auto query = ParseQuery(text, ext.database().relation_name());
  EXPECT_TRUE(query.ok()) << query.status().ToString();
  auto info = TypeCheck(**query, ext.database());
  EXPECT_TRUE(info.ok()) << info.status().ToString();
  CompiledPlan plan = BuildPlan(**query, *info, ext);
  PlanPassStats pass_stats;
  OptimizePlan(&plan, &pass_stats);
  BytecodeProgram program = CompileToBytecode(plan);
  BytecodeVerifyResult verdict = VerifyBytecode(program);
  EXPECT_TRUE(verdict.status.ok()) << verdict.status.ToString();
  program.verified = verdict.status.ok();
  return program;
}

Evaluator::Options VmOptions() {
  Evaluator::Options options;
  options.use_bytecode = true;
  return options;
}

TEST(VmTest, DisassemblerGolden) {
  // A query touching both modes (symbolic QE + boolean region loop) and a
  // memo-marked subplan, pinned byte-for-byte. If lowering legitimately
  // changes, update the golden — the point is that it cannot drift
  // unnoticed.
  ConstraintDatabase db = IntervalsDb();
  auto ext = MakeArrangementExtension(db);
  ConstraintKernel kernel;
  ScopedKernel scoped(kernel);
  BytecodeProgram program =
      Compile(*ext, "exists R . (subset(R) & exists y . (S(y) & y >= 0))");
  EXPECT_EQ(
      DisassembleBytecode(program),
      "proc 0 (main): sym sregs=4 bregs=1 iregs=1\n"
      "  0000  enter.sym     s0 #0 expand.exists memo=m0 skip->0029\n"
      "  0001  begin.op      expand.exists [timed,expand]\n"
      "  0002  load.false    s0\n"
      "  0003  load.imm      i0 0\n"
      "  0004  loop.head     i0 exit->0027 stride=0\n"
      "  0005  set_region    R = i0\n"
      "  0006  enter.sym     s1 #1 and.sym memo=m1 skip->0024\n"
      "  0007  enter.sym     s1 #2 lift_bool\n"
      "  0008  enter.bool    b0 #3 region_atom\n"
      "  0009  region_atom   b0 R\n"
      "  0010  leave.bool    b0\n"
      "  0011  lift_bool     s1 b0\n"
      "  0012  leave.sym     s1\n"
      "  0013  jmp.sym_false s1 ->0023\n"
      "  0014  enter.sym     s2 #4 qe.exists memo=m2 skip->0022\n"
      "  0015  begin.op      qe.exists [timed,qe]\n"
      "  0016  enter.sym     s3 #5 const.formula\n"
      "  0017  const.formula s3 {(-x0 < 0 & x0 < 1 & -x0 <= 0)...}\n"
      "  0018  leave.sym     s3\n"
      "  0019  qe.exists     s2 s3 col0\n"
      "  0020  end.op        qe.exists\n"
      "  0021  leave.sym     s2 memo=m2\n"
      "  0022  and.sym       s1 s2\n"
      "  0023  leave.sym     s1 memo=m1\n"
      "  0024  or.sym        s0 s1\n"
      "  0025  jmp.sym_true  s0 ->0027\n"
      "  0026  loop.next     i0 ->0004\n"
      "  0027  end.op        expand.exists\n"
      "  0028  leave.sym     s0 memo=m0\n"
      "  0029  halt          \n"
      "memo m0: regions={}\n"
      "memo m1: regions={R}\n"
      "memo m2: regions={}\n"
      "-- 1 proc(s), 30 instruction(s), 0 inline cache slot(s)\n");
}

TEST(VmTest, DisassemblerListsEveryProcAndFootersMatch) {
  ConstraintDatabase db = MakeComb(2, true);
  auto ext = MakeArrangementExtension(db);
  BytecodeProgram program = Compile(*ext, RegionConnQueryText());
  const std::string listing = DisassembleBytecode(program);
  for (size_t p = 0; p < program.procs.size(); ++p) {
    EXPECT_NE(listing.find("proc " + std::to_string(p)), std::string::npos);
  }
  EXPECT_NE(listing.find("proc 0 (main)"), std::string::npos);
  EXPECT_NE(listing.find(std::to_string(program.procs.size()) + " proc(s)"),
            std::string::npos);
  EXPECT_NE(
      listing.find(std::to_string(program.TotalInstructions()) +
                   " instruction(s)"),
      std::string::npos);
  // A fixpoint query lowers its body as a separate proc and a fixpoint
  // site referencing it.
  EXPECT_GE(program.procs.size(), 2u);
  EXPECT_EQ(program.fixpoint_sites.size(), 1u);
}

TEST(VmTest, VmStatsPopulatedAndByteIdentical) {
  ConstraintDatabase db = MakeComb(2, true);
  auto ext = MakeArrangementExtension(db);
  auto query = ParseQuery(RegionConnQueryText(), db.relation_name());
  ASSERT_TRUE(query.ok());

  Evaluator tree(*ext);
  auto tree_answer = tree.Evaluate(**query);
  ASSERT_TRUE(tree_answer.ok());
  // The tree backend never touches the VM counters.
  EXPECT_EQ(tree.stats().vm.instructions, 0u);
  EXPECT_EQ(tree.stats().vm.procs, 0u);

  Evaluator vm(*ext, VmOptions());
  auto vm_answer = vm.Evaluate(**query);
  ASSERT_TRUE(vm_answer.ok());
  EXPECT_EQ(tree_answer->ToString(), vm_answer->ToString());
  EXPECT_GT(vm.stats().vm.instructions, 0u);
  EXPECT_GE(vm.stats().vm.procs, 2u);
  EXPECT_GT(vm.stats().vm.code_instructions, 0u);
  // Core evaluation telemetry matches the tree walk exactly (same memo
  // cadence, same operator visits).
  EXPECT_EQ(tree.stats().node_evaluations, vm.stats().node_evaluations);
  EXPECT_EQ(tree.stats().bool_evaluations, vm.stats().bool_evaluations);
  EXPECT_EQ(tree.stats().memo_hits, vm.stats().memo_hits);
  EXPECT_EQ(tree.stats().fixpoint_iterations, vm.stats().fixpoint_iterations);
  // vm.* metrics are schema-stable on both backends.
  EXPECT_NE(tree.stats().ToJson().find("\"vm.instructions\":0"),
            std::string::npos);
  EXPECT_NE(vm.stats().ToJson().find("\"vm.procs\":"), std::string::npos);
}

TEST(VmTest, OpTimingMemoHitsSettleIdentically) {
  // Satellite contract: per-op memo-hit attribution must agree between the
  // backends (total_ns is wall-clock and excluded).
  ConstraintDatabase db = MakeComb(2, true);
  auto ext = MakeArrangementExtension(db);
  auto query = ParseQuery(RegionConnQueryText(), db.relation_name());
  ASSERT_TRUE(query.ok());
  Evaluator tree(*ext);
  ASSERT_TRUE(tree.Evaluate(**query).ok());
  Evaluator vm(*ext, VmOptions());
  ASSERT_TRUE(vm.Evaluate(**query).ok());
  EXPECT_EQ(tree.stats().op_timings.size(), vm.stats().op_timings.size());
  for (const auto& [op, timing] : tree.stats().op_timings) {
    auto it = vm.stats().op_timings.find(op);
    ASSERT_NE(it, vm.stats().op_timings.end()) << op;
    EXPECT_EQ(timing.count, it->second.count) << op;
    EXPECT_EQ(timing.memo_hits, it->second.memo_hits) << op;
  }
}

TEST(VmTest, InlineCacheHitsAndKernelSwapInvalidation) {
  // Drive the VM directly across several Run() calls (memoization off so
  // kernel call sites re-execute): a re-run under the same kernel hits the
  // inline caches; a ScopedKernel swap invalidates on first touch. The rBIT
  // site is monomorphic here — the constant body `x > 0` yields the same
  // implication key for every (R, R') pair — so after the first miss every
  // later probe under the same kernel is a hit.
  ConstraintDatabase db = IntervalsDb();
  auto ext = MakeArrangementExtension(db);
  ConstraintKernel kernel_a;
  Evaluator::Options options;
  options.memoize = false;
  options.use_bytecode = true;
  Evaluator::Stats stats;
  BytecodeProgram program = [&] {
    ScopedKernel scoped(kernel_a);
    return Compile(*ext, "exists R R' . [rbit x : x > 0](R, R')");
  }();
  ASSERT_GT(program.num_icache_slots, 0u);
  BytecodeVm vm(program, *ext, options, &stats);

  std::string first;
  {
    ScopedKernel scoped(kernel_a);
    first = vm.Run().ToString();
  }
  ASSERT_GT(stats.vm.icache_misses, 0u);
  EXPECT_EQ(stats.vm.icache_invalidations, 0u);
  const uint64_t misses_after_first = stats.vm.icache_misses;

  {
    // Same kernel: every site serves its verdict from the inline cache.
    ScopedKernel scoped(kernel_a);
    EXPECT_EQ(vm.Run().ToString(), first);
  }
  EXPECT_GT(stats.vm.icache_hits, 0u);
  EXPECT_EQ(stats.vm.icache_misses, misses_after_first);

  {
    // Swapped kernel: stale slots are dropped (counted), then refilled.
    ConstraintKernel kernel_b;
    ScopedKernel scoped(kernel_b);
    EXPECT_EQ(vm.Run().ToString(), first);
  }
  EXPECT_GT(stats.vm.icache_invalidations, 0u);
  EXPECT_GT(stats.vm.icache_misses, misses_after_first);
}

TEST(VmTest, ClearCacheInvalidatesInlineCaches) {
  // Satellite contract: a cleared kernel must never serve a stale inline-
  // cache hit. ClearCache() bumps the kernel's cache epoch; every filled
  // slot was pinned under the old epoch, so the next probe invalidates and
  // re-misses instead of serving the retired verdict.
  ConstraintDatabase db = IntervalsDb();
  auto ext = MakeArrangementExtension(db);
  ConstraintKernel kernel;
  Evaluator::Options options;
  options.memoize = false;
  options.use_bytecode = true;
  Evaluator::Stats stats;
  BytecodeProgram program = [&] {
    ScopedKernel scoped(kernel);
    return Compile(*ext, "exists R R' . [rbit x : x > 0](R, R')");
  }();
  ASSERT_GT(program.num_icache_slots, 0u);
  BytecodeVm vm(program, *ext, options, &stats);
  ScopedKernel scoped(kernel);

  const std::string first = vm.Run().ToString();
  ASSERT_GT(stats.vm.icache_misses, 0u);
  const uint64_t misses_after_first = stats.vm.icache_misses;

  // Sanity: without a clear, the re-run is pure hits — no new misses.
  EXPECT_EQ(vm.Run().ToString(), first);
  EXPECT_EQ(stats.vm.icache_misses, misses_after_first);
  EXPECT_GT(stats.vm.icache_hits, 0u);

  const uint64_t epoch_before = kernel.CacheEpoch();
  kernel.ClearCache();
  EXPECT_GT(kernel.CacheEpoch(), epoch_before);

  // Post-clear: same kernel pointer, new epoch — every filled slot's first
  // probe must drop the stale verdict (counted as an invalidation) and
  // re-miss into the kernel; later probes of the refilled slot may hit
  // again under the *new* epoch, which is correct.
  EXPECT_EQ(vm.Run().ToString(), first);
  EXPECT_GT(stats.vm.icache_invalidations, 0u);
  EXPECT_GT(stats.vm.icache_misses, misses_after_first);

  // InvalidateDisjunct moves the epoch too (lemma backend only): another
  // run after it re-misses again rather than serving stale slots.
  if (kernel.lemma_db() != nullptr) {
    const uint64_t misses_after_clear = stats.vm.icache_misses;
    const uint64_t invalidations_after_clear = stats.vm.icache_invalidations;
    kernel.InvalidateDisjunct(0);
    EXPECT_EQ(vm.Run().ToString(), first);
    EXPECT_GT(stats.vm.icache_misses, misses_after_clear);
    EXPECT_GT(stats.vm.icache_invalidations, invalidations_after_clear);
  }
}

TEST(VmTest, GovernorBudgetsTripMidLoop) {
  // Each budget must trip from inside bytecode execution (fixpoint loops,
  // dispatch checkpoints) and surface as the documented Status, with the
  // budget named in the governor stats.
  ConstraintDatabase db = MakeComb(2, true);
  auto ext = MakeArrangementExtension(db);

  struct Case {
    const char* budget;
    GovernorLimits limits;
    StatusCode code;
    std::string query;
  };
  GovernorLimits fixpoint_limits;
  fixpoint_limits.max_fixpoint_iterations = 1;
  GovernorLimits pivot_limits;
  pivot_limits.max_simplex_pivots = 1;
  GovernorLimits space_limits;
  space_limits.max_tuple_space = 1;
  GovernorLimits deadline_limits;
  deadline_limits.wall_clock_ms = 0;
  // The conn query needs no kernel decisions at eval time (adjacency and
  // subset flags are precomputed with the arrangement), so the pivot budget
  // is exercised with an element-sort projection that must simplify through
  // the feasibility oracle.
  const Case cases[] = {
      {"max_fixpoint_iterations", fixpoint_limits,
       StatusCode::kResourceExhausted, RegionConnQueryText()},
      {"max_simplex_pivots", pivot_limits, StatusCode::kResourceExhausted,
       "exists x . S(x, y)"},
      {"max_tuple_space", space_limits, StatusCode::kResourceExhausted,
       RegionConnQueryText()},
      {"wall_clock_ms", deadline_limits, StatusCode::kDeadlineExceeded,
       RegionConnQueryText()},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.budget);
    auto query = ParseQuery(c.query, db.relation_name());
    ASSERT_TRUE(query.ok());
    // Fresh kernel per case: the process-default kernel's feasibility cache
    // would otherwise satisfy the pivot case without running the simplex.
    ConstraintKernel kernel;
    ScopedKernel scoped_kernel(kernel);
    QueryGovernor governor(c.limits);
    ScopedGovernor scoped(governor);
    Evaluator evaluator(*ext, VmOptions());
    auto answer = evaluator.Evaluate(**query);
    ASSERT_FALSE(answer.ok());
    EXPECT_EQ(answer.status().code(), c.code);
    EXPECT_EQ(governor.stats().tripped_budget, c.budget);
    EXPECT_EQ(evaluator.stats().governor.tripped_budget, c.budget);
  }
}

TEST(VmTest, FailpointUnwindLeavesEvaluatorReusable) {
  // Injected faults at the executor root and inside fixpoint/closure loops
  // must unwind through the VM (closing its operator timers) and leave the
  // evaluator able to answer the same query correctly afterwards.
  ConstraintDatabase db = MakeComb(2, true);
  auto ext = MakeArrangementExtension(db);
  std::string tc_query = RegionConnTcQueryText(false);
  for (const auto& [site, text] :
       {std::pair<const char*, std::string>{"plan.execute",
                                            RegionConnQueryText()},
        {"fixpoint.stage", RegionConnQueryText()},
        {"closure.build", tc_query}}) {
    SCOPED_TRACE(site);
    auto query = ParseQuery(text, db.relation_name());
    ASSERT_TRUE(query.ok());
    Evaluator evaluator(*ext, VmOptions());
    ArmFailpoint(site, StatusCode::kInternal, "injected");
    auto failed = evaluator.Evaluate(**query);
    DisarmAllFailpoints();
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.status().code(), StatusCode::kInternal);
    auto recovered = evaluator.Evaluate(**query);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    Evaluator oracle(*ext);
    auto expected = oracle.Evaluate(**query);
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ(expected->ToString(), recovered->ToString());
  }
}

TEST(VmTest, ExplainBytecodeMatchesDirectDisassembly) {
  ConstraintDatabase db = IntervalsDb();
  auto ext = MakeArrangementExtension(db);
  const std::string text = "exists y . (S(y) & y >= 0)";
  auto query = ParseQuery(text, db.relation_name());
  ASSERT_TRUE(query.ok());
  Evaluator evaluator(*ext);
  auto listing = evaluator.ExplainBytecode(**query);
  ASSERT_TRUE(listing.ok()) << listing.status().ToString();
  EXPECT_EQ(*listing, DisassembleBytecode(Compile(*ext, text)));
  EXPECT_GT(evaluator.stats().vm.code_instructions, 0u);

  Evaluator::Options raw;
  raw.optimize = false;
  Evaluator rejecting(*ext, raw);
  auto rejected = rejecting.ExplainBytecode(**query);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
}

TEST(VmTest, PlanCostStatsExported) {
  // The tier-2 pass runs on every optimized compile; its aggregates land
  // in stats and the plan.cost.* metrics family.
  ConstraintDatabase db = MakeComb(2, true);
  auto ext = MakeArrangementExtension(db);
  auto query = ParseQuery(RegionConnQueryText(), db.relation_name());
  ASSERT_TRUE(query.ok());
  Evaluator evaluator(*ext, VmOptions());
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

TEST(VmTest, ExplainBytecodeRefreshesPlanCost) {
  // ExplainBytecode runs the same compile phases as Evaluate, cost pass
  // included, so stats().plan_cost describes its own query — never the
  // previous compile's.
  ConstraintDatabase db = MakeComb(2, true);
  auto ext = MakeArrangementExtension(db);
  auto big = ParseQuery(RegionConnQueryText(), db.relation_name());
  auto small = ParseQuery("exists R . subset(R)", db.relation_name());
  ASSERT_TRUE(big.ok() && small.ok());
  Evaluator reference(*ext, VmOptions());
  ASSERT_TRUE(reference.Evaluate(**small).ok());
  const PlanCostStats expected = reference.stats().plan_cost;

  Evaluator evaluator(*ext, VmOptions());
  ASSERT_TRUE(evaluator.Evaluate(**big).ok());
  ASSERT_NE(evaluator.stats().plan_cost.nodes, expected.nodes);
  ASSERT_TRUE(evaluator.ExplainBytecode(**small).ok());
  EXPECT_EQ(evaluator.stats().plan_cost.nodes, expected.nodes);
  EXPECT_EQ(evaluator.stats().plan_cost.total_bigint_ops,
            expected.total_bigint_ops);
}

}  // namespace
}  // namespace lcdb
