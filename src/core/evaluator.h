#ifndef LCDB_CORE_EVALUATOR_H_
#define LCDB_CORE_EVALUATOR_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analysis/analysis_stats.h"
#include "analysis/verify_stats.h"
#include "core/ast.h"
#include "core/resume.h"
#include "core/typecheck.h"
#include "db/region_extension.h"
#include "engine/governor.h"
#include "engine/kernel_stats.h"
#include "engine/metrics.h"
#include "engine/trace.h"
#include "plan/plan_stats.h"
#include "qe/fourier_motzkin.h"

namespace lcdb {

struct CompiledPlan;
struct PlanCostReport;
struct QueryRecord;

/// Answer of a (possibly non-boolean) query: a quantifier-free DNF formula
/// over the query's free element variables — the closure property of
/// Section 2, made concrete. `free_vars[i]` names column i.
struct QueryAnswer {
  DnfFormula formula = DnfFormula::False(0);
  std::vector<std::string> free_vars;

  std::string ToString() const { return formula.ToString(free_vars); }
};

/// Evaluator for RegFO / RegLFP / RegIFP / RegPFP / RegTC / RegDTC queries
/// over a region extension. This is the proof of Theorem 4.3 (and the
/// fixed-point cases of Theorem 6.1) turned into an algorithm, run as the
/// pipeline typecheck -> analyze -> plan build -> plan optimize -> execute
/// (plan/planner.h, plan/optimizer.h, plan/executor.h):
///
///  * element-sort subformulas are evaluated *symbolically*: each node
///    yields a quantifier-free DNF formula over the query's element
///    variables, and element quantifiers are discharged by Fourier-Motzkin
///    elimination;
///  * region quantifiers expand over the finite region sort;
///  * fixed points iterate over sets of region tuples (Kleene iteration;
///    PFP with cycle detection and the empty-result convention);
///  * TC/DTC build the edge relation over region tuples once per operator
///    and take (deterministic) reflexive-transitive closures;
///  * rBIT evaluates its body to a univariate formula, tests for a
///    singleton rational and reads bits of its numerator/denominator.
///
/// Memoization: subformulas that do not depend on any set variable are
/// cached per assignment of their free region variables — across fixed-point
/// iterations this is the difference between O(iterations * |Reg|^k) and
/// O(|Reg|^k) evaluations of the M-independent parts. It can be disabled
/// (Options::memoize) for the ablation benchmark.
class Evaluator {
 public:
  struct Options {
    /// Cache set-variable-independent subformula results.
    bool memoize = true;
    /// Safety bound on PFP iterations before declaring divergence.
    size_t max_pfp_iterations = 1u << 16;
    /// Cap on n^m tuple-space size for fixed points and TC.
    size_t max_tuple_space = 1u << 22;
    /// Run the optimizer's pass pipeline over the compiled plan. Disabling
    /// it also disables all subformula caching, because caching decisions
    /// are a pass (MarkCacheable) — this is the ablation EXPERIMENTS.md's
    /// optimizer-telemetry row measures.
    bool optimize = true;
    /// Checkpoint fixpoint progress (core/resume.h) so a resource failure
    /// returns a Status carrying a resume token and Evaluate(query, token)
    /// continues from the saved stage. The never-tripped cost is one
    /// thread-local read plus a map lookup per fixpoint/closure operator
    /// (BM_ResumeVsRecompute bounds it under 2%); the off switch exists for
    /// that ablation.
    bool capture_resume = true;
    /// Tier-3 static verification (analysis/plan_verify.h): the compiled
    /// plan is checked after the optimizer pipeline (after BuildPlan when
    /// optimization is off). A violation surfaces as a clean LCDB012
    /// kInternal Status instead of undefined executor behaviour. The off
    /// switch exists for the BM_VerifyOverhead ablation (tax bounded under
    /// 2%).
    bool verify = true;
  };

  struct Stats {
    size_t node_evaluations = 0;
    /// Per-binding boolean evaluations: the leaf fills of the relation
    /// module (plan/relation_eval.h).
    size_t bool_evaluations = 0;
    /// 64-bit word operations of set-at-a-time relation evaluation: the
    /// unit its fixpoint and closure work is paid in.
    size_t relation_word_ops = 0;
    size_t memo_hits = 0;
    size_t fixpoint_iterations = 0;
    size_t fixpoints_computed = 0;
    size_t closures_computed = 0;
    size_t qe_eliminations = 0;
    size_t region_expansions = 0;
    /// Constraint-kernel telemetry attributed to this evaluator: the delta
    /// of CurrentKernel()'s counters accumulated over Evaluate /
    /// EvaluateSentence calls (oracle decisions, cache hits, simplex work).
    KernelStats kernel;
    /// Feasibility questions issued while computing fixpoint sets and
    /// TC/DTC closure matrices (subsets of `kernel.feasibility_queries`) —
    /// the oracle-decision counts Theorems 6.1/7.3 bound.
    size_t fixpoint_feasibility_queries = 0;
    size_t closure_feasibility_queries = 0;
    /// Resource-governance telemetry of the most recent Evaluate call:
    /// checkpoints passed, deadline reads, and — after a failed query —
    /// which budget tripped. All zeros when the query ran ungoverned.
    GovernorStats governor;
    /// Optimizer pass counters of the most recent compilation.
    PlanPassStats plan;
    /// Static-analyzer telemetry of the most recent Evaluate/Explain call
    /// (diagnostic counts by severity, guard classification work).
    AnalysisStats analysis;
    /// Wall-clock per-operator timings of the most recent Evaluate call
    /// (expensive operators only: QE, region expansion, hull, fixpoints,
    /// closures, rBIT), keyed by PlanOpName. Reset at each Evaluate entry.
    OpTimings op_timings;
    /// Tier-3 static-verifier telemetry (analysis/verify_stats.h) of the
    /// most recent compile: plans and nodes verified, violations found.
    /// Reset at each compile, like `plan` and `plan_cost`.
    VerifyStats verify;
    /// Tier-2 cost-analyzer aggregates of the most recent compile
    /// (analysis/plan_cost.h). Zeros when optimization was off.
    PlanCostStats plan_cost;
    /// Checkpoint/resume telemetry (core/resume.h), cumulative like the
    /// counters above: completed fixpoint/closure sets reused from a resume
    /// token, in-progress Kleene loops continued mid-iteration, and the
    /// total stage transitions those continuations did not recompute.
    size_t resume_sets_restored = 0;
    size_t resume_fixpoints_resumed = 0;
    size_t resume_stages_skipped = 0;
    /// Completed spans the installed tracer's bounded ring evicted during
    /// this evaluator's queries (exported as trace.spans_dropped). Nonzero
    /// means tail-latency attribution from the trace is incomplete.
    size_t trace_spans_dropped = 0;

    /// Unified named view over all the telemetry above: the evaluator's own
    /// counters as `evaluator.*` plus the kernel.*, governor.*, plan.* and
    /// op.* families (engine/metrics.h). Every exporter — `lcdbq --stats`,
    /// the bench harness JSON, tests — reads this one flat namespace.
    MetricsSnapshot ToMetrics() const;
    /// Flat metrics JSON of ToMetrics() (the schema CI validates).
    std::string ToJson() const;
  };

  explicit Evaluator(const RegionExtension& extension);
  Evaluator(const RegionExtension& extension, Options options);

  /// Attaches the query source text, so analyzer diagnostics carried by a
  /// rejection Status render with the offending line and a caret run under
  /// the span. Optional — without it diagnostics degrade to span-less
  /// messages. EvaluateQueryText / EvaluateSentenceText attach automatically.
  void AttachSource(std::string source) { source_ = std::move(source); }

  /// Evaluates a well-formed query (no free region or set variables);
  /// type-checks first. The answer formula ranges over the free element
  /// variables in first-appearance order.
  Result<QueryAnswer> Evaluate(const FormulaNode& query);

  /// Resume continuation: re-evaluates `query` seeded with the checkpoint a
  /// prior resource failure left behind (Status::resume_token), skipping
  /// every completed fixpoint stage instead of recomputing it. The final
  /// answer is byte-identical to an uninterrupted run. Tokens are
  /// single-use, bound to this evaluator instance, and validated against
  /// the query text and plan options that produced them (kInvalidArgument
  /// on mismatch, or on an unknown/expired token). Token 0 degrades to a
  /// plain Evaluate.
  Result<QueryAnswer> Evaluate(const FormulaNode& query,
                               uint64_t resume_token);

  /// Evaluates a sentence (no free variables at all) to its truth value.
  /// A nonzero `resume_token` continues from a saved checkpoint, as in
  /// Evaluate(query, token).
  Result<bool> EvaluateSentence(const FormulaNode& query,
                                uint64_t resume_token = 0);

  /// Compiles (and, per Options::optimize, optimizes) the query and returns
  /// the plan rendered as an annotated tree plus the optimizer's pass
  /// counters, without executing it (`lcdbq --explain`).
  Result<std::string> Explain(const FormulaNode& query);

  /// EXPLAIN ANALYZE: compiles, optimizes and *executes* the query,
  /// returning the plan tree annotated per node with measured execution —
  /// calls, inclusive wall-clock, kernel decisions and cache hits, executor
  /// memo hits, governor checkpoints and result cardinality — plus
  /// pass-counter / kernel / governor footer lines.
  /// Stats settle exactly as in Evaluate.
  Result<std::string> ExplainAnalyze(const FormulaNode& query);

  const Stats& stats() const { return stats_; }
  const RegionExtension& extension() const { return ext_; }

  const Options& options() const { return options_; }

 private:
  /// Shared engine of Evaluate and ExplainAnalyze: the full pipeline with
  /// optional per-plan-node profiling. When `plan_out` is non-null the
  /// compiled plan is copied out (it owns the nodes the profile's keys point
  /// at). A nonzero `resume_token` seeds execution with a saved checkpoint.
  Result<QueryAnswer> EvaluateImpl(const FormulaNode& query,
                                   PlanProfile* profile,
                                   CompiledPlan* plan_out,
                                   uint64_t resume_token = 0);

  // The pipeline phases, named after the flight recorder's phase fields
  // (engine/obslog.h) and opening the trace spans of the same names.
  // Evaluate, Explain and ExplainAnalyze all run them in this order; a
  // non-null `record` receives each phase's wall-clock. All but
  // TypecheckPhase ask the kernel, so they run inside the caller's kernel
  // window and QueryInterrupt boundary.

  /// Type checking plus the tuple-space pre-check.
  Result<TypeInfo> TypecheckPhase(const FormulaNode& query,
                                  QueryRecord* record);
  /// Mandatory static analysis; error diagnostics become the returned
  /// rejection, rendered against the attached source.
  Status AnalyzePhase(const FormulaNode& query, const TypeInfo& info,
                      QueryRecord* record);
  CompiledPlan PlanBuildPhase(const FormulaNode& query, const TypeInfo& info,
                              QueryRecord* record);
  /// The optimizer pipeline and the tier-2 cost pass (when
  /// Options::optimize; `cost`, if non-null, receives the report), then the
  /// tier-3 plan verifier (when Options::verify), whose violation is the
  /// returned Status.
  Status PlanOptimizePhase(CompiledPlan* plan, PlanCostReport* cost,
                           QueryRecord* record);
  /// The analyze, plan_build and plan_optimize phases back to back.
  Status Compile(const FormulaNode& query, const TypeInfo& info,
                 CompiledPlan* plan, PlanCostReport* cost,
                 QueryRecord* record);
  /// Runs the plan on the tree executor (plan/executor.h).
  DnfFormula ExecutePhase(const CompiledPlan& plan, PlanProfile* profile,
                          QueryRecord* record);

  /// Settles ambient per-query telemetry into stats_: the kernel delta
  /// since `kernel_before` and the installed governor's counters. When
  /// `span` is non-null, the lemma-database share of the delta is emitted
  /// as counters on that span (the evaluate span in EvaluateImpl).
  void SettleAmbient(const KernelStats& kernel_before,
                     TraceSpan* span = nullptr);

  const RegionExtension& ext_;
  Options options_;
  Stats stats_;
  std::string source_;  // query text for diagnostic rendering (may be empty)

  /// Checkpoints stashed by interrupted Evaluate calls, keyed by the token
  /// carried on the failure Status. `fingerprint` pins the query text and
  /// the site-numbering-relevant options, so a token cannot replay against
  /// a different query or plan. Bounded (oldest evicted) and single-use.
  struct StoredResumeState {
    uint64_t fingerprint = 0;
    ResumeState state;
  };
  static constexpr size_t kMaxStoredResumeStates = 4;
  uint64_t ResumeFingerprint(const FormulaNode& query) const;
  std::map<uint64_t, StoredResumeState> resume_states_;
  uint64_t next_resume_token_ = 0;
};

/// Convenience: parse + evaluate in one step (used by examples and tests).
Result<QueryAnswer> EvaluateQueryText(const RegionExtension& extension,
                                      std::string_view query_text,
                                      Evaluator::Options options = {});
Result<bool> EvaluateSentenceText(const RegionExtension& extension,
                                  std::string_view query_text,
                                  Evaluator::Options options = {});

}  // namespace lcdb

#endif  // LCDB_CORE_EVALUATOR_H_
