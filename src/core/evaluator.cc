#include "core/evaluator.h"

#include <optional>
#include <set>

#include "analysis/analyzer.h"
#include "analysis/plan_verify.h"
#include "constraint/canonical.h"
#include "analysis/plan_cost.h"
#include "core/parser.h"
#include "engine/governor.h"
#include "engine/kernel.h"
#include "engine/obslog.h"
#include "engine/trace.h"
#include "plan/executor.h"
#include "plan/optimizer.h"
#include "plan/planner.h"
#include "util/interrupt.h"
#include "util/status.h"

namespace lcdb {

Evaluator::Evaluator(const RegionExtension& extension)
    : Evaluator(extension, Options()) {}

Evaluator::Evaluator(const RegionExtension& extension, Options options)
    : ext_(extension), options_(options) {}

namespace {

/// Pre-checks that every fixed-point and TC operator's region-tuple space
/// n^k stays within the configured cap, so evaluation cannot run away on
/// adversarial arities (returned as a Status instead of aborting later).
Status CheckTupleSpaces(const FormulaNode& node, size_t num_regions,
                        size_t max_tuple_space) {
  size_t k = 0;
  switch (node.kind) {
    case NodeKind::kLfp:
    case NodeKind::kIfp:
    case NodeKind::kPfp:
      k = node.bound_vars.size();
      break;
    case NodeKind::kTc:
    case NodeKind::kDtc:
      // The closure matrix is quadratic in the m-tuple space.
      k = node.bound_vars.size();
      break;
    default:
      break;
  }
  if (k > 0 && num_regions > 1) {
    size_t space = 1;
    for (size_t i = 0; i < k; ++i) {
      if (space > max_tuple_space / num_regions) {
        return Status::ResourceExhausted(
            "operator tuple space exceeds max_tuple_space (" +
            std::to_string(max_tuple_space) + ") in: " +
            node.ToString().substr(0, 120));
      }
      space *= num_regions;
    }
  }
  for (const auto& child : node.children) {
    LCDB_RETURN_IF_ERROR(
        CheckTupleSpaces(*child, num_regions, max_tuple_space));
  }
  return Status::Ok();
}

/// Start of a phase clock: read only when a flight record is being kept,
/// so the unrecorded path stays clock-free.
uint64_t PhaseStartNs(const QueryRecord* record) {
  return record != nullptr ? ObsNowNs() : 0;
}

}  // namespace

void Evaluator::SettleAmbient(const KernelStats& kernel_before,
                              TraceSpan* span) {
  const KernelStats delta = CurrentKernel().stats() - kernel_before;
  stats_.kernel += delta;
  if (span != nullptr) {
    // Lemma-database share of this query's kernel work; zero counters are
    // suppressed so the memoize-off configuration keeps its span shapes
    // unchanged.
    if (delta.lemma_hits > 0) span->Counter("lemma.hits", delta.lemma_hits);
    const uint64_t lemma_evictions = delta.lemma_evictions_core +
                                     delta.lemma_evictions_frequent +
                                     delta.lemma_evictions_transient;
    if (lemma_evictions > 0) span->Counter("lemma.evictions", lemma_evictions);
  }
  if (QueryGovernor* g = CurrentGovernorOrNull()) stats_.governor = g->stats();
}

Result<TypeInfo> Evaluator::TypecheckPhase(const FormulaNode& query,
                                           QueryRecord* record) {
  const uint64_t start_ns = PhaseStartNs(record);
  Result<TypeInfo> checked = [&] {
    TraceSpan typecheck_span("typecheck");
    return TypeCheck(query, ext_.database());
  }();
  if (record != nullptr) record->typecheck_ns = ObsNowNs() - start_ns;
  if (!checked.ok()) return checked.status();
  LCDB_RETURN_IF_ERROR(CheckTupleSpaces(query, ext_.num_regions(),
                                        options_.max_tuple_space));
  return checked;
}

Status Evaluator::AnalyzePhase(const FormulaNode& query, const TypeInfo& info,
                               QueryRecord* record) {
  // Guard classification consults the ambient oracle, so its work counts
  // against this query's budgets, and every truth it establishes is
  // memoized for the optimizer's folding pass downstream. Hard diagnostics
  // turn into a clean rejection before any plan is built, so no entry point
  // prints or runs a plan for a query Evaluate would reject.
  TraceSpan analyze_span("analyze");
  const uint64_t start_ns = PhaseStartNs(record);
  AnalyzerOptions analyzer_options;
  analyzer_options.num_regions = ext_.num_regions();
  analyzer_options.max_tuple_space = options_.max_tuple_space;
  AnalysisResult analysis = AnalyzeQuery(query, info, analyzer_options);
  stats_.analysis = analysis.stats;
  if (record != nullptr) record->analyze_ns = ObsNowNs() - start_ns;
  if (!analysis.diagnostics.empty()) {
    analyze_span.Counter("diagnostics", analysis.diagnostics.size());
  }
  if (analysis.has_errors()) return AnalysisErrorStatus(analysis, source_);
  return Status::Ok();
}

CompiledPlan Evaluator::PlanBuildPhase(const FormulaNode& query,
                                       const TypeInfo& info,
                                       QueryRecord* record) {
  TraceSpan build_span("plan.build");
  const uint64_t start_ns = PhaseStartNs(record);
  CompiledPlan plan = BuildPlan(query, info, ext_);
  if (record != nullptr) record->plan_build_ns = ObsNowNs() - start_ns;
  return plan;
}

Status Evaluator::PlanOptimizePhase(CompiledPlan* plan, PlanCostReport* cost,
                                    QueryRecord* record) {
  const uint64_t start_ns = PhaseStartNs(record);
  if (options_.optimize) {
    {
      TraceSpan optimize_span("plan.optimize");
      OptimizePlan(plan, &stats_.plan);
      optimize_span.Counter("plan_nodes", stats_.plan.plan_nodes);
    }
    // Tier-2 pass over the optimized plan: cost estimates feed the
    // plan.cost.* metrics family (and the EXPLAIN cost column). Pure
    // plan-shape arithmetic — no kernel calls — but traced so its share of
    // compile time is visible.
    TraceSpan cost_span("plan.cost");
    PlanCostOptions cost_options;
    cost_options.max_tuple_space = options_.max_tuple_space;
    PlanCostReport report = AnalyzePlanCost(*plan, cost_options);
    stats_.plan_cost = report.stats;
    cost_span.Counter("est_bigint_ops", stats_.plan_cost.total_bigint_ops);
    if (cost != nullptr) *cost = std::move(report);
  } else {
    stats_.plan.plan_nodes = CountPlanNodes(*plan->root);
  }
  // Tier-3 gate: no plan reaches an executor or a printer unverified. A
  // violation here is an optimizer/planner bug surfacing as a clean LCDB012
  // kInternal instead of undefined executor behaviour downstream.
  if (options_.verify) {
    TraceSpan verify_span("plan.verify");
    LCDB_RETURN_IF_ERROR(VerifyPlan(
        *plan, options_.optimize ? "after plan.optimize" : "after plan.build",
        &stats_.verify));
    verify_span.Counter("plan_nodes", stats_.verify.plan_nodes_verified);
  }
  // The phase covers the pass pipeline, the tier-2 cost pass and the
  // verifier.
  if (record != nullptr) record->plan_optimize_ns = ObsNowNs() - start_ns;
  return Status::Ok();
}

Status Evaluator::Compile(const FormulaNode& query, const TypeInfo& info,
                          CompiledPlan* plan, PlanCostReport* cost,
                          QueryRecord* record) {
  // Per-compile telemetry: reset up front, so a query rejected before the
  // optimizer never reports the previous compile's numbers.
  stats_.plan = PlanPassStats();
  stats_.plan_cost = PlanCostStats();
  stats_.verify = VerifyStats();
  LCDB_RETURN_IF_ERROR(AnalyzePhase(query, info, record));
  *plan = PlanBuildPhase(query, info, record);
  return PlanOptimizePhase(plan, cost, record);
}

DnfFormula Evaluator::ExecutePhase(const CompiledPlan& plan,
                                   PlanProfile* profile, QueryRecord* record) {
  TraceSpan execute_span("plan.execute");
  const uint64_t start_ns = PhaseStartNs(record);
  PlanExecutor executor(plan, ext_, options_, &stats_);
  if (profile != nullptr) executor.EnableProfiling(profile);
  DnfFormula result = executor.Run();
  if (record != nullptr) record->execute_ns = ObsNowNs() - start_ns;
  execute_span.Counter("rows", result.disjuncts().size());
  return result;
}

Result<QueryAnswer> Evaluator::Evaluate(const FormulaNode& query) {
  return EvaluateImpl(query, nullptr, nullptr);
}

Result<QueryAnswer> Evaluator::Evaluate(const FormulaNode& query,
                                        uint64_t resume_token) {
  return EvaluateImpl(query, nullptr, nullptr, resume_token);
}

uint64_t Evaluator::ResumeFingerprint(const FormulaNode& query) const {
  // Site ordinals are pre-order positions in the executed plan, which is
  // determined by the query text plus optimized vs raw plan. memoize does
  // not move sites, so a token survives the memoize->off degradation step.
  std::string key = query.ToString();
  key += options_.optimize ? "|opt" : "|raw";
  return StableHash64(key);
}

Result<QueryAnswer> Evaluator::EvaluateImpl(const FormulaNode& query,
                                            PlanProfile* profile,
                                            CompiledPlan* plan_out,
                                            uint64_t resume_token) {
  // Flight-recorder instrumentation (engine/obslog.h): per-phase clocks are
  // read only when a recorder is installed, so the uninstrumented path
  // keeps the one-relaxed-load contract of the tracer/failpoint sites.
  QueryFlightRecorder* recorder = ActiveFlightRecorderOrNull();
  QueryRecord record;
  QueryRecord* const phase_record = recorder != nullptr ? &record : nullptr;
  const uint64_t record_start_ns = PhaseStartNs(phase_record);
  QueryTracer* ambient_tracer = ActiveTracerOrNull();
  const uint64_t tracer_dropped_before =
      ambient_tracer != nullptr ? ambient_tracer->spans_dropped() : 0;
  if (recorder != nullptr) {
    record.query_hash =
        StableHash64(source_.empty() ? query.ToString() : source_);
    record.backend = "tree";
  }
  // Rejections before the kernel window carry no kernel/governor data.
  auto append_early_failure = [&](const Status& status) {
    if (recorder == nullptr) return;
    record.total_ns = ObsNowNs() - record_start_ns;
    record.outcome = FailureClassName(ClassifyFailure(status));
    record.status_code = StatusCodeName(status.code());
    recorder->Append(std::move(record));
  };
  TraceSpan evaluate_span("evaluate");
  Result<TypeInfo> checked = TypecheckPhase(query, phase_record);
  if (!checked.ok()) {
    append_early_failure(checked.status());
    return checked.status();
  }
  TypeInfo info = std::move(checked).value();
  // The per-operator timings are per-query: without the reset repeated
  // Evaluate calls silently accumulate into one blurred total.
  stats_.op_timings.clear();

  // Checkpoint/resume plumbing (core/resume.h). A nonzero token re-installs
  // the ResumeState a prior interrupted run stashed; the collector is
  // published thread-locally so the executor reaches it without signature
  // changes. Tokens are single-use: the stored state is consumed
  // here whether or not the continuation succeeds.
  std::optional<ResumeCollector> resume_collector;
  std::optional<ScopedResumeCollector> scoped_resume;
  if (options_.capture_resume) {
    ResumeState resume_seed;
    if (resume_token != 0) {
      auto stored = resume_states_.find(resume_token);
      if (stored == resume_states_.end()) {
        Status unknown =
            Status::InvalidArgument("unknown or expired resume token");
        append_early_failure(unknown);
        return unknown;
      }
      const bool matches =
          stored->second.fingerprint == ResumeFingerprint(query);
      if (matches) resume_seed = std::move(stored->second.state);
      resume_states_.erase(stored);
      if (!matches) {
        Status mismatch = Status::InvalidArgument(
            "resume token does not match this query/plan");
        append_early_failure(mismatch);
        return mismatch;
      }
    }
    resume_collector.emplace(std::move(resume_seed));
    scoped_resume.emplace(*resume_collector);
  } else if (resume_token != 0) {
    Status uncapturable = Status::InvalidArgument(
        "resume token passed but Options::capture_resume is off");
    append_early_failure(uncapturable);
    return uncapturable;
  }

  // Attribute the kernel's oracle work to this evaluation: everything the
  // pipeline spends (DNF algebra, constant folding, QE, region tests) lands
  // between these two snapshots of the ambient kernel. Plan compilation
  // happens inside the window because the optimizer's folding pass issues
  // feasibility queries of its own.
  const KernelStats kernel_before = CurrentKernel().stats();
  stats_.governor = GovernorStats();
  // Bookkeeping shared by the success and interrupt exits. Every cache the
  // unwind can cross inserts complete entries only, and the executors'
  // memos live and die with one query, so a tripped query leaves the
  // evaluator ready for the next one with no residue.
  auto settle = [&] {
    SettleAmbient(kernel_before, &evaluate_span);
    if (ambient_tracer != nullptr) {
      // Ring evictions during this query: span-level attribution is now
      // incomplete, which the trace.spans_dropped counter makes visible.
      stats_.trace_spans_dropped +=
          ambient_tracer->spans_dropped() - tracer_dropped_before;
    }
  };
  // Settled-exit counterpart of append_early_failure: fills the governor
  // and kernel columns from the attempt's final stats and appends. Called
  // with Status::Ok() on the success path.
  auto finish_record = [&](const Status& status) {
    if (recorder == nullptr) return;
    record.total_ns = ObsNowNs() - record_start_ns;
    record.governor_checkpoints = stats_.governor.checkpoints;
    record.governor_budget_trips = stats_.governor.budget_trips;
    record.tripped_budget = stats_.governor.tripped_budget;
    const KernelStats kernel_delta = CurrentKernel().stats() - kernel_before;
    record.kernel_cache_hits =
        kernel_delta.cache_hits + kernel_delta.implication_cache_hits;
    record.kernel_cache_misses =
        kernel_delta.cache_misses + kernel_delta.implication_cache_misses;
    record.lemma_hits = kernel_delta.lemma_hits;
    record.lemma_misses = kernel_delta.lemma_misses;
    record.outcome = FailureClassName(ClassifyFailure(status));
    record.status_code = StatusCodeName(status.code());
    record.resume_token = status.resume_token();
    recorder->Append(std::move(record));
  };
  DnfFormula result = DnfFormula::False(info.all_element_vars.size());
  try {
    CompiledPlan plan;
    if (Status compiled = Compile(query, info, &plan, nullptr, phase_record);
        !compiled.ok()) {
      settle();
      finish_record(compiled);
      return compiled;
    }
    if (recorder != nullptr) {
      // The plan fingerprint hashes the final printed plan, so two records
      // agree exactly when their executions ran the same plan.
      record.plan_fingerprint = StableHash64(PrintPlan(plan));
    }
    if (plan_out != nullptr) *plan_out = plan;
    if (resume_collector.has_value()) {
      RegisterResumeSites(*plan.root, *resume_collector);
    }
    result = ExecutePhase(plan, profile, phase_record);
  } catch (const QueryInterrupt& interrupt) {
    // Recovery boundary: budget trips, cancellation and injected faults all
    // surface here as the Status naming what went wrong.
    settle();
    Status status = interrupt.status();
    // The executor's caches are stack-local, so it harvests its completed
    // fixpoint/closure sets into the collector during its own unwind.
    // Anything collected becomes a single-use token on the returned Status.
    if (resume_collector.has_value() && status.IsResourceFailure() &&
        resume_collector->has_progress()) {
      const uint64_t token = ++next_resume_token_;
      resume_states_[token] = StoredResumeState{
          ResumeFingerprint(query), resume_collector->TakeState()};
      while (resume_states_.size() > kMaxStoredResumeStates) {
        resume_states_.erase(resume_states_.begin());
      }
      status.set_resume_token(token);
    }
    finish_record(status);
    return status;
  }
  settle();

  // Keep only the free-variable columns (bound ones were eliminated; the
  // remaining order matches free_element_order by construction).
  std::set<std::string> free(info.free_element_order.begin(),
                             info.free_element_order.end());
  for (size_t col = info.all_element_vars.size(); col-- > 0;) {
    if (free.count(info.all_element_vars[col])) continue;
    if (VariableOccurs(result, col)) {
      Status leak = Status::Internal("bound variable '" +
                                     info.all_element_vars[col] +
                                     "' survived elimination");
      finish_record(leak);
      return leak;
    }
    result = DropVariable(result, col);
  }
  QueryAnswer answer{std::move(result), info.free_element_order};
  finish_record(Status::Ok());
  return answer;
}

Result<std::string> Evaluator::Explain(const FormulaNode& query) {
  TraceSpan explain_span("explain");
  LCDB_ASSIGN_OR_RETURN(TypeInfo info, TypecheckPhase(query, nullptr));
  // Compilation spends kernel work (the analyzer and the folding pass ask
  // feasibility questions), so Explain settles the ambient counters exactly
  // as Evaluate does — on the success and the interrupt path alike.
  const KernelStats kernel_before = CurrentKernel().stats();
  stats_.governor = GovernorStats();
  CompiledPlan plan;
  PlanCostReport cost;
  Status compiled;
  try {
    compiled = Compile(query, info, &plan, &cost, nullptr);
  } catch (const QueryInterrupt& interrupt) {
    // A budget or injected fault can fire while compiling too.
    compiled = interrupt.status();
  }
  SettleAmbient(kernel_before);
  if (!compiled.ok()) return compiled;
  if (!options_.optimize) {
    return PrintPlan(plan) + "-- " + stats_.plan.ToString() + "\n";
  }
  // Tier-2 estimates annotate every node line of the explain output and
  // surface the pass's diagnostics (LCDB011 dead caches, the cost-refined
  // LCDB004 budget warning) under the plan.
  std::string out = PrintPlan(plan, nullptr, &cost.costs);
  out += "-- " + stats_.plan.ToString() + "\n";
  out += "-- cost: nodes=" + std::to_string(cost.stats.nodes) +
         " est_bigint_ops=" + std::to_string(cost.stats.total_bigint_ops) +
         " est_answer_rows=" + std::to_string(cost.stats.est_answer_rows) +
         " dead_caches=" + std::to_string(cost.stats.dead_caches) + "\n";
  if (!cost.diagnostics.empty()) {
    out += RenderDiagnostics(cost.diagnostics, source_);
  }
  return out;
}

Result<std::string> Evaluator::ExplainAnalyze(const FormulaNode& query) {
  PlanProfile profile;
  CompiledPlan plan;
  // stats_.kernel and the evaluation counters are cumulative across
  // queries; diff them around the call to report only this execution in
  // the footer.
  const KernelStats kernel_cumulative_before = stats_.kernel;
  const size_t word_ops_before = stats_.relation_word_ops;
  const size_t bool_evaluations_before = stats_.bool_evaluations;
  LCDB_ASSIGN_OR_RETURN(QueryAnswer answer,
                        EvaluateImpl(query, &profile, &plan));
  std::string out = PrintPlan(plan, &profile);
  out += "-- " + stats_.plan.ToString() + "\n";
  out += "-- kernel: " + (stats_.kernel - kernel_cumulative_before).ToString() +
         "\n";
  out += "-- evaluator: relation_word_ops=" +
         std::to_string(stats_.relation_word_ops - word_ops_before) +
         " bool_evaluations=" +
         std::to_string(stats_.bool_evaluations - bool_evaluations_before) +
         "\n";
  out += "-- governor: " + stats_.governor.ToString() + "\n";
  out += "-- answer: " +
         std::to_string(answer.formula.disjuncts().size()) + " disjunct(s)";
  if (!answer.free_vars.empty()) {
    out += " over (";
    for (size_t i = 0; i < answer.free_vars.size(); ++i) {
      if (i > 0) out += ",";
      out += answer.free_vars[i];
    }
    out += ")";
  }
  out += "\n";
  return out;
}

Result<bool> Evaluator::EvaluateSentence(const FormulaNode& query,
                                         uint64_t resume_token) {
  LCDB_ASSIGN_OR_RETURN(QueryAnswer answer, Evaluate(query, resume_token));
  if (!answer.free_vars.empty()) {
    return Status::InvalidArgument("sentence has free element variables");
  }
  const KernelStats kernel_before = CurrentKernel().stats();
  try {
    // The emptiness test asks the kernel, so it is itself interruptible.
    // Settling mirrors Evaluate on both exits — in particular the governor
    // counters refresh on success too, so checkpoints spent on the
    // emptiness test are not dropped from stats().
    const bool truth = !answer.formula.IsEmpty();
    SettleAmbient(kernel_before);
    return truth;
  } catch (const QueryInterrupt& interrupt) {
    SettleAmbient(kernel_before);
    return interrupt.status();
  }
}

MetricsSnapshot Evaluator::Stats::ToMetrics() const {
  MetricsRegistry registry;
  registry.Count("evaluator.node_evaluations", node_evaluations);
  registry.Count("evaluator.bool_evaluations", bool_evaluations);
  registry.Count("evaluator.relation_word_ops", relation_word_ops);
  registry.Count("evaluator.memo_hits", memo_hits);
  registry.Count("evaluator.fixpoint_iterations", fixpoint_iterations);
  registry.Count("evaluator.fixpoints_computed", fixpoints_computed);
  registry.Count("evaluator.closures_computed", closures_computed);
  registry.Count("evaluator.qe_eliminations", qe_eliminations);
  registry.Count("evaluator.region_expansions", region_expansions);
  registry.Count("evaluator.fixpoint_feasibility_queries",
                 fixpoint_feasibility_queries);
  registry.Count("evaluator.closure_feasibility_queries",
                 closure_feasibility_queries);
  registry.Count("evaluator.resume.sets_restored", resume_sets_restored);
  registry.Count("evaluator.resume.fixpoints_resumed",
                 resume_fixpoints_resumed);
  registry.Count("evaluator.resume.stages_skipped", resume_stages_skipped);
  // Always registered (usually zero) so tail-latency dashboards can alert
  // on the first dropped span instead of on a missing series.
  registry.Count("trace.spans_dropped", trace_spans_dropped);
  registry.RegisterKernelStats(kernel);
  registry.RegisterGovernorStats(governor);
  registry.RegisterPlanPassStats(plan);
  registry.RegisterAnalysisStats(analysis);
  registry.RegisterOpTimings(op_timings);
  // Always registered (zeros when optimization was off) so the plan.cost.*
  // family is schema-stable for the bench harness and the CI metrics
  // assertions.
  registry.RegisterPlanCostStats(plan_cost);
  // Likewise always registered so analysis.verify.* is schema-stable even
  // under the --no-verify ablation.
  registry.RegisterVerifyStats(verify);
  return registry.Snapshot();
}

std::string Evaluator::Stats::ToJson() const { return ToMetrics().ToJson(); }

Result<QueryAnswer> EvaluateQueryText(const RegionExtension& extension,
                                      std::string_view query_text,
                                      Evaluator::Options options) {
  LCDB_ASSIGN_OR_RETURN(
      FormulaPtr query,
      ParseQuery(query_text, extension.database().relation_name()));
  Evaluator evaluator(extension, options);
  evaluator.AttachSource(std::string(query_text));
  return evaluator.Evaluate(*query);
}

Result<bool> EvaluateSentenceText(const RegionExtension& extension,
                                  std::string_view query_text,
                                  Evaluator::Options options) {
  LCDB_ASSIGN_OR_RETURN(
      FormulaPtr query,
      ParseQuery(query_text, extension.database().relation_name()));
  Evaluator evaluator(extension, options);
  evaluator.AttachSource(std::string(query_text));
  return evaluator.EvaluateSentence(*query);
}

}  // namespace lcdb
