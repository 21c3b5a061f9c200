#include "engine/session.h"

#include <string>
#include <utility>

#include "constraint/canonical.h"
#include "core/parser.h"

namespace lcdb {

namespace {

/// Budget multiplication that saturates at kUnlimited instead of wrapping.
uint64_t Escalate(uint64_t value, uint64_t factor) {
  if (value == GovernorLimits::kUnlimited || factor <= 1) return value;
  if (value > GovernorLimits::kUnlimited / factor) {
    return GovernorLimits::kUnlimited;
  }
  return value * factor;
}

bool AnyFinite(const GovernorLimits& limits) {
  const uint64_t u = GovernorLimits::kUnlimited;
  return limits.wall_clock_ms != u || limits.max_feasibility_queries != u ||
         limits.max_simplex_pivots != u ||
         limits.max_fixpoint_iterations != u || limits.max_tuple_space != u ||
         limits.max_dnf_disjuncts != u || limits.max_bigint_bits != u;
}

}  // namespace

std::string SessionStats::ToString() const {
  std::string out = "queries=" + std::to_string(queries);
  out += " successes=" + std::to_string(successes);
  out += " failures=" + std::to_string(failures);
  out += " invalid=" + std::to_string(invalid);
  out += " attempts=" + std::to_string(attempts);
  out += " retries=" + std::to_string(retries);
  out += " resumes=" + std::to_string(resumes);
  out += " degradations=" + std::to_string(degradations);
  out += " budget_escalations=" + std::to_string(budget_escalations);
  out += " quarantined=" + std::to_string(quarantined);
  out += " quarantine_rejections=" + std::to_string(quarantine_rejections);
  return out;
}

QuerySession::QuerySession(const RegionExtension& extension,
                           SessionOptions options)
    : ext_(extension), options_(std::move(options)) {
  if (options_.profile.sample_every > 0) {
    profiler_ = std::make_unique<ContinuousProfiler>(options_.profile);
  }
  if (!options_.postmortem_dir.empty()) {
    PostmortemWriter::Options postmortem_options;
    postmortem_options.directory = options_.postmortem_dir;
    postmortem_ = std::make_unique<PostmortemWriter>(postmortem_options);
  }
}

QuerySession::LadderState QuerySession::InitialLadder(
    bool force_trace) const {
  LadderState ladder;
  ladder.kernel = options_.kernel;
  ladder.limits = options_.limits;
  ladder.trace = options_.trace || force_trace;
  // The fixed drop order DESIGN.md documents: shed the newest/most
  // speculative machinery first, the answer-preserving basics last.
  if (ladder.kernel.memoize) ladder.rungs.push_back("memoize->off");
  if (ladder.trace) ladder.rungs.push_back("trace->off");
  return ladder;
}

bool QuerySession::Degrade(LadderState& ladder, size_t attempt) {
  if (ladder.rungs.empty()) return false;
  const std::string rung = ladder.rungs.front();
  ladder.rungs.erase(ladder.rungs.begin());
  if (rung == "memoize->off") {
    ladder.kernel.memoize = false;
  } else if (rung == "trace->off") {
    ladder.trace = false;
  }
  ladder.resource_failures_at_rung = 0;
  ++stats_.degradations;
  degradation_log_.push_back(DegradationStep{rung, attempt});
  return true;
}

void QuerySession::EscalateBudgets(LadderState& ladder) {
  const uint64_t f = options_.budget_escalation;
  if (f <= 1 || !AnyFinite(ladder.limits)) return;
  GovernorLimits& l = ladder.limits;
  l.wall_clock_ms = Escalate(l.wall_clock_ms, f);
  l.max_feasibility_queries = Escalate(l.max_feasibility_queries, f);
  l.max_simplex_pivots = Escalate(l.max_simplex_pivots, f);
  l.max_fixpoint_iterations = Escalate(l.max_fixpoint_iterations, f);
  l.max_tuple_space = Escalate(l.max_tuple_space, f);
  l.max_dnf_disjuncts = Escalate(l.max_dnf_disjuncts, f);
  l.max_bigint_bits = Escalate(l.max_bigint_bits, f);
  ++stats_.budget_escalations;
}

void QuerySession::RecordDeterministicFailure(const std::string& key) {
  ++stats_.failures;
  const size_t streak = ++failure_streaks_[key];
  if (options_.quarantine_threshold > 0 &&
      streak >= options_.quarantine_threshold &&
      quarantine_.insert(key).second) {
    ++stats_.quarantined;
  }
}

Result<QueryAnswer> QuerySession::RunLadder(const FormulaNode& query,
                                            const std::string& key,
                                            std::string_view source,
                                            bool force_trace) {
  LadderState ladder = InitialLadder(force_trace);
  // Untraced call: drop the previous call's tracer so the tracer() /
  // post-mortem surfaces never serve a stale span tree as this call's.
  if (!ladder.trace) tracer_.reset();
  Evaluator::Options eval_options = options_.eval;
  if (options_.use_resume) eval_options.capture_resume = true;
  // One evaluator spans every attempt of this call: resume tokens are
  // scoped to the instance.
  Evaluator evaluator(ext_, eval_options);
  evaluator.AttachSource(std::string(source));

  uint64_t resume_token = 0;
  Status last;
  for (size_t attempt = 0;; ++attempt) {
    ++stats_.attempts;
    // Fresh kernel per attempt: a degraded rung must not serve verdicts
    // cached by the configuration that just failed. The shared lemma store
    // (when configured) survives on purpose — its verdicts hold under
    // every configuration — and a memoize-off kernel ignores it.
    ConstraintKernel kernel(ladder.kernel, options_.lemmas);
    ScopedKernel scoped_kernel(kernel);
    std::unique_ptr<QueryGovernor> governor;
    std::unique_ptr<ScopedGovernor> scoped_governor;
    if (AnyFinite(ladder.limits)) {
      governor = std::make_unique<QueryGovernor>(ladder.limits);
      scoped_governor = std::make_unique<ScopedGovernor>(*governor);
    }
    std::unique_ptr<ScopedTracer> scoped_tracer;
    if (ladder.trace) {
      tracer_ = std::make_unique<QueryTracer>();
      scoped_tracer = std::make_unique<ScopedTracer>(*tracer_);
    }

    auto answer = evaluator.Evaluate(query, resume_token);
    resume_token = 0;  // tokens are single-use; never replay one
    // The evaluator snapshots the attempt's governor stats itself on
    // settle, so this already carries governor.* (incl. tripped_budget).
    last_eval_metrics_ = evaluator.stats().ToMetrics();
    if (answer.ok()) {
      ++stats_.successes;
      failure_streaks_.erase(key);
      last_failure_class_ = FailureClassName(FailureClass::kNone);
      return answer;
    }

    last = answer.status();
    const FailureClass c = ClassifyFailure(last);
    last_failure_class_ = FailureClassName(c);
    if (c == FailureClass::kInvalid) {
      ++stats_.invalid;
      return last;
    }
    if (c == FailureClass::kCancelled) {
      ++stats_.failures;
      return last;
    }
    if (attempt >= options_.max_retries) break;
    if (c == FailureClass::kResource) {
      ++ladder.resource_failures_at_rung;
      EscalateBudgets(ladder);
      if (options_.use_resume && last.resume_token() != 0) {
        resume_token = last.resume_token();
        ++stats_.resumes;
      }
      // Escalation alone did not save the previous retry at this rung:
      // suspect the configuration, not just the budget, and shed a rung too.
      if (ladder.resource_failures_at_rung >= 2) {
        Degrade(ladder, attempt);
      }
      ++stats_.retries;
      continue;
    }
    // kFault: the configuration is suspect; retry only with less of it.
    if (!Degrade(ladder, attempt)) break;
    ++stats_.retries;
  }

  RecordDeterministicFailure(key);
  return last;
}

Result<QueryAnswer> QuerySession::Evaluate(std::string_view query_text) {
  ++stats_.queries;
  // Per-call observability context: the profiler's deterministic sampling
  // decision (made before the query runs) and the counter baselines whose
  // deltas annotate the flight record and the post-mortem bundle.
  const bool sampled = profiler_ != nullptr && profiler_->ShouldSample();
  const uint64_t attempts_before = stats_.attempts;
  const uint64_t retries_before = stats_.retries;
  const uint64_t resumes_before = stats_.resumes;
  const size_t ladder_log_before = degradation_log_.size();
  QueryFlightRecorder* recorder = ActiveFlightRecorderOrNull();
  const uint64_t appended_before =
      recorder != nullptr ? recorder->appended() : 0;
  const uint64_t start_ns = ObsNowNs();

  // Observability epilogue shared by every exit of this call.
  auto finish = [&](const Status& status) {
    const uint64_t total_ns = ObsNowNs() - start_ns;
    const bool attempted = stats_.attempts > attempts_before;
    const char* outcome = FailureClassName(ClassifyFailure(status));
    if (profiler_ != nullptr) {
      profiler_->RecordQuery(
          total_ns, !status.ok(),
          (sampled && attempted) ? tracer_.get() : nullptr);
    }
    if (recorder != nullptr) {
      if (recorder->appended() == appended_before) {
        // No attempt ran (quarantine rejection, parse error), so the
        // evaluator appended nothing; the session appends a minimal record
        // itself — the flight log covers *every* query, not every attempt.
        QueryRecord rec;
        rec.query_hash = StableHash64(std::string(query_text));
        rec.backend = "none";
        rec.total_ns = total_ns;
        rec.outcome = outcome;
        rec.status_code = StatusCodeName(status.code());
        recorder->Append(std::move(rec));
      }
      recorder->AnnotateLast(stats_.retries - retries_before,
                             stats_.resumes - resumes_before, outcome,
                             sampled);
    }
    if (!status.ok() && postmortem_ != nullptr) {
      WritePostmortem(query_text, status,
                      stats_.attempts - attempts_before,
                      stats_.retries - retries_before,
                      stats_.resumes - resumes_before, ladder_log_before,
                      attempted);
    }
  };

  const std::string key(query_text);
  if (quarantine_.find(key) != quarantine_.end()) {
    ++stats_.quarantine_rejections;
    Status rejected = Status::ResourceExhausted(
        "query is quarantined after repeated deterministic failures; "
        "ClearQuarantine() lifts it");
    finish(rejected);
    return rejected;
  }
  auto parsed = ParseQuery(query_text, ext_.database().relation_name());
  if (!parsed.ok()) {
    ++stats_.invalid;
    last_failure_class_ = FailureClassName(FailureClass::kInvalid);
    finish(parsed.status());
    return parsed.status();
  }
  auto answer = RunLadder(**parsed, key, query_text, sampled);
  finish(answer.ok() ? Status::Ok() : answer.status());
  return answer;
}

void QuerySession::WritePostmortem(std::string_view query_text,
                                   const Status& status, uint64_t attempts,
                                   uint64_t retries, uint64_t resumes,
                                   size_t ladder_log_before,
                                   bool attempted) {
  PostmortemBundle bundle;
  bundle.query_hash = StableHash64(std::string(query_text));
  bundle.query_text = std::string(query_text);
  bundle.status_code = StatusCodeName(status.code());
  bundle.status_message = status.message();
  bundle.failure_class = FailureClassName(ClassifyFailure(status));
  bundle.resume_token = status.resume_token();
  bundle.attempts = attempts;
  bundle.retries = retries;
  bundle.resumes = resumes;
  for (size_t i = ladder_log_before; i < degradation_log_.size(); ++i) {
    bundle.ladder.push_back(degradation_log_[i].rung + "@" +
                            std::to_string(degradation_log_[i].attempt));
  }
  if (attempted && tracer_ != nullptr) {
    bundle.span_tree = tracer_->ToTreeString();
  }
  // The metrics delta vs query start: last_eval_metrics_ is exactly the
  // final attempt's evaluator families (each Evaluate resets its per-query
  // stats), so no subtraction is needed here.
  bundle.metrics_json = attempted ? last_eval_metrics_.ToJson() : "{}";
  if (QueryFlightRecorder* recorder = ActiveFlightRecorderOrNull()) {
    bundle.flight_tail = recorder->Tail(8);
  }
  // Best-effort by contract (see session.h): a failed diagnostic write
  // must not mask the query's own failure.
  (void)postmortem_->Write(bundle);
}

Result<bool> QuerySession::EvaluateSentence(std::string_view query_text) {
  auto answer = Evaluate(query_text);
  if (!answer.ok()) return answer.status();
  if (!answer->free_vars.empty()) {
    return Status::InvalidArgument(
        "sentence expected: query has free element variables");
  }
  return !answer->formula.IsEmpty();
}

bool QuerySession::IsQuarantined(std::string_view query_text) const {
  return quarantine_.find(query_text) != quarantine_.end();
}

void QuerySession::ClearQuarantine() {
  quarantine_.clear();
  failure_streaks_.clear();
  stats_.quarantined = 0;
}

MetricsSnapshot QuerySession::Metrics() const {
  MetricsRegistry registry;
  registry.Count("session.queries", stats_.queries);
  registry.Count("session.successes", stats_.successes);
  registry.Count("session.failures", stats_.failures);
  registry.Count("session.invalid", stats_.invalid);
  registry.Count("session.attempts", stats_.attempts);
  registry.Count("session.retries", stats_.retries);
  registry.Count("session.resumes", stats_.resumes);
  registry.Count("session.degradations", stats_.degradations);
  registry.Count("session.budget_escalations", stats_.budget_escalations);
  registry.Gauge("session.quarantined", stats_.quarantined);
  registry.Count("session.quarantine_rejections",
                 stats_.quarantine_rejections);
  if (!last_failure_class_.empty()) {
    registry.Label("session.last_failure_class", last_failure_class_);
  }
  MetricsSnapshot snapshot = registry.Snapshot();
  snapshot.Merge(last_eval_metrics_);
  // The cross-query profile.* family (histograms fed by sampled traces)
  // rides along, so one --stats dump carries both scopes.
  if (profiler_ != nullptr) snapshot.Merge(profiler_->Metrics());
  return snapshot;
}

}  // namespace lcdb
