#ifndef LCDB_ENGINE_SESSION_H_
#define LCDB_ENGINE_SESSION_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "core/evaluator.h"
#include "db/region_extension.h"
#include "engine/governor.h"
#include "engine/kernel.h"
#include "engine/metrics.h"
#include "engine/obslog.h"
#include "engine/profiler.h"
#include "engine/trace.h"
#include "util/status.h"

namespace lcdb {

// The failure taxonomy (FailureClass / ClassifyFailure / FailureClassName)
// lives in engine/obslog.h now — the flight recorder names outcomes with
// it below the evaluator layer — and is re-exported here unchanged.

/// One rung dropped by the degradation ladder, for the log the tests pin.
struct DegradationStep {
  std::string rung;    ///< "memoize->off", "trace->off"
  size_t attempt = 0;  ///< attempt index (0-based) whose failure dropped it
};

struct SessionOptions {
  /// First-rung evaluator configuration. capture_resume is forced on when
  /// `use_resume` is set.
  Evaluator::Options eval;
  /// Configuration of the session's kernel (see QuerySession).
  ConstraintKernel::Options kernel;
  /// Base per-attempt budgets. A governor is installed only when at least
  /// one budget is finite, so unbudgeted sessions stay zero-overhead.
  GovernorLimits limits;
  /// Record a span trace per attempt (the ladder's last rung turns it off).
  bool trace = false;
  /// Attempts allowed beyond the first.
  size_t max_retries = 3;
  /// Consume resume tokens on resource retries (core/resume.h), so a retry
  /// continues from the interrupted Kleene stage instead of restarting.
  bool use_resume = true;
  /// Finite budgets multiply by this on every resource retry (clamped at
  /// kUnlimited on overflow). 0 and 1 both mean "retry on the same budget".
  uint64_t budget_escalation = 2;
  /// Evaluations of the same query text that must fail deterministically
  /// (ladder and retries exhausted) before the text is quarantined and
  /// subsequent evaluations are rejected without running.
  size_t quarantine_threshold = 3;
  /// Continuous-profiling policy (engine/profiler.h): sample_every == 0
  /// (the default here) disables it; N > 0 auto-installs a tracer for every
  /// Nth query and folds its spans into the profile.op.* histograms. The
  /// sampled tracer is independent of `trace` above, which traces every
  /// attempt.
  ContinuousProfiler::Options profile{.sample_every = 0};
  /// When non-empty, every Evaluate call that ends in a non-OK Status
  /// serializes a post-mortem bundle (engine/obslog.h) into this directory.
  std::string postmortem_dir;
};

/// Cumulative counters of one session, exported as the session.* metrics
/// family (QuerySession::Metrics).
struct SessionStats {
  uint64_t queries = 0;      ///< Evaluate/EvaluateSentence calls
  uint64_t successes = 0;
  uint64_t failures = 0;     ///< calls that exhausted the ladder
  uint64_t invalid = 0;      ///< calls rejected as kInvalid (no retries)
  uint64_t attempts = 0;     ///< evaluator runs, including retries
  uint64_t retries = 0;
  uint64_t resumes = 0;      ///< retries that continued from a checkpoint
  uint64_t degradations = 0;
  uint64_t budget_escalations = 0;
  uint64_t quarantined = 0;  ///< texts currently on the quarantine list
  uint64_t quarantine_rejections = 0;

  std::string ToString() const;
};

/// A resilient evaluation session: wraps the Evaluator with a failure
/// taxonomy, a deterministic degradation ladder, bounded retries with
/// budget escalation and checkpoint/resume, and a quarantine list.
///
/// The session owns one ConstraintKernel, built from SessionOptions::kernel.
/// Memoizing attempts of every call run on it, so a later call is served
/// the lemmas an earlier one proved. Lemmas are pure truths, and the
/// kernel inserts only complete verdicts, so a failed attempt cannot poison
/// a later one. An attempt on the memoize->off rung runs on a fresh
/// non-memoizing kernel.
///
/// Each Evaluate call runs a retry loop of at most 1 + max_retries
/// attempts, every attempt under (when budgeted) a fresh governor:
///
///  * kResource failures escalate every finite budget by
///    `budget_escalation` and retry, continuing from the checkpoint the
///    failure Status carried (byte-identical final answers — see
///    core/resume.h). A *second* consecutive resource failure at the same
///    rung also drops a rung: the configuration may be the problem.
///  * kFault failures (internal/unsupported) drop one ladder rung and
///    retry. The rung order is fixed: kernel memoization -> off, tracing ->
///    off. Checkpoints survive both drops by design.
///  * kInvalid and kCancelled never retry.
///
/// A call that exhausts the ladder counts one deterministic failure
/// against its query text; at `quarantine_threshold` the text is
/// quarantined and later calls are rejected (kResourceExhausted) without
/// consuming any budget, until ClearQuarantine().
///
/// The session is single-threaded, like the Evaluator it wraps.
class QuerySession {
 public:
  explicit QuerySession(const RegionExtension& extension,
                        SessionOptions options = {});

  /// Parses, type-checks and evaluates `query_text` through the retry
  /// ladder. The returned Status of a failed call is the *last* attempt's.
  Result<QueryAnswer> Evaluate(std::string_view query_text);

  /// Sentence variant: the answer must have no free element variables;
  /// returns its truth value.
  Result<bool> EvaluateSentence(std::string_view query_text);

  const SessionStats& stats() const { return stats_; }

  /// Every rung dropped over the session's lifetime, in drop order — the
  /// ladder-order contract session_test.cc pins.
  const std::vector<DegradationStep>& degradation_log() const {
    return degradation_log_;
  }

  bool IsQuarantined(std::string_view query_text) const;
  void ClearQuarantine();

  /// Replaces the base budgets for subsequent calls (lcdbsh `\set`).
  void set_limits(const GovernorLimits& limits) { options_.limits = limits; }
  const SessionOptions& options() const { return options_; }

  /// The session's kernel: its lemma store and cumulative counters (lcdbsh
  /// `\show cache`).
  const ConstraintKernel& kernel() const { return kernel_; }

  /// The session.* counter family merged over the most recent call's
  /// evaluator metrics (evaluator.*, kernel.*, governor.*, plan.*, op.*) —
  /// the one flat namespace `lcdbq --stats` prints.
  MetricsSnapshot Metrics() const;

  /// The span trace of the most recent attempt, when SessionOptions::trace
  /// was on (or the profiler sampled the call) and the trace->off rung has
  /// not been dropped for that call.
  const QueryTracer* tracer() const { return tracer_.get(); }

  /// The continuous profiler, when SessionOptions::profile.sample_every is
  /// nonzero (lcdbsh `\show profile`); nullptr otherwise.
  const ContinuousProfiler* profiler() const { return profiler_.get(); }

  /// Post-mortem bundles written so far / the most recent bundle's path
  /// ("" until the first failure under a configured postmortem_dir).
  uint64_t postmortems_written() const {
    return postmortem_ ? postmortem_->written() : 0;
  }
  const std::string& last_postmortem_path() const {
    static const std::string kEmpty;
    return postmortem_ ? postmortem_->last_path() : kEmpty;
  }

 private:
  /// Mutable per-call ladder state: the remaining rungs plus the attempt
  /// configuration they degrade.
  struct LadderState {
    std::vector<std::string> rungs;  ///< pending drops, in drop order
    ConstraintKernel::Options kernel;
    GovernorLimits limits;
    bool trace = false;
    size_t resource_failures_at_rung = 0;
  };

  /// `force_trace` ORs the profiler's sampling decision into the starting
  /// rung, so a sampled call records spans even when options_.trace is off.
  LadderState InitialLadder(bool force_trace) const;
  /// Drops the next rung, applying it to `ladder`. Returns false when no
  /// rung is left.
  bool Degrade(LadderState& ladder, size_t attempt);
  void EscalateBudgets(LadderState& ladder);
  /// The retry loop around one parsed query. `key` is the quarantine key
  /// (the source text).
  Result<QueryAnswer> RunLadder(const FormulaNode& query,
                                const std::string& key,
                                std::string_view source, bool force_trace);
  /// Bookkeeping for a call that exhausted the ladder.
  void RecordDeterministicFailure(const std::string& key);
  /// Serializes one post-mortem bundle for a failed call, when
  /// options_.postmortem_dir is configured. Write errors are swallowed
  /// (diagnostics must never turn a query failure into a crash), but
  /// counted nowhere — the chaos CI asserts bundles exist instead.
  void WritePostmortem(std::string_view query_text, const Status& status,
                       uint64_t attempts, uint64_t retries,
                       uint64_t resumes, size_t ladder_log_before,
                       bool attempted);

  const RegionExtension& ext_;
  SessionOptions options_;
  ConstraintKernel kernel_;
  SessionStats stats_;
  std::vector<DegradationStep> degradation_log_;
  std::map<std::string, size_t> failure_streaks_;
  std::set<std::string, std::less<>> quarantine_;
  std::unique_ptr<QueryTracer> tracer_;
  /// Metrics of the most recent call's evaluator, kept past its lifetime.
  MetricsSnapshot last_eval_metrics_;
  std::string last_failure_class_;
  std::unique_ptr<ContinuousProfiler> profiler_;  ///< when sampling is on
  std::unique_ptr<PostmortemWriter> postmortem_;  ///< when a dir is set
};

}  // namespace lcdb

#endif  // LCDB_ENGINE_SESSION_H_
