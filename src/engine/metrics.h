#ifndef LCDB_ENGINE_METRICS_H_
#define LCDB_ENGINE_METRICS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "analysis/analysis_stats.h"
#include "analysis/verify_stats.h"
#include "engine/governor.h"
#include "engine/kernel_stats.h"
#include "plan/plan_stats.h"

namespace lcdb {

/// A point-in-time reading of a MetricsRegistry: flat name → value maps,
/// diffable and serializable. Counter and gauge values share one numeric
/// namespace; histograms carry their log2 buckets plus count/sum. Labels
/// hold the few string-valued facts (e.g. governor.tripped_budget).
struct MetricsSnapshot {
  struct HistogramValue {
    /// bucket[i] counts observations with value < 2^i; the last bucket is
    /// the overflow (kHistogramBuckets-1 doubles as +inf).
    std::vector<uint64_t> buckets;
    uint64_t count = 0;
    uint64_t sum = 0;

    /// Estimated q-quantile (q in (0, 1]) from the log2 buckets: the
    /// target rank's bucket is found by cumulative count and the value is
    /// interpolated linearly inside the bucket's range [2^(i-1), 2^i) —
    /// so the estimate carries at most one bucket (2x) of error. The
    /// overflow bucket extrapolates to twice its lower bound; an empty
    /// histogram reports 0.
    uint64_t Percentile(double q) const;
  };

  std::map<std::string, uint64_t> values;  ///< counters and gauges
  std::map<std::string, std::string> labels;
  std::map<std::string, HistogramValue> histograms;

  /// Counter-wise difference `*this - before`. Gauges diff like counters
  /// (callers snapshot around one query, where the delta is the story);
  /// labels keep the later value; histogram buckets/count/sum subtract.
  MetricsSnapshot Diff(const MetricsSnapshot& before) const;

  /// Field-wise union with `other`: numeric values add, labels take
  /// `other`'s value on collision, histogram buckets/count/sum add. How
  /// QuerySession::Metrics folds the session.* family over the wrapped
  /// evaluator's families into one flat namespace.
  MetricsSnapshot& Merge(const MetricsSnapshot& other);

  /// Flat single-line JSON object: numeric fields under their dotted
  /// names, labels as strings, histograms as {"count":n,"sum":n,
  /// "buckets":[...],"p50":n,"p90":n,"p99":n} objects (percentiles are
  /// the interpolated estimates of Percentile). The schema the CI job
  /// validates.
  std::string ToJson() const;

  /// `name=value` lines for terminals (lcdbq --stats). Histograms render
  /// count, sum and the p50/p90/p99 estimates instead of raw buckets.
  std::string ToString() const;
};

/// A unified, named registry over the engine's telemetry islands. The
/// typed structs (KernelStats, GovernorStats, PlanPassStats, OpTimings,
/// Evaluator::Stats' own counters) remain the zero-cost recording surface
/// on the hot paths; this registry is the *naming* layer every exporter
/// shares — `lcdbq --stats`, the bench harness and EXPLAIN ANALYZE all
/// read the same `kernel.*` / `governor.*` / `evaluator.*` / `plan.*` /
/// `op.*` families instead of hand-merging three structs each.
class MetricsRegistry {
 public:
  static constexpr size_t kHistogramBuckets = 40;

  /// Adds `delta` to the named counter (creating it at zero).
  void Count(const std::string& name, uint64_t delta);
  /// Sets the named gauge to `value`.
  void Gauge(const std::string& name, uint64_t value);
  /// Sets the named string label.
  void Label(const std::string& name, std::string value);
  /// Records one observation into the named histogram (log2 buckets).
  void Observe(const std::string& name, uint64_t value);

  MetricsSnapshot Snapshot() const;
  void Clear();

  // --- Adapters from the existing telemetry structs. Each registers one
  // family: kernel.*, governor.*, plan.*, op.<name>.{count,total_ns}. ---
  void RegisterKernelStats(const KernelStats& stats);
  void RegisterGovernorStats(const GovernorStats& stats);
  void RegisterPlanPassStats(const PlanPassStats& stats);
  void RegisterAnalysisStats(const AnalysisStats& stats);
  void RegisterVerifyStats(const VerifyStats& stats);
  void RegisterOpTimings(const OpTimings& timings);
  void RegisterPlanCostStats(const PlanCostStats& stats);

 private:
  std::map<std::string, uint64_t> counters_;
  std::map<std::string, uint64_t> gauges_;
  std::map<std::string, std::string> labels_;
  std::map<std::string, MetricsSnapshot::HistogramValue> histograms_;
};

}  // namespace lcdb

#endif  // LCDB_ENGINE_METRICS_H_
