#include "engine/metrics.h"

#include <algorithm>

namespace lcdb {

namespace {

size_t Log2Bucket(uint64_t value) {
  size_t bucket = 0;
  while (value > 0 && bucket + 1 < MetricsRegistry::kHistogramBuckets) {
    value >>= 1;
    ++bucket;
  }
  return bucket;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';  // metric names/labels are ASCII; control chars blanked
      continue;
    }
    out += c;
  }
  return out;
}

}  // namespace

void MetricsRegistry::Count(const std::string& name, uint64_t delta) {
  counters_[name] += delta;
}

void MetricsRegistry::Gauge(const std::string& name, uint64_t value) {
  gauges_[name] = value;
}

void MetricsRegistry::Label(const std::string& name, std::string value) {
  labels_[name] = std::move(value);
}

void MetricsRegistry::Observe(const std::string& name, uint64_t value) {
  auto& h = histograms_[name];
  if (h.buckets.empty()) h.buckets.assign(kHistogramBuckets, 0);
  ++h.buckets[Log2Bucket(value)];
  ++h.count;
  h.sum += value;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot out;
  out.values = counters_;
  for (const auto& [name, value] : gauges_) out.values[name] = value;
  out.labels = labels_;
  out.histograms = histograms_;
  return out;
}

void MetricsRegistry::Clear() {
  counters_.clear();
  gauges_.clear();
  labels_.clear();
  histograms_.clear();
}

void MetricsRegistry::RegisterKernelStats(const KernelStats& s) {
  Count("kernel.feasibility_queries", s.feasibility_queries);
  Count("kernel.implication_queries", s.implication_queries);
  Count("kernel.trivial_answers", s.trivial_answers);
  Count("kernel.oracle_calls", s.oracle_calls);
  Count("kernel.cache_hits", s.cache_hits);
  Count("kernel.cache_misses", s.cache_misses);
  Count("kernel.implication_cache_hits", s.implication_cache_hits);
  Count("kernel.implication_cache_misses", s.implication_cache_misses);
  Count("kernel.canonicalization_collisions", s.canonicalization_collisions);
  Count("kernel.cache_evictions", s.cache_evictions);
  Count("kernel.simplex_invocations", s.simplex_invocations);
  Count("kernel.simplex_pivots", s.simplex_pivots);
  Count("kernel.lemma.hits", s.lemma_hits);
  Count("kernel.lemma.misses", s.lemma_misses);
  Count("kernel.lemma.insertions", s.lemma_insertions);
  Count("kernel.lemma.evictions.core", s.lemma_evictions_core);
  Count("kernel.lemma.evictions.frequent", s.lemma_evictions_frequent);
  Count("kernel.lemma.evictions.transient", s.lemma_evictions_transient);
  Gauge("kernel.lemma.occupancy", s.lemma_occupancy);
}

void MetricsRegistry::RegisterGovernorStats(const GovernorStats& s) {
  Count("governor.checkpoints", s.checkpoints);
  Count("governor.deadline_checks", s.deadline_checks);
  Count("governor.budget_trips", s.budget_trips);
  if (!s.tripped_budget.empty()) {
    Label("governor.tripped_budget", s.tripped_budget);
  }
}

void MetricsRegistry::RegisterPlanPassStats(const PlanPassStats& s) {
  Gauge("plan.plan_nodes", s.plan_nodes);
  Count("plan.folded_constants", s.folded_constants);
  Count("plan.pruned_branches", s.pruned_branches);
  Count("plan.narrowed_subtrees", s.narrowed_subtrees);
  Count("plan.reordered_quantifiers", s.reordered_quantifiers);
  Count("plan.hoisted_invariants", s.hoisted_invariants);
  Count("plan.reordered_conjuncts", s.reordered_conjuncts);
  Count("plan.cse_merged", s.cse_merged);
  Count("plan.cacheable_marked", s.cacheable_marked);
}

void MetricsRegistry::RegisterAnalysisStats(const AnalysisStats& s) {
  Count("analysis.queries_analyzed", s.queries_analyzed);
  Count("analysis.diagnostics", s.diagnostics);
  Count("analysis.errors", s.errors);
  Count("analysis.warnings", s.warnings);
  Count("analysis.notes", s.notes);
  Count("analysis.guards_classified", s.guards_classified);
  Count("analysis.guards_proved_unsat", s.guards_proved_unsat);
  Count("analysis.guards_proved_tautology", s.guards_proved_tautology);
  Count("analysis.guards_skipped_size", s.guards_skipped_size);
}

void MetricsRegistry::RegisterVerifyStats(const VerifyStats& s) {
  Count("analysis.verify.plans", s.plans_verified);
  Count("analysis.verify.plan_nodes", s.plan_nodes_verified);
  Count("analysis.verify.violations", s.violations);
}

void MetricsRegistry::RegisterOpTimings(const OpTimings& timings) {
  for (const auto& [op, timing] : timings) {
    Count("op." + op + ".count", timing.count);
    Count("op." + op + ".total_ns", timing.total_ns);
    if (timing.memo_hits > 0) {
      Count("op." + op + ".memo_hits", timing.memo_hits);
    }
  }
}

void MetricsRegistry::RegisterPlanCostStats(const PlanCostStats& s) {
  Gauge("plan.cost.nodes", s.nodes);
  Gauge("plan.cost.total_bigint_ops", s.total_bigint_ops);
  Gauge("plan.cost.est_answer_rows", s.est_answer_rows);
  Gauge("plan.cost.dead_caches", s.dead_caches);
  Gauge("plan.cost.warnings", s.warnings);
}

uint64_t MetricsSnapshot::HistogramValue::Percentile(double q) const {
  if (count == 0) return 0;
  if (q <= 0) q = 0;
  if (q > 1) q = 1;
  // 1-based rank of the target observation: ceil(q * count), clamped.
  uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(count));
  if (static_cast<double>(rank) < q * static_cast<double>(count)) ++rank;
  if (rank == 0) rank = 1;
  if (rank > count) rank = count;
  uint64_t cumulative = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    if (cumulative + buckets[i] < rank) {
      cumulative += buckets[i];
      continue;
    }
    // Bucket 0 holds exactly the value 0; bucket i >= 1 holds values in
    // [2^(i-1), 2^i). The overflow bucket (kHistogramBuckets-1) is open
    // above but extrapolates to twice its lower bound — the same 2^i
    // upper edge, so one formula serves all buckets.
    if (i == 0) return 0;
    const uint64_t lo = uint64_t{1} << (i - 1);
    const uint64_t hi = uint64_t{1} << i;
    const double fraction = static_cast<double>(rank - cumulative) /
                            static_cast<double>(buckets[i]);
    return lo + static_cast<uint64_t>(fraction *
                                      static_cast<double>(hi - lo));
  }
  return 0;
}

MetricsSnapshot MetricsSnapshot::Diff(const MetricsSnapshot& before) const {
  MetricsSnapshot out;
  for (const auto& [name, value] : values) {
    auto it = before.values.find(name);
    const uint64_t prior = it == before.values.end() ? 0 : it->second;
    out.values[name] = value >= prior ? value - prior : 0;
  }
  out.labels = labels;
  for (const auto& [name, h] : histograms) {
    HistogramValue d = h;
    auto it = before.histograms.find(name);
    if (it != before.histograms.end()) {
      const HistogramValue& p = it->second;
      for (size_t i = 0; i < d.buckets.size() && i < p.buckets.size(); ++i) {
        d.buckets[i] -= std::min(d.buckets[i], p.buckets[i]);
      }
      d.count -= std::min(d.count, p.count);
      d.sum -= std::min(d.sum, p.sum);
    }
    out.histograms[name] = std::move(d);
  }
  return out;
}

MetricsSnapshot& MetricsSnapshot::Merge(const MetricsSnapshot& other) {
  for (const auto& [name, value] : other.values) values[name] += value;
  for (const auto& [name, value] : other.labels) labels[name] = value;
  for (const auto& [name, h] : other.histograms) {
    HistogramValue& mine = histograms[name];
    if (mine.buckets.size() < h.buckets.size()) {
      mine.buckets.resize(h.buckets.size(), 0);
    }
    for (size_t i = 0; i < h.buckets.size(); ++i) {
      mine.buckets[i] += h.buckets[i];
    }
    mine.count += h.count;
    mine.sum += h.sum;
  }
  return *this;
}

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{";
  bool first = true;
  auto sep = [&] {
    if (!first) out += ",";
    first = false;
  };
  for (const auto& [name, value] : values) {
    sep();
    out += "\"" + JsonEscape(name) + "\":" + std::to_string(value);
  }
  for (const auto& [name, value] : labels) {
    sep();
    out += "\"" + JsonEscape(name) + "\":\"" + JsonEscape(value) + "\"";
  }
  for (const auto& [name, h] : histograms) {
    sep();
    out += "\"" + JsonEscape(name) + "\":{\"count\":" +
           std::to_string(h.count) + ",\"sum\":" + std::to_string(h.sum) +
           ",\"buckets\":[";
    // Trailing zero buckets are elided to keep the flat JSON small.
    size_t last = h.buckets.size();
    while (last > 0 && h.buckets[last - 1] == 0) --last;
    for (size_t i = 0; i < last; ++i) {
      if (i > 0) out += ",";
      out += std::to_string(h.buckets[i]);
    }
    // Percentile estimates ride after the buckets so the prefix schema
    // stays what it always was (tests pin the count/sum/buckets head).
    out += "],\"p50\":" + std::to_string(h.Percentile(0.50)) +
           ",\"p90\":" + std::to_string(h.Percentile(0.90)) +
           ",\"p99\":" + std::to_string(h.Percentile(0.99)) + "}";
  }
  out += "}";
  return out;
}

std::string MetricsSnapshot::ToString() const {
  std::string out;
  for (const auto& [name, value] : values) {
    out += name + "=" + std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : labels) {
    out += name + "=" + value + "\n";
  }
  for (const auto& [name, h] : histograms) {
    out += name + ".count=" + std::to_string(h.count) + "\n";
    out += name + ".sum=" + std::to_string(h.sum) + "\n";
    out += name + ".p50=" + std::to_string(h.Percentile(0.50)) + "\n";
    out += name + ".p90=" + std::to_string(h.Percentile(0.90)) + "\n";
    out += name + ".p99=" + std::to_string(h.Percentile(0.99)) + "\n";
  }
  return out;
}

}  // namespace lcdb
