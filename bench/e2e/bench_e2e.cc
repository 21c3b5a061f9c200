// End-to-end benchmark harness; README.md in this directory describes the
// workloads, the metrics and how to claim a gain with them.
//
//   bench_e2e --workload=W [--seed=N] [--seconds=S] [--trace] [--quick]
//
// One workload runs per process, single-threaded and closed-loop: one
// client, and the next operation starts when the previous one returns. Every
// query runs as lcdbq runs it — ParseQuery, a fresh Evaluator with default
// Options, Evaluate or EvaluateSentence — against a process-wide kernel that
// persists across the queries of a segment, as in an lcdbsh session.
//
// The harness measures the library from outside only: it times its own
// calls into the library, reads Evaluator::Stats, and with --trace reads the
// spans the library already emits. Every answer is checked against a
// reference that shares no code with the evaluator: a union-find baseline,
// an identity that follows from the paper's semantics, or an answer pinned
// in golden/.
//
// Human-readable lines go to stderr. The last line of stdout is one JSON
// record: the metrics, the raw per-operation samples and the check tallies.
// Exit status: 0 when every answer checked, 1 on a failed query or a wrong
// answer, 2 on bad usage or a failed set-up.

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "constraint/parser.h"
#include "constraint/simplify.h"
#include "core/evaluator.h"
#include "core/parser.h"
#include "core/queries.h"
#include "db/geometric_baselines.h"
#include "db/region_extension.h"
#include "db/workloads.h"
#include "engine/kernel.h"
#include "engine/trace.h"

#ifndef LCDB_E2E_GOLDEN_DIR
#error "LCDB_E2E_GOLDEN_DIR must name the directory of pinned answers"
#endif

namespace lcdb {
namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Linear-interpolation quantile, q in [0, 1], of a non-empty sample.
double Quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

/// Peak resident set size of this process (VmHWM), in MiB.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

/// Shortest decimal text that reads back as exactly `value`.
std::string Num(double value) {
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, end);
}

// ---------------------------------------------------------------------------
// Queries

/// One query, run the way lcdbq runs it. `wall_ms` covers parsing, the
/// Evaluator's construction, the evaluation and the Evaluator's teardown.
struct QueryRun {
  Status status;
  bool truth = false;  // sentences
  QueryAnswer answer;  // open queries
  double parse_ms = 0;
  double wall_ms = 0;
  Evaluator::Stats stats;
};

QueryRun RunQuery(const RegionExtension& ext, const std::string& text,
                  bool sentence) {
  QueryRun run;
  const Clock::time_point start = Clock::now();
  Result<FormulaPtr> query = ParseQuery(text, "S");
  run.parse_ms = MsSince(start);
  if (!query.ok()) {
    run.status = query.status();
  } else {
    Evaluator evaluator(ext);
    if (sentence) {
      Result<bool> truth = evaluator.EvaluateSentence(**query);
      if (truth.ok()) run.truth = *truth;
      else run.status = truth.status();
    } else {
      Result<QueryAnswer> answer = evaluator.Evaluate(**query);
      if (answer.ok()) run.answer = std::move(*answer);
      else run.status = answer.status();
    }
    run.stats = evaluator.stats();
  }
  run.wall_ms = MsSince(start);
  return run;
}

/// The queries of one timed operation; its latency is their summed wall
/// time.
struct OpRun {
  std::vector<QueryRun> queries;

  double wall_ms() const {
    double total = 0;
    for (const QueryRun& q : queries) total += q.wall_ms;
    return total;
  }
  bool ok() const {
    for (const QueryRun& q : queries) {
      if (!q.status.ok()) return false;
    }
    return true;
  }
};

/// Outcome of checking one operation's answers against their references.
struct CheckResult {
  size_t checked = 0;
  size_t wrong = 0;
  /// Open answers equivalent to, but not byte-identical with, their pinned
  /// text (reported, not an error: the answer is abstract, its text is not).
  size_t text_changed = 0;
};

/// Kernel for the harness's own checks, so that reference work never warms
/// or evicts the kernel the measured queries run against.
ConstraintKernel& CheckKernel() {
  static ConstraintKernel* kernel = new ConstraintKernel();
  return *kernel;
}

/// A pinned answer from golden/, without its trailing newline.
Result<std::string> ReadGolden(const std::string& name) {
  const std::string path = std::string(LCDB_E2E_GOLDEN_DIR) + "/" + name;
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot read " + path);
  std::stringstream text;
  text << in.rdbuf();
  std::string out = text.str();
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.pop_back();
  }
  return out;
}

/// A sentence's truth value must equal `expected`; an open answer must be
/// byte-identical to it or, failing that, AreEquivalent to its parse.
void CheckAnswer(const QueryRun& run, bool sentence,
                 const std::string& expected, CheckResult* result) {
  ++result->checked;
  if (sentence) {
    if ((run.truth ? "true" : "false") != expected) ++result->wrong;
    return;
  }
  if (run.answer.ToString() == expected) return;
  Result<DnfFormula> pinned = ParseDnf(expected, run.answer.free_vars);
  if (pinned.ok() && AreEquivalent(run.answer.formula, *pinned)) {
    ++result->text_changed;
  } else {
    ++result->wrong;
  }
}

Result<std::unique_ptr<RegionExtension>> BuildExtension(
    const ConstraintDatabase& db, bool decomposition, double* build_ms) {
  const Clock::time_point start = Clock::now();
  Result<std::unique_ptr<RegionExtension>> ext =
      decomposition ? BuildDecompositionExtension(db)
                    : BuildArrangementExtension(db);
  *build_ms += MsSince(start);
  return ext;
}

// ---------------------------------------------------------------------------
// Workloads

class Workload {
 public:
  virtual ~Workload() = default;

  /// Generates the databases of the operations from first_op on and builds
  /// their extensions, replacing any earlier set-up. Adds the time spent
  /// inside Build*Extension to build_ms and the extensions' regions to
  /// regions.
  virtual Status Build(size_t first_op) = 0;
  /// Operations run once, untimed, at the end of set-up: one of each
  /// distinct query, to warm the kernel and check the answers.
  virtual size_t WarmUpOps() const { return 0; }
  /// Operation i: the timed work.
  virtual OpRun Execute(size_t i) = 0;
  /// Checks operation i's answers; runs untimed, under CheckKernel().
  virtual CheckResult Check(size_t i, const OpRun& run) = 0;
  /// Operations in one round: one of each distinct operation.
  virtual size_t RoundSize() const = 0;
  /// Operations in one segment of the timed run, a whole number of rounds
  /// (see Harness).
  virtual size_t SegmentOps() const = 0;

  double build_ms = 0;
  size_t regions = 0;
};

/// Queries run in rotation over extensions built once per set-up.
class RotationWorkload : public Workload {
 public:
  explicit RotationWorkload(size_t segment_rounds)
      : segment_rounds_(segment_rounds) {}

  size_t WarmUpOps() const override { return queries_.size(); }
  OpRun Execute(size_t i) override {
    const Query& q = queries_[i % queries_.size()];
    return OpRun{{RunQuery(*q.ext, q.text, q.sentence)}};
  }
  CheckResult Check(size_t i, const OpRun& run) override {
    const Query& q = queries_[i % queries_.size()];
    CheckResult result;
    CheckAnswer(run.queries[0], q.sentence, q.expected, &result);
    return result;
  }
  size_t RoundSize() const override { return queries_.size(); }
  size_t SegmentOps() const override {
    return segment_rounds_ * queries_.size();
  }

 protected:
  struct Query {
    std::string text;
    const RegionExtension* ext = nullptr;
    bool sentence = true;
    std::string expected;  // "true"/"false", or the open answer's text
  };

  /// Builds an arrangement extension into exts_; nullptr on failure.
  const RegionExtension* Add(const ConstraintDatabase& db, Status* status) {
    auto ext = BuildExtension(db, /*decomposition=*/false, &build_ms);
    if (!ext.ok()) {
      *status = ext.status();
      return nullptr;
    }
    regions += (*ext)->num_regions();
    exts_.push_back(std::move(*ext));
    return exts_.back().get();
  }
  void Reset() {
    queries_.clear();
    exts_.clear();
  }

  const size_t segment_rounds_;
  std::vector<Query> queries_;
  std::vector<std::unique_ptr<RegionExtension>> exts_;
};

/// Theorem 6.1's Kleene sweep alone: region connectivity as LFP, IFP and
/// PFP over the comb's region pairs. No element quantifiers, so no QE and,
/// once warm, no oracle calls. Reference: union-find over the region graph
/// (for a positive body LFP = IFP = PFP, so all three share it).
class FixpointComb : public RotationWorkload {
 public:
  FixpointComb() : RotationWorkload(8) {}

  Status Build(size_t /*first_op*/) override {
    Reset();
    Status status;
    const RegionExtension* ext = Add(MakeComb(2, /*connected=*/true), &status);
    if (ext == nullptr) return status;
    const std::string expected =
        SpatialConnectivityBaseline(*ext) ? "true" : "false";
    const std::string lfp = RegionConnQueryText();
    for (const char* op : {"[lfp", "[ifp", "[pfp"}) {
      std::string text = lfp;
      text.replace(text.find("[lfp"), 4, op);
      queries_.push_back({text, ext, true, expected});
    }
    return status;
  }
};

/// Theorem 4.3's RegFO path: element quantifiers discharged by
/// Fourier-Motzkin, region quantifiers expanded, kernel lookups warm.
/// References: answers pinned in golden/.
class ElementQe : public RotationWorkload {
 public:
  ElementQe() : RotationWorkload(12) {}

  Status Build(size_t /*first_op*/) override {
    Reset();
    Status status;
    const RegionExtension* bar = Add(MakeComb(1, /*connected=*/false), &status);
    if (bar == nullptr) return status;
    const RegionExtension* comb = Add(MakeComb(4, /*connected=*/true), &status);
    if (comb == nullptr) return status;
    Result<std::string> conn = ReadGolden("element_qe.conn.txt");
    Result<std::string> cover = ReadGolden("element_qe.cover.txt");
    Result<std::string> boundary = ReadGolden("element_qe.boundary.txt");
    for (const auto* golden : {&conn, &cover, &boundary}) {
      if (!golden->ok()) return golden->status();
    }
    queries_.push_back({ConnQueryText(2), bar, true, *conn});
    queries_.push_back(
        {"forall x y . (S(x, y) -> exists R . (in(x, y; R) & subset(R)))",
         comb, true, *cover});
    queries_.push_back({"exists R . (subset(R) & in(x, y; R) & exists R2 . "
                        "(adj(R, R2) & !subset(R2)))",
                        comb, false, *boundary});
    return status;
  }
};

/// The Figure 6 river query: a fixpoint whose body carries element-sort
/// side conditions and a nested "Z was visited" test, so it leans on the
/// executor's stage-versioned memo. Three scenarios rotate, so that p50 and
/// p90 each fall inside one scenario; the last has no chem2 marker, so the
/// query must answer false. References: answers pinned in golden/.
class RiverLfp : public RotationWorkload {
 public:
  RiverLfp() : RotationWorkload(9) {}

  Status Build(size_t /*first_op*/) override {
    Reset();
    struct Scenario {
      const char* golden;
      size_t length;
      std::vector<size_t> cities, chem1, chem2;
    };
    const Scenario scenarios[] = {
        {"river_lfp.len4.txt", 4, {2}, {0}, {3}},
        {"river_lfp.len5.txt", 5, {2}, {0}, {4}},
        {"river_lfp.clean5.txt", 5, {2}, {0}, {}},
    };
    for (const Scenario& sc : scenarios) {
      Status status;
      const RegionExtension* ext = Add(
          MakeRiverScenario(sc.length, sc.cities, sc.chem1, sc.chem2), &status);
      if (ext == nullptr) return status;
      Result<std::string> expected = ReadGolden(sc.golden);
      if (!expected.ok()) return expected.status();
      queries_.push_back({RiverPollutionQueryText(), ext, true, *expected});
    }
    return Status::Ok();
  }
};

/// Section 7 on new data: each operation runs the RegTC connectivity
/// sentence and then the RegDTC one on a decomposition extension no query
/// has touched yet, so the kernel's working set grows with little reuse.
/// Every segment is one session with its own kernel over kSession
/// databases, so how far the working set grows does not depend on how many
/// operations a run fits in. References: TC must equal union-find
/// connectivity, and DTC must imply TC.
class IngestTc : public Workload {
 public:
  IngestTc(uint64_t seed, size_t round_size)
      : seed_(seed), round_size_(round_size) {}

  /// Builds the session's extensions, of databases seed * 1000 + i for
  /// operations i = first_op, ..., first_op + kSession - 1.
  Status Build(size_t first_op) override {
    exts_.clear();
    first_op_ = first_op;
    for (size_t i = first_op; i < first_op + kSession; ++i) {
      auto ext = BuildExtension(MakeRandomSlabs(1, 2, 100, seed_ * 1000 + i),
                                /*decomposition=*/true, &build_ms);
      if (!ext.ok()) return ext.status();
      regions += (*ext)->num_regions();
      exts_.push_back(std::move(*ext));
    }
    return Status::Ok();
  }
  OpRun Execute(size_t i) override {
    const RegionExtension& ext = *exts_.at(i - first_op_);
    OpRun run;
    run.queries.push_back(RunQuery(ext, tc_, true));
    run.queries.push_back(RunQuery(ext, dtc_, true));
    return run;
  }
  CheckResult Check(size_t i, const OpRun& run) override {
    std::unique_ptr<RegionExtension>& ext = exts_.at(i - first_op_);
    CheckResult result;
    const bool tc = run.queries[0].truth;
    const bool dtc = run.queries[1].truth;
    result.checked = 2;
    if (tc != SpatialConnectivityBaseline(*ext)) ++result.wrong;
    if (dtc && !tc) ++result.wrong;
    ext.reset();  // each extension serves one operation
    return result;
  }
  size_t RoundSize() const override { return round_size_; }
  size_t SegmentOps() const override { return kSession; }

 private:
  static constexpr size_t kSession = 20;

  const uint64_t seed_;
  const size_t round_size_;
  size_t first_op_ = 0;
  const std::string tc_ = RegionConnTcQueryText(false);
  const std::string dtc_ = RegionConnTcQueryText(true);
  std::vector<std::unique_ptr<RegionExtension>> exts_;
};

// ---------------------------------------------------------------------------
// Per-layer attribution (traced run)

/// Span names behind each reported layer, whose self time is given as a
/// share of the traced operation's wall time. A name ending in '.' matches
/// as a prefix. Spans outside every layer (evaluate's own bookkeeping, hull,
/// rBIT, ...) still count as attributed.
const std::vector<std::pair<std::string, std::vector<std::string>>>&
SpanLayers() {
  static const auto* layers =
      new std::vector<std::pair<std::string, std::vector<std::string>>>{
          {"plan.fixpoint_stage_pct", {"fixpoint.stage", "fixpoint"}},
          {"plan.execute_self_pct", {"plan.execute"}},
          {"plan.expand_pct", {"expand.exists", "expand.forall"}},
          {"qe.eliminate_pct", {"qe.exists", "qe.forall"}},
          {"qe.project_pct", {"qe.project"}},
          {"lp.solve_pct", {"lp.solve"}},
          {"plan.closure_pct", {"closure"}},
          {"core.typecheck_pct", {"typecheck"}},
          {"analysis.analyze_pct", {"analyze"}},
          {"plan.build_pct", {"plan.build"}},
          {"plan.optimize_pct", {"plan.optimize", "pass."}},
          {"analysis.cost_pct", {"plan.cost"}},
          {"analysis.verify_pct", {"plan.verify"}},
      };
  return *layers;
}

/// Self time per span name, in ms: each span's duration minus its direct
/// children's, joined through the exporter's args.id / args.parent.
std::map<std::string, double> SpanSelfMs(const QueryTracer& tracer) {
  const std::string json = tracer.ToChromeTraceJson();
  struct Span {
    std::string name;
    double dur_us = 0;
    uint64_t parent = 0;
  };
  std::map<uint64_t, Span> spans;
  auto number_after = [&](const std::string& key, size_t from) {
    const size_t at = json.find(key, from);
    if (at == std::string::npos) return 0.0;
    return std::strtod(json.c_str() + at + key.size(), nullptr);
  };
  const std::string open = "{\"name\":\"";
  for (size_t pos = json.find(open); pos != std::string::npos;
       pos = json.find(open, pos)) {
    pos += open.size();
    const size_t name_end = json.find('"', pos);
    Span span;
    span.name = json.substr(pos, name_end - pos);
    span.dur_us = number_after("\"dur\":", name_end);
    const auto id = static_cast<uint64_t>(number_after("\"id\":", name_end));
    span.parent = static_cast<uint64_t>(number_after("\"parent\":", name_end));
    spans[id] = std::move(span);
    pos = name_end;
  }
  std::map<uint64_t, double> children_us;
  for (const auto& [id, span] : spans) {
    if (span.parent != 0) children_us[span.parent] += span.dur_us;
  }
  std::map<std::string, double> self_ms;
  for (const auto& [id, span] : spans) {
    self_ms[span.name] += (span.dur_us - children_us[id]) / 1000.0;
  }
  return self_ms;
}

/// Sums over one traced round; Finish() turns them into per-operation
/// counts and shares of the round's traced wall time.
class RoundTally {
 public:
  RoundTally() {
    for (const auto& layer : SpanLayers()) layer_ms_[layer.first] = 0;
  }

  void AddSpans(const QueryTracer& tracer) {
    for (const auto& [name, ms] : SpanSelfMs(tracer)) {
      attributed_ms_ += ms;
      for (const auto& [layer, patterns] : SpanLayers()) {
        for (const std::string& p : patterns) {
          const bool match = p.back() == '.' ? name.rfind(p, 0) == 0
                                             : name == p;
          if (match) layer_ms_[layer] += ms;
        }
      }
    }
    spans_dropped_ += tracer.spans_dropped();
  }

  void AddOp(const OpRun& run) {
    ++ops_;
    for (const QueryRun& q : run.queries) {
      const Evaluator::Stats& s = q.stats;
      const KernelStats& k = s.kernel;
      wall_ms_ += q.wall_ms;
      attributed_ms_ += q.parse_ms;
      layer_ms_["core.parse_pct"] += q.parse_ms;
      counts_["plan.fixpoint_stages"] += s.fixpoint_iterations;
      counts_["plan.bool_evaluations"] += s.bool_evaluations;
      counts_["plan.memo_hits"] += s.memo_hits;
      counts_["plan.node_evaluations"] += s.node_evaluations;
      counts_["plan.region_expansions"] += s.region_expansions;
      counts_["plan.closures"] += s.closures_computed;
      counts_["plan.nodes"] += s.plan.plan_nodes;
      counts_["qe.eliminations"] += s.qe_eliminations;
      counts_["engine.kernel.queries"] +=
          k.feasibility_queries + k.implication_queries;
      kernel_hits_ +=
          k.cache_hits + k.implication_cache_hits + k.trivial_answers;
      counts_["engine.kernel.oracle_calls"] += k.oracle_calls;
      counts_["engine.kernel.lemma_evictions"] += k.lemma_evictions_core +
                                                 k.lemma_evictions_frequent +
                                                 k.lemma_evictions_transient;
      counts_["lp.simplex_invocations"] += k.simplex_invocations;
      counts_["lp.simplex_pivots"] += k.simplex_pivots;
      size_t atoms = 0;
      for (const Conjunction& c : q.answer.formula.disjuncts()) {
        atoms += c.atoms().size();
      }
      counts_["constraint.answer_atoms"] += atoms;
    }
  }

  size_t ops() const { return ops_; }

  /// This round's values; `untraced_wall_ms` is the same number of
  /// operations run untraced just before, the tracing-overhead baseline.
  std::map<std::string, double> Finish(double untraced_wall_ms) const {
    std::map<std::string, double> out;
    for (const auto& [name, ms] : layer_ms_) out[name] = 100 * ms / wall_ms_;
    for (const auto& [name, count] : counts_) {
      out[name] = count / static_cast<double>(ops_);
    }
    // A workload that asks the kernel nothing misses nothing.
    const double kernel_queries = counts_.at("engine.kernel.queries");
    out["engine.kernel.hit_ratio"] =
        kernel_queries == 0 ? 1.0
                            : static_cast<double>(kernel_hits_) / kernel_queries;
    out["trace.op_ms"] = wall_ms_ / static_cast<double>(ops_);
    out["trace.spans_dropped"] = static_cast<double>(spans_dropped_);
    out["trace.unattributed_pct"] = 100 * (1 - attributed_ms_ / wall_ms_);
    out["trace.overhead_pct"] = 100 * (wall_ms_ / untraced_wall_ms - 1);
    return out;
  }

 private:
  size_t ops_ = 0;
  double wall_ms_ = 0;
  double attributed_ms_ = 0;
  uint64_t kernel_hits_ = 0;
  uint64_t spans_dropped_ = 0;
  std::map<std::string, double> layer_ms_;
  std::map<std::string, double> counts_;
};

// ---------------------------------------------------------------------------
// Driver

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  bool quick = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    const size_t eq = flag.find('=');
    if (eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag.resize(eq);
    } else if (flag != "--trace" && flag != "--quick") {
      if (i + 1 >= argc) return false;
      value = argv[++i];
    }
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args->seconds > 0)) return false;
    } else if (flag == "--trace") {
      args->trace = value.empty() || value == "1";
    } else if (flag == "--quick") {
      args->quick = true;
    } else {
      return false;
    }
  }
  return !args->workload.empty();
}

std::unique_ptr<Workload> MakeWorkload(const Args& args) {
  if (args.workload == "fixpoint_comb") return std::make_unique<FixpointComb>();
  if (args.workload == "element_qe") return std::make_unique<ElementQe>();
  if (args.workload == "river_lfp") return std::make_unique<RiverLfp>();
  if (args.workload == "ingest_tc") {
    return std::make_unique<IngestTc>(args.seed, args.quick ? 3 : 10);
  }
  return nullptr;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Harness {
 public:
  Harness(const Args& args, std::unique_ptr<Workload> workload)
      : args_(args), workload_(std::move(workload)) {}

  /// The run is a sequence of segments, each a set-up from scratch followed
  /// by a fixed number of operations, until --seconds have passed (--quick:
  /// one segment of one round). Every metric is a median over segments, of
  /// each segment's own value. Other tenants of a shared machine slow it in
  /// bursts of several seconds; a burst moves a few segments, not the median
  /// of all of them. Set-ups are spread over the run for the same reason:
  /// back to back, one burst would cover them all.
  int Run() {
    const Clock::time_point start = Clock::now();
    do {
      if (!SetUp()) return 2;
      if (args_.trace) {
        TracedSegment();
      } else {
        TimedSegment();
      }
    } while (!args_.quick && MsSince(start) < args_.seconds * 1000.0);
    Report();
    return failed_ == 0 && wrong_ == 0 ? 0 : 1;
  }

 private:
  /// Sets up from scratch against a fresh kernel: builds the extensions of
  /// the operations from next_op_ on, then runs the warm-up operations.
  bool SetUp() {
    FreshKernel();
    workload_->build_ms = 0;
    workload_->regions = 0;
    const Clock::time_point start = Clock::now();
    Status status;
    if (args_.trace) {
      QueryTracer tracer(TracerOptions());
      {
        ScopedTracer scope(tracer);
        status = workload_->Build(next_op_);
      }
      const auto self = SpanSelfMs(tracer);
      const auto split = self.find("arrangement.split");
      setup_split_pct_.push_back(
          split == self.end() ? 0 : 100 * split->second / workload_->build_ms);
    } else {
      status = workload_->Build(next_op_);
    }
    if (!status.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", status.ToString().c_str());
      return false;
    }
    setup_regions_ = workload_->regions;
    for (size_t i = 0; i < workload_->WarmUpOps(); ++i) RunOp(i);
    setup_s_.push_back(MsSince(start) / 1000.0);
    build_ms_.push_back(workload_->build_ms);
    return true;
  }

  void FreshKernel() {
    kernel_scope_.reset();
    kernel_ = std::make_unique<ConstraintKernel>();
    kernel_scope_.emplace(*kernel_);
  }

  /// Runs and checks operation i. Traced when `tracer` is non-null.
  OpRun RunOp(size_t i, QueryTracer* tracer = nullptr) {
    ++attempted_;
    OpRun run;
    if (tracer != nullptr) {
      ScopedTracer scope(*tracer);
      run = workload_->Execute(i);
    } else {
      run = workload_->Execute(i);
    }
    if (!run.ok()) {
      ++failed_;
      for (const QueryRun& q : run.queries) {
        if (!q.status.ok()) {
          std::fprintf(stderr, "op %zu: %s\n", i, q.status.ToString().c_str());
        }
      }
      return run;
    }
    CheckResult check;
    {
      ScopedKernel scope(CheckKernel());
      check = workload_->Check(i, run);
    }
    answers_checked_ += check.checked;
    text_changed_ += check.text_changed;
    if (check.wrong > 0) {
      ++wrong_;
      std::fprintf(stderr, "op %zu: wrong answer\n", i);
    }
    return run;
  }

  /// Closed loop, tracing off: the end-to-end metrics.
  void TimedSegment() {
    const size_t ops =
        args_.quick ? workload_->RoundSize() : workload_->SegmentOps();
    std::vector<double>& samples = segments_ms_.emplace_back();
    for (size_t j = 0; j < ops; ++j) {
      samples.push_back(RunOp(next_op_++).wall_ms());
    }
  }

  /// One round of untraced then one of traced operations: the per-layer
  /// metrics. The untraced round is the baseline for trace.overhead_pct.
  void TracedSegment() {
    const size_t round = workload_->RoundSize();
    double untraced_ms = 0;
    for (size_t j = 0; j < round; ++j) {
      untraced_ms += RunOp(next_op_++).wall_ms();
    }
    RoundTally tally;
    for (size_t j = 0; j < round; ++j) {
      QueryTracer tracer(TracerOptions());
      tally.AddOp(RunOp(next_op_++, &tracer));
      tally.AddSpans(tracer);
    }
    for (const auto& [name, value] : tally.Finish(untraced_ms)) {
      layer_rounds_[name].push_back(value);
    }
  }

  static QueryTracer::Options TracerOptions() {
    QueryTracer::Options options;
    options.capacity = 1u << 22;
    return options;
  }

  std::vector<Metric> EndToEndMetrics() const {
    std::vector<double> p50, p90, per_s;
    for (const std::vector<double>& samples : segments_ms_) {
      double total_ms = 0;
      for (double ms : samples) total_ms += ms;
      p50.push_back(Quantile(samples, 0.5));
      p90.push_back(Quantile(samples, 0.9));
      per_s.push_back(static_cast<double>(samples.size()) / (total_ms / 1000));
    }
    return {
        {"query_p50_ms", Median(p50), "ms"},
        {"query_p90_ms", Median(p90), "ms"},
        {"queries_per_s", Median(per_s), "1/s"},
        {"setup_s", Median(setup_s_), "s"},
        {"peak_rss_mb", PeakRssMb(), "MiB"},
    };
  }

  std::vector<Metric> PerLayerMetrics() const {
    std::vector<Metric> out;
    for (const auto& [name, values] : layer_rounds_) {
      std::string unit = "count";
      if (name.size() > 4 && name.compare(name.size() - 4, 4, "_pct") == 0) {
        unit = "%";
      } else if (name.size() > 3 &&
                 name.compare(name.size() - 3, 3, "_ms") == 0) {
        unit = "ms";
      } else if (name == "engine.kernel.hit_ratio") {
        unit = "fraction";
      }
      out.push_back({name, Median(values), unit});
    }
    out.push_back({"db.extension_build_ms", Median(build_ms_), "ms"});
    out.push_back({"db.regions", static_cast<double>(setup_regions_),
                   "count"});
    out.push_back({"arrangement.split_pct", Median(setup_split_pct_), "%"});
    out.push_back({"constraint.answer_text_changed",
                   static_cast<double>(text_changed_), "count"});
    return out;
  }

  void Report() const {
    const std::vector<Metric> metrics =
        args_.trace ? PerLayerMetrics() : EndToEndMetrics();
    std::fprintf(stderr, "workload %s seed %llu: %zu ops, %zu failed, %zu wrong\n",
                 args_.workload.c_str(),
                 static_cast<unsigned long long>(args_.seed), attempted_,
                 failed_, wrong_);
    for (const Metric& m : metrics) {
      std::fprintf(stderr, "  %-34s %14.4f %s\n", m.name.c_str(), m.value,
                   m.unit.c_str());
    }
    std::vector<double> samples_ms;
    for (const std::vector<double>& segment : segments_ms_) {
      samples_ms.insert(samples_ms.end(), segment.begin(), segment.end());
    }
    std::string json = "{\"bench\":\"bench_e2e\",\"workload\":\"" +
                       args_.workload + "\",\"seed\":" +
                       std::to_string(args_.seed) +
                       ",\"trace\":" + (args_.trace ? "true" : "false") +
                       ",\"quick\":" + (args_.quick ? "true" : "false") +
                       ",\"attempted\":" + std::to_string(attempted_) +
                       ",\"failed\":" + std::to_string(failed_) +
                       ",\"wrong\":" + std::to_string(wrong_) +
                       ",\"answers_checked\":" +
                       std::to_string(answers_checked_) +
                       ",\"sample_count\":" +
                       std::to_string(samples_ms.size()) + ",\"samples_ms\":[";
    for (size_t i = 0; i < samples_ms.size(); ++i) {
      if (i > 0) json += ",";
      json += Num(samples_ms[i]);
    }
    json += "],\"setup_s\":[";
    for (size_t i = 0; i < setup_s_.size(); ++i) {
      if (i > 0) json += ",";
      json += Num(setup_s_[i]);
    }
    json += "],\"metrics\":{";
    for (size_t i = 0; i < metrics.size(); ++i) {
      if (i > 0) json += ",";
      json += "\"" + metrics[i].name + "\":{\"value\":" +
              Num(metrics[i].value) + ",\"unit\":\"" + metrics[i].unit +
              "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
  }

  const Args args_;
  std::unique_ptr<Workload> workload_;
  std::unique_ptr<ConstraintKernel> kernel_;
  std::optional<ScopedKernel> kernel_scope_;

  size_t next_op_ = 0;
  size_t attempted_ = 0;
  size_t failed_ = 0;
  size_t wrong_ = 0;
  size_t answers_checked_ = 0;
  size_t text_changed_ = 0;
  std::vector<std::vector<double>> segments_ms_;  // operation latencies
  std::vector<double> setup_s_;
  std::vector<double> build_ms_;
  std::vector<double> setup_split_pct_;
  size_t setup_regions_ = 0;
  std::map<std::string, std::vector<double>> layer_rounds_;
};

}  // namespace
}  // namespace lcdb

int main(int argc, char** argv) {
  lcdb::Args args;
  if (!lcdb::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: bench_e2e --workload=W [--seed=N] [--seconds=S] "
                 "[--trace] [--quick]\n");
    return 2;
  }
  std::unique_ptr<lcdb::Workload> workload = lcdb::MakeWorkload(args);
  if (workload == nullptr) {
    std::fprintf(stderr,
                 "unknown workload '%s' (fixpoint_comb, element_qe, "
                 "river_lfp, ingest_tc)\n",
                 args.workload.c_str());
    return 2;
  }
  return lcdb::Harness(args, std::move(workload)).Run();
}
