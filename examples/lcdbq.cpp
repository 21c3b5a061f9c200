// lcdbq — batch query runner:  lcdbq <database-file> <query> [options]
//
//   ./lcdbq data/intervals.lcdb 'exists x . (S(x) & x > 2)'
//   ./lcdbq data/comb.lcdb --conn
//   ./lcdbq data/triangle.lcdb 'exists y . S(x, y)' --decomposition
//
// Options:
//   --decomposition    use the Section 7 region extension (default: Sec. 3
//                      arrangement)
//   --conn             shorthand for the region connectivity query
//   --stats            print evaluator statistics, including the flat
//                      metrics JSON ("# metrics: {...}")
//   --lint             statically analyze the query instead of evaluating:
//                      parse + typecheck + the analyzer passes (positivity,
//                      range restriction, DTC determinism, vacuous guards,
//                      hygiene), printing LCDB### diagnostics with caret
//                      spans and a summary line
//   --lint=json        same, but print the diagnostics as a JSON array
//                      (code/severity/message/begin/end/fix per entry)
//   --werror           with --lint, promote analyzer warnings to errors:
//                      the report renders them at error severity and the
//                      exit code is 1 when any fired (CI gating)
//   --no-verify        skip the tier-3 static verifier (plan-IR invariant
//                      checker, analysis/plan_verify.h); ablation knob for
//                      benchmarking the <2% verify tax
//   --explain          print the optimized query plan instead of evaluating
//   --explain-analyze  execute the query and print the plan annotated with
//                      per-node measured execution (EXPLAIN ANALYZE)
//   --no-optimize      with --explain, print the raw (unoptimized) plan
//   --timeout <ms>     run under a QueryGovernor with a wall-clock deadline;
//                      a tripped deadline is a clean error, not a hang.
//                      Covers extension construction too.
//   --retries <n>      allow n retries through the resilient QuerySession
//                      (engine/session.h): resource trips escalate the
//                      budget and resume from the checkpoint; engine faults
//                      drop a degradation-ladder rung (default 0)
//   --failpoint=SITE[:skip_hits]
//                      arm the named failpoint site (util/failpoint.h) with
//                      a kResourceExhausted injection after skip_hits hits —
//                      the chaos harness's knob, exposed for reproduction
//   --trace=FILE       record a span trace of the whole run (extension
//                      build + query) and write it to FILE as Chrome
//                      trace-event JSON (loadable in Perfetto /
//                      chrome://tracing); --trace FILE also accepted
//   --query-log=FILE   install the query flight recorder (engine/obslog.h)
//                      and write its records to FILE as JSONL, one
//                      schema-stable lcdb.query_record.v1 line per
//                      evaluated query (attempt retries included)
//   --sample-rate=N    enable the continuous profiler: every Nth query is
//                      traced deterministically and its spans fold into the
//                      profile.op.* histograms shown under --stats
//   --postmortem=DIR   on any failed query, serialize a post-mortem bundle
//                      (span tree, metrics, ladder history, flight-recorder
//                      tail) into DIR as lcdb.postmortem.v1 JSON
//
// Exit code: 0 = query evaluated (sentences print true/false), 1 = invalid
// input or engine error, 2 = resource failure (tripped budget, deadline,
// cancel — Status::IsResourceFailure), so scripts can tell "fix the query"
// from "give it more budget". Under --lint, 0 = no error-severity
// diagnostics (warnings and notes are fine), 1 = errors.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>

#include "analysis/analyzer.h"
#include "core/evaluator.h"
#include "core/parser.h"
#include "core/queries.h"
#include "db/io.h"
#include "db/region_extension.h"
#include "engine/governor.h"
#include "engine/obslog.h"
#include "engine/session.h"
#include "engine/trace.h"
#include "util/failpoint.h"

namespace {

/// 2 for resource failures, 1 for everything else (see the header comment).
int ExitCodeFor(const lcdb::Status& status) {
  return status.IsResourceFailure() ? 2 : 1;
}

/// Writes the tracer's Chrome trace JSON to `path`; returns false on I/O
/// failure (reported, but the query result still stands).
bool WriteTraceFile(const lcdb::QueryTracer& tracer, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot write trace file %s\n", path.c_str());
    return false;
  }
  const std::string json = tracer.ToChromeTraceJson();
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  std::fclose(f);
  if (!ok) std::fprintf(stderr, "error: short write to %s\n", path.c_str());
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  std::string db_path;
  std::string query;
  std::string trace_path;
  bool use_decomposition = false;
  bool show_stats = false;
  bool explain = false;
  bool explain_analyze = false;
  bool lint = false;
  bool lint_json = false;
  bool werror = false;
  bool optimize = true;
  bool verify = true;
  std::optional<uint64_t> timeout_ms;
  size_t retries = 0;
  std::string failpoint_spec;
  std::string query_log_path;
  uint64_t sample_rate = 0;
  std::string postmortem_dir;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--decomposition") == 0) {
      use_decomposition = true;
    } else if (std::strcmp(argv[i], "--stats") == 0) {
      show_stats = true;
    } else if (std::strcmp(argv[i], "--lint") == 0) {
      lint = true;
    } else if (std::strcmp(argv[i], "--lint=json") == 0) {
      lint = true;
      lint_json = true;
    } else if (std::strcmp(argv[i], "--explain") == 0) {
      explain = true;
    } else if (std::strcmp(argv[i], "--explain-analyze") == 0) {
      explain_analyze = true;
    } else if (std::strcmp(argv[i], "--werror") == 0) {
      werror = true;
    } else if (std::strcmp(argv[i], "--no-optimize") == 0) {
      optimize = false;
    } else if (std::strcmp(argv[i], "--no-verify") == 0) {
      verify = false;
    } else if (std::strncmp(argv[i], "--trace=", 8) == 0) {
      trace_path = argv[i] + 8;
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--trace requires an output file\n");
        return 1;
      }
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--timeout") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--timeout requires a millisecond value\n");
        return 1;
      }
      timeout_ms = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--retries") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--retries requires a count\n");
        return 1;
      }
      retries = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strncmp(argv[i], "--failpoint=", 12) == 0) {
      failpoint_spec = argv[i] + 12;
    } else if (std::strncmp(argv[i], "--query-log=", 12) == 0) {
      query_log_path = argv[i] + 12;
    } else if (std::strncmp(argv[i], "--sample-rate=", 14) == 0) {
      sample_rate = std::strtoull(argv[i] + 14, nullptr, 10);
    } else if (std::strncmp(argv[i], "--postmortem=", 13) == 0) {
      postmortem_dir = argv[i] + 13;
    } else if (std::strcmp(argv[i], "--conn") == 0) {
      query = lcdb::RegionConnQueryText();
    } else if (db_path.empty()) {
      db_path = argv[i];
    } else if (query.empty()) {
      query = argv[i];
    } else {
      std::fprintf(stderr, "unexpected argument: %s\n", argv[i]);
      return 1;
    }
  }
  if (db_path.empty() || query.empty()) {
    std::fprintf(stderr,
                 "usage: lcdbq <database-file> <query> "
                 "[--decomposition] [--stats] [--lint[=json]] [--werror] "
                 "[--explain] "
                 "[--explain-analyze] "
                 "[--no-optimize] [--no-verify] [--timeout <ms>] "
                 "[--retries <n>] "
                 "[--failpoint=SITE[:skip_hits]] [--trace=out.json] "
                 "[--query-log=out.jsonl] [--sample-rate=N] "
                 "[--postmortem=DIR]\n"
                 "       lcdbq <database-file> --conn\n");
    return 1;
  }

  if (!failpoint_spec.empty()) {
    std::string site = failpoint_spec;
    uint64_t skip_hits = 0;
    const size_t colon = site.rfind(':');
    if (colon != std::string::npos) {
      skip_hits = std::strtoull(site.c_str() + colon + 1, nullptr, 10);
      site.erase(colon);
    }
    // Armed before the extension build so arrangement.split is reachable;
    // injections surface as resource failures (exit code 2).
    lcdb::ArmFailpoint(site, lcdb::StatusCode::kResourceExhausted,
                       "injected failure (--failpoint=" + failpoint_spec +
                           ")",
                       skip_hits);
  }

  auto db = lcdb::LoadDatabaseFromFile(db_path);
  if (!db.ok()) {
    std::fprintf(stderr, "error: %s\n", db.status().ToString().c_str());
    return 1;
  }

  // Lint needs only the schema (relation name and arity), not the regions,
  // so it runs before — and instead of — the extension build. Without an
  // extension the analyzer's region count is unknown; the tuple-space cap
  // warning degrades gracefully (the overflow error still fires).
  if (lint) {
    lcdb::LintReport report = lcdb::LintQueryText(query, *db);
    if (werror) {
      // Promote warnings to errors before rendering so the output severity
      // and the exit code tell the same story.
      for (lcdb::Diagnostic& d : report.diagnostics) {
        if (d.severity == lcdb::DiagSeverity::kWarning) {
          d.severity = lcdb::DiagSeverity::kError;
          --report.stats.warnings;
          ++report.stats.errors;
        }
      }
    }
    if (lint_json) {
      std::printf("%s\n", lcdb::DiagnosticsToJson(report.diagnostics).c_str());
    } else {
      std::printf("%s", lcdb::RenderDiagnostics(report.diagnostics, query)
                            .c_str());
      std::printf("# lint: %s\n", report.stats.ToString().c_str());
    }
    return report.has_errors() ? 1 : 0;
  }

  // Tracer and governor wrap the whole run — extension construction
  // included, so its budget trips are clean errors and its build span is
  // the first in the trace.
  std::unique_ptr<lcdb::QueryTracer> tracer;
  std::unique_ptr<lcdb::ScopedTracer> scoped_tracer;
  if (!trace_path.empty()) {
    tracer = std::make_unique<lcdb::QueryTracer>();
    scoped_tracer = std::make_unique<lcdb::ScopedTracer>(*tracer);
  }
  std::unique_ptr<lcdb::QueryGovernor> governor;
  std::unique_ptr<lcdb::ScopedGovernor> scoped;
  if (timeout_ms.has_value()) {
    lcdb::GovernorLimits limits;
    limits.wall_clock_ms = *timeout_ms;
    governor = std::make_unique<lcdb::QueryGovernor>(limits);
    scoped = std::make_unique<lcdb::ScopedGovernor>(*governor);
  }
  // The flight recorder covers every evaluation of the run — retry
  // attempts land as individual records with the session's annotation on
  // the last one.
  std::unique_ptr<lcdb::QueryFlightRecorder> recorder;
  std::unique_ptr<lcdb::ScopedFlightRecorder> scoped_recorder;
  if (!query_log_path.empty()) {
    recorder = std::make_unique<lcdb::QueryFlightRecorder>();
    scoped_recorder = std::make_unique<lcdb::ScopedFlightRecorder>(*recorder);
  }
  auto write_trace = [&] {
    if (tracer != nullptr) WriteTraceFile(*tracer, trace_path);
    if (recorder != nullptr) {
      std::FILE* f = std::fopen(query_log_path.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "error: cannot write query log %s\n",
                     query_log_path.c_str());
        return;
      }
      const std::string jsonl = recorder->ToJsonl();
      if (std::fwrite(jsonl.data(), 1, jsonl.size(), f) != jsonl.size()) {
        std::fprintf(stderr, "error: short write to %s\n",
                     query_log_path.c_str());
      }
      std::fclose(f);
    }
  };

  auto built = use_decomposition ? lcdb::BuildDecompositionExtension(*db)
                                 : lcdb::BuildArrangementExtension(*db);
  if (!built.ok()) {
    std::fprintf(stderr, "error: %s\n", built.status().ToString().c_str());
    write_trace();
    return ExitCodeFor(built.status());
  }
  std::unique_ptr<lcdb::RegionExtension> ext = std::move(built).value();

  auto parsed = lcdb::ParseQuery(query, db->relation_name());
  if (!parsed.ok()) {
    std::fprintf(stderr, "error: %s\n", parsed.status().ToString().c_str());
    return 1;
  }
  lcdb::Evaluator::Options options;
  options.optimize = optimize;
  options.verify = verify;
  lcdb::Evaluator evaluator(*ext, options);
  evaluator.AttachSource(query);  // carets in analyzer rejections
  if (explain || explain_analyze) {
    auto plan = explain_analyze ? evaluator.ExplainAnalyze(**parsed)
                                : evaluator.Explain(**parsed);
    if (!plan.ok()) {
      std::fprintf(stderr, "error: %s\n", plan.status().ToString().c_str());
      write_trace();
      return ExitCodeFor(plan.status());
    }
    std::printf("%s", plan->c_str());
    write_trace();
    return 0;
  }

  // Evaluation routes through the resilient session: one attempt by
  // default, escalating retries with checkpoint/resume and the degradation
  // ladder under --retries. Its governor carries the --timeout budget per
  // attempt (the outer governor above still covers the extension build).
  lcdb::SessionOptions session_options;
  session_options.eval = options;
  session_options.max_retries = retries;
  session_options.profile.sample_every = sample_rate;
  session_options.postmortem_dir = postmortem_dir;
  if (timeout_ms.has_value()) {
    session_options.limits.wall_clock_ms = *timeout_ms;
  }
  lcdb::QuerySession session(*ext, session_options);
  auto answer = session.Evaluate(query);
  if (!answer.ok()) {
    std::fprintf(stderr, "error: %s\n", answer.status().ToString().c_str());
    if (!session.last_postmortem_path().empty()) {
      std::fprintf(stderr, "# postmortem: %s\n",
                   session.last_postmortem_path().c_str());
    }
    if (show_stats) {
      std::fprintf(stderr, "# session: %s\n",
                   session.stats().ToString().c_str());
      std::fprintf(stderr, "# metrics: %s\n",
                   session.Metrics().ToJson().c_str());
    }
    write_trace();
    return ExitCodeFor(answer.status());
  }
  if (answer->free_vars.empty()) {
    std::printf("%s\n", answer->formula.IsEmpty() ? "false" : "true");
  } else {
    std::printf("%s\n", answer->ToString().c_str());
  }
  if (show_stats) {
    const lcdb::MetricsSnapshot metrics = session.Metrics();
    auto metric = [&](const char* name) -> uint64_t {
      auto it = metrics.values.find(name);
      return it == metrics.values.end() ? 0 : it->second;
    };
    std::fprintf(stderr,
                 "# extension=%s regions=%zu node_evals=%" PRIu64
                 " bool_evals=%" PRIu64 " memo_hits=%" PRIu64
                 " lfp_iters=%" PRIu64 " qe=%" PRIu64 "\n",
                 ext->kind().c_str(), ext->num_regions(),
                 metric("evaluator.node_evaluations"),
                 metric("evaluator.bool_evaluations"),
                 metric("evaluator.memo_hits"),
                 metric("evaluator.fixpoint_iterations"),
                 metric("evaluator.qe_eliminations"));
    std::fprintf(stderr, "# session: %s\n",
                 session.stats().ToString().c_str());
    // The same flat namespace the bench harness and EXPLAIN ANALYZE read,
    // now including the session.* resilience family.
    std::fprintf(stderr, "# metrics: %s\n", metrics.ToJson().c_str());
  }
  write_trace();
  return 0;
}
