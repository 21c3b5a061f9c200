// Experiment T6.1 (DESIGN.md): Theorem 6.1 — RegLFP data complexity is
// PTIME. The connectivity query (the paper's Section 5 flagship) is
// evaluated on comb/staircase families of growing region count; the
// benchmark reports regions, fixed-point iterations (bounded by |Reg|^k)
// and compares against the union-find geometric baseline.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "constraint/simplify.h"
#include "util/failpoint.h"
#include "core/evaluator.h"
#include "core/parser.h"
#include "core/queries.h"
#include "db/geometric_baselines.h"
#include "db/region_extension.h"
#include "db/workloads.h"
#include "engine/governor.h"
#include "engine/kernel.h"
#include "engine/obslog.h"
#include "engine/profiler.h"
#include "engine/trace.h"

namespace {

/// Oracle-call columns (EXPERIMENTS.md, "Oracle-call telemetry"): the
/// kernel counters an evaluator attributed to its own run, including the
/// share spent inside fixed-point iteration.
void ReportKernelCounters(benchmark::State& state,
                          const lcdb::Evaluator::Stats& stats) {
  state.counters["oracle_calls"] =
      static_cast<double>(stats.kernel.oracle_calls);
  state.counters["cache_hits"] =
      static_cast<double>(stats.kernel.cache_hits);
  state.counters["simplex_invocations"] =
      static_cast<double>(stats.kernel.simplex_invocations);
  state.counters["fixpoint_oracle_calls"] =
      static_cast<double>(stats.fixpoint_feasibility_queries);
}

void BM_RegLfpConnectivity(benchmark::State& state) {
  const size_t teeth = static_cast<size_t>(state.range(0));
  const bool connected = state.range(1) != 0;
  lcdb::ConstraintDatabase db = lcdb::MakeComb(teeth, connected);
  auto ext = lcdb::MakeArrangementExtension(db);
  auto query = lcdb::ParseQuery(lcdb::RegionConnQueryText(), "S");
  size_t iterations = 0;
  lcdb::Evaluator::Stats last_stats;
  for (auto _ : state) {
    lcdb::Evaluator evaluator(*ext);
    auto result = evaluator.EvaluateSentence(**query);
    if (!result.ok()) state.SkipWithError(result.status().ToString().c_str());
    if (*result != connected) state.SkipWithError("wrong connectivity");
    iterations = evaluator.stats().fixpoint_iterations;
    last_stats = evaluator.stats();
    benchmark::DoNotOptimize(*result);
  }
  state.counters["regions"] = static_cast<double>(ext->num_regions());
  state.counters["lfp_iterations"] = static_cast<double>(iterations);
  ReportKernelCounters(state, last_stats);
}

BENCHMARK(BM_RegLfpConnectivity)
    ->Args({1, 1})
    ->Args({2, 1})
    ->Args({3, 1})
    ->Args({4, 1})
    ->Args({2, 0})
    ->Args({3, 0})
    ->Unit(benchmark::kMillisecond);

/// Governor overhead experiment (EXPERIMENTS.md, "Governor telemetry"):
/// the same connectivity run with a QueryGovernor installed whose budgets
/// are all unlimited — every checkpoint is paid for, none trips. Compare
/// this timing against BM_RegLfpConnectivity at the same arity to bound
/// the governed-path tax (goal: under 2%). The counters expose how many
/// checkpoints and strided deadline reads the run actually performed.
void BM_GovernedConnectivity(benchmark::State& state) {
  const size_t teeth = static_cast<size_t>(state.range(0));
  lcdb::ConstraintDatabase db = lcdb::MakeComb(teeth, /*connected=*/true);
  auto ext = lcdb::MakeArrangementExtension(db);
  auto query = lcdb::ParseQuery(lcdb::RegionConnQueryText(), "S");
  lcdb::GovernorStats gstats;
  for (auto _ : state) {
    lcdb::GovernorLimits limits;  // everything unlimited, nothing trips
    limits.wall_clock_ms = 600000;  // but the deadline clock is live
    lcdb::QueryGovernor governor(limits);
    lcdb::ScopedGovernor scoped(governor);
    lcdb::Evaluator evaluator(*ext);
    auto result = evaluator.EvaluateSentence(**query);
    if (!result.ok()) state.SkipWithError(result.status().ToString().c_str());
    if (!*result) state.SkipWithError("comb should be connected");
    gstats = governor.stats();
    benchmark::DoNotOptimize(*result);
  }
  state.counters["regions"] = static_cast<double>(ext->num_regions());
  state.counters["governor_checkpoints"] =
      static_cast<double>(gstats.checkpoints);
  state.counters["deadline_checks"] =
      static_cast<double>(gstats.deadline_checks);
  state.counters["budget_trips"] = static_cast<double>(gstats.budget_trips);
}

BENCHMARK(BM_GovernedConnectivity)->Arg(2)->Arg(3)->Arg(4)
    ->Unit(benchmark::kMillisecond);

/// Tracer overhead experiment (EXPERIMENTS.md, "Tracing and metrics"): the
/// connectivity run with tracing disabled (Arg 0 — every span site is one
/// relaxed atomic load, the failpoint contract) and enabled (Arg 1 — spans
/// recorded into a fresh per-iteration ring). Compare the Arg(0) timing
/// against BM_RegLfpConnectivity at the same arity to bound the
/// disabled-path tax (goal: under 2%); Arg(1) prices the recording path,
/// with the span volume in the counters.
void BM_TracingOverhead(benchmark::State& state) {
  const size_t teeth = 3;
  const bool enabled = state.range(0) != 0;
  lcdb::ConstraintDatabase db = lcdb::MakeComb(teeth, /*connected=*/true);
  auto ext = lcdb::MakeArrangementExtension(db);
  auto query = lcdb::ParseQuery(lcdb::RegionConnQueryText(), "S");
  uint64_t spans_recorded = 0;
  uint64_t spans_dropped = 0;
  for (auto _ : state) {
    std::unique_ptr<lcdb::QueryTracer> tracer;
    std::unique_ptr<lcdb::ScopedTracer> scoped;
    if (enabled) {
      tracer = std::make_unique<lcdb::QueryTracer>();
      scoped = std::make_unique<lcdb::ScopedTracer>(*tracer);
    }
    lcdb::Evaluator evaluator(*ext);
    auto result = evaluator.EvaluateSentence(**query);
    if (!result.ok()) state.SkipWithError(result.status().ToString().c_str());
    if (!*result) state.SkipWithError("comb should be connected");
    if (tracer != nullptr) {
      spans_recorded = tracer->spans_begun();
      spans_dropped = tracer->spans_dropped();
    }
    benchmark::DoNotOptimize(*result);
  }
  state.counters["regions"] = static_cast<double>(ext->num_regions());
  state.counters["tracing_enabled"] = enabled ? 1 : 0;
  state.counters["spans_recorded"] = static_cast<double>(spans_recorded);
  state.counters["spans_dropped"] = static_cast<double>(spans_dropped);
}

BENCHMARK(BM_TracingOverhead)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

/// Fleet-observability overhead experiment (EXPERIMENTS.md, "Fleet
/// observability"): the connectivity run without any observability (bare)
/// and with the full always-on stack (observed) — a flight recorder
/// appending one record per query plus the continuous profiler at its
/// production 1-in-64 sampling rate, driven exactly as QuerySession drives
/// it. One iteration runs one query of each kind, in alternating order, so
/// machine drift over the run lands on both alike. Counters: `off_ms` and
/// `on_ms` are the mean bare and observed query times, and `tax` is
/// on/off - 1. The CI acceptance gate requires the median `tax` to stay
/// under 2%, since a recorder that distorts the fleet it observes is
/// useless for attribution. Only every 64th observed query pays for span
/// recording; the other 63 pay one relaxed atomic load per span site plus
/// one record append.
void BM_ObsLogOverhead(benchmark::State& state) {
  const size_t teeth = 3;
  lcdb::ConstraintDatabase db = lcdb::MakeComb(teeth, /*connected=*/true);
  auto ext = lcdb::MakeArrangementExtension(db);
  auto query = lcdb::ParseQuery(lcdb::RegionConnQueryText(), "S");
  lcdb::QueryFlightRecorder recorder;
  lcdb::ContinuousProfiler::Options options;
  options.sample_every = 64;
  lcdb::ContinuousProfiler profiler(options);
  // One query; its observability objects live and die inside the timing.
  auto run = [&](bool observed) {
    std::unique_ptr<lcdb::ScopedFlightRecorder> scoped_recorder;
    std::unique_ptr<lcdb::QueryTracer> tracer;
    std::unique_ptr<lcdb::ScopedTracer> scoped_tracer;
    if (observed) {
      scoped_recorder = std::make_unique<lcdb::ScopedFlightRecorder>(recorder);
      if (profiler.ShouldSample()) {
        tracer = std::make_unique<lcdb::QueryTracer>();
        scoped_tracer = std::make_unique<lcdb::ScopedTracer>(*tracer);
      }
    }
    const uint64_t start_ns = lcdb::ObsNowNs();
    lcdb::Evaluator evaluator(*ext);
    auto result = evaluator.EvaluateSentence(**query);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
    } else if (!*result) {
      state.SkipWithError("comb should be connected");
    }
    if (observed) {
      profiler.RecordQuery(lcdb::ObsNowNs() - start_ns, !result.ok(),
                           tracer.get());
    }
    benchmark::DoNotOptimize(result);
  };
  uint64_t off_ns = 0;
  uint64_t on_ns = 0;
  bool observed_first = false;
  for (auto _ : state) {
    for (bool observed : {observed_first, !observed_first}) {
      const uint64_t start_ns = lcdb::ObsNowNs();
      run(observed);
      (observed ? on_ns : off_ns) += lcdb::ObsNowNs() - start_ns;
    }
    observed_first = !observed_first;
  }
  const double iterations = static_cast<double>(state.iterations());
  state.counters["off_ms"] = static_cast<double>(off_ns) / 1e6 / iterations;
  state.counters["on_ms"] = static_cast<double>(on_ns) / 1e6 / iterations;
  state.counters["tax"] =
      static_cast<double>(on_ns) / static_cast<double>(off_ns) - 1.0;
  state.counters["records_appended"] =
      static_cast<double>(recorder.appended());
  state.counters["records_dropped"] = static_cast<double>(recorder.dropped());
  state.counters["queries_sampled"] =
      static_cast<double>(profiler.queries_sampled());
}

BENCHMARK(BM_ObsLogOverhead)->Unit(benchmark::kMillisecond);

/// Kernel-memoization acceptance experiment on a full fixed-point workload:
/// the river-pollution sentence (Figure 6 — LFP with element-sort side
/// conditions, so its stages lean hard on the feasibility oracle) plus an
/// open connectivity query, evaluated against a caching kernel and a
/// cache-disabled kernel. The caching run must spend strictly fewer simplex
/// invocations, while both runs must agree — the sentence boolean exactly,
/// the open answer up to AreEquivalent. (The pure region-quantified
/// connectivity sentence is a poor subject here: the evaluator's own
/// subformula memo already removes its repeated oracle questions.)
void BM_KernelMemoRiver(benchmark::State& state) {
  lcdb::ConstraintDatabase db = lcdb::MakeRiverScenario(2, {}, {0}, {1});
  auto ext = lcdb::MakeArrangementExtension(db);
  // Warm the extension's lazy predicate caches under the default kernel so
  // neither measured run pays for (or gets credited with) that work.
  (void)lcdb::EvaluateSentenceText(*ext, lcdb::RiverPollutionQueryText());
  lcdb::KernelStats with_memo, without_memo;
  bool equivalent = false;
  for (auto _ : state) {
    lcdb::ConstraintKernel on(
        lcdb::ConstraintKernel::Options{/*memoize=*/true});
    lcdb::ConstraintKernel off(
        lcdb::ConstraintKernel::Options{/*memoize=*/false});
    bool sentence_on = false, sentence_off = false;
    lcdb::DnfFormula open_on = lcdb::DnfFormula::False(0);
    lcdb::DnfFormula open_off = lcdb::DnfFormula::False(0);
    {
      lcdb::ScopedKernel scope(on);
      auto sentence =
          lcdb::EvaluateSentenceText(*ext, lcdb::RiverPollutionQueryText());
      auto open = lcdb::EvaluateQueryText(*ext, "exists y . S(x, y)");
      if (!sentence.ok() || !open.ok()) {
        state.SkipWithError("evaluation failed");
        break;
      }
      sentence_on = *sentence;
      open_on = open->formula;
    }
    {
      lcdb::ScopedKernel scope(off);
      auto sentence =
          lcdb::EvaluateSentenceText(*ext, lcdb::RiverPollutionQueryText());
      auto open = lcdb::EvaluateQueryText(*ext, "exists y . S(x, y)");
      if (!sentence.ok() || !open.ok()) {
        state.SkipWithError("evaluation failed");
        break;
      }
      sentence_off = *sentence;
      open_off = open->formula;
    }
    with_memo = on.stats();
    without_memo = off.stats();
    {
      lcdb::ScopedKernel scope(on);
      equivalent = sentence_on == sentence_off &&
                   lcdb::AreEquivalent(open_on, open_off);
    }
    if (!equivalent) state.SkipWithError("cached answer diverged");
    benchmark::DoNotOptimize(equivalent);
  }
  state.counters["oracle_calls_on"] =
      static_cast<double>(with_memo.oracle_calls);
  state.counters["oracle_calls_off"] =
      static_cast<double>(without_memo.oracle_calls);
  state.counters["simplex_invocations_on"] =
      static_cast<double>(with_memo.simplex_invocations);
  state.counters["simplex_invocations_off"] =
      static_cast<double>(without_memo.simplex_invocations);
  state.counters["cache_hits"] = static_cast<double>(with_memo.cache_hits);
  state.counters["answers_equivalent"] = equivalent ? 1 : 0;
}

BENCHMARK(BM_KernelMemoRiver)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

/// Optimizer-ablation acceptance experiment (EXPERIMENTS.md, "Plan
/// optimizer telemetry"): the connectivity sentence through the plan
/// pipeline with the pass pipeline on vs off. The optimized run must spend
/// strictly fewer Stats::node_evaluations — the win comes from narrowing
/// the region-pure sentence to boolean mode and from cache marking
/// (optimize=false also runs without any subformula caching).
void BM_PlanOptimizerAblation(benchmark::State& state) {
  const size_t teeth = static_cast<size_t>(state.range(0));
  lcdb::ConstraintDatabase db = lcdb::MakeComb(teeth, /*connected=*/true);
  auto ext = lcdb::MakeArrangementExtension(db);
  auto query = lcdb::ParseQuery(lcdb::RegionConnQueryText(), "S");
  lcdb::Evaluator::Stats optimized, raw;
  for (auto _ : state) {
    for (bool optimize : {true, false}) {
      lcdb::Evaluator::Options options;
      options.optimize = optimize;
      lcdb::Evaluator evaluator(*ext, options);
      auto result = evaluator.EvaluateSentence(**query);
      if (!result.ok() || !*result) {
        state.SkipWithError("connectivity sentence broken");
        break;
      }
      (optimize ? optimized : raw) = evaluator.stats();
    }
    benchmark::DoNotOptimize(optimized.node_evaluations);
  }
  state.counters["regions"] = static_cast<double>(ext->num_regions());
  state.counters["node_evals_optimized"] =
      static_cast<double>(optimized.node_evaluations);
  state.counters["node_evals_raw"] =
      static_cast<double>(raw.node_evaluations);
  state.counters["bool_evals_optimized"] =
      static_cast<double>(optimized.bool_evaluations);
  state.counters["bool_evals_raw"] =
      static_cast<double>(raw.bool_evaluations);
  state.counters["memo_hits_optimized"] =
      static_cast<double>(optimized.memo_hits);
  state.counters["narrowed_subtrees"] =
      static_cast<double>(optimized.plan.narrowed_subtrees);
  state.counters["hoisted_invariants"] =
      static_cast<double>(optimized.plan.hoisted_invariants);
  state.counters["strictly_lower"] =
      optimized.node_evaluations < raw.node_evaluations ? 1 : 0;
}

BENCHMARK(BM_PlanOptimizerAblation)->Arg(2)->Arg(3)->Arg(4)
    ->Unit(benchmark::kMillisecond);

/// Static-verification overhead experiment (EXPERIMENTS.md, "Static
/// verification telemetry"): the connectivity sentence on comb(3) with the
/// tier-3 plan verifier ablated (the `--no-verify` path) and armed (the
/// default: VerifyPlan after optimization). One iteration runs one query
/// of each kind, in alternating order, so machine drift over the run lands
/// on both alike. Counters: `off_ms` and `on_ms` are the mean unverified
/// and verified query times, and `tax` is on/off - 1. Verification is
/// compile-time-only work per query; the CI acceptance gate requires the
/// median `tax` to stay under 2%.
void BM_VerifyOverhead(benchmark::State& state) {
  const size_t teeth = 3;
  lcdb::ConstraintDatabase db = lcdb::MakeComb(teeth, /*connected=*/true);
  auto ext = lcdb::MakeArrangementExtension(db);
  auto query = lcdb::ParseQuery(lcdb::RegionConnQueryText(), "S");
  auto run = [&](bool verify) {
    lcdb::Evaluator::Options options;
    options.verify = verify;
    lcdb::Evaluator evaluator(*ext, options);
    auto result = evaluator.EvaluateSentence(**query);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
    } else if (!*result) {
      state.SkipWithError("comb should be connected");
    }
    benchmark::DoNotOptimize(result);
  };
  uint64_t off_ns = 0;
  uint64_t on_ns = 0;
  bool verify_first = false;
  for (auto _ : state) {
    for (bool verify : {verify_first, !verify_first}) {
      const uint64_t start_ns = lcdb::ObsNowNs();
      run(verify);
      (verify ? on_ns : off_ns) += lcdb::ObsNowNs() - start_ns;
    }
    verify_first = !verify_first;
  }
  const double iterations = static_cast<double>(state.iterations());
  state.counters["off_ms"] = static_cast<double>(off_ns) / 1e6 / iterations;
  state.counters["on_ms"] = static_cast<double>(on_ns) / 1e6 / iterations;
  state.counters["tax"] =
      static_cast<double>(on_ns) / static_cast<double>(off_ns) - 1.0;
  // The verified volume, from one more verified query outside the timing.
  lcdb::Evaluator verified(*ext);
  auto answer = verified.EvaluateSentence(**query);
  benchmark::DoNotOptimize(answer);
  state.counters["regions"] = static_cast<double>(ext->num_regions());
  state.counters["plans_verified"] =
      static_cast<double>(verified.stats().verify.plans_verified);
  state.counters["plan_nodes_verified"] =
      static_cast<double>(verified.stats().verify.plan_nodes_verified);
}

BENCHMARK(BM_VerifyOverhead)->Unit(benchmark::kMillisecond);

/// Checkpoint/resume acceptance experiment (EXPERIMENTS.md, "Chaos and
/// resilience telemetry"): the connectivity sentence under four modes.
///   mode 0  uninterrupted, checkpoint capture OFF — the baseline;
///   mode 1  uninterrupted, checkpoint capture ON — prices the capture
///           tax on the no-trip path (acceptance: within 2% of mode 0);
///   mode 2  the fixpoint.stage failpoint trips the Kleene loop after its
///           second stage, then the run resumes from the returned token;
///   mode 3  same trip, but the token is dropped and the query recomputes
///           from scratch — what resume saves.
/// Compare mode 2 vs mode 3 timings; `fixpoints_resumed`/`sets_restored`
/// confirm the resumed run actually continued from the checkpoint, and
/// every mode's answer must equal the uninterrupted reference byte for
/// byte (the resume contract from core/resume.h).
void BM_ResumeVsRecompute(benchmark::State& state) {
  const size_t teeth = static_cast<size_t>(state.range(0));
  const int mode = static_cast<int>(state.range(1));
  lcdb::ConstraintDatabase db = lcdb::MakeComb(teeth, /*connected=*/true);
  auto ext = lcdb::MakeArrangementExtension(db);
  auto query = lcdb::ParseQuery(lcdb::RegionConnQueryText(), "S");
  std::string reference;
  {
    lcdb::Evaluator evaluator(*ext);
    auto answer = evaluator.Evaluate(**query);
    if (!answer.ok()) {
      state.SkipWithError(answer.status().ToString().c_str());
      return;
    }
    reference = answer->ToString();
  }
  lcdb::Evaluator::Stats last;
  for (auto _ : state) {
    lcdb::Evaluator::Options options;
    options.capture_resume = mode != 0;
    lcdb::Evaluator evaluator(*ext, options);
    uint64_t token = 0;
    if (mode >= 2) {
      lcdb::ArmFailpoint("fixpoint.stage",
                         lcdb::StatusCode::kResourceExhausted,
                         "bench-injected trip", /*skip_hits=*/1);
      auto tripped = evaluator.Evaluate(**query);
      lcdb::DisarmAllFailpoints();
      if (tripped.ok()) {
        state.SkipWithError("expected the injected trip to fire");
        break;
      }
      if (mode == 2) token = tripped.status().resume_token();
    }
    auto answer = evaluator.Evaluate(**query, token);
    if (!answer.ok()) {
      state.SkipWithError(answer.status().ToString().c_str());
      break;
    }
    if (answer->ToString() != reference) {
      state.SkipWithError("post-trip answer diverged from the reference");
      break;
    }
    last = evaluator.stats();
    benchmark::DoNotOptimize(answer->formula);
  }
  state.counters["regions"] = static_cast<double>(ext->num_regions());
  state.counters["mode"] = mode;
  state.counters["fixpoint_iterations"] =
      static_cast<double>(last.fixpoint_iterations);
  state.counters["fixpoints_resumed"] =
      static_cast<double>(last.resume_fixpoints_resumed);
  state.counters["sets_restored"] =
      static_cast<double>(last.resume_sets_restored);
  state.counters["stages_skipped"] =
      static_cast<double>(last.resume_stages_skipped);
}

BENCHMARK(BM_ResumeVsRecompute)
    ->Args({3, 0})
    ->Args({3, 1})
    ->Args({3, 2})
    ->Args({3, 3})
    ->Args({4, 0})
    ->Args({4, 1})
    ->Args({4, 2})
    ->Args({4, 3})
    ->Unit(benchmark::kMillisecond);

void BM_RegLfpStaircase(benchmark::State& state) {
  const size_t steps = static_cast<size_t>(state.range(0));
  lcdb::ConstraintDatabase db = lcdb::MakeStaircase(steps);
  auto ext = lcdb::MakeArrangementExtension(db);
  for (auto _ : state) {
    auto result =
        lcdb::EvaluateSentenceText(*ext, lcdb::RegionConnQueryText());
    if (!result.ok() || !*result) state.SkipWithError("staircase broken");
    benchmark::DoNotOptimize(*result);
  }
  state.counters["regions"] = static_cast<double>(ext->num_regions());
}

BENCHMARK(BM_RegLfpStaircase)->Arg(2)->Arg(3)->Arg(4)
    ->Unit(benchmark::kMillisecond);

void BM_GeometricBaseline(benchmark::State& state) {
  // The comparator: same answers, hand-written algorithm (DESIGN.md's
  // substitution for the Grumbach-Kuper language [11]). "Who wins": the
  // baseline, by a wide interpretive margin — the generic evaluator pays
  // for full logic generality with the same polynomial shape.
  const size_t teeth = static_cast<size_t>(state.range(0));
  lcdb::ConstraintDatabase db = lcdb::MakeComb(teeth, /*connected=*/true);
  auto ext = lcdb::MakeArrangementExtension(db);
  // Warm the extension's lazy caches so only graph traversal is measured.
  (void)lcdb::SpatialConnectivityBaseline(*ext);
  for (auto _ : state) {
    bool connected = lcdb::SpatialConnectivityBaseline(*ext);
    if (!connected) state.SkipWithError("baseline wrong");
    benchmark::DoNotOptimize(connected);
  }
  state.counters["regions"] = static_cast<double>(ext->num_regions());
}

BENCHMARK(BM_GeometricBaseline)->Arg(1)->Arg(2)->Arg(3)->Arg(4)
    ->Unit(benchmark::kMillisecond);

// The paper's literal point-quantified Conn (element quantifiers + QE) on
// small instances — the expensive end of Theorem 6.1's algorithm.
void BM_LiteralConnQuery(benchmark::State& state) {
  const size_t teeth = static_cast<size_t>(state.range(0));
  lcdb::ConstraintDatabase db = lcdb::MakeComb(teeth, /*connected=*/false);
  auto ext = lcdb::MakeArrangementExtension(db);
  for (auto _ : state) {
    auto result = lcdb::EvaluateSentenceText(*ext, lcdb::ConnQueryText(2));
    if (!result.ok()) state.SkipWithError(result.status().ToString().c_str());
    benchmark::DoNotOptimize(*result);
  }
  state.counters["regions"] = static_cast<double>(ext->num_regions());
}

BENCHMARK(BM_LiteralConnQuery)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond)
    ->Iterations(1);

// The river query (Figure 6): LFP with element-sort side conditions.
void BM_RiverQuery(benchmark::State& state) {
  const size_t len = static_cast<size_t>(state.range(0));
  lcdb::ConstraintDatabase db =
      lcdb::MakeRiverScenario(len, {}, {0}, {len - 1});
  auto ext = lcdb::MakeArrangementExtension(db);
  for (auto _ : state) {
    auto result =
        lcdb::EvaluateSentenceText(*ext, lcdb::RiverPollutionQueryText());
    if (!result.ok() || !*result) state.SkipWithError("river broken");
    benchmark::DoNotOptimize(*result);
  }
  state.counters["regions"] = static_cast<double>(ext->num_regions());
}

BENCHMARK(BM_RiverQuery)->Arg(2)->Arg(3)->Unit(benchmark::kMillisecond)
    ->Iterations(1);

}  // namespace

BENCHMARK_MAIN();
