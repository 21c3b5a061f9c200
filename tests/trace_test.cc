// Tests for the span tracer (engine/trace.h): recording semantics (LIFO
// nesting, counters, the bounded ring), the stable span-tree golden over a
// full evaluation on a fresh kernel, the Chrome trace-event exporter's
// schema, and the contract that installing a tracer never changes query
// results.

#include <gtest/gtest.h>

#include <string>

#include "constraint/parser.h"
#include "core/evaluator.h"
#include "core/parser.h"
#include "core/queries.h"
#include "db/region_extension.h"
#include "db/workloads.h"
#include "engine/kernel.h"
#include "engine/trace.h"

namespace lcdb {
namespace {

ConstraintDatabase IntervalsDb() {
  auto f = ParseDnf("(x > 0 & x < 1) | x = 5", {"x"});
  EXPECT_TRUE(f.ok()) << f.status().ToString();
  return ConstraintDatabase("S", *f, {"x"});
}

TEST(TraceTest, ManualSpansNestAndCount) {
  QueryTracer tracer;
  const uint64_t outer = tracer.BeginSpan("outer");
  const uint64_t inner = tracer.BeginSpan("inner");
  tracer.Counter("tuples", 7);
  tracer.Counter("tuples", 9);  // repeated names overwrite (final trip count)
  tracer.EndSpan(inner);
  tracer.EndSpan(outer);
  EXPECT_EQ(tracer.spans_begun(), 2u);
  EXPECT_EQ(tracer.spans_retained(), 2u);
  EXPECT_EQ(tracer.spans_dropped(), 0u);
  EXPECT_EQ(tracer.ToTreeString(/*zero_timestamps=*/true),
            "outer\n"
            "  inner tuples=9\n");
}

TEST(TraceTest, RingBoundDropsOldestCompletedSpans) {
  QueryTracer::Options options;
  options.capacity = 2;
  QueryTracer tracer(options);
  const uint64_t root = tracer.BeginSpan("root");
  for (int i = 0; i < 5; ++i) {
    const uint64_t child = tracer.BeginSpan("child");
    tracer.EndSpan(child);
  }
  tracer.EndSpan(root);
  EXPECT_EQ(tracer.spans_begun(), 6u);
  EXPECT_EQ(tracer.spans_retained(), 2u);
  EXPECT_EQ(tracer.spans_dropped(), 4u);
  // The last completed spans survive; the dropped root renders its
  // retained child as a root rather than losing it.
  const std::string tree = tracer.ToTreeString(/*zero_timestamps=*/true);
  EXPECT_NE(tree.find("root"), std::string::npos);
  EXPECT_NE(tree.find("child"), std::string::npos);
}

TEST(TraceTest, MismatchedEndUnwindsToTheTarget) {
  QueryTracer tracer;
  const uint64_t a = tracer.BeginSpan("a");
  tracer.BeginSpan("b");
  tracer.BeginSpan("c");
  tracer.EndSpan(a);  // closes c and b on the way down
  EXPECT_EQ(tracer.spans_retained(), 3u);
  EXPECT_EQ(tracer.ToTreeString(/*zero_timestamps=*/true),
            "a\n"
            "  b\n"
            "    c\n");
}

TEST(TraceTest, DisabledGuardIsInert) {
  ASSERT_EQ(CurrentTracerOrNull(), nullptr);
  TraceSpan span("never.recorded");
  EXPECT_FALSE(span.active());
  span.Counter("ignored", 1);  // must not crash
}

TEST(TraceTest, ScopedTracerNestsAndRestores) {
  QueryTracer outer_tracer;
  ScopedTracer outer(outer_tracer);
  {
    QueryTracer inner_tracer;
    ScopedTracer inner(inner_tracer);
    TraceSpan span("inner.only");
    EXPECT_EQ(CurrentTracerOrNull(), &inner_tracer);
  }
  EXPECT_EQ(CurrentTracerOrNull(), &outer_tracer);
  { TraceSpan span("outer.only"); }
  EXPECT_EQ(outer_tracer.spans_retained(), 1u);
  EXPECT_NE(outer_tracer.ToTreeString(true).find("outer.only"),
            std::string::npos);
}

// The golden: the span tree of one symbolic query on a fresh kernel (the
// process-default kernel's caches would otherwise change the lp.solve spans
// from run to run). Zeroed timestamps leave structure, names and counters —
// byte-stable. If an engine change legitimately alters the tree, update the
// golden; that is the point of pinning it.
TEST(TraceTest, GoldenSpanTree) {
  ConstraintDatabase db = IntervalsDb();
  auto ext = MakeArrangementExtension(db);
  auto parsed = ParseQuery("exists x . (S(x) & x > 2)", db.relation_name());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ConstraintKernel kernel;
  ScopedKernel scoped_kernel(kernel);
  QueryTracer tracer;
  {
    ScopedTracer scoped(tracer);
    Evaluator evaluator(*ext);
    auto r = evaluator.Evaluate(**parsed);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  EXPECT_EQ(tracer.ToTreeString(/*zero_timestamps=*/true),
            // The evaluate span carries the lemma-database share of the
            // query's kernel work: the optimizer's folding pass re-asks one
            // system the analyzer already proved, hence exactly one hit.
            "evaluate lemma.hits=1\n"
            "  typecheck\n"
            // The analyzer classifies the element-pure guard `x > 2` (sat
            // both ways -> unknown); its two oracle decisions land in the
            // kernel cache before the optimizer runs.
            "  analyze\n"
            "    lp.solve pivots=2\n"
            "    lp.solve pivots=1\n"
            "  plan.build\n"
            "  plan.optimize plan_nodes=2\n"
            "    pass.fold\n"
            "      lp.solve pivots=2\n"
            "      lp.solve pivots=4\n"
            "    pass.narrow\n"
            "    pass.fold\n"
            "    pass.reorder_quantifiers\n"
            "    pass.hoist\n"
            "    pass.order_conjuncts\n"
            "    pass.cse\n"
            "    pass.mark_cacheable\n"
            // Tier-2 cost estimation over the optimized plan (its
            // est_bigint_ops counter is plan-shape arithmetic, stable).
            "  plan.cost est_bigint_ops=2\n"
            // Tier-3 plan verification gates execution (its plan_nodes
            // counter is the DAG size it walked).
            "  plan.verify plan_nodes=2\n"
            "  plan.execute rows=1\n"
            "    qe.exists\n"
            "      qe.project disjuncts_in=1 disjuncts_out=1\n");
}

TEST(TraceTest, ChromeTraceJsonIsWellFormed) {
  ConstraintDatabase db = MakeComb(2, true);
  auto ext = MakeArrangementExtension(db);
  ConstraintKernel kernel;
  ScopedKernel scoped_kernel(kernel);
  QueryTracer tracer;
  {
    ScopedTracer scoped(tracer);
    auto r = EvaluateSentenceText(*ext, RegionConnQueryText());
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  ASSERT_GT(tracer.spans_retained(), 0u);
  const std::string json = tracer.ToChromeTraceJson();

  // Shape of the Chrome trace-event JSON-object flavour.
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ns\""), std::string::npos);
  EXPECT_NE(json.find("\"spans_dropped\":0"), std::string::npos);

  // One complete event per retained span, each with the mandatory fields.
  size_t events = 0;
  for (size_t pos = json.find("\"ph\":\"X\""); pos != std::string::npos;
       pos = json.find("\"ph\":\"X\"", pos + 1)) {
    ++events;
  }
  EXPECT_EQ(events, tracer.spans_retained());
  EXPECT_NE(json.find("\"cat\":\"lcdb\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\":1,\"tid\":1"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"fixpoint.stage\""), std::string::npos);

  // Structural well-formedness: braces and brackets balance and never go
  // negative outside string literals; quotes pair up.
  int braces = 0;
  int brackets = 0;
  bool in_string = false;
  bool escaped = false;
  for (char c : json) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (in_string) {
      if (c == '\\') escaped = true;
      if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{') ++braces;
    if (c == '}') --braces;
    if (c == '[') ++brackets;
    if (c == ']') --brackets;
    ASSERT_GE(braces, 0);
    ASSERT_GE(brackets, 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_FALSE(in_string);
}

TEST(TraceTest, CountersReachTheJsonArgs) {
  QueryTracer tracer;
  const uint64_t id = tracer.BeginSpan("stage");
  tracer.Counter("tuples", 42);
  tracer.EndSpan(id);
  const std::string json = tracer.ToChromeTraceJson();
  EXPECT_NE(json.find("\"tuples\":42"), std::string::npos);
  EXPECT_NE(json.find("\"parent\":0"), std::string::npos);
}

/// Installing a tracer must never change what a query returns. (The tracer
/// only observes; results stay byte-identical.)
TEST(TraceTest, TracedResultsAreByteIdenticalPlanPath) {
  ConstraintDatabase db = MakeComb(2, true);
  auto ext = MakeArrangementExtension(db);
  auto parsed =
      ParseQuery("exists x . S(x, y)", db.relation_name());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

  std::string untraced;
  {
    ConstraintKernel kernel;
    ScopedKernel scoped_kernel(kernel);
    Evaluator evaluator(*ext);
    auto r = evaluator.Evaluate(**parsed);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    untraced = r->ToString();
  }
  std::string traced;
  {
    ConstraintKernel kernel;
    ScopedKernel scoped_kernel(kernel);
    QueryTracer tracer;
    ScopedTracer scoped(tracer);
    Evaluator evaluator(*ext);
    auto r = evaluator.Evaluate(**parsed);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    traced = r->ToString();
    EXPECT_GT(tracer.spans_retained(), 0u);
  }
  EXPECT_EQ(untraced, traced);
}

}  // namespace
}  // namespace lcdb
