#include "plan/executor.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <string>

#include "constraint/simplify.h"
#include "core/pfp_cycle.h"
#include "core/resume.h"
#include "engine/governor.h"
#include "engine/kernel.h"
#include "engine/trace.h"
#include "geometry/convex_closure.h"
#include "qe/fourier_motzkin.h"
#include "util/failpoint.h"
#include "util/interrupt.h"
#include "util/status.h"

namespace lcdb {

namespace {

/// Accumulates wall-clock time of one operator execution into op_timings,
/// and opens a trace span named after the operator when a tracer is
/// installed (the span is the per-plan-node level of the trace tree).
class ScopedOpTimer {
 public:
  ScopedOpTimer(OpTimings* timings, PlanOp op)
      : timings_(timings), op_(op),
        span_(PlanOpName(op).c_str()),  // BeginSpan copies the name
        start_(std::chrono::steady_clock::now()) {}
  ~ScopedOpTimer() {
    OpTiming& slot = (*timings_)[PlanOpName(op_)];
    ++slot.count;
    slot.total_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                         std::chrono::steady_clock::now() - start_)
                         .count();
  }

 private:
  OpTimings* timings_;
  PlanOp op_;
  TraceSpan span_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace

PlanExecutor::PlanExecutor(const CompiledPlan& plan,
                           const RegionExtension& ext,
                           const Evaluator::Options& options,
                           Evaluator::Stats* stats)
    : plan_(plan), ext_(ext), options_(options), stats_(stats),
      num_columns_(plan.num_columns) {}

/// EXPLAIN ANALYZE measurement of one uncached node evaluation: inclusive
/// wall-clock plus deltas of the ambient kernel and governor counters. An
/// unwinding QueryInterrupt skips the recording, which is the right answer —
/// a tripped node never produced a result to attribute.
template <typename Fn>
auto PlanExecutor::Profiled(const PlanNode& node, Fn&& eval) {
  const KernelStats kernel_before = CurrentKernel().stats();
  QueryGovernor* governor = CurrentGovernorOrNull();
  const uint64_t checkpoints_before =
      governor != nullptr ? governor->stats().checkpoints : 0;
  const auto start = std::chrono::steady_clock::now();
  auto result = eval();
  PlanNodeProfile& p = (*profile_)[&node];
  p.total_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  const KernelStats kernel_after = CurrentKernel().stats();
  p.kernel_queries +=
      (kernel_after.feasibility_queries - kernel_before.feasibility_queries) +
      (kernel_after.implication_queries - kernel_before.implication_queries);
  p.kernel_cache_hits +=
      (kernel_after.cache_hits - kernel_before.cache_hits) +
      (kernel_after.implication_cache_hits -
       kernel_before.implication_cache_hits);
  if (governor != nullptr) {
    p.governor_checkpoints +=
        governor->stats().checkpoints - checkpoints_before;
  }
  return result;
}

DnfFormula PlanExecutor::Run() {
  // Named injection site for the whole-plan path (failpoint_test.cc): fires
  // after compilation/optimization but before the first operator runs.
  LCDB_FAILPOINT("plan.execute");
  try {
    RegionEnv renv;
    SetEnv senv;
    return Eval(*plan_.root, renv, senv);
  } catch (...) {
    // This executor dies with the unwind, so completed fixpoint/closure
    // entries must be harvested into the ambient resume collector here —
    // the Evaluate boundary never sees the executor's caches.
    HarvestResumeState();
    throw;
  }
}

void PlanExecutor::HarvestResumeState() {
  ResumeCollector* resume = CurrentResumeCollectorOrNull();
  if (resume == nullptr) return;
  for (const auto& entry : fixpoint_cache_) {
    if (uint64_t site = resume->SiteKey(entry.first)) {
      resume->CaptureCompletedFixpoint(site, entry.second);
    }
  }
  for (const auto& entry : closure_cache_) {
    if (uint64_t site = resume->SiteKey(entry.first)) {
      resume->CaptureCompletedClosure(site, entry.second);
    }
  }
}

bool PlanExecutor::CacheKey(const PlanNode& node, const RegionEnv& renv,
                            const SetEnv& senv, Tuple* key) const {
  key->clear();
  for (const std::string& r : node.free_region) {  // name-sorted
    auto it = renv.find(r);
    LCDB_CHECK(it != renv.end());
    key->push_back(it->second);
  }
  // Set-dependent results are cached per fixpoint *stage* via the binding's
  // version stamp.
  for (const std::string& m : node.free_sets) {
    key->push_back(senv.at(m).version);
  }
  return true;
}

DnfFormula PlanExecutor::Eval(const PlanNode& node, RegionEnv& renv,
                              SetEnv& senv) {
  // Cancellation point per plan node — in particular one per region-
  // quantifier expansion step, the executor's widest loops.
  GovernorCheckpoint();
  ++stats_->node_evaluations;
  if (profile_ != nullptr) ++(*profile_)[&node].calls;
  Tuple key;
  const bool cacheable = options_.memoize &&
                         node.cache == CachePolicy::kByRegionKey &&
                         CacheKey(node, renv, senv, &key);
  if (cacheable) {
    auto& per_node = memo_[&node];
    auto it = per_node.find(key);
    if (it != per_node.end()) {
      ++stats_->memo_hits;
      if (profile_ != nullptr) ++(*profile_)[&node].memo_hits;
      if (IsTimedPlanOp(node.op)) {
        ++stats_->op_timings[PlanOpName(node.op)].memo_hits;
      }
      return it->second;
    }
  }
  DnfFormula result =
      profile_ == nullptr
          ? EvalUncached(node, renv, senv)
          : Profiled(node, [&] { return EvalUncached(node, renv, senv); });
  if (profile_ != nullptr) {
    (*profile_)[&node].rows = result.disjuncts().size();
  }
  if (cacheable) memo_[&node].emplace(std::move(key), result);
  return result;
}

DnfFormula PlanExecutor::EvalUncached(const PlanNode& node, RegionEnv& renv,
                                      SetEnv& senv) {
  const size_t m = num_columns_;
  switch (node.op) {
    case PlanOp::kConstFormula:
      return *node.const_formula;
    case PlanOp::kInRegion: {
      const Conjunction& region =
          ext_.RegionFormula(renv.at(node.region_args[0]));
      DnfFormula region_formula(region.num_vars(), {region});
      return region_formula.Substitute(node.subst, m);
    }
    case PlanOp::kLiftBool:
      return EvalBool(*node.children[0], renv, senv) ? DnfFormula::True(m)
                                                     : DnfFormula::False(m);
    case PlanOp::kNegateSym:
      return Eval(*node.children[0], renv, senv).Negate();
    case PlanOp::kAndSym: {
      DnfFormula a = Eval(*node.children[0], renv, senv);
      if (a.IsSyntacticallyFalse()) return a;
      return a.And(Eval(*node.children[1], renv, senv));
    }
    case PlanOp::kOrSym: {
      DnfFormula a = Eval(*node.children[0], renv, senv);
      if (a.IsSyntacticallyTrue()) return a;
      return a.Or(Eval(*node.children[1], renv, senv));
    }
    case PlanOp::kImpliesSym: {
      DnfFormula a = Eval(*node.children[0], renv, senv);
      if (a.IsSyntacticallyFalse()) return DnfFormula::True(m);
      return a.Negate().Or(Eval(*node.children[1], renv, senv));
    }
    case PlanOp::kIffSym: {
      DnfFormula a = Eval(*node.children[0], renv, senv);
      DnfFormula b = Eval(*node.children[1], renv, senv);
      return a.And(b).Or(a.Negate().And(b.Negate()));
    }
    case PlanOp::kHull: {
      ScopedOpTimer timer(&stats_->op_timings, node.op);
      DnfFormula body = Eval(*node.children[0], renv, senv);
      DnfFormula projected = body.Substitute(node.hull_project,
                                             node.hull_arity);
      Result<DnfFormula> hull = ConvexClosure(projected);
      LCDB_CHECK_MSG(hull.ok(), "convex closure failed");
      return hull->Substitute(node.subst, m);
    }
    case PlanOp::kExistsElim: {
      ScopedOpTimer timer(&stats_->op_timings, node.op);
      ++stats_->qe_eliminations;
      return ExistsVariable(Eval(*node.children[0], renv, senv), node.column);
    }
    case PlanOp::kForallElim: {
      ScopedOpTimer timer(&stats_->op_timings, node.op);
      ++stats_->qe_eliminations;
      return ForallVariable(Eval(*node.children[0], renv, senv), node.column);
    }
    case PlanOp::kExpandExists: {
      ScopedOpTimer timer(&stats_->op_timings, node.op);
      ++stats_->region_expansions;
      DnfFormula acc = DnfFormula::False(m);
      for (size_t r = 0; r < ext_.num_regions(); ++r) {
        renv[node.region_var] = r;
        acc = acc.Or(Eval(*node.children[0], renv, senv));
        if (acc.IsSyntacticallyTrue()) break;
      }
      renv.erase(node.region_var);
      return acc;
    }
    case PlanOp::kExpandForall: {
      ScopedOpTimer timer(&stats_->op_timings, node.op);
      ++stats_->region_expansions;
      DnfFormula acc = DnfFormula::True(m);
      for (size_t r = 0; r < ext_.num_regions(); ++r) {
        renv[node.region_var] = r;
        acc = acc.And(Eval(*node.children[0], renv, senv));
        if (acc.IsSyntacticallyFalse()) break;
      }
      renv.erase(node.region_var);
      return acc;
    }
    default:
      LCDB_CHECK_MSG(false, "boolean operator in symbolic context");
      return DnfFormula::False(m);
  }
}

bool PlanExecutor::EvalBool(const PlanNode& node, RegionEnv& renv,
                            SetEnv& senv) {
  GovernorCheckpoint();
  ++stats_->bool_evaluations;
  if (profile_ != nullptr) ++(*profile_)[&node].calls;
  Tuple key;
  const bool cacheable = options_.memoize &&
                         node.cache == CachePolicy::kByRegionKey &&
                         CacheKey(node, renv, senv, &key);
  if (cacheable) {
    auto& per_node = bool_memo_[&node];
    auto it = per_node.find(key);
    if (it != per_node.end()) {
      ++stats_->memo_hits;
      if (profile_ != nullptr) ++(*profile_)[&node].memo_hits;
      if (IsTimedPlanOp(node.op)) {
        ++stats_->op_timings[PlanOpName(node.op)].memo_hits;
      }
      return it->second;
    }
  }
  const bool result =
      profile_ == nullptr
          ? EvalBoolUncached(node, renv, senv)
          : Profiled(node, [&] { return EvalBoolUncached(node, renv, senv); });
  if (profile_ != nullptr) {
    (*profile_)[&node].rows = result ? 1 : 0;
  }
  if (cacheable) bool_memo_[&node].emplace(std::move(key), result);
  return result;
}

bool PlanExecutor::EvalBoolUncached(const PlanNode& node, RegionEnv& renv,
                                    SetEnv& senv) {
  switch (node.op) {
    case PlanOp::kConstBool:
      return node.const_bool;
    case PlanOp::kNotBool:
      return !EvalBool(*node.children[0], renv, senv);
    case PlanOp::kAndBool:
      return EvalBool(*node.children[0], renv, senv) &&
             EvalBool(*node.children[1], renv, senv);
    case PlanOp::kOrBool:
      return EvalBool(*node.children[0], renv, senv) ||
             EvalBool(*node.children[1], renv, senv);
    case PlanOp::kImpliesBool:
      return !EvalBool(*node.children[0], renv, senv) ||
             EvalBool(*node.children[1], renv, senv);
    case PlanOp::kIffBool:
      return EvalBool(*node.children[0], renv, senv) ==
             EvalBool(*node.children[1], renv, senv);
    case PlanOp::kAnyRegion: {
      ++stats_->region_expansions;
      bool found = false;
      for (size_t r = 0; r < ext_.num_regions() && !found; ++r) {
        renv[node.region_var] = r;
        found = EvalBool(*node.children[0], renv, senv);
      }
      renv.erase(node.region_var);
      return found;
    }
    case PlanOp::kAllRegion: {
      ++stats_->region_expansions;
      bool holds = true;
      for (size_t r = 0; r < ext_.num_regions() && holds; ++r) {
        renv[node.region_var] = r;
        holds = EvalBool(*node.children[0], renv, senv);
      }
      renv.erase(node.region_var);
      return holds;
    }
    case PlanOp::kRegionAtom:
      return EvalRegionAtom(node, renv);
    case PlanOp::kSetMember: {
      const TupleSet* set = senv.at(node.set_var).tuples;
      Tuple tuple;
      tuple.reserve(node.region_args.size());
      for (const std::string& r : node.region_args) {
        tuple.push_back(renv.at(r));
      }
      return set->count(tuple) > 0;
    }
    case PlanOp::kFixpointMember: {
      const TupleSet& fp = FixpointSet(node);
      Tuple tuple;
      tuple.reserve(node.region_args.size());
      for (const std::string& r : node.region_args) {
        tuple.push_back(renv.at(r));
      }
      return fp.count(tuple) > 0;
    }
    case PlanOp::kClosureMember: {
      const auto& closure = ClosureMatrix(node);
      Tuple from, to;
      for (const std::string& r : node.region_args) from.push_back(renv.at(r));
      for (const std::string& r : node.region_args2) to.push_back(renv.at(r));
      return closure[TupleIndex(from)][TupleIndex(to)];
    }
    case PlanOp::kRbitMember:
      return EvalRbit(node, renv, senv);
    case PlanOp::kNonEmpty:
      // Element-sort subtree in a boolean context: all element variables
      // inside are bound, so the child's formula is constant — test
      // emptiness.
      return !Eval(*node.children[0], renv, senv).IsEmpty();
    default:
      LCDB_CHECK_MSG(false, "symbolic operator in boolean context");
      return false;
  }
}

bool PlanExecutor::EvalRegionAtom(const PlanNode& node, RegionEnv& renv) {
  auto region = [&](size_t i) { return renv.at(node.region_args[i]); };
  switch (node.source_kind) {
    case NodeKind::kAdjacent:
      return ext_.Adjacent(region(0), region(1));
    case NodeKind::kRegionEq:
      return region(0) == region(1);
    case NodeKind::kSubsetS:
      return ext_.RegionSubsetOfS(region(0));
    case NodeKind::kIntersectsS:
      return ext_.RegionIntersectsS(region(0));
    case NodeKind::kDimAtom:
      return ext_.RegionDim(region(0)) == node.dim_value;
    case NodeKind::kBoundedAtom:
      return ext_.RegionBounded(region(0));
    default:
      LCDB_CHECK_MSG(false, "not a region atom");
      return false;
  }
}

/// rBIT (Definition 5.1): see core/rbit.cc, whose algorithm this ports onto
/// the plan's precompiled column payload.
bool PlanExecutor::EvalRbit(const PlanNode& node, RegionEnv& renv,
                            SetEnv& senv) {
  ScopedOpTimer timer(&stats_->op_timings, node.op);
  DnfFormula body = Eval(*node.children[0], renv, senv);
  const size_t col = node.column;
  for (size_t c = 0; c < num_columns_; ++c) {
    if (c != col && VariableOccurs(body, c)) {
      // Cannot happen for type-checked queries.
      LCDB_CHECK_MSG(false, "rBIT body depends on another element variable");
    }
  }
  // Singleton test: nonempty, and implied to equal its witness value.
  Vec witness = body.FindWitness();
  if (witness.empty()) return false;  // empty set: no unique rational
  const Rational a = witness[col];
  Vec point_coeffs(num_columns_);
  point_coeffs[col] = Rational(1);
  DnfFormula exactly_a =
      DnfFormula::FromAtom(LinearAtom(point_coeffs, RelOp::kEq, a));
  if (!Implies(body, exactly_a)) return false;  // more than one value

  const size_t rn = renv.at(node.region_args[0]);
  const size_t rd = renv.at(node.region_args[1]);
  if (a.IsZero()) {
    return rn == rd && ext_.RegionDim(rn) > 0;
  }
  if (ext_.RegionDim(rn) != 0 || ext_.RegionDim(rd) != 0) return false;
  const size_t i = ext_.ZeroDimRank(rn);
  const size_t j = ext_.ZeroDimRank(rd);
  return a.num().Bit(i) && a.den().Bit(j);
}

/// Kleene iteration of [LFP/IFP/PFP_{M, X̄} body] — see core/fixpoint.cc for
/// the semantics notes; the algorithm is ported verbatim onto the boolean
/// plan body.
const PlanExecutor::TupleSet& PlanExecutor::FixpointSet(const PlanNode& node) {
  auto cached = fixpoint_cache_.find(&node);
  if (cached != fixpoint_cache_.end()) return cached->second;

  // Resume fast path (core/resume.h): reuse a completed set from a prior
  // interrupted run instead of recomputing it.
  ResumeCollector* resume = CurrentResumeCollectorOrNull();
  const uint64_t site = resume != nullptr ? resume->SiteKey(&node) : 0;
  if (site != 0) {
    if (const TupleSet* done = resume->CompletedFixpoint(site)) {
      ++stats_->resume_sets_restored;
      return fixpoint_cache_.emplace(&node, *done).first->second;
    }
  }

  ScopedOpTimer timer(&stats_->op_timings, node.op);
  ++stats_->fixpoints_computed;
  const uint64_t kernel_queries_before =
      CurrentKernel().stats().feasibility_queries;
  const size_t k = node.bound_vars.size();
  const size_t n = ext_.num_regions();
  size_t space = 1;
  for (size_t i = 0; i < k; ++i) {
    if (space > options_.max_tuple_space / std::max<size_t>(n, 1)) {
      throw QueryInterrupt(Status::ResourceExhausted(
          "fixed-point tuple space exceeds max_tuple_space (" +
          std::to_string(options_.max_tuple_space) + ")"));
    }
    space *= n;
  }
  GovernorCheckTupleSpace(space, "fixed-point");

  const PlanNode& body = *node.children[0];
  const bool is_pfp = node.source_kind == NodeKind::kPfp;

  // One Kleene stage (pure in the set binding); see core/fixpoint.cc.
  auto kleene_stage = [&](const TupleSet& cur) {
    TupleSet next;
    if (!is_pfp) next = cur;  // LFP (monotone) / IFP keep prior stage
    RegionEnv body_env;
    SetEnv body_senv;
    body_senv.emplace(node.set_var, SetBinding{&cur, ++set_version_counter_});
    Tuple tuple(k, 0);
    bool done_tuples = (n == 0);
    while (!done_tuples) {
      // Monotone/inflationary stages never lose tuples, so skip re-proofs.
      if (is_pfp || !next.count(tuple)) {
        for (size_t i = 0; i < k; ++i) {
          body_env[node.bound_vars[i]] = tuple[i];
        }
        if (EvalBool(body, body_env, body_senv)) next.insert(tuple);
      }
      // Advance the k-digit counter.
      size_t pos = k;
      while (pos > 0) {
        --pos;
        if (++tuple[pos] < n) break;
        tuple[pos] = 0;
        if (pos == 0) done_tuples = true;
      }
      if (k == 0) done_tuples = true;
    }
    return next;
  };

  auto account = [&] {
    stats_->fixpoint_feasibility_queries +=
        CurrentKernel().stats().feasibility_queries - kernel_queries_before;
  };

  TupleSet current;
  size_t iteration = 0;
  PfpCycleDetector cycle;  // PFP only; stores 8 bytes per stage
  if (site != 0) {
    // Continue an interrupted Kleene loop from its last completed stage
    // (pure in the environment by Definition 5.1; see core/fixpoint.cc).
    FixpointResumePoint point;
    if (resume->TakeInProgress(site, &point)) {
      current = std::move(point.approximation);
      iteration = point.iteration;
      cycle.SeedHashes(point.pfp_hashes);
      ++stats_->resume_fixpoints_resumed;
      stats_->resume_stages_skipped += point.iteration;
    }
  }
  try {
    for (;; ++iteration) {
      LCDB_FAILPOINT("fixpoint.stage");
      GovernorOnFixpointIteration();
      if (is_pfp) {
        if (iteration > options_.max_pfp_iterations) {
          throw QueryInterrupt(Status::ResourceExhausted(
              "PFP exceeded max_pfp_iterations (" +
              std::to_string(options_.max_pfp_iterations) + ")"));
        }
        if (cycle.SeenBefore(current, iteration, kleene_stage)) {
          // Revisited a state without reaching a fixed point: diverges.
          account();
          return fixpoint_cache_.emplace(&node, TupleSet{}).first->second;
        }
      }
      ++stats_->fixpoint_iterations;
      TupleSet next;
      {
        TraceSpan stage_span("fixpoint.stage");
        next = kleene_stage(current);
        stage_span.Counter("iteration", iteration);
        stage_span.Counter("tuples", next.size());
      }
      if (next == current) break;
      current = std::move(next);
    }
  } catch (const QueryInterrupt&) {
    // Checkpoint the last completed stage; a mid-stage interrupt only
    // discards the partial `next` local to kleene_stage.
    if (site != 0) {
      std::vector<uint64_t> pfp_hashes =
          is_pfp ? cycle.ExportHashes(current) : std::vector<uint64_t>{};
      resume->CaptureInProgress(site, std::move(current), iteration,
                                std::move(pfp_hashes));
    }
    throw;
  }
  account();
  return fixpoint_cache_.emplace(&node, std::move(current)).first->second;
}

size_t PlanExecutor::TupleIndex(const Tuple& tuple) const {
  const size_t n = ext_.num_regions();
  size_t index = 0;
  for (size_t v : tuple) {
    LCDB_CHECK(v < n);
    index = index * n + v;
  }
  return index;
}

/// Reachability bitmap of a TC/DTC operator (Definition 7.2) — see
/// core/transitive_closure.cc for the semantics notes.
const std::vector<std::vector<bool>>& PlanExecutor::ClosureMatrix(
    const PlanNode& node) {
  auto cached = closure_cache_.find(&node);
  if (cached != closure_cache_.end()) return cached->second;

  // Resume fast path (core/resume.h): completed-matrix granularity only.
  if (ResumeCollector* resume = CurrentResumeCollectorOrNull()) {
    if (uint64_t site = resume->SiteKey(&node)) {
      if (const auto* done = resume->CompletedClosure(site)) {
        ++stats_->resume_sets_restored;
        return closure_cache_.emplace(&node, *done).first->second;
      }
    }
  }

  ScopedOpTimer timer(&stats_->op_timings, node.op);
  ++stats_->closures_computed;
  const uint64_t kernel_queries_before =
      CurrentKernel().stats().feasibility_queries;
  const size_t m = node.bound_vars.size() / 2;
  const size_t n = ext_.num_regions();
  size_t space = 1;
  for (size_t i = 0; i < m; ++i) {
    if (space > options_.max_tuple_space / std::max<size_t>(n, 1)) {
      throw QueryInterrupt(Status::ResourceExhausted(
          "TC tuple space exceeds max_tuple_space (" +
          std::to_string(options_.max_tuple_space) + ")"));
    }
    space *= n;
  }
  GovernorCheckTupleSpace(space, "closure");

  // Enumerate all m-tuples once.
  std::vector<Tuple> tuples;
  tuples.reserve(space);
  Tuple tuple(m, 0);
  if (n > 0) {
    while (true) {
      tuples.push_back(tuple);
      size_t pos = m;
      bool advanced = false;
      while (pos > 0) {
        --pos;
        if (++tuple[pos] < n) {
          advanced = true;
          break;
        }
        tuple[pos] = 0;
      }
      if (!advanced) break;
    }
  }
  const size_t total = tuples.size();

  // Edge relation from the body.
  const PlanNode& body = *node.children[0];
  RegionEnv env;
  SetEnv senv;
  std::vector<std::vector<bool>> edges(total, std::vector<bool>(total, false));
  for (size_t u = 0; u < total; ++u) {
    // Edge construction is the LP-heavy phase (total^2 body evaluations),
    // so it gets the per-row injection + cancellation point. An unwind
    // abandons only the local `edges` matrix; closure_cache_ is untouched.
    LCDB_FAILPOINT("closure.build");
    GovernorCheckpoint();
    for (size_t v = 0; v < total; ++v) {
      for (size_t i = 0; i < m; ++i) {
        env[node.bound_vars[i]] = tuples[u][i];
        env[node.bound_vars[m + i]] = tuples[v][i];
      }
      edges[u][v] = EvalBool(body, env, senv);
    }
  }

  if (node.source_kind == NodeKind::kDtc) {
    // Keep only unique successors.
    for (size_t u = 0; u < total; ++u) {
      size_t successors = 0;
      for (size_t v = 0; v < total; ++v) {
        if (edges[u][v]) ++successors;
      }
      if (successors != 1) {
        std::fill(edges[u].begin(), edges[u].end(), false);
      }
    }
  }

  // Reflexive-transitive closure by BFS from every source.
  std::vector<std::vector<bool>> closure(total,
                                         std::vector<bool>(total, false));
  for (size_t source = 0; source < total; ++source) {
    std::deque<size_t> queue = {source};
    closure[source][source] = true;  // length-one sequence
    while (!queue.empty()) {
      size_t u = queue.front();
      queue.pop_front();
      for (size_t v = 0; v < total; ++v) {
        if (edges[u][v] && !closure[source][v]) {
          closure[source][v] = true;
          queue.push_back(v);
        }
      }
    }
  }
  stats_->closure_feasibility_queries +=
      CurrentKernel().stats().feasibility_queries - kernel_queries_before;
  return closure_cache_.emplace(&node, std::move(closure)).first->second;
}

}  // namespace lcdb
