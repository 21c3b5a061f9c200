#include "plan/vm.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <string>
#include <utility>

#include "analysis/bytecode_verify.h"
#include "constraint/canonical.h"
#include "constraint/simplify.h"
#include "core/pfp_cycle.h"
#include "core/resume.h"
#include "engine/governor.h"
#include "engine/kernel.h"
#include "engine/trace.h"
#include "geometry/convex_closure.h"
#include "plan/executor.h"
#include "plan/relation_eval.h"
#include "qe/fourier_motzkin.h"
#include "util/failpoint.h"
#include "util/interrupt.h"
#include "util/status.h"

namespace lcdb {

BytecodeVm::BytecodeVm(const BytecodeProgram& program,
                       const RegionExtension& ext,
                       const Evaluator::Options& options,
                       Evaluator::Stats* stats)
    : program_(program), ext_(ext), options_(options), stats_(stats),
      num_columns_(program.num_columns),
      renv_(program.region_slot_names.size(), 0),
      senv_(program.set_slot_names.size()),
      icache_(program.num_icache_slots) {}

DnfFormula BytecodeVm::Run() {
  // The VM trusts operand bounds and bracket balance on its hot path (no
  // per-dispatch checks), so it refuses programs the tier-3 verifier has
  // not accepted. Options::verify off waives the gate for the ablation.
  if (options_.verify && !program_.verified) {
    throw QueryInterrupt(Status::Internal(
        "LCDB012: refusing to execute unverified bytecode program (run "
        "VerifyBytecode and set BytecodeProgram::verified)"));
  }
  // Same named injection site as PlanExecutor::Run — the backends are
  // interchangeable behind it (failpoint_test.cc, vm_test.cc).
  LCDB_FAILPOINT("plan.execute");
  try {
    DnfFormula result = CallSymProc(0);
    LCDB_CHECK(op_stack_.empty());
    return result;
  } catch (...) {
    // Close open operator brackets innermost-first, recording their partial
    // wall-clock — what the tree walk's ScopedOpTimer destructors do during
    // an unwind. Pending profile frames are discarded instead, matching
    // Profiled: a tripped node never produced a result to attribute.
    while (!op_stack_.empty()) CloseOpFrame();
    profile_stack_.clear();
    // The VM dies with this unwind; deposit completed fixpoint/closure
    // entries into the ambient resume collector (core/resume.h).
    HarvestResumeState();
    throw;
  }
}

void BytecodeVm::HarvestResumeState() {
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

DnfFormula BytecodeVm::CallSymProc(uint32_t proc_id) {
  const VmProc& proc = program_.procs[proc_id];
  const size_t sb = sregs_.size(), bb = bregs_.size(), ib = iregs_.size();
  sregs_.resize(sb + proc.num_sregs, DnfFormula::False(0));
  bregs_.resize(bb + proc.num_bregs, 0);
  iregs_.resize(ib + proc.num_iregs, 0);
  Dispatch(proc, sb, bb, ib);
  DnfFormula result = std::move(sregs_[sb]);
  sregs_.erase(sregs_.begin() + sb, sregs_.end());
  bregs_.erase(bregs_.begin() + bb, bregs_.end());
  iregs_.erase(iregs_.begin() + ib, iregs_.end());
  return result;
}

bool BytecodeVm::CallBoolProc(uint32_t proc_id) {
  const VmProc& proc = program_.procs[proc_id];
  const size_t sb = sregs_.size(), bb = bregs_.size(), ib = iregs_.size();
  sregs_.resize(sb + proc.num_sregs, DnfFormula::False(0));
  bregs_.resize(bb + proc.num_bregs, 0);
  iregs_.resize(ib + proc.num_iregs, 0);
  Dispatch(proc, sb, bb, ib);
  const bool result = bregs_[bb] != 0;
  sregs_.erase(sregs_.begin() + sb, sregs_.end());
  bregs_.erase(bregs_.begin() + bb, bregs_.end());
  iregs_.erase(iregs_.begin() + ib, iregs_.end());
  return result;
}

void BytecodeVm::BuildKey(const VmMemoDesc& desc, Tuple* key) const {
  key->clear();
  key->reserve(desc.region_slots.size() + desc.set_slots.size());
  for (uint32_t slot : desc.region_slots) key->push_back(renv_[slot]);
  for (uint32_t slot : desc.set_slots) key->push_back(senv_[slot].version);
}

std::string BytecodeVm::Fingerprint(const DnfFormula& f) const {
  std::string key;
  for (const Conjunction& c : f.disjuncts()) {
    key += CanonicalizeConjunction(c).encoding;
    key += ';';
  }
  return key;
}

bool BytecodeVm::IcacheLookup(uint32_t slot, const std::string& key,
                              bool* verdict) {
  IcacheSlot& s = icache_[slot];
  const ConstraintKernel* kernel = &CurrentKernel();
  const uint64_t epoch = kernel->CacheEpoch();
  if (s.kernel != nullptr && (s.kernel != kernel || s.epoch != epoch)) {
    // A ScopedKernel swap changed the ambient oracle under us, or the
    // kernel's caches were cleared / lemma-invalidated since the fill: the
    // cached verdict belongs to a retired cache generation, drop it.
    ++stats_->vm.icache_invalidations;
    s.kernel = nullptr;
    s.key.clear();
  }
  if (s.kernel == kernel && s.key == key) {
    ++stats_->vm.icache_hits;
    *verdict = s.verdict;
    return true;
  }
  ++stats_->vm.icache_misses;
  return false;
}

void BytecodeVm::IcacheStore(uint32_t slot, std::string key, bool verdict) {
  IcacheSlot& s = icache_[slot];
  s.kernel = &CurrentKernel();
  s.epoch = s.kernel->CacheEpoch();
  s.key = std::move(key);
  s.verdict = verdict;
}

void BytecodeVm::PushOpFrame(const PlanNode& node) {
  OpFrame frame;
  frame.op = node.op;
  frame.tracer = ActiveTracerOrNull();
  if (frame.tracer != nullptr) {
    frame.span_id = frame.tracer->BeginSpan(PlanOpName(node.op).c_str());
  }
  frame.start = std::chrono::steady_clock::now();
  op_stack_.push_back(std::move(frame));
}

void BytecodeVm::CloseOpFrame() {
  OpFrame frame = std::move(op_stack_.back());
  op_stack_.pop_back();
  OpTiming& slot = stats_->op_timings[PlanOpName(frame.op)];
  ++slot.count;
  slot.total_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                       std::chrono::steady_clock::now() - frame.start)
                       .count();
  if (frame.tracer != nullptr) frame.tracer->EndSpan(frame.span_id);
}

void BytecodeVm::Dispatch(const VmProc& proc, size_t sb, size_t bb,
                          size_t ib) {
  const VmInstr* code = proc.code.data();
  const size_t n = proc.code.size();
  // Frame-relative register views. The stacks never reallocate inside one
  // Dispatch: every growth happens inside a nested Call/member helper,
  // which restores the exact size before returning — so raw pointers would
  // be safe, but index math keeps the unwind paths trivially correct.
  auto S = [&](uint32_t r) -> DnfFormula& { return sregs_[sb + r]; };
  auto B = [&](uint32_t r) -> uint8_t& { return bregs_[bb + r]; };
  auto I = [&](uint32_t r) -> size_t& { return iregs_[ib + r]; };

  Tuple key;
  size_t pc = 0;
  while (pc < n) {
    const VmInstr& in = code[pc];
    ++stats_->vm.instructions;
    switch (in.op) {
      // ---- Node entry / exit.
      case VmOp::kEnterSym:
      case VmOp::kEnterBool: {
        const bool symbolic = in.op == VmOp::kEnterSym;
        GovernorCheckpoint();
        if (symbolic) {
          ++stats_->node_evaluations;
        } else {
          ++stats_->bool_evaluations;
        }
        const PlanNode* node = in.node;
        if (profile_ != nullptr) ++(*profile_)[node].calls;
        if (in.imm != 0 && options_.memoize) {
          BuildKey(program_.memo_descs[in.imm - 1], &key);
          if (symbolic) {
            auto& per_node = memo_[node];
            auto it = per_node.find(key);
            if (it != per_node.end()) {
              ++stats_->memo_hits;
              if (profile_ != nullptr) ++(*profile_)[node].memo_hits;
              if (IsTimedPlanOp(node->op)) {
                ++stats_->op_timings[PlanOpName(node->op)].memo_hits;
              }
              S(in.a) = it->second;
              pc = in.b;
              continue;
            }
          } else {
            auto& per_node = bool_memo_[node];
            auto it = per_node.find(key);
            if (it != per_node.end()) {
              ++stats_->memo_hits;
              if (profile_ != nullptr) ++(*profile_)[node].memo_hits;
              if (IsTimedPlanOp(node->op)) {
                ++stats_->op_timings[PlanOpName(node->op)].memo_hits;
              }
              B(in.a) = it->second ? 1 : 0;
              pc = in.b;
              continue;
            }
          }
        }
        if (profile_ != nullptr) {
          ProfileFrame frame;
          frame.node = node;
          frame.kernel_before = CurrentKernel().stats();
          QueryGovernor* governor = CurrentGovernorOrNull();
          frame.governed = governor != nullptr;
          frame.checkpoints_before =
              governor != nullptr ? governor->stats().checkpoints : 0;
          frame.start = std::chrono::steady_clock::now();
          profile_stack_.push_back(std::move(frame));
        }
        break;
      }
      case VmOp::kLeaveSym:
      case VmOp::kLeaveBool: {
        const bool symbolic = in.op == VmOp::kLeaveSym;
        if (profile_ != nullptr) {
          ProfileFrame frame = std::move(profile_stack_.back());
          profile_stack_.pop_back();
          PlanNodeProfile& p = (*profile_)[frame.node];
          p.total_ns +=
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - frame.start)
                  .count();
          const KernelStats after = CurrentKernel().stats();
          p.kernel_queries += (after.feasibility_queries -
                               frame.kernel_before.feasibility_queries) +
                              (after.implication_queries -
                               frame.kernel_before.implication_queries);
          p.kernel_cache_hits +=
              (after.cache_hits - frame.kernel_before.cache_hits) +
              (after.implication_cache_hits -
               frame.kernel_before.implication_cache_hits);
          QueryGovernor* governor = CurrentGovernorOrNull();
          if (frame.governed && governor != nullptr) {
            p.governor_checkpoints +=
                governor->stats().checkpoints - frame.checkpoints_before;
          }
          p.rows = symbolic ? S(in.a).disjuncts().size() : (B(in.a) ? 1 : 0);
        }
        if (in.imm != 0 && options_.memoize) {
          // Rebuilding the key here is sound: the node's free variables are
          // bound by *ancestors*, and the typechecker's no-shadowing rule
          // means no descendant loop can have rewritten their slots.
          BuildKey(program_.memo_descs[in.imm - 1], &key);
          if (symbolic) {
            memo_[in.node].emplace(key, S(in.a));
          } else {
            bool_memo_[in.node].emplace(key, B(in.a) != 0);
          }
        }
        break;
      }
      // ---- Symbolic producers.
      case VmOp::kConstFormula:
        S(in.a) = *in.node->const_formula;
        break;
      case VmOp::kInRegion: {
        const Conjunction& region = ext_.RegionFormula(renv_[in.b]);
        DnfFormula region_formula(region.num_vars(), {region});
        S(in.a) = region_formula.Substitute(in.node->subst, num_columns_);
        break;
      }
      case VmOp::kLiftBool:
        S(in.a) = B(in.b) != 0 ? DnfFormula::True(num_columns_)
                               : DnfFormula::False(num_columns_);
        break;
      case VmOp::kNegSym:
        S(in.a) = S(in.a).Negate();
        break;
      case VmOp::kAndSym:
        S(in.a) = S(in.a).And(S(in.b));
        break;
      case VmOp::kOrSym:
        S(in.a) = S(in.a).Or(S(in.b));
        break;
      case VmOp::kIffSym: {
        const DnfFormula& a = S(in.a);
        const DnfFormula& b = S(in.b);
        DnfFormula result = a.And(b).Or(a.Negate().And(b.Negate()));
        S(in.a) = std::move(result);
        break;
      }
      case VmOp::kLoadTrueSym:
        S(in.a) = DnfFormula::True(num_columns_);
        break;
      case VmOp::kLoadFalseSym:
        S(in.a) = DnfFormula::False(num_columns_);
        break;
      case VmOp::kHullFinish: {
        DnfFormula projected =
            S(in.b).Substitute(in.node->hull_project, in.node->hull_arity);
        Result<DnfFormula> hull = ConvexClosure(projected);
        LCDB_CHECK_MSG(hull.ok(), "convex closure failed");
        S(in.a) = hull->Substitute(in.node->subst, num_columns_);
        break;
      }
      case VmOp::kQeExists:
        S(in.a) = ExistsVariable(S(in.b), in.node->column);
        break;
      case VmOp::kQeForall:
        S(in.a) = ForallVariable(S(in.b), in.node->column);
        break;
      // ---- Boolean producers.
      case VmOp::kLoadBool:
        B(in.a) = static_cast<uint8_t>(in.imm);
        break;
      case VmOp::kNotBool:
        B(in.a) = B(in.a) != 0 ? 0 : 1;
        break;
      case VmOp::kEqBool:
        B(in.a) = (B(in.a) != 0) == (B(in.b) != 0) ? 1 : 0;
        break;
      case VmOp::kRegionAtom: {
        const PlanNode& node = *in.node;
        bool result = false;
        switch (node.source_kind) {
          case NodeKind::kAdjacent:
            result = ext_.Adjacent(renv_[in.b], renv_[in.c]);
            break;
          case NodeKind::kRegionEq:
            result = renv_[in.b] == renv_[in.c];
            break;
          case NodeKind::kSubsetS:
            result = ext_.RegionSubsetOfS(renv_[in.b]);
            break;
          case NodeKind::kIntersectsS:
            result = ext_.RegionIntersectsS(renv_[in.b]);
            break;
          case NodeKind::kDimAtom:
            result = ext_.RegionDim(renv_[in.b]) == node.dim_value;
            break;
          case NodeKind::kBoundedAtom:
            result = ext_.RegionBounded(renv_[in.b]);
            break;
          default:
            LCDB_CHECK_MSG(false, "not a region atom");
        }
        B(in.a) = result ? 1 : 0;
        break;
      }
      case VmOp::kSetMember: {
        const VmSlotList& list = program_.slot_lists[in.imm];
        const SetBinding& binding = senv_[in.b];
        LCDB_CHECK(binding.tuples != nullptr);
        Tuple tuple;
        tuple.reserve(list.size());
        for (uint32_t slot : list) tuple.push_back(renv_[slot]);
        B(in.a) = binding.tuples->count(tuple) > 0 ? 1 : 0;
        break;
      }
      case VmOp::kFixpointMember: {
        const VmFixpointSite& site = program_.fixpoint_sites[in.imm];
        const TupleSet& fp = FixpointSet(site, *in.node);
        Tuple tuple;
        tuple.reserve(site.arg_slots.size());
        for (uint32_t slot : site.arg_slots) tuple.push_back(renv_[slot]);
        B(in.a) = fp.count(tuple) > 0 ? 1 : 0;
        break;
      }
      case VmOp::kClosureMember: {
        const VmClosureSite& site = program_.closure_sites[in.imm];
        const auto& closure = ClosureMatrix(site, *in.node);
        Tuple from, to;
        for (uint32_t slot : site.arg_slots) from.push_back(renv_[slot]);
        for (uint32_t slot : site.arg2_slots) to.push_back(renv_[slot]);
        B(in.a) = closure[TupleIndex(from)][TupleIndex(to)] ? 1 : 0;
        break;
      }
      case VmOp::kRbitFinish:
        B(in.a) = EvalRbitFinish(in, S(in.b)) ? 1 : 0;
        break;
      case VmOp::kNonEmpty: {
        const DnfFormula& f = S(in.b);
        bool nonempty;
        if (f.disjuncts().size() > kIcacheMaxDisjuncts) {
          ++stats_->vm.icache_bypasses;
          nonempty = !f.IsEmpty();
        } else {
          std::string fp_key = Fingerprint(f);
          if (!IcacheLookup(in.c, fp_key, &nonempty)) {
            nonempty = !f.IsEmpty();
            IcacheStore(in.c, std::move(fp_key), nonempty);
          }
        }
        B(in.a) = nonempty ? 1 : 0;
        break;
      }
      // ---- Control flow.
      case VmOp::kJmp:
        pc = in.b;
        continue;
      case VmOp::kJmpIfSymFalse:
        if (S(in.a).IsSyntacticallyFalse()) {
          pc = in.b;
          continue;
        }
        break;
      case VmOp::kJmpIfSymTrue:
        if (S(in.a).IsSyntacticallyTrue()) {
          pc = in.b;
          continue;
        }
        break;
      case VmOp::kJmpIfFalseBool:
        if (B(in.a) == 0) {
          pc = in.b;
          continue;
        }
        break;
      case VmOp::kJmpIfTrueBool:
        if (B(in.a) != 0) {
          pc = in.b;
          continue;
        }
        break;
      case VmOp::kLoadImm:
        I(in.a) = in.imm;
        break;
      case VmOp::kLoopHead:
        if (I(in.a) >= ext_.num_regions()) {
          pc = in.b;
          continue;
        }
        // The lowering emits stride 0 (body Enter instructions already
        // checkpoint at the tree cadence); a nonzero stride adds an extra
        // checkpoint every `imm` iterations for bodies without Enter sites.
        if (in.imm != 0 && I(in.a) % in.imm == 0) GovernorCheckpoint();
        break;
      case VmOp::kLoopNext:
        ++I(in.a);
        pc = in.b;
        continue;
      case VmOp::kSetRegion:
        renv_[in.a] = I(in.b);
        break;
      // ---- Operator accounting.
      case VmOp::kBeginOp:
        if (in.imm & kOpCountQe) ++stats_->qe_eliminations;
        if (in.imm & kOpCountExpand) ++stats_->region_expansions;
        if (in.imm & kOpTimed) PushOpFrame(*in.node);
        break;
      case VmOp::kEndOp:
        CloseOpFrame();
        break;
      // ---- Procedures.
      case VmOp::kCallSym:
        S(in.a) = CallSymProc(in.imm);
        break;
      case VmOp::kCallBool:
        B(in.a) = CallBoolProc(in.imm) ? 1 : 0;
        break;
      case VmOp::kRet:
      case VmOp::kHalt:
        return;
    }
    ++pc;
  }
}

/// rBIT epilogue (Definition 5.1) over the already-evaluated body formula;
/// same algorithm as PlanExecutor::EvalRbit with the implication verdict
/// behind this site's inline cache.
bool BytecodeVm::EvalRbitFinish(const VmInstr& in, const DnfFormula& body) {
  const PlanNode& node = *in.node;
  const size_t col = node.column;
  for (size_t c = 0; c < num_columns_; ++c) {
    if (c != col && VariableOccurs(body, c)) {
      LCDB_CHECK_MSG(false, "rBIT body depends on another element variable");
    }
  }
  Vec witness = body.FindWitness();
  if (witness.empty()) return false;  // empty set: no unique rational
  const Rational a = witness[col];
  Vec point_coeffs(num_columns_);
  point_coeffs[col] = Rational(1);
  DnfFormula exactly_a =
      DnfFormula::FromAtom(LinearAtom(point_coeffs, RelOp::kEq, a));

  bool implied;
  if (body.disjuncts().size() > kIcacheMaxDisjuncts) {
    ++stats_->vm.icache_bypasses;
    implied = Implies(body, exactly_a);
  } else {
    std::string key = Fingerprint(body);
    key += "=>";
    key += Fingerprint(exactly_a);
    if (!IcacheLookup(in.c, key, &implied)) {
      implied = Implies(body, exactly_a);
      IcacheStore(in.c, std::move(key), implied);
    }
  }
  if (!implied) return false;  // more than one value

  const VmRbitSite& site = program_.rbit_sites[in.imm];
  const size_t rn = renv_[site.rn_slot];
  const size_t rd = renv_[site.rd_slot];
  if (a.IsZero()) {
    return rn == rd && ext_.RegionDim(rn) > 0;
  }
  if (ext_.RegionDim(rn) != 0 || ext_.RegionDim(rd) != 0) return false;
  const size_t i = ext_.ZeroDimRank(rn);
  const size_t j = ext_.ZeroDimRank(rd);
  return a.num().Bit(i) && a.den().Bit(j);
}

size_t BytecodeVm::TupleIndex(const Tuple& tuple) const {
  const size_t n = ext_.num_regions();
  size_t index = 0;
  for (size_t v : tuple) {
    LCDB_CHECK(v < n);
    index = index * n + v;
  }
  return index;
}

/// Kleene iteration of [LFP/IFP/PFP_{M, X̄} body] (semantics notes in
/// plan/relation_eval.h), one binding at a time with the boolean body
/// invoked as a proc. The stage sequence and the failpoint/governor stage
/// hooks are those of the tree executor's set-at-a-time loop; the per-
/// binding memo cadence is the VM's own.
const BytecodeVm::TupleSet& BytecodeVm::FixpointSet(
    const VmFixpointSite& site, const PlanNode& node) {
  auto cached = fixpoint_cache_.find(&node);
  if (cached != fixpoint_cache_.end()) return cached->second;

  // Resume fast path (core/resume.h): site keys are plan-node ordinals, so
  // a checkpoint taken under the tree executor restores here and vice versa.
  ResumeCollector* resume = CurrentResumeCollectorOrNull();
  const uint64_t resume_site = resume != nullptr ? resume->SiteKey(&node) : 0;
  if (resume_site != 0) {
    if (const TupleSet* done = resume->CompletedFixpoint(resume_site)) {
      ++stats_->resume_sets_restored;
      return fixpoint_cache_.emplace(&node, *done).first->second;
    }
  }

  ScopedOpTimer timer(&stats_->op_timings, node.op);
  ++stats_->fixpoints_computed;
  const uint64_t kernel_queries_before =
      CurrentKernel().stats().feasibility_queries;
  const size_t k = site.bound_slots.size();
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

  const bool is_pfp = node.source_kind == NodeKind::kPfp;

  auto kleene_stage = [&](const TupleSet& cur) {
    TupleSet next;
    if (!is_pfp) next = cur;
    senv_[site.set_slot] = SetBinding{&cur, ++set_version_counter_};
    Tuple tuple(k, 0);
    bool done_tuples = (n == 0);
    while (!done_tuples) {
      if (is_pfp || !next.count(tuple)) {
        for (size_t i = 0; i < k; ++i) renv_[site.bound_slots[i]] = tuple[i];
        if (CallBoolProc(site.body_proc)) next.insert(tuple);
      }
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
  // Stage hashes are taken over the row-major bit words, as on the tree
  // executor, so a PFP checkpoint resumes on either backend.
  PfpCycleDetector<TupleSet> cycle(TupleSet{}, [n, k](const TupleSet& s) {
    return BitRelation::FromTuples(s, n, k).Hash();
  });
  if (resume_site != 0) {
    // Continue an interrupted Kleene loop from its last completed stage
    // (pure in the environment by Definition 5.1; see plan/relation_eval.h).
    FixpointResumePoint point;
    if (resume->TakeInProgress(resume_site, &point)) {
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
    if (resume_site != 0) {
      std::vector<uint64_t> pfp_hashes =
          is_pfp ? cycle.ExportHashes(current) : std::vector<uint64_t>{};
      resume->CaptureInProgress(resume_site, std::move(current), iteration,
                                std::move(pfp_hashes));
    }
    throw;
  }
  account();
  return fixpoint_cache_.emplace(&node, std::move(current)).first->second;
}

/// TC/DTC reachability bitmap (semantics notes in plan/relation_eval.h),
/// with the edge body invoked as a proc per binding and the closure taken by
/// BFS (same per-row failpoint + checkpoint placement as the tree executor).
const std::vector<std::vector<bool>>& BytecodeVm::ClosureMatrix(
    const VmClosureSite& site, const PlanNode& node) {
  auto cached = closure_cache_.find(&node);
  if (cached != closure_cache_.end()) return cached->second;

  // Resume fast path (core/resume.h): completed-matrix granularity only.
  if (ResumeCollector* resume = CurrentResumeCollectorOrNull()) {
    if (uint64_t resume_site = resume->SiteKey(&node)) {
      if (const auto* done = resume->CompletedClosure(resume_site)) {
        ++stats_->resume_sets_restored;
        return closure_cache_.emplace(&node, *done).first->second;
      }
    }
  }

  ScopedOpTimer timer(&stats_->op_timings, node.op);
  ++stats_->closures_computed;
  const uint64_t kernel_queries_before =
      CurrentKernel().stats().feasibility_queries;
  const size_t m = site.bound_slots.size() / 2;
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

  std::vector<std::vector<bool>> edges(total, std::vector<bool>(total, false));
  for (size_t u = 0; u < total; ++u) {
    LCDB_FAILPOINT("closure.build");
    GovernorCheckpoint();
    for (size_t v = 0; v < total; ++v) {
      for (size_t i = 0; i < m; ++i) {
        renv_[site.bound_slots[i]] = tuples[u][i];
        renv_[site.bound_slots[m + i]] = tuples[v][i];
      }
      edges[u][v] = CallBoolProc(site.body_proc);
    }
  }

  if (node.source_kind == NodeKind::kDtc) {
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

  std::vector<std::vector<bool>> closure(total,
                                         std::vector<bool>(total, false));
  for (size_t source = 0; source < total; ++source) {
    std::deque<size_t> queue = {source};
    closure[source][source] = true;
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

DnfFormula ExecutePlan(const CompiledPlan& plan, const RegionExtension& ext,
                       const Evaluator::Options& options,
                       Evaluator::Stats* stats, PlanProfile* profile) {
  if (options.use_bytecode) {
    BytecodeProgram program;
    {
      TraceSpan span("plan.lower");
      program = CompileToBytecode(plan);
      span.Counter("procs", program.procs.size());
      span.Counter("instructions", program.TotalInstructions());
    }
    stats->vm.procs = program.procs.size();
    stats->vm.code_instructions = program.TotalInstructions();
    // Tier-3 gate at lowering: the VM below refuses unverified programs,
    // so a lowering bug becomes a clean LCDB012 instead of a register-file
    // overrun inside the dispatch loop.
    if (options.verify) {
      TraceSpan span("bytecode.verify");
      BytecodeVerifyResult verdict = VerifyBytecode(program);
      AccumulateVerifyStats(verdict, &stats->verify);
      if (!verdict.status.ok()) throw QueryInterrupt(verdict.status);
      span.Counter("instructions", verdict.instructions_verified);
      program.verified = true;
    }
    BytecodeVm vm(program, ext, options, stats);
    if (profile != nullptr) vm.EnableProfiling(profile);
    return vm.Run();
  }
  PlanExecutor executor(plan, ext, options, stats);
  if (profile != nullptr) executor.EnableProfiling(profile);
  return executor.Run();
}

}  // namespace lcdb
