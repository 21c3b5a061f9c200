#ifndef LCDB_PLAN_RELATION_EVAL_H_
#define LCDB_PLAN_RELATION_EVAL_H_

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/evaluator.h"
#include "core/resume.h"
#include "db/region_extension.h"
#include "engine/kernel.h"
#include "engine/trace.h"
#include "plan/plan_ir.h"

namespace lcdb {

/// A set of region tuples, stored densely: one bit per tuple of the n^k
/// tuples over k region columns. The layout is row-major — the first k-1
/// columns index a row (mixed radix n, first column most significant) and
/// the last column is the bit within the row — with every row padded to
/// whole 64-bit words, so row operations are word operations and the set
/// bits enumerate in lexicographic tuple order (the order of a
/// std::set<std::vector<size_t>>). Arity 0 is one row holding one bit.
///
/// `values` is the column domain size (the region count, except in tests).
class BitRelation {
 public:
  using TupleSet = std::set<std::vector<size_t>>;

  BitRelation() : BitRelation(0, 0) {}
  BitRelation(size_t values, size_t arity);

  /// Every tuple of the space.
  static BitRelation Full(size_t values, size_t arity);
  /// Conversions to and from the tuple-set form that resume checkpoints
  /// and the bytecode VM use.
  static BitRelation FromTuples(const TupleSet& tuples, size_t values,
                                size_t arity);
  TupleSet ToTuples() const;

  size_t values() const { return values_; }
  size_t arity() const { return arity_; }
  size_t rows() const { return rows_; }
  size_t row_words() const { return row_words_; }
  /// Valid bits of each row's last word (padding bits stay zero).
  uint64_t tail_mask() const { return tail_mask_; }

  uint64_t* row(size_t r) { return data() + r * row_words_; }
  const uint64_t* row(size_t r) const { return data() + r * row_words_; }
  /// rows() * row_words().
  size_t word_count() const { return word_count_; }

  /// Row index and bit of a full tuple (arity() values).
  size_t RowOf(const size_t* tuple) const;
  bool Test(const size_t* tuple) const;
  void Set(const size_t* tuple);
  bool TestAt(size_t row_index, size_t bit) const {
    return (row(row_index)[bit >> 6] >> (bit & 63)) & 1;
  }
  void SetAt(size_t row_index, size_t bit) {
    row(row_index)[bit >> 6] |= uint64_t{1} << (bit & 63);
  }

  bool Empty() const;
  /// Number of tuples in the set.
  size_t Count() const;

  /// Word-wise set algebra over relations of the same shape.
  void OrWith(const BitRelation& other);
  void AndWith(const BitRelation& other);
  void AndNotWith(const BitRelation& other);
  /// Complement within the tuple space.
  void Invert();

  /// Stable 64-bit hash of the row-major words (the PFP cycle detector's
  /// stage hash on both executors).
  uint64_t Hash() const;

  bool operator==(const BitRelation& other) const {
    return values_ == other.values_ && arity_ == other.arity_ &&
           std::equal(data(), data() + word_count_, other.data());
  }
  bool operator!=(const BitRelation& other) const {
    return !(*this == other);
  }

 private:
  size_t values_;
  size_t arity_;
  size_t rows_;
  size_t row_words_;
  uint64_t tail_mask_;
  // Relations of at most one word (every nullary one, the unary ones of up
  // to 64 regions) live inline: region quantifiers over bound variables
  // evaluate many of them, one slice per region.
  size_t word_count_;
  uint64_t inline_word_ = 0;
  std::vector<uint64_t> heap_words_;

  uint64_t* data() {
    return word_count_ <= 1 ? &inline_word_ : heap_words_.data();
  }
  const uint64_t* data() const {
    return word_count_ <= 1 ? &inline_word_ : heap_words_.data();
  }
};

/// Region-variable bindings of one binding-at-a-time evaluation (leaves).
using RegionEnv = std::map<std::string, size_t>;
/// A set variable's current fixpoint stage. `version` is unique per stage,
/// so memo entries of set-dependent leaves never outlive their stage.
struct SetBinding {
  const BitRelation* relation = nullptr;
  size_t version = 0;
};
using SetEnv = std::map<std::string, SetBinding>;

/// Wall-clock of one expensive operator into Stats::op_timings, under a
/// trace span named after the operator.
class ScopedOpTimer {
 public:
  ScopedOpTimer(OpTimings* timings, PlanOp op)
      : timings_(timings), op_(op),
        span_(PlanOpName(op).c_str()),  // BeginSpan copies the name
        start_(std::chrono::steady_clock::now()) {}
  ~ScopedOpTimer();

 private:
  OpTimings* timings_;
  PlanOp op_;
  TraceSpan span_;
  std::chrono::steady_clock::time_point start_;
};

/// EXPLAIN ANALYZE measurement of one uncached node evaluation: inclusive
/// wall-clock plus deltas of the ambient kernel and governor counters. An
/// unwinding QueryInterrupt skips the recording, which is the right answer —
/// a tripped node never produced a result to attribute.
template <typename Fn>
auto ProfiledEval(PlanProfile* profile, const PlanNode& node, Fn&& eval) {
  const KernelStats kernel_before = CurrentKernel().stats();
  QueryGovernor* governor = CurrentGovernorOrNull();
  const uint64_t checkpoints_before =
      governor != nullptr ? governor->stats().checkpoints : 0;
  const auto start = std::chrono::steady_clock::now();
  auto result = eval();
  PlanNodeProfile& p = (*profile)[&node];
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

/// Set-at-a-time evaluation of boolean plan subtrees over the finite region
/// sort (Theorem 6.1 reduces RegLFP to fixpoints over that sort; the
/// evaluation view is Geerts–Riveros's matrix algebra over a finite
/// domain). A boolean node evaluates to the BitRelation over its *columns*:
/// its free region variables that no enclosing scope has bound, in name
/// order.
///
/// **Leaves.** The element-sort operators (kNonEmpty, kRbitMember — their
/// subtrees are symbolic) are the leaves: the hosting executor fills them
/// one binding at a time, under its own memo (PlanExecutor::EvalBool).
/// Every other boolean node is evaluated set-at-a-time. A node's columns
/// are a subset of those of the boundary it was entered from — none below
/// lift_bool, X̄ for a fixpoint body, Ȳ for a closure edge row — since an
/// enclosing quantifier slice binds every other free variable. So no
/// relation outgrows the tuple space the fixpoint and closure checks
/// already bound, and no new budget can trip.
///
/// **Masks.** Every node is evaluated under a mask — the tuples whose value
/// the enclosing expression still needs — and touches nothing outside it,
/// reproducing the short-circuits of one-binding-at-a-time evaluation
/// exactly:
///  * ∧ evaluates its right operand only where the left holds, ∨ only where
///    the left fails, → only where the left holds; ↔ and ¬ evaluate fully.
///  * ∃Z / ∀Z are an OR- / AND-projection of the body over Z, accumulated
///    one region of Z at a time in region order; a tuple leaves the mask
///    once decided. ∃Z (A(R,Z) ∧ B(Z,R')) thereby runs as a fused boolean
///    matrix product (row Z of B, masked, is OR-ed into every row R with
///    A(R,Z)), never building the ternary relation.
///  * Base relations (adj, subset, meets, =, dim, bounded) fill lazily on
///    the masked tuples only, row by row, inside the query. On a
///    decomposition extension adj and subset are LP decisions, so masking is
///    what keeps their oracle calls those of one-binding-at-a-time
///    evaluation.
///  * Leaves are filled on the masked tuples only.
///
/// **Fixpoints** ([LFP/IFP/PFP_{M, X̄} body], Definition 5.1). The set is
/// independent of the outer environment because Definition 5.1 forces
/// free(body) = {M, X̄}, so it is computed at most once per operator node
/// and cached. One Kleene stage is one relation-valued evaluation of the
/// body with M bound to the previous stage (Jacobi: a stage reads only its
/// predecessor), so stage counts, the Theorem 6.1 stage bound, resume
/// checkpoints and PFP cycle detection see the textbook Kleene sequence of
/// sets.
///  * LFP: body is positive in M, so f_body is monotone and the Kleene
///    stages increase; tuples already derived are masked out of the body.
///  * IFP: stages are inflationary by definition (M ∪ f(M)).
///  * PFP: stages iterate f exactly; if a fixed point is reached it is the
///    result, and if the sequence cycles without reaching one the result is
///    the empty set (standard PFP semantics on finite structures). Stage
///    "no change" tests and the cycle hash compare words.
/// Resource limits surface as QueryInterrupt; the cache insert happens only
/// after the full set is computed, so an interrupt leaves no partial entry
/// (the resume layer, core/resume.h, checkpoints the last complete stage).
///
/// **Closures** (TC/DTC, Definition 7.2). The edge relation E = { (ū, v̄) :
/// body(ū, v̄) } over m-tuples of regions is built one edge row ū at a time
/// (the body with X̄ bound), then closed reflexively and transitively by
/// Warshall's algorithm over bit rows. The paper admits the length-one
/// sequence Z_1 = X̄ = Ȳ, so the closure is reflexive. For DTC only rows
/// with a *unique* successor keep their edge. The body has no free element
/// variables and no region variables beyond the bound 2m-tuple, so the
/// matrix depends only on the node and is cached. The NLOGSPACE / LOGSPACE
/// bounds (Theorems 7.3/7.4) concern the closure; all LP work sits in the
/// edge construction.
///
/// **rBIT** (Definition 5.1) is a leaf. Given the interpretation of the
/// body's free region parameters, the body defines a set of rationals in
/// its one element variable x; if that set is exactly {a}, then
/// [rBIT body](R_n, R_d) holds iff (1) both regions are 0-dimensional and
/// bit rank(R_n) of |numerator(a)| and bit rank(R_d) of denominator(a) are
/// 1 (ranks in the lexicographic order of 0-dimensional regions,
/// 0-indexed), or (2) a = 0, R_n = R_d and both have dimension > 0. If the
/// body does not define a unique rational, rBIT is the empty relation.
///
/// One evaluator serves one query execution; telemetry lands in the
/// executor's Stats (relation_word_ops counts the 64-bit word operations).
class RelationEvaluator {
 public:
  /// Evaluates a leaf at one binding: the hosting executor's EvalBool.
  using LeafFn =
      std::function<bool(const PlanNode&, RegionEnv&, const SetEnv&)>;

  RelationEvaluator(const RegionExtension& ext,
                    const Evaluator::Options& options,
                    Evaluator::Stats* stats, LeafFn leaf);

  /// EXPLAIN ANALYZE sink for relation-evaluated nodes (rows = popcount).
  void EnableProfiling(PlanProfile* profile) { profile_ = profile; }

  /// The lift_bool boundary: truth of boolean `node` with each of its free
  /// region variables bound by `renv` and its set variables by `senv`.
  bool EvalBound(const PlanNode& node, const RegionEnv& renv,
                 const SetEnv& senv);

  /// The fixpoint set of a kFixpointMember node, over its bound variables
  /// in binder order.
  const BitRelation& Fixpoint(const PlanNode& node);
  /// Reflexive-transitive reachability of a kClosureMember node, as the
  /// relation over its bound variables (X̄, Ȳ).
  const BitRelation& Closure(const PlanNode& node);

  /// Deposits completed fixpoint sets and closure matrices into `resume`,
  /// in the tuple-set / bool-matrix checkpoint format.
  void HarvestResumeState(ResumeCollector& resume) const;

 private:
  static constexpr size_t kUnbound = static_cast<size_t>(-1);
  using Columns = std::vector<int>;  // variable ids, name-sorted

  /// Per-node facts derived once per execution.
  struct NodeInfo {
    Columns free;  // free region variables, name-sorted
    bool leaf = false;
    /// Atom or member: evaluated by Gather over any superset of its
    /// columns.
    bool gather = false;
    std::vector<int> args;  // member / atom argument variables
    int region_var = -1;    // quantifier variable
  };
  /// A region atom's relation over its own argument positions, filled on
  /// demand: `known` marks the tuples already decided.
  struct BaseRelation {
    BitRelation value;
    BitRelation known;
  };

  /// While alive, no region or set variable is bound: the scope of a
  /// fixpoint or closure body, which sees only its own binders. Restores
  /// the caller's bindings on every exit, unwinds included.
  class FreshScope {
   public:
    explicit FreshScope(RelationEvaluator& eval);
    ~FreshScope();
    FreshScope(const FreshScope&) = delete;
    FreshScope& operator=(const FreshScope&) = delete;

   private:
    RelationEvaluator& eval_;
    std::vector<size_t> saved_values_;
    const SetEnv* saved_senv_;
    const SetEnv no_sets_;
  };

  int VarId(const std::string& name);
  const NodeInfo& Info(const PlanNode& node);
  Columns ColumnsOf(const NodeInfo& info) const;

  BitRelation Eval(const PlanNode& node, const Columns& cols,
                   const BitRelation& mask);
  BitRelation EvalUnprofiled(const PlanNode& node, const NodeInfo& info,
                             const Columns& cols, const BitRelation& mask);
  /// Evaluates `child` for its parent's columns and mask: projects the mask
  /// onto the child's columns and broadcasts the result back.
  BitRelation EvalChild(const PlanNode& child, const Columns& cols,
                        const BitRelation& mask);
  BitRelation Quantify(const PlanNode& node, const NodeInfo& info,
                       const Columns& cols, const BitRelation& mask);
  BitRelation FillLeaf(const PlanNode& node, const NodeInfo& info,
                       const Columns& cols, const BitRelation& mask);
  /// Reads `src` (a relation over argument positions) at the tuples
  /// (args[0], ..., args[k-1]) for every masked tuple over `cols`; a
  /// non-null `base` is filled first where it is not yet known.
  BitRelation Gather(const BitRelation& src, const std::vector<int>& args,
                     const Columns& cols, const BitRelation& mask,
                     BaseRelation* base = nullptr,
                     const PlanNode* atom = nullptr);
  /// OR-projection of `rel` over `from` onto `to` ⊆ `from`.
  BitRelation Project(const BitRelation& rel, const Columns& from,
                      const Columns& to);
  /// Extends `rel` over `from` to the superset columns `to`, within `mask`
  /// (over `to`).
  BitRelation Broadcast(const BitRelation& rel, const Columns& from,
                        const Columns& to, const BitRelation& mask);
  BaseRelation& Base(const PlanNode& atom);

  void CountWords(size_t words) { stats_->relation_word_ops += words; }

  const RegionExtension& ext_;
  const Evaluator::Options& options_;
  Evaluator::Stats* stats_;
  LeafFn leaf_;
  PlanProfile* profile_ = nullptr;
  const size_t n_;

  std::unordered_map<std::string, int> var_ids_;
  std::vector<std::string> var_names_;
  /// Current binding of every variable id (kUnbound for columns).
  std::vector<size_t> value_;
  /// Set bindings visible to the subtree under evaluation.
  const SetEnv* senv_ = nullptr;
  size_t set_version_counter_ = 0;

  std::unordered_map<const PlanNode*, NodeInfo> info_;
  std::map<std::pair<NodeKind, int>, BaseRelation> bases_;
  std::map<const PlanNode*, BitRelation> fixpoints_;
  std::map<const PlanNode*, BitRelation> closures_;
};

}  // namespace lcdb

#endif  // LCDB_PLAN_RELATION_EVAL_H_
