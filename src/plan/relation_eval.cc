#include "plan/relation_eval.h"

#include <algorithm>
#include <array>
#include <bit>
#include <string>
#include <utility>

#include "core/pfp_cycle.h"
#include "engine/governor.h"
#include "util/failpoint.h"
#include "util/interrupt.h"
#include "util/status.h"

namespace lcdb {

namespace {

/// n^k with saturation at SIZE_MAX.
size_t SaturatingPow(size_t n, size_t k) {
  size_t out = 1;
  for (size_t i = 0; i < k; ++i) {
    if (n != 0 && out > SIZE_MAX / n) return SIZE_MAX;
    out *= n;
  }
  return out;
}

/// A zero-initialized array of `size` elements, inline up to 8 (tuple
/// scratch: arities are small, and quantifier slices call the row loops
/// below once per region).
template <typename T>
class Scratch {
 public:
  explicit Scratch(size_t size) : size_(size) {
    if (size > kInline) heap_.assign(size, T{});
  }
  size_t size() const { return size_; }
  T* data() { return size_ > kInline ? heap_.data() : inline_.data(); }
  const T* data() const {
    return size_ > kInline ? heap_.data() : inline_.data();
  }
  T& operator[](size_t i) { return data()[i]; }
  const T& operator[](size_t i) const { return data()[i]; }
  T& back() { return data()[size_ - 1]; }

 private:
  static constexpr size_t kInline = 8;
  size_t size_;
  std::array<T, kInline> inline_{};
  std::vector<T> heap_;
};

/// The leading columns of successive rows of a relation over `arity`
/// columns, advanced like an odometer (no division per row).
class RowPrefix {
 public:
  RowPrefix(size_t arity, size_t values)
      : digits_(arity > 0 ? arity - 1 : 0), values_(values) {}
  size_t operator[](size_t i) const { return digits_[i]; }
  void Next() {
    for (size_t i = digits_.size(); i-- > 0;) {
      if (++digits_[i] < values_) return;
      digits_[i] = 0;
    }
  }

 private:
  Scratch<size_t> digits_;
  size_t values_;
};

/// Row index of the leading columns of a tuple given by `value(i)`.
template <typename ValueFn>
size_t RowIndex(size_t arity, size_t values, ValueFn value) {
  size_t r = 0;
  for (size_t i = 0; i + 1 < arity; ++i) r = r * values + value(i);
  return r;
}

bool RowEmpty(const uint64_t* row, size_t words) {
  for (size_t w = 0; w < words; ++w) {
    if (row[w] != 0) return false;
  }
  return true;
}

/// Calls fn(bit) for every set bit of a row, in increasing order.
template <typename Fn>
void ForEachBit(const uint64_t* row, size_t words, Fn fn) {
  for (size_t w = 0; w < words; ++w) {
    for (uint64_t bits = row[w]; bits != 0; bits &= bits - 1) {
      fn(w * 64 + static_cast<size_t>(std::countr_zero(bits)));
    }
  }
}

/// Matrix coordinates of a TC/DTC reachability relation over (X̄, Ȳ):
/// m-tuple indices u, v (row-major over n) to relation row and bit.
struct ReachIndex {
  size_t n;
  size_t block_rows;  // n^(m-1): relation rows per matrix row
  size_t Row(size_t u, size_t v) const { return u * block_rows + v / n; }
  size_t Bit(size_t v) const { return v % n; }
};

/// Position of `id` in `cols`, or -1.
int IndexIn(const std::vector<int>& cols, int id) {
  for (size_t i = 0; i < cols.size(); ++i) {
    if (cols[i] == id) return static_cast<int>(i);
  }
  return -1;
}

/// Truth of a region atom (adj / = / subset / meets / dim / bounded, by
/// `atom.source_kind`) at the regions `args` (one per region argument).
bool RegionAtomHolds(const RegionExtension& ext, const PlanNode& atom,
                     const size_t* args) {
  switch (atom.source_kind) {
    case NodeKind::kAdjacent:
      return ext.Adjacent(args[0], args[1]);
    case NodeKind::kRegionEq:
      return args[0] == args[1];
    case NodeKind::kSubsetS:
      return ext.RegionSubsetOfS(args[0]);
    case NodeKind::kIntersectsS:
      return ext.RegionIntersectsS(args[0]);
    case NodeKind::kDimAtom:
      return ext.RegionDim(args[0]) == atom.dim_value;
    case NodeKind::kBoundedAtom:
      return ext.RegionBounded(args[0]);
    default:
      LCDB_CHECK_MSG(false, "not a region atom");
      return false;
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// BitRelation

BitRelation::BitRelation(size_t values, size_t arity)
    : values_(values), arity_(arity) {
  if (arity == 0) {
    rows_ = 1;
    row_words_ = 1;
    tail_mask_ = 1;
  } else {
    rows_ = 1;
    for (size_t i = 0; i + 1 < arity; ++i) rows_ *= values;
    row_words_ = (values + 63) / 64;
    tail_mask_ = values % 64 == 0 ? ~uint64_t{0}
                                  : (uint64_t{1} << (values % 64)) - 1;
  }
  word_count_ = rows_ * row_words_;
  if (word_count_ > 1) heap_words_.assign(word_count_, 0);
}

BitRelation BitRelation::Full(size_t values, size_t arity) {
  BitRelation out(values, arity);
  out.Invert();
  return out;
}

BitRelation BitRelation::FromTuples(const TupleSet& tuples, size_t values,
                                    size_t arity) {
  BitRelation out(values, arity);
  for (const std::vector<size_t>& tuple : tuples) {
    LCDB_CHECK(tuple.size() == arity);
    out.Set(tuple.data());
  }
  return out;
}

BitRelation::TupleSet BitRelation::ToTuples() const {
  TupleSet out;
  std::vector<size_t> tuple(arity_);
  if (arity_ == 0) {
    if ((inline_word_ & 1) != 0) out.insert(tuple);
    return out;
  }
  RowPrefix prefix(arity_, values_);
  for (size_t r = 0; r < rows_; ++r, prefix.Next()) {
    for (size_t i = 0; i + 1 < arity_; ++i) tuple[i] = prefix[i];
    ForEachBit(row(r), row_words_, [&](size_t bit) {
      tuple[arity_ - 1] = bit;
      out.insert(out.end(), tuple);  // row-major order is the set's order
    });
  }
  return out;
}

size_t BitRelation::RowOf(const size_t* tuple) const {
  return RowIndex(arity_, values_, [&](size_t i) { return tuple[i]; });
}

bool BitRelation::Test(const size_t* tuple) const {
  if (arity_ == 0) return (inline_word_ & 1) != 0;
  return TestAt(RowOf(tuple), tuple[arity_ - 1]);
}

void BitRelation::Set(const size_t* tuple) {
  if (arity_ == 0) {
    inline_word_ |= 1;
    return;
  }
  SetAt(RowOf(tuple), tuple[arity_ - 1]);
}

bool BitRelation::Empty() const {
  return RowEmpty(data(), word_count_);
}

size_t BitRelation::Count() const {
  size_t count = 0;
  const uint64_t* w = data();
  for (size_t i = 0; i < word_count_; ++i) {
    count += static_cast<size_t>(std::popcount(w[i]));
  }
  return count;
}

void BitRelation::OrWith(const BitRelation& other) {
  LCDB_CHECK(word_count_ == other.word_count_);
  uint64_t* w = data();
  const uint64_t* o = other.data();
  for (size_t i = 0; i < word_count_; ++i) w[i] |= o[i];
}

void BitRelation::AndWith(const BitRelation& other) {
  LCDB_CHECK(word_count_ == other.word_count_);
  uint64_t* w = data();
  const uint64_t* o = other.data();
  for (size_t i = 0; i < word_count_; ++i) w[i] &= o[i];
}

void BitRelation::AndNotWith(const BitRelation& other) {
  LCDB_CHECK(word_count_ == other.word_count_);
  uint64_t* w = data();
  const uint64_t* o = other.data();
  for (size_t i = 0; i < word_count_; ++i) w[i] &= ~o[i];
}

void BitRelation::Invert() {
  if (row_words_ == 0) return;
  for (size_t r = 0; r < rows_; ++r) {
    uint64_t* w = row(r);
    for (size_t i = 0; i < row_words_; ++i) w[i] = ~w[i];
    w[row_words_ - 1] &= tail_mask_;
  }
}

uint64_t BitRelation::Hash() const {
  // FNV-1a over the words, one 64-bit step per word.
  uint64_t h = 1469598103934665603ull;
  const uint64_t* w = data();
  for (size_t i = 0; i < word_count_; ++i) {
    h ^= w[i];
    h *= 1099511628211ull;
  }
  return h;
}

// ---------------------------------------------------------------------------
// Shared helpers

ScopedOpTimer::~ScopedOpTimer() {
  OpTiming& slot = (*timings_)[PlanOpName(op_)];
  ++slot.count;
  slot.total_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                       std::chrono::steady_clock::now() - start_)
                       .count();
}

// ---------------------------------------------------------------------------
// RelationEvaluator

RelationEvaluator::RelationEvaluator(const RegionExtension& ext,
                                     const Evaluator::Options& options,
                                     Evaluator::Stats* stats, LeafFn leaf)
    : ext_(ext), options_(options), stats_(stats), leaf_(std::move(leaf)),
      n_(ext.num_regions()) {}

int RelationEvaluator::VarId(const std::string& name) {
  auto [it, inserted] =
      var_ids_.emplace(name, static_cast<int>(var_names_.size()));
  if (inserted) {
    var_names_.push_back(name);
    value_.push_back(kUnbound);
  }
  return it->second;
}

const RelationEvaluator::NodeInfo& RelationEvaluator::Info(
    const PlanNode& node) {
  auto it = info_.find(&node);
  if (it != info_.end()) return it->second;
  NodeInfo info;
  for (const std::string& r : node.free_region) info.free.push_back(VarId(r));
  info.leaf =
      node.op == PlanOp::kNonEmpty || node.op == PlanOp::kRbitMember;
  for (const std::string& r : node.region_args) info.args.push_back(VarId(r));
  for (const std::string& r : node.region_args2) {
    info.args.push_back(VarId(r));
  }
  if (node.op == PlanOp::kAnyRegion || node.op == PlanOp::kAllRegion) {
    info.region_var = VarId(node.region_var);
  }
  info.gather = !info.leaf && (node.op == PlanOp::kRegionAtom ||
                               node.op == PlanOp::kSetMember ||
                               node.op == PlanOp::kFixpointMember ||
                               node.op == PlanOp::kClosureMember);
  return info_.emplace(&node, std::move(info)).first->second;
}

RelationEvaluator::Columns RelationEvaluator::ColumnsOf(
    const NodeInfo& info) const {
  Columns cols;
  for (int id : info.free) {
    if (value_[id] == kUnbound) cols.push_back(id);
  }
  return cols;
}

bool RelationEvaluator::EvalBound(const PlanNode& node, const RegionEnv& renv,
                                  const SetEnv& senv) {
  const NodeInfo& info = Info(node);
  std::vector<std::pair<int, size_t>> saved;
  saved.reserve(info.free.size());
  for (int id : info.free) {
    saved.emplace_back(id, value_[id]);
    value_[id] = renv.at(var_names_[id]);
  }
  const SetEnv* saved_senv = senv_;
  senv_ = &senv;
  const bool holds = !Eval(node, {}, BitRelation::Full(n_, 0)).Empty();
  senv_ = saved_senv;
  for (const auto& [id, value] : saved) value_[id] = value;
  return holds;
}

BitRelation RelationEvaluator::Eval(const PlanNode& node, const Columns& cols,
                                    const BitRelation& mask) {
  GovernorCheckpoint();
  // A tuple outside the mask is never evaluated: no binding-at-a-time
  // evaluation would reach it.
  if (mask.Empty()) return BitRelation(n_, cols.size());
  const NodeInfo& info = Info(node);
  if (profile_ == nullptr || info.leaf) {
    return EvalUnprofiled(node, info, cols, mask);
  }
  ++(*profile_)[&node].calls;
  BitRelation result = ProfiledEval(
      profile_, node, [&] { return EvalUnprofiled(node, info, cols, mask); });
  (*profile_)[&node].rows = result.Count();
  return result;
}

BitRelation RelationEvaluator::EvalUnprofiled(const PlanNode& node,
                                              const NodeInfo& info,
                                              const Columns& cols,
                                              const BitRelation& mask) {
  if (info.leaf) return FillLeaf(node, info, cols, mask);
  const size_t words = mask.word_count();
  switch (node.op) {
    case PlanOp::kConstBool:
      return node.const_bool ? mask : BitRelation(n_, cols.size());
    case PlanOp::kNotBool: {
      BitRelation out = mask;
      out.AndNotWith(EvalChild(*node.children[0], cols, mask));
      CountWords(words);
      return out;
    }
    case PlanOp::kAndBool: {
      const BitRelation left = EvalChild(*node.children[0], cols, mask);
      return EvalChild(*node.children[1], cols, left);
    }
    case PlanOp::kOrBool: {
      BitRelation out = EvalChild(*node.children[0], cols, mask);
      BitRelation rest = mask;
      rest.AndNotWith(out);
      out.OrWith(EvalChild(*node.children[1], cols, rest));
      CountWords(2 * words);
      return out;
    }
    case PlanOp::kImpliesBool: {
      const BitRelation left = EvalChild(*node.children[0], cols, mask);
      BitRelation out = mask;
      out.AndNotWith(left);
      out.OrWith(EvalChild(*node.children[1], cols, left));
      CountWords(2 * words);
      return out;
    }
    case PlanOp::kIffBool: {
      // Both hold, or neither does.
      const BitRelation a = EvalChild(*node.children[0], cols, mask);
      const BitRelation b = EvalChild(*node.children[1], cols, mask);
      BitRelation out = a;
      out.AndWith(b);
      BitRelation neither = mask;
      neither.AndNotWith(a);
      neither.AndNotWith(b);
      out.OrWith(neither);
      CountWords(4 * words);
      return out;
    }
    case PlanOp::kAnyRegion:
    case PlanOp::kAllRegion:
      return Quantify(node, info, cols, mask);
    case PlanOp::kRegionAtom:
      return Gather(Base(node).value, info.args, cols, mask, &Base(node),
                    &node);
    case PlanOp::kSetMember:
      return Gather(*senv_->at(node.set_var).relation, info.args, cols, mask);
    case PlanOp::kFixpointMember:
      return Gather(Fixpoint(node), info.args, cols, mask);
    case PlanOp::kClosureMember:
      return Gather(Closure(node), info.args, cols, mask);
    default:
      LCDB_CHECK_MSG(false, "symbolic operator in boolean context");
      return BitRelation(n_, cols.size());
  }
}

BitRelation RelationEvaluator::EvalChild(const PlanNode& child,
                                         const Columns& cols,
                                         const BitRelation& mask) {
  const NodeInfo& info = Info(child);
  // Atoms and members read their relation straight into the parent's
  // columns: Gather aligns and broadcasts in one pass.
  if (info.gather) return Eval(child, cols, mask);
  const Columns child_cols = ColumnsOf(info);
  if (child_cols == cols) return Eval(child, cols, mask);
  const BitRelation result =
      Eval(child, child_cols, Project(mask, cols, child_cols));
  return Broadcast(result, child_cols, cols, mask);
}

BitRelation RelationEvaluator::Quantify(const PlanNode& node,
                                        const NodeInfo& info,
                                        const Columns& cols,
                                        const BitRelation& mask) {
  ++stats_->region_expansions;
  const bool any = node.op == PlanOp::kAnyRegion;
  const int z = info.region_var;
  const size_t saved = value_[z];
  const size_t words = mask.word_count();
  // `pending`: tuples still undecided — for ∃ not yet witnessed, for ∀ not
  // yet refuted. Region z's slice of the body is evaluated on exactly the
  // tuples a binding-at-a-time loop over z would still visit at z.
  BitRelation pending = mask;
  BitRelation found(n_, cols.size());
  for (size_t r = 0; r < n_ && !pending.Empty(); ++r) {
    value_[z] = r;
    const BitRelation slice = EvalChild(*node.children[0], cols, pending);
    if (any) {
      found.OrWith(slice);
      pending.AndNotWith(slice);
    } else {
      pending.AndWith(slice);
    }
    CountWords(2 * words);
  }
  value_[z] = saved;
  return any ? found : pending;
}

BitRelation RelationEvaluator::FillLeaf(const PlanNode& node,
                                        const NodeInfo& info,
                                        const Columns& cols,
                                        const BitRelation& mask) {
  BitRelation out(n_, cols.size());
  const size_t arity = cols.size();
  RegionEnv renv;
  for (int id : info.free) {
    if (value_[id] != kUnbound) renv[var_names_[id]] = value_[id];
  }
  if (arity == 0) {
    if (leaf_(node, renv, *senv_)) out.SetAt(0, 0);
    return out;
  }
  RowPrefix prefix(arity, n_);
  for (size_t r = 0; r < out.rows(); ++r, prefix.Next()) {
    const uint64_t* m = mask.row(r);
    if (RowEmpty(m, out.row_words())) continue;
    for (size_t i = 0; i + 1 < arity; ++i) {
      renv[var_names_[cols[i]]] = prefix[i];
    }
    ForEachBit(m, out.row_words(), [&](size_t bit) {
      renv[var_names_[cols.back()]] = bit;
      if (leaf_(node, renv, *senv_)) out.SetAt(r, bit);
    });
  }
  return out;
}

BitRelation RelationEvaluator::Gather(const BitRelation& src,
                                      const std::vector<int>& args,
                                      const Columns& cols,
                                      const BitRelation& mask,
                                      BaseRelation* base,
                                      const PlanNode* atom) {
  const size_t arity = cols.size();
  const size_t k = args.size();
  const int last = static_cast<int>(arity) - 1;
  BitRelation out(n_, arity);
  // Where each source position takes its value: an output column, or a
  // bound variable (pos -1). Columns no argument mentions are broadcast.
  Scratch<int> pos(k);
  Scratch<size_t> s(k);
  bool row_constant = true;  // no source position reads the last column
  bool row_copy = k > 0;     // only the last source position reads it
  for (size_t i = 0; i < k; ++i) {
    pos[i] = IndexIn(cols, args[i]);
    if (pos[i] < 0) {
      LCDB_CHECK(value_[args[i]] != kUnbound);
      s[i] = value_[args[i]];
    }
    const bool reads_last = arity > 0 && pos[i] == last;
    if (reads_last) row_constant = false;
    if (reads_last != (i + 1 == k)) row_copy = false;
  }
  // Decides a base relation's tuple at `s` (in source row `src_row`) unless
  // it is already known.
  auto decide = [&](size_t src_row) {
    if (base->known.TestAt(src_row, s[k - 1])) return;
    base->known.SetAt(src_row, s[k - 1]);
    if (RegionAtomHolds(ext_, *atom, s.data())) {
      base->value.SetAt(src_row, s[k - 1]);
    }
  };
  // Tests the source at `s`, deciding a base relation's tuple first.
  auto test = [&] {
    if (base != nullptr) {
      LCDB_CHECK_MSG(k > 0, "nullary region atom");
      decide(src.RowOf(s.data()));
    }
    return src.Test(s.data());
  };
  if (arity == 0) {
    if (test()) out.SetAt(0, 0);
    return out;
  }
  const size_t words = out.row_words();
  RowPrefix prefix(arity, n_);
  for (size_t r = 0; r < out.rows(); ++r, prefix.Next()) {
    const uint64_t* m = mask.row(r);
    if (RowEmpty(m, words)) continue;
    for (size_t i = 0; i < k; ++i) {
      if (pos[i] >= 0 && pos[i] != last) s[i] = prefix[pos[i]];
    }
    uint64_t* to = out.row(r);
    if (row_constant) {
      if (test()) std::copy(m, m + words, to);
    } else if (row_copy) {
      // The output row is one source row, read word by word (decided
      // first on the masked tuples a base relation has not seen).
      const size_t src_row = src.RowOf(s.data());
      if (base != nullptr) {
        const uint64_t* known = base->known.row(src_row);
        for (size_t w = 0; w < words; ++w) {
          for (uint64_t need = m[w] & ~known[w]; need != 0;
               need &= need - 1) {
            s[k - 1] = w * 64 + static_cast<size_t>(std::countr_zero(need));
            decide(src_row);
          }
        }
      }
      const uint64_t* from = src.row(src_row);
      for (size_t w = 0; w < words; ++w) to[w] = from[w] & m[w];
    } else {
      ForEachBit(m, words, [&](size_t bit) {
        for (size_t i = 0; i < k; ++i) {
          if (pos[i] == last) s[i] = bit;
        }
        if (test()) out.SetAt(r, bit);
      });
    }
    CountWords(words);
  }
  return out;
}

BitRelation RelationEvaluator::Project(const BitRelation& rel,
                                       const Columns& from,
                                       const Columns& to) {
  BitRelation out(n_, to.size());
  if (to.empty()) {
    if (!rel.Empty()) out.SetAt(0, 0);
    return out;
  }
  Scratch<int> pos(to.size());
  for (size_t i = 0; i < to.size(); ++i) {
    pos[i] = IndexIn(from, to[i]);
    LCDB_CHECK(pos[i] >= 0);
  }
  const bool last_kept = to.back() == from.back();
  const size_t words = rel.row_words();
  RowPrefix prefix(from.size(), n_);
  for (size_t r = 0; r < rel.rows(); ++r, prefix.Next()) {
    const uint64_t* row = rel.row(r);
    if (RowEmpty(row, words)) continue;
    const size_t dst =
        RowIndex(to.size(), n_, [&](size_t i) { return prefix[pos[i]]; });
    if (last_kept) {
      uint64_t* out_row = out.row(dst);
      for (size_t w = 0; w < words; ++w) out_row[w] |= row[w];
      CountWords(words);
    } else {
      // The dropped last column is OR-ed away; every kept column sits in
      // the row prefix.
      out.SetAt(dst, prefix[pos.back()]);
    }
  }
  return out;
}

BitRelation RelationEvaluator::Broadcast(const BitRelation& rel,
                                         const Columns& from,
                                         const Columns& to,
                                         const BitRelation& mask) {
  BitRelation out(n_, to.size());
  if (to.empty()) {
    if (!rel.Empty() && !mask.Empty()) out.SetAt(0, 0);
    return out;
  }
  Scratch<int> pos(from.size());
  for (size_t i = 0; i < from.size(); ++i) {
    pos[i] = IndexIn(to, from[i]);
    LCDB_CHECK(pos[i] >= 0);
  }
  const bool last_shared = !from.empty() && from.back() == to.back();
  const size_t words = out.row_words();
  RowPrefix prefix(to.size(), n_);
  Scratch<size_t> src(from.size());
  for (size_t r = 0; r < out.rows(); ++r, prefix.Next()) {
    const uint64_t* m = mask.row(r);
    if (RowEmpty(m, words)) continue;
    uint64_t* dst = out.row(r);
    if (last_shared) {
      const uint64_t* row = rel.row(RowIndex(
          from.size(), n_, [&](size_t i) { return prefix[pos[i]]; }));
      for (size_t w = 0; w < words; ++w) dst[w] = row[w] & m[w];
    } else {
      // `rel` does not depend on the last column: the masked row or none.
      for (size_t i = 0; i < from.size(); ++i) src[i] = prefix[pos[i]];
      if (rel.Test(src.data())) std::copy(m, m + words, dst);
    }
    CountWords(words);
  }
  return out;
}

RelationEvaluator::BaseRelation& RelationEvaluator::Base(
    const PlanNode& atom) {
  const int dim = atom.source_kind == NodeKind::kDimAtom ? atom.dim_value : 0;
  auto [it, inserted] =
      bases_.try_emplace(std::make_pair(atom.source_kind, dim));
  if (inserted) {
    const size_t arity = atom.region_args.size();
    it->second.value = BitRelation(n_, arity);
    it->second.known = BitRelation(n_, arity);
  }
  return it->second;
}

RelationEvaluator::FreshScope::FreshScope(RelationEvaluator& eval)
    : eval_(eval), saved_values_(eval.value_.size(), kUnbound),
      saved_senv_(eval.senv_) {
  saved_values_.swap(eval_.value_);
  eval_.senv_ = &no_sets_;
}

RelationEvaluator::FreshScope::~FreshScope() {
  // Variables first seen inside the scope keep their (unbound) slots.
  saved_values_.resize(eval_.value_.size(), kUnbound);
  eval_.value_.swap(saved_values_);
  eval_.senv_ = saved_senv_;
}

const BitRelation& RelationEvaluator::Fixpoint(const PlanNode& node) {
  auto cached = fixpoints_.find(&node);
  if (cached != fixpoints_.end()) return cached->second;

  const size_t k = node.bound_vars.size();
  // Resume fast path (core/resume.h): reuse a completed set from a prior
  // interrupted run instead of recomputing it.
  ResumeCollector* resume = CurrentResumeCollectorOrNull();
  const uint64_t site = resume != nullptr ? resume->SiteKey(&node) : 0;
  if (site != 0) {
    if (const BitRelation* done = resume->Completed(site)) {
      ++stats_->resume_sets_restored;
      return fixpoints_.emplace(&node, *done).first->second;
    }
  }

  ScopedOpTimer timer(&stats_->op_timings, node.op);
  ++stats_->fixpoints_computed;
  // How many oracle decisions the Kleene iteration spends — the quantity
  // Theorem 6.1's PTIME bound controls.
  const uint64_t kernel_queries_before =
      CurrentKernel().stats().feasibility_queries;
  size_t space = 1;
  for (size_t i = 0; i < k; ++i) {
    if (space > options_.max_tuple_space / std::max<size_t>(n_, 1)) {
      throw QueryInterrupt(Status::ResourceExhausted(
          "fixed-point tuple space exceeds max_tuple_space (" +
          std::to_string(options_.max_tuple_space) + ")"));
    }
    space *= n_;
  }
  GovernorCheckTupleSpace(space, "fixed-point");

  const PlanNode& body = *node.children[0];
  const bool is_pfp = node.source_kind == NodeKind::kPfp;
  // The stage relation is over the binder order X̄; the body is evaluated
  // over the same variables in column (name) order.
  Columns bound;
  for (const std::string& v : node.bound_vars) bound.push_back(VarId(v));
  Columns sorted = bound;
  std::sort(sorted.begin(), sorted.end(),
            [&](int a, int b) { return var_names_[a] < var_names_[b]; });
  const bool permuted = sorted != bound;
  const BitRelation full = BitRelation::Full(n_, k);

  // The body sees only M and X̄ (Definition 5.1).
  FreshScope scope(*this);

  // One Kleene stage: the next set from the current one. Pure in the set
  // binding (leaf memo entries are keyed by a fresh version each call), so
  // PfpCycleDetector may replay it to verify hash hits exactly.
  auto kleene_stage = [&](const BitRelation& cur) {
    SetEnv stage_env;
    stage_env.emplace(node.set_var,
                      SetBinding{&cur, ++set_version_counter_});
    senv_ = &stage_env;
    // Monotone/inflationary stages never lose tuples, so skip re-proofs.
    BitRelation mask = full;
    if (!is_pfp) mask.AndNotWith(cur);
    if (permuted) mask = Gather(mask, bound, sorted, full);
    BitRelation derived = EvalChild(body, sorted, mask);
    if (permuted) derived = Gather(derived, sorted, bound, full);
    if (is_pfp) return derived;
    derived.OrWith(cur);
    CountWords(derived.word_count());
    return derived;
  };

  auto account = [&] {
    stats_->fixpoint_feasibility_queries +=
        CurrentKernel().stats().feasibility_queries - kernel_queries_before;
  };

  BitRelation current(n_, k);
  size_t iteration = 0;
  // PFP only; stores 8 bytes per stage.
  PfpCycleDetector<BitRelation> cycle(
      current, [](const BitRelation& s) { return s.Hash(); });
  if (site != 0) {
    // Continue an interrupted Kleene loop from its last completed stage.
    // Valid here because Definition 5.1 makes the stage sequence a pure
    // function of the operator, not of the environment we were called in.
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
          return fixpoints_.emplace(&node, BitRelation(n_, k)).first->second;
        }
      }
      ++stats_->fixpoint_iterations;
      BitRelation next;
      {
        TraceSpan stage_span("fixpoint.stage");
        next = kleene_stage(current);
        stage_span.Counter("iteration", iteration);
        stage_span.Counter("tuples", next.Count());
      }
      CountWords(next.word_count());
      if (next == current) break;
      current = std::move(next);
    }
  } catch (const QueryInterrupt&) {
    // Checkpoint the last completed stage; a mid-stage interrupt only
    // discards the partial stage local to kleene_stage.
    if (site != 0) {
      std::vector<uint64_t> pfp_hashes =
          is_pfp ? cycle.ExportHashes(current) : std::vector<uint64_t>{};
      resume->CaptureInProgress(site, std::move(current), iteration,
                                std::move(pfp_hashes));
    }
    throw;
  }
  account();
  return fixpoints_.emplace(&node, std::move(current)).first->second;
}

const BitRelation& RelationEvaluator::Closure(const PlanNode& node) {
  auto cached = closures_.find(&node);
  if (cached != closures_.end()) return cached->second;

  // Resume fast path (core/resume.h): completed-relation granularity only —
  // an interrupt mid-edge-build restarts the operator.
  if (ResumeCollector* resume = CurrentResumeCollectorOrNull()) {
    if (uint64_t site = resume->SiteKey(&node)) {
      if (const BitRelation* done = resume->Completed(site)) {
        ++stats_->resume_sets_restored;
        return closures_.emplace(&node, *done).first->second;
      }
    }
  }

  const size_t m = node.bound_vars.size() / 2;
  // The reachability matrix over m-tuple indices is the relation over
  // (X̄, Ȳ) itself: its rows that start with ū form one contiguous block,
  // matrix row ū — the set of v̄, laid out as a relation over Ȳ.
  BitRelation reach(n_, 2 * m);
  const ReachIndex index{n_, SaturatingPow(n_, m - 1)};
  const size_t block_words = index.block_rows * reach.row_words();

  ScopedOpTimer timer(&stats_->op_timings, node.op);
  ++stats_->closures_computed;
  // Oracle decisions spent building the edge relation.
  const uint64_t kernel_queries_before =
      CurrentKernel().stats().feasibility_queries;
  size_t space = 1;
  for (size_t i = 0; i < m; ++i) {
    if (space > options_.max_tuple_space / std::max<size_t>(n_, 1)) {
      throw QueryInterrupt(Status::ResourceExhausted(
          "TC tuple space exceeds max_tuple_space (" +
          std::to_string(options_.max_tuple_space) + ")"));
    }
    space *= n_;
  }
  GovernorCheckTupleSpace(space, "closure");
  const size_t total = n_ == 0 ? 0 : space;

  Columns from, to;
  for (size_t i = 0; i < m; ++i) {
    from.push_back(VarId(node.bound_vars[i]));
    to.push_back(VarId(node.bound_vars[m + i]));
  }
  Columns sorted_to = to;
  std::sort(sorted_to.begin(), sorted_to.end(),
            [&](int a, int b) { return var_names_[a] < var_names_[b]; });
  const BitRelation full_row = BitRelation::Full(n_, m);

  {
    // The body sees only X̄ and Ȳ (Definition 7.2).
    FreshScope scope(*this);
    for (size_t u = 0; u < total; ++u) {
      // Edge construction is the LP-heavy phase, so it gets the per-row
      // injection + cancellation point. An unwind abandons only the local
      // relation; the closure cache is untouched.
      LCDB_FAILPOINT("closure.build");
      GovernorCheckpoint();
      for (size_t i = m, a = u; i-- > 0; a /= n_) value_[from[i]] = a % n_;
      BitRelation row = EvalChild(*node.children[0], sorted_to, full_row);
      if (sorted_to != to) row = Gather(row, sorted_to, to, full_row);
      std::copy(row.row(0), row.row(0) + block_words,
                reach.row(u * index.block_rows));
      CountWords(block_words);
    }
  }

  if (node.source_kind == NodeKind::kDtc) {
    // Keep only unique successors.
    for (size_t u = 0; u < total; ++u) {
      uint64_t* row = reach.row(u * index.block_rows);
      size_t successors = 0;
      for (size_t w = 0; w < block_words; ++w) {
        successors += static_cast<size_t>(std::popcount(row[w]));
      }
      if (successors != 1) std::fill(row, row + block_words, 0);
    }
    CountWords(total * block_words);
  }
  // Reflexive-transitive closure: the diagonal (length-one sequences),
  // then Warshall over bit rows — after pivot p, row u holds every v
  // reachable through intermediates among 0..p.
  for (size_t u = 0; u < total; ++u) reach.SetAt(index.Row(u, u), index.Bit(u));
  for (size_t p = 0; p < total; ++p) {
    const uint64_t* pivot = reach.row(p * index.block_rows);
    for (size_t u = 0; u < total; ++u) {
      if (u == p || !reach.TestAt(index.Row(u, p), index.Bit(p))) continue;
      uint64_t* row = reach.row(u * index.block_rows);
      for (size_t w = 0; w < block_words; ++w) row[w] |= pivot[w];
      CountWords(block_words);
    }
  }
  stats_->closure_feasibility_queries +=
      CurrentKernel().stats().feasibility_queries - kernel_queries_before;
  return closures_.emplace(&node, std::move(reach)).first->second;
}

void RelationEvaluator::HarvestResumeState(ResumeCollector& resume) const {
  for (const auto* cache : {&fixpoints_, &closures_}) {
    for (const auto& [node, relation] : *cache) {
      if (uint64_t site = resume.SiteKey(node)) {
        resume.CaptureCompleted(site, relation);
      }
    }
  }
}

}  // namespace lcdb
