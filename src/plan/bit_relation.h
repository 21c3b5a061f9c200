#ifndef LCDB_PLAN_BIT_RELATION_H_
#define LCDB_PLAN_BIT_RELATION_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <set>
#include <vector>

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
/// The members are defined in plan/relation_eval.cc, beside the row helpers
/// they share with the relation module.
class BitRelation {
 public:
  using TupleSet = std::set<std::vector<size_t>>;

  BitRelation() : BitRelation(0, 0) {}
  BitRelation(size_t values, size_t arity);

  /// Every tuple of the space.
  static BitRelation Full(size_t values, size_t arity);
  /// Conversions to and from the sorted tuple-set form (tests compare
  /// against a per-binding std::set model through these).
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
  /// stage hash).
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

}  // namespace lcdb

#endif  // LCDB_PLAN_BIT_RELATION_H_
