#ifndef LCDB_ARITH_BIGINT_H_
#define LCDB_ARITH_BIGINT_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace lcdb {

/// Arbitrary-precision signed integer with a small-value fast path.
///
/// This is the paper's model of computation made concrete: linear constraint
/// databases over (R, <, +) with *integer* coefficients stored bitwise
/// (Section 2). All arithmetic in lcdb ultimately bottoms out here, and the
/// rBIT operator (Definition 5.1) reads individual bits via `Bit()`.
///
/// Representation: values with |v| <= kSmallMax live inline in an int64
/// (no heap allocation — the dominant case in LP pivoting and quantifier
/// elimination); larger values use sign + magnitude with base-2^32 limbs.
/// Invariants: `limbs_` is empty for small values; when non-empty it has no
/// trailing zero limbs and the magnitude exceeds kSmallMax.
class BigInt {
 public:
  BigInt() = default;
  BigInt(int64_t value) {  // NOLINT(runtime/explicit) — numeric literal use.
    if (value >= -kSmallMax && value <= kSmallMax) {
      small_ = value;
    } else {
      SetWide(value);
    }
  }

  /// Parses an optionally signed decimal string, e.g. "-1234".
  static Result<BigInt> FromString(std::string_view text);

  bool IsZero() const { return limbs_.empty() && small_ == 0; }
  bool IsNegative() const {
    return limbs_.empty() ? small_ < 0 : negative_;
  }
  bool IsOne() const { return limbs_.empty() && small_ == 1; }

  int Sign() const {
    if (limbs_.empty()) return small_ == 0 ? 0 : (small_ < 0 ? -1 : 1);
    return negative_ ? -1 : 1;
  }

  BigInt operator-() const;
  BigInt Abs() const;

  BigInt operator+(const BigInt& other) const;
  BigInt operator-(const BigInt& other) const;
  BigInt operator*(const BigInt& other) const;

  /// Truncated division (C++ semantics: quotient rounds toward zero and the
  /// remainder has the sign of the dividend). `other` must be nonzero.
  BigInt operator/(const BigInt& other) const;
  BigInt operator%(const BigInt& other) const;

  /// Computes quotient and remainder in one pass (truncated division).
  static void DivMod(const BigInt& a, const BigInt& b, BigInt* quotient,
                     BigInt* remainder);

  /// a * b - c * d in one step; inline operands whose result fits in
  /// int64 need no temporaries.
  static BigInt MulSub(const BigInt& a, const BigInt& b, const BigInt& c,
                       const BigInt& d);

  BigInt& operator+=(const BigInt& other) { return *this = *this + other; }
  BigInt& operator-=(const BigInt& other) { return *this = *this - other; }
  BigInt& operator*=(const BigInt& other) { return *this = *this * other; }

  bool operator==(const BigInt& other) const;
  bool operator!=(const BigInt& other) const { return !(*this == other); }
  bool operator<(const BigInt& other) const;
  bool operator<=(const BigInt& other) const { return !(other < *this); }
  bool operator>(const BigInt& other) const { return other < *this; }
  bool operator>=(const BigInt& other) const { return !(*this < other); }

  /// Greatest common divisor of the magnitudes; always non-negative.
  /// Gcd(0, 0) == 0.
  static BigInt Gcd(const BigInt& a, const BigInt& b);

  /// Bit `i` (0-indexed, least significant first) of the magnitude.
  bool Bit(size_t i) const;

  /// Number of bits in the magnitude (0 for zero).
  size_t BitLength() const;

  /// Value as int64_t; the caller must know it fits (checked).
  int64_t ToInt64() const;

  /// True if the value fits in int64_t.
  bool FitsInt64() const;

  std::string ToString() const;

  /// 2^k.
  static BigInt Pow2(size_t k);

  size_t Hash() const;

 private:
  /// Largest magnitude kept inline. One bit of headroom below INT64_MIN/MAX
  /// so negation and magnitude handling never overflow.
  static constexpr int64_t kSmallMax = (int64_t{1} << 62) - 1;

  bool IsSmall() const { return limbs_.empty(); }
  /// Installs a value beyond the inline range (only near INT64_MIN/MAX).
  void SetWide(int64_t value);
  /// Magnitude limbs of a small value (for mixed-representation paths).
  static std::vector<uint32_t> SmallLimbs(int64_t value);
  /// Installs a magnitude + sign, demoting to the small form when possible.
  void SetMagnitude(std::vector<uint32_t> limbs, bool negative);

  static int CompareMagnitude(const std::vector<uint32_t>& a,
                              const std::vector<uint32_t>& b);
  static std::vector<uint32_t> AddMagnitude(const std::vector<uint32_t>& a,
                                            const std::vector<uint32_t>& b);
  // Requires |a| >= |b|.
  static std::vector<uint32_t> SubMagnitude(const std::vector<uint32_t>& a,
                                            const std::vector<uint32_t>& b);
  static BigInt AddSigned(const std::vector<uint32_t>& a, bool a_neg,
                          const std::vector<uint32_t>& b, bool b_neg);

  int64_t small_ = 0;
  bool negative_ = false;            // big form only
  std::vector<uint32_t> limbs_;      // big form: little-endian base 2^32
};

std::ostream& operator<<(std::ostream& os, const BigInt& value);

}  // namespace lcdb

#endif  // LCDB_ARITH_BIGINT_H_
