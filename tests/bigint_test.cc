#include "arith/bigint.h"

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace lcdb {
namespace {

TEST(BigIntTest, DefaultIsZero) {
  BigInt z;
  EXPECT_TRUE(z.IsZero());
  EXPECT_EQ(z.Sign(), 0);
  EXPECT_EQ(z.ToString(), "0");
  EXPECT_EQ(z.BitLength(), 0u);
}

TEST(BigIntTest, SmallConstruction) {
  EXPECT_EQ(BigInt(42).ToString(), "42");
  EXPECT_EQ(BigInt(-42).ToString(), "-42");
  EXPECT_EQ(BigInt(0).ToString(), "0");
  EXPECT_EQ(BigInt(INT64_MAX).ToString(), "9223372036854775807");
  EXPECT_EQ(BigInt(INT64_MIN).ToString(), "-9223372036854775808");
}

TEST(BigIntTest, FromStringRoundTrip) {
  for (const char* text :
       {"0", "1", "-1", "123456789012345678901234567890",
        "-999999999999999999999999999999999999", "42"}) {
    auto parsed = BigInt::FromString(text);
    ASSERT_TRUE(parsed.ok()) << text;
    EXPECT_EQ(parsed->ToString(), text);
  }
}

TEST(BigIntTest, FromStringRejectsGarbage) {
  EXPECT_FALSE(BigInt::FromString("").ok());
  EXPECT_FALSE(BigInt::FromString("-").ok());
  EXPECT_FALSE(BigInt::FromString("12a").ok());
  EXPECT_FALSE(BigInt::FromString("1.5").ok());
}

TEST(BigIntTest, FromStringNegativeZeroNormalizes) {
  auto parsed = BigInt::FromString("-0");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->IsZero());
  EXPECT_FALSE(parsed->IsNegative());
}

TEST(BigIntTest, AdditionCarriesAcrossLimbs) {
  auto a = BigInt::FromString("4294967295").value();  // 2^32 - 1
  EXPECT_EQ((a + BigInt(1)).ToString(), "4294967296");
  auto b = BigInt::FromString("18446744073709551615").value();  // 2^64 - 1
  EXPECT_EQ((b + BigInt(1)).ToString(), "18446744073709551616");
}

TEST(BigIntTest, MixedSignAddition) {
  EXPECT_EQ((BigInt(10) + BigInt(-3)).ToInt64(), 7);
  EXPECT_EQ((BigInt(-10) + BigInt(3)).ToInt64(), -7);
  EXPECT_EQ((BigInt(-10) + BigInt(10)).Sign(), 0);
  EXPECT_EQ((BigInt(3) - BigInt(10)).ToInt64(), -7);
}

TEST(BigIntTest, MultiplicationLarge) {
  auto a = BigInt::FromString("123456789012345678901234567890").value();
  auto b = BigInt::FromString("987654321098765432109876543210").value();
  EXPECT_EQ((a * b).ToString(),
            "121932631137021795226185032733622923332237463801111263526900");
  EXPECT_EQ((a * BigInt(0)).Sign(), 0);
  EXPECT_EQ((a * BigInt(-1)).ToString(),
            "-123456789012345678901234567890");
}

TEST(BigIntTest, DivModTruncatesTowardZero) {
  BigInt q, r;
  BigInt::DivMod(BigInt(7), BigInt(2), &q, &r);
  EXPECT_EQ(q.ToInt64(), 3);
  EXPECT_EQ(r.ToInt64(), 1);
  BigInt::DivMod(BigInt(-7), BigInt(2), &q, &r);
  EXPECT_EQ(q.ToInt64(), -3);
  EXPECT_EQ(r.ToInt64(), -1);
  BigInt::DivMod(BigInt(7), BigInt(-2), &q, &r);
  EXPECT_EQ(q.ToInt64(), -3);
  EXPECT_EQ(r.ToInt64(), 1);
  BigInt::DivMod(BigInt(-7), BigInt(-2), &q, &r);
  EXPECT_EQ(q.ToInt64(), 3);
  EXPECT_EQ(r.ToInt64(), -1);
}

TEST(BigIntTest, DivisionLarge) {
  auto a = BigInt::FromString("121932631137021795226185032733622923332237463801111263526900")
               .value();
  auto b = BigInt::FromString("987654321098765432109876543210").value();
  EXPECT_EQ((a / b).ToString(), "123456789012345678901234567890");
  EXPECT_EQ((a % b).Sign(), 0);
}

TEST(BigIntTest, GcdBasics) {
  EXPECT_EQ(BigInt::Gcd(BigInt(12), BigInt(18)).ToInt64(), 6);
  EXPECT_EQ(BigInt::Gcd(BigInt(-12), BigInt(18)).ToInt64(), 6);
  EXPECT_EQ(BigInt::Gcd(BigInt(0), BigInt(5)).ToInt64(), 5);
  EXPECT_EQ(BigInt::Gcd(BigInt(0), BigInt(0)).Sign(), 0);
  EXPECT_EQ(BigInt::Gcd(BigInt(17), BigInt(13)).ToInt64(), 1);
}

TEST(BigIntTest, BitAccess) {
  BigInt v(0b101101);
  EXPECT_TRUE(v.Bit(0));
  EXPECT_FALSE(v.Bit(1));
  EXPECT_TRUE(v.Bit(2));
  EXPECT_TRUE(v.Bit(3));
  EXPECT_FALSE(v.Bit(4));
  EXPECT_TRUE(v.Bit(5));
  EXPECT_FALSE(v.Bit(6));
  EXPECT_FALSE(v.Bit(1000));
  EXPECT_EQ(v.BitLength(), 6u);
  // Bits of the magnitude for negatives.
  EXPECT_TRUE(BigInt(-3).Bit(0));
  EXPECT_TRUE(BigInt(-3).Bit(1));
}

TEST(BigIntTest, Pow2) {
  EXPECT_EQ(BigInt::Pow2(0).ToInt64(), 1);
  EXPECT_EQ(BigInt::Pow2(10).ToInt64(), 1024);
  EXPECT_EQ(BigInt::Pow2(100).ToString(), "1267650600228229401496703205376");
  EXPECT_EQ(BigInt::Pow2(100).BitLength(), 101u);
  EXPECT_TRUE(BigInt::Pow2(100).Bit(100));
  EXPECT_FALSE(BigInt::Pow2(100).Bit(99));
}

TEST(BigIntTest, ComparisonTotalOrder) {
  std::vector<BigInt> sorted = {
      BigInt::FromString("-100000000000000000000").value(), BigInt(-2),
      BigInt(0), BigInt(1), BigInt(2),
      BigInt::FromString("100000000000000000000").value()};
  for (size_t i = 0; i < sorted.size(); ++i) {
    for (size_t j = 0; j < sorted.size(); ++j) {
      EXPECT_EQ(sorted[i] < sorted[j], i < j) << i << " " << j;
      EXPECT_EQ(sorted[i] == sorted[j], i == j);
      EXPECT_EQ(sorted[i] <= sorted[j], i <= j);
    }
  }
}

TEST(BigIntTest, FitsInt64Boundary) {
  EXPECT_TRUE(BigInt(INT64_MAX).FitsInt64());
  EXPECT_TRUE(BigInt(INT64_MIN).FitsInt64());
  EXPECT_FALSE((BigInt(INT64_MAX) + BigInt(1)).FitsInt64());
  EXPECT_FALSE((BigInt(INT64_MIN) - BigInt(1)).FitsInt64());
  EXPECT_EQ(BigInt(INT64_MIN).ToInt64(), INT64_MIN);
}

// Property sweep: random 64/128-bit arithmetic checked against a reference
// implementation built from int64 pieces.
class BigIntPropertyTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(BigIntPropertyTest, RingAxiomsAndDivision) {
  std::mt19937_64 rng(GetParam());
  std::uniform_int_distribution<int64_t> dist(-1'000'000'000'000'000,
                                              1'000'000'000'000'000);
  for (int iter = 0; iter < 50; ++iter) {
    const int64_t x = dist(rng);
    const int64_t y = dist(rng);
    const int64_t z = dist(rng);
    BigInt a(x), b(y), c(z);
    // Commutativity / associativity of + on exact values.
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ((a + b) + c, a + (b + c));
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a * b) * c, a * (b * c));
    // Distributivity.
    EXPECT_EQ(a * (b + c), a * b + a * c);
    // Subtraction inverts addition.
    EXPECT_EQ((a + b) - b, a);
    // Division identity: a = (a/b)*b + a%b, |a%b| < |b|.
    if (y != 0) {
      BigInt q = a / b;
      BigInt r = a % b;
      EXPECT_EQ(q * b + r, a);
      EXPECT_TRUE(r.Abs() < b.Abs());
      if (!r.IsZero()) {
        EXPECT_EQ(r.Sign(), a.Sign());
      }
    }
    // Gcd divides both and is positive.
    BigInt g = BigInt::Gcd(a, b);
    if (!a.IsZero() || !b.IsZero()) {
      EXPECT_GT(g.Sign(), 0);
      if (!a.IsZero()) {
        EXPECT_EQ((a % g).Sign(), 0);
      }
      if (!b.IsZero()) {
        EXPECT_EQ((b % g).Sign(), 0);
      }
    }
    // String round-trip.
    EXPECT_EQ(BigInt::FromString(a.ToString()).value(), a);
    // Hash equality consistency.
    EXPECT_EQ(a.Hash(), BigInt(x).Hash());
  }
}

TEST_P(BigIntPropertyTest, WideMultiplicationMatchesRepeatedAddition) {
  std::mt19937_64 rng(GetParam() * 7919 + 13);
  std::uniform_int_distribution<int64_t> dist(-1'000'000, 1'000'000);
  std::uniform_int_distribution<int> small(0, 30);
  for (int iter = 0; iter < 10; ++iter) {
    BigInt a(dist(rng));
    // Build a large value via squaring, then check bit identities.
    BigInt big = a * a * a * a;
    int k = small(rng);
    BigInt shifted = big * BigInt::Pow2(static_cast<size_t>(k));
    for (size_t bit = 0; bit < 20; ++bit) {
      EXPECT_EQ(shifted.Bit(bit + static_cast<size_t>(k)), big.Bit(bit));
    }
    EXPECT_EQ(shifted / BigInt::Pow2(static_cast<size_t>(k)), big);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BigIntPropertyTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u));

// Differential sweep against __int128, centred on the inline-int64 <-> limb
// promotion boundary (|v| = 2^62) and on the int64 range ends (2^63), where
// ToInt64 must convert INT64_MIN without a signed negation.

std::string Int128ToString(__int128 v) {
  if (v == 0) return "0";
  const bool negative = v < 0;
  unsigned __int128 magnitude =
      negative ? -static_cast<unsigned __int128>(v)
               : static_cast<unsigned __int128>(v);
  std::string digits;
  while (magnitude != 0) {
    digits.insert(digits.begin(), static_cast<char>('0' + magnitude % 10));
    magnitude /= 10;
  }
  return negative ? "-" + digits : digits;
}

BigInt FromInt128(__int128 v) {
  return BigInt::FromString(Int128ToString(v)).value();
}

/// A value within 2^20 of a boundary, or a uniform 64-bit value.
__int128 BoundaryOperand(std::mt19937_64& rng) {
  static const __int128 kCentres[] = {
      0,
      __int128{1} << 32,
      (__int128{1} << 62) - 1,  // BigInt's largest inline magnitude
      __int128{1} << 62,
      (__int128{1} << 63) - 1,  // INT64_MAX
      __int128{1} << 63,        // |INT64_MIN|
  };
  const uint64_t pick = rng() % 8;
  if (pick >= 6) return static_cast<int64_t>(rng());
  const __int128 offset =
      static_cast<__int128>(rng() % (uint64_t{1} << 21)) - (__int128{1} << 20);
  const __int128 v = kCentres[pick] + offset;
  return (rng() & 1) != 0 ? -v : v;
}

void ExpectMatches(const BigInt& got, __int128 want, const std::string& what) {
  EXPECT_EQ(got.ToString(), Int128ToString(want)) << what;
  const bool fits = want >= INT64_MIN && want <= INT64_MAX;
  EXPECT_EQ(got.FitsInt64(), fits) << what;
  if (fits) {
    EXPECT_EQ(got.ToInt64(), static_cast<int64_t>(want)) << what;
  }
}

TEST(BigIntDifferentialTest, MatchesInt128AroundThePromotionBoundary) {
  constexpr uint64_t kSeed = 20001;
  std::mt19937_64 rng(kSeed);
  for (int iter = 0; iter < 4000; ++iter) {
    const __int128 x = BoundaryOperand(rng);
    const __int128 y = BoundaryOperand(rng);
    const BigInt a = FromInt128(x);
    const BigInt b = FromInt128(y);
    const std::string what = "seed " + std::to_string(kSeed) + " iter " +
                             std::to_string(iter) + ": " + Int128ToString(x) +
                             " op " + Int128ToString(y);
    ExpectMatches(a, x, what + " (operand)");
    ExpectMatches(a + b, x + y, what + " (+)");
    ExpectMatches(a - b, x - y, what + " (-)");
    ExpectMatches(a * b, x * y, what + " (*)");
    // The fused form agrees with the operators it fuses.
    EXPECT_EQ(BigInt::MulSub(a, a, b, b), a * a - b * b) << what << " (MulSub)";
    EXPECT_EQ(BigInt::MulSub(a, b, a + b, b), a * b - (a + b) * b)
        << what << " (MulSub)";
    if (y != 0) {
      BigInt quotient, remainder;
      BigInt::DivMod(a, b, &quotient, &remainder);
      ExpectMatches(quotient, x / y, what + " (/)");
      ExpectMatches(remainder, x % y, what + " (%)");
    }
  }
}

}  // namespace
}  // namespace lcdb
