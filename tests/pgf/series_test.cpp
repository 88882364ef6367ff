#include "pgf/series.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "core/models.hpp"
#include "support/error.hpp"

namespace ksw::pgf {
namespace {

TEST(Series, ConstructionAndAccess) {
  Series s(4);
  EXPECT_EQ(s.length(), 4u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(s[i], 0.0);
  s[2] = 1.5;
  EXPECT_DOUBLE_EQ(s[2], 1.5);
  EXPECT_THROW(Series(0), std::invalid_argument);
  EXPECT_THROW(s[4], std::out_of_range);
}

TEST(Series, FromCoefficientsTruncatesAndPads) {
  const std::array<double, 3> c = {1.0, 2.0, 3.0};
  Series padded(c, 5);
  EXPECT_DOUBLE_EQ(padded[2], 3.0);
  EXPECT_DOUBLE_EQ(padded[4], 0.0);
  Series cut(c, 2);
  EXPECT_EQ(cut.length(), 2u);
  EXPECT_DOUBLE_EQ(cut[1], 2.0);
}

TEST(Series, AddSubScale) {
  const std::array<double, 3> a = {1.0, 2.0, 3.0};
  const std::array<double, 3> b = {4.0, 5.0, 6.0};
  Series sa(a, 3), sb(b, 3);
  const Series sum = sa + sb;
  EXPECT_DOUBLE_EQ(sum[0], 5.0);
  EXPECT_DOUBLE_EQ(sum[2], 9.0);
  const Series diff = sb - sa;
  EXPECT_DOUBLE_EQ(diff[1], 3.0);
  const Series scaled = 2.0 * sa;
  EXPECT_DOUBLE_EQ(scaled[2], 6.0);
}

TEST(Series, MulIsTruncatedConvolution) {
  // (1 + z)^2 = 1 + 2z + z^2.
  const std::array<double, 2> one_plus_z = {1.0, 1.0};
  Series s(one_plus_z, 3);
  const Series sq = Series::mul(s, s);
  EXPECT_DOUBLE_EQ(sq[0], 1.0);
  EXPECT_DOUBLE_EQ(sq[1], 2.0);
  EXPECT_DOUBLE_EQ(sq[2], 1.0);
}

TEST(Series, MulTruncatesHighTerms) {
  const std::array<double, 3> c = {0.0, 1.0, 1.0};  // z + z^2
  Series s(c, 3);
  const Series sq = Series::mul(s, s);  // z^2 + 2z^3 + z^4 -> keep z^2
  EXPECT_DOUBLE_EQ(sq[0], 0.0);
  EXPECT_DOUBLE_EQ(sq[1], 0.0);
  EXPECT_DOUBLE_EQ(sq[2], 1.0);
}

TEST(Series, DivideRoundTrips) {
  const std::array<double, 4> num = {1.0, 0.5, 0.25, 0.125};
  const std::array<double, 4> den = {2.0, -1.0, 0.5, 0.0};
  Series n(num, 8), d(den, 8);
  const Series q = Series::divide(n, d);
  const Series back = Series::mul(q, d);
  for (std::size_t i = 0; i < 8; ++i)
    EXPECT_NEAR(back[i], i < 4 ? num[i] : 0.0, 1e-12) << "i=" << i;
}

TEST(Series, DivideGeometric) {
  // 1/(1 - z) = 1 + z + z^2 + ...
  const std::array<double, 2> one = {1.0};
  const std::array<double, 2> den = {1.0, -1.0};
  const Series q = Series::divide(Series(one, 10), Series(den, 10));
  for (std::size_t i = 0; i < 10; ++i) EXPECT_NEAR(q[i], 1.0, 1e-12);
}

TEST(Series, DivideRejectsZeroConstant) {
  Series n(4), d(4);
  n[0] = 1.0;
  EXPECT_THROW(Series::divide(n, d), ksw::Error);
}

TEST(Series, DivideRejectsNearZeroConstant) {
  // Regression: a denominator constant term within rounding noise of zero
  // used to divide through and amplify into garbage coefficients; it must
  // fail as loudly as an exact zero — and as a typed numeric error, so the
  // CLI can map it to the numeric exit code.
  Series n(4), d(4);
  n[0] = 1.0;
  d[0] = 1e-15;
  d[1] = 1.0;
  try {
    Series::divide(n, d);
    FAIL() << "expected ksw::Error";
  } catch (const ksw::Error& e) {
    EXPECT_EQ(e.kind(), ksw::ErrorKind::kNumeric);
  }
  d[0] = -1e-15;
  EXPECT_THROW(Series::divide(n, d), ksw::Error);
  // Just above the documented threshold is accepted.
  d[0] = 2.0 * Series::kDivideEpsilon;
  EXPECT_NO_THROW(Series::divide(n, d));
  // The polynomial quotient shares the guard.
  const std::array<long double, 1> p = {1.0L};
  EXPECT_THROW(Series::ratio(p, std::array<long double, 2>{1e-15L, 1.0L}, 4),
               ksw::Error);
  EXPECT_THROW(Series::ratio(p, std::array<long double, 2>{0.0L, 1.0L}, 4),
               ksw::Error);
  EXPECT_NO_THROW(Series::ratio(
      p, std::array<long double, 2>{2.0L * Series::kDivideEpsilon, 1.0L}, 4));
}

TEST(Series, RatioMatchesDivideOnPolynomials) {
  // P = 1 + z/2 + z^2/4 + z^3/8, D = 2 - z + z^2/2: every quotient term of
  // the O(N deg D) recurrence equals the dense divide's.
  const std::array<long double, 4> p = {1.0L, 0.5L, 0.25L, 0.125L};
  const std::array<long double, 4> d = {2.0L, -1.0L, 0.5L, 0.0L};
  const std::array<double, 4> pd = {1.0, 0.5, 0.25, 0.125};
  const std::array<double, 3> dd = {2.0, -1.0, 0.5};
  const Series fast = Series::ratio(p, d, 32);
  const Series dense = Series::divide(Series(pd, 32), Series(dd, 32));
  ASSERT_EQ(fast.length(), 32u);
  for (std::size_t i = 0; i < 32; ++i)
    EXPECT_NEAR(fast[i], dense[i], 1e-15) << "i=" << i;
  // 1/(1 - z/2) = sum 2^-j, exact in binary.
  const Series geometric = Series::ratio(
      std::array<long double, 1>{1.0L}, std::array<long double, 2>{1.0L, -0.5L},
      8);
  for (std::size_t i = 0; i < 8; ++i)
    EXPECT_EQ(geometric[i], std::ldexp(1.0, -static_cast<int>(i)));
}

TEST(Series, PowMatchesRepeatedMul) {
  const std::array<double, 2> c = {0.75, 0.25};
  const Series base(c, 6);
  Series direct = Series::constant(1.0, 6);
  for (int i = 0; i < 5; ++i) direct = Series::mul(direct, base);
  const Series fast = Series::pow(base, 5);
  for (std::size_t i = 0; i < 6; ++i) EXPECT_NEAR(fast[i], direct[i], 1e-14);
}

TEST(Series, PowZeroIsOne) {
  const Series base = Series::identity(4);
  const Series p0 = Series::pow(base, 0);
  EXPECT_DOUBLE_EQ(p0[0], 1.0);
  EXPECT_DOUBLE_EQ(p0[1], 0.0);
}

TEST(Series, EvalHorner) {
  const std::array<double, 3> c = {1.0, -2.0, 3.0};
  const Series s(c, 3);
  EXPECT_DOUBLE_EQ(s.eval(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.eval(1.0), 2.0);
  EXPECT_DOUBLE_EQ(s.eval(2.0), 9.0);
}

TEST(Series, CoefficientSum) {
  const std::array<double, 3> c = {0.25, 0.5, 0.25};
  EXPECT_DOUBLE_EQ(Series(c, 3).coefficient_sum(), 1.0);
}

// ---------------------------------------------------------------------------
// Bit identity of the support-bounded product against the dense loop.
// ---------------------------------------------------------------------------

/// The dense O(N^2) truncated product mul() replaced: every term a_i * b_j
/// with a_i != 0, zeros of b included, accumulated in ascending j.
Series dense_mul(const Series& a, const Series& b) {
  const std::size_t n = a.length();
  Series out(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double ai = a[i];
    if (ai == 0.0) continue;
    for (std::size_t j = 0; i + j < n; ++j) out[i + j] += ai * b[j];
  }
  return out;
}

bool same_bits(const Series& x, const Series& y) {
  return x.length() == y.length() &&
         std::memcmp(x.coefficients().data(), y.coefficients().data(),
                     x.length() * sizeof(double)) == 0;
}

/// 1 - sum_{i<=j} s_i: the survival series FirstStage::distribution
/// builds (Uhat), which has exactly m nonzeros for det:m service.
Series survival(const Series& s) {
  Series out(s.length());
  double sum = 0.0;
  for (std::size_t j = 0; j < s.length(); ++j) {
    sum += s[j];
    out[j] = 1.0 - sum;
  }
  return out;
}

/// mu (1-mu)^(j-1) for j >= 1: geometric service times as a series.
Series geometric_series(double mu, std::size_t n) {
  Series s(n);
  double mass = mu;
  for (std::size_t j = 1; j < n; ++j) {
    s[j] = mass;
    mass *= (1.0 - mu);
  }
  return s;
}

/// Operands of every shape the product meets: deterministic, geometric
/// and multi-size service series, their survival series, and random
/// dense series with leading, interior and trailing zeros of both signs.
std::vector<Series> product_operands(std::size_t n, std::mt19937_64& rng) {
  std::vector<Series> ops;
  for (const std::uint32_t m : {1u, 2u, 3u, 8u}) {
    ops.push_back(Series(core::DeterministicService(m).pmf()->pmf(), n));
    ops.push_back(survival(ops.back()));
  }
  for (const double mu : {0.5, 0.1}) {
    ops.push_back(geometric_series(mu, n));
    ops.push_back(survival(ops.back()));
  }
  ops.push_back(
      Series(core::MultiSizeService({{1, 0.5}, {3, 0.5}}).pmf()->pmf(), n));
  ops.push_back(survival(ops.back()));

  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  const auto random_series = [&](std::size_t lead, std::size_t tail) {
    Series s(n);
    for (std::size_t j = lead; j + tail < n; ++j) {
      switch (rng() % 6) {
        case 0: s[j] = 0.0; break;
        case 1: s[j] = -0.0; break;
        default: s[j] = unit(rng);
      }
    }
    for (std::size_t j = 0; j < std::min(lead, n); ++j)
      s[j] = (j % 2) ? -0.0 : 0.0;
    for (std::size_t j = n - std::min(tail, n); j < n; ++j)
      s[j] = (j % 2) ? 0.0 : -0.0;
    return s;
  };
  ops.push_back(random_series(0, 0));
  ops.push_back(random_series(n / 3, 0));
  ops.push_back(random_series(0, n / 2));
  ops.push_back(random_series(n / 4, n / 4));
  ops.push_back(Series(n));  // all zeros
  Series neg_zeros(n);
  for (std::size_t j = 0; j < n; ++j) neg_zeros[j] = -0.0;
  ops.push_back(neg_zeros);
  return ops;
}

TEST(SeriesBitIdentity, MulMatchesDenseLoopOnEveryOperandShape) {
  std::mt19937_64 rng(20260101);
  for (const std::size_t n :
       {1u, 2u, 3u, 4u, 5u, 8u, 9u, 17u, 64u, 100u, 257u, 512u, 2048u}) {
    const std::vector<Series> ops = product_operands(n, rng);
    for (std::size_t x = 0; x < ops.size(); ++x)
      for (std::size_t y = 0; y < ops.size(); ++y)
        ASSERT_TRUE(same_bits(Series::mul(ops[x], ops[y]),
                              dense_mul(ops[x], ops[y])))
            << "n=" << n << " operands " << x << "," << y;
  }
}

TEST(SeriesBitIdentity, MulKeepsNaNFromNonFiniteLeftOperand) {
  // inf * 0 is NaN: a non-finite a_i must still meet b's zeros.
  const std::array<double, 4> a_c = {
      1.0, std::numeric_limits<double>::infinity(), 0.5, 0.0};
  const std::array<double, 4> b_c = {0.0, 2.0, 0.0, 0.0};
  const Series a(a_c, 6), b(b_c, 6);
  const Series got = Series::mul(a, b);
  EXPECT_TRUE(same_bits(got, dense_mul(a, b)));
  EXPECT_TRUE(std::isnan(got[1]));
}

TEST(Series, LengthMismatchThrows) {
  Series a(3), b(4);
  EXPECT_THROW(a += b, std::invalid_argument);
  EXPECT_THROW(Series::mul(a, b), std::invalid_argument);
  EXPECT_THROW(Series::divide(a, b), std::invalid_argument);
}

}  // namespace
}  // namespace ksw::pgf
