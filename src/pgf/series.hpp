// Truncated power-series arithmetic over double coefficients.
//
// The waiting-time transform of Theorem 1,
//
//   t(z) = (1-mL)/L * (1-z)(1 - R(U(z))) / ((R(U(z)) - z)(1 - U(z))),
//
// is a ratio of compositions of probability generating functions. Expanding
// it as a power series around z = 0 yields the exact waiting-time
// probabilities P(w = j) as coefficients. This module supplies the series
// algebra (add, multiply, divide) needed for that inversion, and the
// O(N * deg D) quotient of two polynomials that inverts it whenever the
// service PGF is a ratio of polynomials.
//
// All operations are truncated to a fixed length; a Series of length N
// carries coefficients of z^0 .. z^{N-1}.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace ksw::pgf {

/// Fixed-length truncated power series sum_{j<N} c_j z^j.
class Series {
 public:
  /// Zero series of the given length (length >= 1).
  explicit Series(std::size_t length);

  /// Series from explicit coefficients, truncated/zero-padded to `length`.
  Series(std::span<const double> coeffs, std::size_t length);

  static Series constant(double c, std::size_t length);
  /// The monomial z (or 0 if length == 1).
  static Series identity(std::size_t length);

  [[nodiscard]] std::size_t length() const noexcept { return c_.size(); }
  [[nodiscard]] double operator[](std::size_t j) const { return c_.at(j); }
  [[nodiscard]] double& operator[](std::size_t j) { return c_.at(j); }
  [[nodiscard]] const std::vector<double>& coefficients() const noexcept {
    return c_;
  }

  Series& operator+=(const Series& o);
  Series& operator-=(const Series& o);
  Series& operator*=(double s);

  friend Series operator+(Series a, const Series& b) { return a += b; }
  friend Series operator-(Series a, const Series& b) { return a -= b; }
  friend Series operator*(Series a, double s) { return a *= s; }
  friend Series operator*(double s, Series a) { return a *= s; }

  /// Truncated product (Cauchy convolution), O(N^2) for dense operands;
  /// the inner loop spans only b's nonzero support, so a factor with K
  /// nonzeros between its first and last costs O(N*K). Bit-identical to
  /// the dense loop.
  [[nodiscard]] static Series mul(const Series& a, const Series& b);

  /// Smallest |den[0]| divide() accepts. The long-division recurrence
  /// multiplies every quotient coefficient by 1/den[0], so a leading
  /// coefficient at (or within rounding noise of) zero amplifies into
  /// inf/nan or garbage coefficients instead of failing loudly. 1e-12 is
  /// far below any leading probability mass a PGF ratio in this codebase
  /// produces, and far above cancellation noise of well-posed inputs.
  static constexpr double kDivideEpsilon = 1e-12;

  /// Truncated quotient num/den; requires |den[0]| >= kDivideEpsilon.
  [[nodiscard]] static Series divide(const Series& num, const Series& den);

  /// First `length` coefficients of P/D for polynomials P and D (missing
  /// coefficients are zero), by the order-deg(D) linear recurrence
  ///   t_n = (p_n - sum_{j=1}^{min(n, deg D)} d_j t_{n-j}) / d_0,
  /// accumulated in long double and rounded to double once. O(length *
  /// deg D). When every root of D lies outside the unit disk the
  /// recurrence damps its own round-off, so relative accuracy holds deep
  /// into a decaying tail. Same |d[0]| guard and fault site as divide().
  [[nodiscard]] static Series ratio(std::span<const long double> p,
                                    std::span<const long double> d,
                                    std::size_t length);

  /// Integer power by repeated squaring (truncated).
  [[nodiscard]] static Series pow(const Series& base, unsigned n);

  /// Evaluate the truncated series at a real point (Horner).
  [[nodiscard]] double eval(double z) const noexcept;

  /// Sum of all retained coefficients — for a PGF series this approaches 1
  /// as the truncation length grows.
  [[nodiscard]] double coefficient_sum() const noexcept;

 private:
  std::vector<double> c_;
};

}  // namespace ksw::pgf
