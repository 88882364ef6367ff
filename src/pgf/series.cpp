#include "pgf/series.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "fault/injection.hpp"
#include "support/error.hpp"

namespace ksw::pgf {

Series::Series(std::size_t length) : c_(length, 0.0) {
  if (length == 0) throw std::invalid_argument("Series: length must be >= 1");
}

Series::Series(std::span<const double> coeffs, std::size_t length)
    : Series(length) {
  const std::size_t n = std::min(coeffs.size(), length);
  std::copy_n(coeffs.begin(), n, c_.begin());
}

Series Series::constant(double c, std::size_t length) {
  Series s(length);
  s.c_[0] = c;
  return s;
}

Series Series::identity(std::size_t length) {
  Series s(length);
  if (length > 1) s.c_[1] = 1.0;
  return s;
}

Series& Series::operator+=(const Series& o) {
  if (o.length() != length())
    throw std::invalid_argument("Series::+=: length mismatch");
  for (std::size_t i = 0; i < c_.size(); ++i) c_[i] += o.c_[i];
  return *this;
}

Series& Series::operator-=(const Series& o) {
  if (o.length() != length())
    throw std::invalid_argument("Series::-=: length mismatch");
  for (std::size_t i = 0; i < c_.size(); ++i) c_[i] -= o.c_[i];
  return *this;
}

Series& Series::operator*=(double s) {
  for (double& x : c_) x *= s;
  return *this;
}

Series Series::mul(const Series& a, const Series& b) {
  if (a.length() != b.length())
    throw std::invalid_argument("Series::mul: length mismatch");
  const std::size_t n = a.length();
  // b's nonzero support [lo, hi). A skipped term is a_i * (+-0.0) = +-0.0
  // for finite a_i, added to an accumulator that starts at +0.0 and so can
  // never be -0.0 in round-to-nearest: every skipped addition is an
  // identity, and the result is bit-identical to the dense loop. Sparse
  // factors (det:m service, Uhat) then cost O(N * support) instead of
  // O(N^2 / 2).
  std::size_t lo = 0, hi = n;
  while (hi > 0 && b.c_[hi - 1] == 0.0) --hi;
  while (lo < hi && b.c_[lo] == 0.0) ++lo;
  Series out(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double ai = a.c_[i];
    if (ai == 0.0) continue;
    // A non-finite a_i turns the skipped zeros into NaN: keep them.
    const bool finite = std::isfinite(ai);
    const std::size_t first = finite ? lo : 0;
    const std::size_t last = finite ? std::min(hi, n - i) : n - i;
    for (std::size_t j = first; j < last; ++j) out.c_[i + j] += ai * b.c_[j];
  }
  return out;
}

Series Series::divide(const Series& num, const Series& den) {
  if (num.length() != den.length())
    throw std::invalid_argument("Series::divide: length mismatch");
  // Deterministic fault site: pretend the constant term collapsed, so the
  // near-singular reporting path can be exercised without crafting a
  // genuinely ill-conditioned model.
  const bool injected_singular = fault::should_fire("series.near-singular");
  if (injected_singular || std::abs(den.c_[0]) < kDivideEpsilon) {
    std::ostringstream msg;
    msg << "Series::divide: |den[0]| = " << std::abs(den.c_[0]) << " < "
        << kDivideEpsilon
        << " (ill-conditioned power-series division; the queue is at or "
           "beyond saturation)";
    if (injected_singular) msg << " [injected: series.near-singular]";
    throw numeric_error(msg.str());
  }
  const std::size_t n = num.length();
  Series q(n);
  const double inv0 = 1.0 / den.c_[0];
  for (std::size_t i = 0; i < n; ++i) {
    double acc = num.c_[i];
    for (std::size_t j = 1; j <= i; ++j) acc -= den.c_[j] * q.c_[i - j];
    q.c_[i] = acc * inv0;
  }
  return q;
}

Series Series::compose_polynomial(std::span<const double> outer,
                                  const Series& inner) {
  const std::size_t n = inner.length();
  if (outer.empty()) return Series(n);
  // Horner: result = outer[d] ; result = result*inner + outer[d-1] ; ...
  Series result = Series::constant(outer.back(), n);
  for (std::size_t i = outer.size() - 1; i-- > 0;) {
    result = mul(result, inner);
    result.c_[0] += outer[i];
  }
  return result;
}

Series Series::pow(const Series& base, unsigned n) {
  Series result = Series::constant(1.0, base.length());
  Series b = base;
  while (n > 0) {
    if (n & 1u) result = mul(result, b);
    n >>= 1u;
    if (n > 0) b = mul(b, b);
  }
  return result;
}

double Series::eval(double z) const noexcept {
  double acc = 0.0;
  for (std::size_t i = c_.size(); i-- > 0;) acc = acc * z + c_[i];
  return acc;
}

double Series::coefficient_sum() const noexcept {
  double acc = 0.0;
  for (double x : c_) acc += x;
  return acc;
}

}  // namespace ksw::pgf
