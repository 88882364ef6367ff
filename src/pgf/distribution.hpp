// Exact finite-support distributions on the non-negative integers, bridging
// pmf vectors, factorial moments, and truncated series.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "pgf/moments.hpp"

namespace ksw::pgf {

/// A probability mass function on {0, 1, 2, ...} with finite support.
/// Construction validates non-negativity and normalization (to 1e-9).
class DiscreteDistribution {
 public:
  explicit DiscreteDistribution(std::vector<double> pmf);

  /// Point mass at value m.
  static DiscreteDistribution point_mass(std::uint64_t m);

  /// Convolution: distribution of the sum of two independent variates.
  [[nodiscard]] static DiscreteDistribution convolve(
      const DiscreteDistribution& a, const DiscreteDistribution& b);

  [[nodiscard]] std::span<const double> pmf() const noexcept { return p_; }
  [[nodiscard]] double pmf(std::size_t j) const noexcept {
    return j < p_.size() ? p_[j] : 0.0;
  }
  [[nodiscard]] std::size_t support_size() const noexcept { return p_.size(); }
  [[nodiscard]] double mean() const noexcept;
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] MomentTuple moments() const noexcept;

 private:
  std::vector<double> p_;
};

}  // namespace ksw::pgf
