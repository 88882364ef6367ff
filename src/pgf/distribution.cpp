#include "pgf/distribution.hpp"

#include <cmath>
#include <numeric>
#include <stdexcept>

namespace ksw::pgf {

DiscreteDistribution::DiscreteDistribution(std::vector<double> pmf)
    : p_(std::move(pmf)) {
  if (p_.empty())
    throw std::invalid_argument("DiscreteDistribution: empty pmf");
  double sum = 0.0;
  for (double x : p_) {
    if (x < -1e-12)
      throw std::invalid_argument(
          "DiscreteDistribution: negative probability");
    sum += x;
  }
  if (std::abs(sum - 1.0) > 1e-9)
    throw std::invalid_argument(
        "DiscreteDistribution: probabilities do not sum to 1");
  // Trim trailing zeros, keeping at least the constant term.
  while (p_.size() > 1 && p_.back() == 0.0) p_.pop_back();
}

DiscreteDistribution DiscreteDistribution::point_mass(std::uint64_t m) {
  std::vector<double> pmf(m + 1, 0.0);
  pmf[m] = 1.0;
  return DiscreteDistribution(std::move(pmf));
}

DiscreteDistribution DiscreteDistribution::convolve(
    const DiscreteDistribution& a, const DiscreteDistribution& b) {
  std::vector<double> out(a.p_.size() + b.p_.size() - 1, 0.0);
  for (std::size_t i = 0; i < a.p_.size(); ++i) {
    if (a.p_[i] == 0.0) continue;
    for (std::size_t j = 0; j < b.p_.size(); ++j)
      out[i + j] += a.p_[i] * b.p_[j];
  }
  return DiscreteDistribution(std::move(out));
}

double DiscreteDistribution::mean() const noexcept {
  double s = 0.0;
  for (std::size_t j = 0; j < p_.size(); ++j)
    s += static_cast<double>(j) * p_[j];
  return s;
}

double DiscreteDistribution::variance() const noexcept {
  const double mu = mean();
  double s = 0.0;
  for (std::size_t j = 0; j < p_.size(); ++j) {
    const double d = static_cast<double>(j) - mu;
    s += d * d * p_[j];
  }
  return s;
}

MomentTuple DiscreteDistribution::moments() const noexcept {
  return MomentTuple::from_pmf(p_);
}

}  // namespace ksw::pgf
