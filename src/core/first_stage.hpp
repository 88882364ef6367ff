// Exact first-stage waiting-time analysis (paper Section II, Theorem 1).
//
// For arrival PGF R(z) and service PGF U(z), the steady-state waiting time w
// of a message at a first-stage output queue has z-transform
//
//   t(z) = (1 - m*lambda)/lambda
//          * (1 - z)/(R(U(z)) - z)
//          * (1 - R(U(z)))/(1 - U(z)).
//
// FirstStage evaluates this transform three ways:
//   * moments()       — exact E(w), Var(w), and the third factorial moment,
//                       obtained by expanding t around z = 1 with exact
//                       series algebra (the paper needed Macsyma overnight
//                       for the same derivatives);
//   * distribution()  — the exact probabilities P(w = j) by power-series
//                       inversion of t around z = 0, a linear recurrence
//                       over the service PGF's ratio of polynomials;
//   * transform_at()  — t(z) at a real point, for spot checks.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/models.hpp"
#include "pgf/series.hpp"

namespace ksw::core {

/// Exact waiting-time moments at the first stage.
struct WaitingMoments {
  double mean = 0.0;        ///< E(w), eq. (2)
  double variance = 0.0;    ///< Var(w), eq. (3)
  double factorial2 = 0.0;  ///< E[w(w-1)] = t''(1)
  double factorial3 = 0.0;  ///< E[w(w-1)(w-2)] = t'''(1)

  [[nodiscard]] double second_moment() const noexcept {
    return factorial2 + mean;
  }
  /// Standardized skewness of w.
  [[nodiscard]] double skewness() const noexcept;
};

/// 1 - sum of `pmf`, accumulated in long double: the probability mass a
/// truncated distribution leaves out (served as `distribution_tail`).
[[nodiscard]] double distribution_tail(std::span<const double> pmf) noexcept;

/// Analyzer for one first-stage output queue. Requires rho < 1.
class FirstStage {
 public:
  explicit FirstStage(QueueSpec spec);

  [[nodiscard]] const QueueSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] double lambda() const noexcept { return lambda_; }
  [[nodiscard]] double mean_service() const noexcept { return m_; }
  [[nodiscard]] double rho() const noexcept { return lambda_ * m_; }

  /// Exact moments via series expansion of t(z) at z = 1.
  [[nodiscard]] WaitingMoments moments() const;

  /// Exact P(w = j) for j = 0..length-1 via series inversion at z = 0.
  /// The omitted tail mass is distribution_tail() of the returned values.
  [[nodiscard]] std::vector<double> distribution(std::size_t length) const;

  /// Exact distribution of the unfinished work s at the end of a cycle
  /// (Theorem 1's intermediate transform Psi(z) = (1-rho)(1-z)/(C(z)-z)).
  /// Unfinished work bounds buffer occupancy, so P(s > c) estimates the
  /// overflow probability of a buffer holding c cycles of backlog
  /// (Section VI future work).
  [[nodiscard]] std::vector<double> unfinished_work_distribution(
      std::size_t length) const;

  /// P(unfinished work > c) from the above, with the truncation tail
  /// counted as overflow (a conservative bound).
  [[nodiscard]] double overflow_probability(std::size_t c,
                                            std::size_t length = 4096) const;

  /// t(z) at a real z in [0, 1). Evaluated from closed form, not series.
  [[nodiscard]] double transform_at(double z) const;

  /// Waiting-time moments of the *delay* (waiting + own service):
  /// mean_delay = E(w) + m, var_delay = Var(w) + Var(service), since
  /// arrivals are independent of queue length (Section III preamble).
  [[nodiscard]] double mean_delay() const;
  [[nodiscard]] double variance_delay() const;

 private:
  QueueSpec spec_;
  double lambda_;
  double m_;
};

}  // namespace ksw::core
