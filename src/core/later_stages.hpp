// Later-stage waiting-time approximations (paper Section IV).
//
// The inputs to an interior stage are outputs of earlier queues, so they are
// not independent across cycles and no exact analysis is known. The paper's
// approach, reproduced here:
//
//   * The stage-i statistics converge geometrically (rate a = 2/5) to a
//     spatial steady state (w_inf, v_inf).
//   * The limit is a low-order polynomial in rho — calibrated once against
//     simulation — times an exact first-stage quantity:
//       w_inf = (1 + (4/5) rho/k) w1                              (eq. 11)
//       w_i   = (1 + (4/5)(rho/k)(1 - a^{i-1})) w1                (eq. 12)
//       v_inf = (1 + rho/k + rho^2/k) v1                          (eq. 13)
//       v_i   = (1 + (rho/k + rho^2/k)(1 - a^{i-1})) v1           (eq. 14)
//   * Messages of constant size m >= 2 leave earlier queues spaced by m
//     cycles, so interior stages behave like unit-service queues on a
//     cycle m times longer:
//       w_inf(m) = m (1 + (4/5) rho/k) (1-1/k) rho / (2(1-rho))   (eq. 15)
//       v_inf(m) = m^2 (1 + c rho/k) v1_unit(rho)                 (eq. 16)
//   * Multiple sizes: the mean-size formula, corrected by the exactly
//     known first-stage ratio (Section IV-C).
//   * Nonuniform traffic: a linear function of q times the exact
//     first-stage value (Section IV-D).
//
// Every constant is exposed in LaterStageOptions; defaults reproduce the
// paper's ESTIMATE rows (see DESIGN.md section 2 for the constants whose
// printed values are illegible in the source scan and were reconstructed).
#pragma once

#include <memory>

#include "core/first_stage.hpp"
#include "core/models.hpp"

namespace ksw::core {

/// Uniform-or-favorite traffic through an n-stage network of k x k switches.
struct NetworkTrafficSpec {
  unsigned k = 2;       ///< switch degree (k inputs, k outputs)
  double p = 0.5;       ///< per-input batch-arrival probability per cycle
  unsigned bulk = 1;    ///< messages per first-stage batch
  double q = 0.0;       ///< favorite-destination probability (0 = uniform)
  std::shared_ptr<const ServiceModel> service;  ///< defaults to unit service

  /// Arrival rate per first-stage queue: lambda = p * bulk (independent of
  /// q by symmetry).
  [[nodiscard]] double lambda() const;
  /// Traffic intensity rho = lambda * mean service time; must be < 1.
  [[nodiscard]] double rho() const;
  [[nodiscard]] double mean_service() const;
  /// The first-stage queue model implied by this spec.
  [[nodiscard]] QueueSpec first_stage_queue() const;
};

/// Interpolation constants of Section IV. Defaults are the paper's values
/// (reconstructed where the scan is illegible; see DESIGN.md).
struct LaterStageOptions {
  double mean_coeff = 0.8;        ///< eq. 11: w_inf/w1 = 1 + mean_coeff*rho/k
  double stage_rate = 0.4;        ///< a in eqs. 12/14 (geometric approach)
  double var_lin = 1.0;   ///< eq. 13: coefficient of rho/k
  double var_quad = 1.0;  ///< eq. 13: coefficient of rho^2/k
  /// eq. 16: v_inf(m>=2) = m^2 (var_m_base + var_m_slope*rho) v1_unit(rho).
  /// The paper derives 2/3 as the exact light-traffic M/D/1 ratio
  /// (interior arrivals are thinned by (1-1/k) and smoothed) but states
  /// "7/10 works better ... for small and moderate message sizes"; with
  /// base 7/10 the slope 14/15 keeps the factor at 7/6 for rho = 0.5,
  /// reproducing both the Table III ESTIMATE row and the printed Table
  /// VIII prediction column (12.64 at rho = 0.2, m = 4, n = 12).
  double var_m_base = 0.7;
  double var_m_slope = 14.0 / 15.0;
  /// Section IV-D: w_inf(q) = (1 + mean_coeff*rho/k)(1 + nonuni_mean_slope*q)
  /// * w1_exact(q). Calibrated against this repo's simulator at rho = 0.5,
  /// k = 2 (the paper's own fitting procedure; its printed coefficients are
  /// illegible). The book's favorite-output-stages section gates it against
  /// the simulator; core::fit_linear_slope re-fits it for other regimes.
  double nonuni_mean_slope = -0.15;
  double nonuni_var_slope = -0.27;  ///< same shape for the variance
};

/// Approximate waiting-time statistics at each stage of the network.
class LaterStages {
 public:
  explicit LaterStages(NetworkTrafficSpec spec, LaterStageOptions opts = {});

  [[nodiscard]] const NetworkTrafficSpec& spec() const noexcept {
    return spec_;
  }
  [[nodiscard]] const LaterStageOptions& options() const noexcept {
    return opts_;
  }

  /// Exact first-stage statistics (Theorem 1).
  [[nodiscard]] double mean_first_stage() const { return w1_; }
  [[nodiscard]] double variance_first_stage() const { return v1_; }

  /// Limiting (spatial steady state) statistics, eqs. 11/13/15/16.
  [[nodiscard]] double mean_limit() const;
  [[nodiscard]] double variance_limit() const;

  /// Statistics at stage i (1-based). Stage 1 is exact; unit-service
  /// uniform traffic interpolates geometrically (eqs. 12/14); all other
  /// traffic uses the limit for every stage after the first, as the paper
  /// recommends for m >= 2.
  [[nodiscard]] double mean_at_stage(unsigned i) const;
  [[nodiscard]] double variance_at_stage(unsigned i) const;

 private:
  [[nodiscard]] bool unit_uniform() const noexcept;
  [[nodiscard]] double unit_mean(double rho) const;      // eq. 6 at rho
  [[nodiscard]] double unit_variance(double rho) const;  // eq. 7 at rho

  NetworkTrafficSpec spec_;
  LaterStageOptions opts_;
  double rho_;
  double m_;   // mean service
  double w1_;  // exact first-stage mean
  double v1_;  // exact first-stage variance
};

}  // namespace ksw::core
