// Sampling-side description of the message service-time distribution,
// bridging to the analytic core::ServiceModel.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/models.hpp"
#include "rng/philox.hpp"

namespace ksw::sim {

/// Service-time distribution the simulator can sample from. Mirrors the
/// three ServiceModel families of the analysis (deterministic, multi-size,
/// geometric).
class ServiceSpec {
 public:
  /// Constant m cycles per message.
  static ServiceSpec deterministic(std::uint32_t m);

  /// Mixture of constant sizes; probabilities must sum to 1.
  static ServiceSpec multi_size(
      std::vector<core::MultiSizeService::Size> sizes);

  /// Geometric on {1,2,...} with success probability mu.
  static ServiceSpec geometric(double mu);

  /// Parse the textual spec syntax shared by the CLI and sweep manifests:
  /// "det:M", "geo:MU", or "multi:M1@P1,M2@P2,...". Throws
  /// std::invalid_argument on syntax or validation errors.
  static ServiceSpec parse(const std::string& text);

  /// Sample one service time from a counter-mode lane sequence. The
  /// deterministic family draws nothing — the sequence only advances for
  /// distributions that need randomness. Both engines share this code, so
  /// service times are bit-identical between them by construction.
  [[nodiscard]] std::uint32_t sample(rng::LaneSeq& seq) const;

  [[nodiscard]] double mean() const;

  /// Equivalent analytic model (for feeding FirstStage / LaterStages).
  [[nodiscard]] std::shared_ptr<const core::ServiceModel> to_model() const;

  /// True when every message takes exactly one cycle.
  [[nodiscard]] bool is_unit() const noexcept;

 private:
  enum class Kind { kDeterministic, kMultiSize, kGeometric };

  ServiceSpec(Kind kind) : kind_(kind) {}

  Kind kind_;
  std::uint32_t m_ = 1;     // deterministic
  double mu_ = 1.0;         // geometric
  std::vector<core::MultiSizeService::Size> sizes_;  // multi-size
  std::vector<double> cumulative_;                   // sampling CDF
};

}  // namespace ksw::sim
