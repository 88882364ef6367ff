// Cycle-accurate simulation of ONE k-input, s-output buffered switch —
// the queueing system analyzed exactly in Section II. Used to validate
// Theorem 1 (moments and full distribution) for every traffic class:
// uniform, bulk, nonuniform, and all service distributions.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/service_spec.hpp"
#include "stats/histogram.hpp"
#include "stats/moment_tally.hpp"

namespace ksw::sim {

/// Configuration of the single-switch experiment.
struct FirstStageConfig {
  unsigned k = 2;  ///< input ports
  unsigned s = 2;  ///< output ports (= queues)
  double p = 0.5;  ///< per-input batch probability per cycle
  unsigned bulk = 1;
  /// Favorite-output probability: input i sends to output i mod s with
  /// probability q, uniformly otherwise (paper III-A-3, meaningful when
  /// k == s).
  double q = 0.0;
  /// Hot-spot extension, mirroring NetworkConfig: with this probability a
  /// batch targets `hotspot_target` regardless of q. hotspot_target must
  /// name a valid output (< s) on every construction path; the check runs
  /// even when hotspot == 0, like sim::check's network rule.
  double hotspot = 0.0;
  std::uint32_t hotspot_target = 0;
  ServiceSpec service = ServiceSpec::deterministic(1);
  std::int64_t warmup_cycles = 5'000;
  std::int64_t measure_cycles = 100'000;
  std::uint64_t seed = 1;  ///< Philox key seed (see NetworkConfig::seed)
};

/// Waiting-time statistics aggregated over all output queues.
struct FirstStageResults {
  stats::MomentTally waiting;      ///< per-message waiting time
  stats::IntHistogram histogram;   ///< waiting-time tally
  stats::MomentTally queue_depth;  ///< sampled queue length (Little check)
  std::uint64_t messages = 0;

  void merge(const FirstStageResults& other);
};

/// Run the single-switch simulation.
[[nodiscard]] FirstStageResults run_first_stage(const FirstStageConfig& cfg);

}  // namespace ksw::sim
