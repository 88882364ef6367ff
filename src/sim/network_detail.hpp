// Internals shared by the two network-simulation engines.
//
// run_network (flat SoA pool + active-set scheduler) and
// run_network_reference (the seed full-sweep engine kept as a correctness
// oracle) must agree bit-for-bit on every output, including telemetry.
// Everything that is not the cycle loop itself — metric naming, per-stage
// telemetry scaffolding, the warmup-convergence grid — lives here so the
// engines cannot drift apart. Both start with sim::check (network.hpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/network.hpp"
#include "simd/inject.hpp"

namespace ksw::sim::detail {

/// Reject warmup < 0, measure <= 0 and a warmup + measure that overflows
/// with a ConfigError. Shared by check() and run_first_stage.
void validate_cycles(std::int64_t warmup, std::int64_t measure);

/// Build the counter-mode injection parameters for a replicate. Shared by
/// both engines so the thresholds (and therefore the sampled bits) cannot
/// drift between them. The tiny-probability edge is intentional: a rate
/// below 2^-33 rounds to threshold 0, which both paths treat as "never".
[[nodiscard]] inline simd::InjectParams make_inject_params(
    const NetworkConfig& cfg, std::uint32_t ports) {
  simd::InjectParams prm;
  prm.key = rng::philox_key(cfg.seed);
  prm.thr_arrival = rng::bernoulli_threshold(cfg.p);
  prm.thr_hotspot =
      cfg.hotspot > 0.0 ? rng::bernoulli_threshold(cfg.hotspot) : 0;
  prm.thr_favorite = cfg.q > 0.0 ? rng::bernoulli_threshold(cfg.q) : 0;
  prm.hotspot_target = cfg.hotspot_target;
  prm.ports = ports;
  return prm;
}

/// "sim.stageNN.<what>" — stages are 1-based and zero-padded so the
/// registry's name order matches stage order.
std::string stage_metric(unsigned stage, const char* what);

/// Flow-control bookkeeping shared verbatim by both engines, so the
/// admission rule, the downstream arrival stamp, and the credit ledger
/// cannot drift between them. All methods are no-ops for infinite queues;
/// credit state is only allocated under FlowControl::kCredit.
///
/// Credit ledger: one counter per queue, initialized to buffer_capacity.
/// A forward into queue q consumes credits_[q]; a service start at q
/// (stage >= 1 — first-stage queues are filled by injection, which uses
/// occupancy directly) schedules a +1 for cycle t + credit_latency. The
/// returns ride a small ring of per-cycle buckets drained by begin_cycle.
struct FlowState {
  FlowControl scheme = FlowControl::kCutThrough;
  unsigned capacity = 0;  ///< 0 = infinite (every check passes)
  unsigned latency = 0;

  void init(const NetworkConfig& cfg, unsigned stages, std::uint32_t ports);

  /// Apply credit returns scheduled for cycle t. Call first thing each
  /// cycle, before injection and service.
  void begin_cycle(std::int64_t t);

  /// May a packet be forwarded into queue next_q, whose current occupancy
  /// (in-flight packets included) is next_size? Call only when finite.
  [[nodiscard]] bool admit(std::size_t next_q, std::size_t next_size) const {
    if (scheme == FlowControl::kCredit) return credits_[next_q] > 0;
    return next_size < capacity;
  }

  /// Account a forward into next_q (after admit() said yes).
  void on_forward(std::size_t next_q) {
    if (!credits_.empty()) --credits_[next_q];
  }

  /// Account a service start (dequeue) at queue q of the given stage:
  /// under kCredit this schedules the credit return.
  void on_service_start(unsigned stage, std::size_t q, std::int64_t t) {
    if (credits_.empty() || stage == 0) return;
    auto& bucket =
        pending_[static_cast<std::size_t>((t + latency) %
                                          static_cast<std::int64_t>(
                                              pending_.size()))];
    bucket.push_back(static_cast<std::uint32_t>(q));
  }

  /// Cycle at which a packet forwarded at t becomes eligible downstream.
  [[nodiscard]] std::int64_t arrival_stamp(std::int64_t t,
                                           std::uint32_t service) const {
    return scheme == FlowControl::kStoreAndForward
               ? t + static_cast<std::int64_t>(service)
               : t + 1;
  }

 private:
  std::vector<std::uint32_t> credits_;
  std::vector<std::vector<std::uint32_t>> pending_;
};

/// Cached per-stage metric handles so the hot loop never touches the
/// registry's map.
struct StageObs {
  obs::Histogram* occupancy = nullptr;
  obs::Gauge* peak = nullptr;
  obs::Counter* starts = nullptr;
  obs::Counter* idle = nullptr;
  obs::Counter* busy = nullptr;
  obs::Counter* blocked = nullptr;
  obs::Counter* credit_stalls = nullptr;  ///< kCredit runs only
};

/// Per-stage event tallies kept in plain (non-atomic) locals during the
/// cycle loop — the replicate is single-threaded, so deferring the atomic
/// registry updates to one flush after the run keeps the per-event cost to
/// an ordinary increment. Flushed into StageObs by ObsState::flush.
struct StageTally {
  std::uint64_t starts = 0;
  std::uint64_t idle = 0;
  std::uint64_t busy = 0;
  std::uint64_t blocked = 0;
  std::uint64_t credit_stalls = 0;
  std::size_t peak = 0;
};

/// All per-run telemetry state: metric handles, event tallies, and the
/// warmup-convergence trace. Dead weight (empty vectors, false flags) when
/// telemetry is off.
struct ObsState {
  bool on = false;
  std::vector<StageObs> sobs;
  std::vector<StageTally> tally;
  obs::Counter* dropped0 = nullptr;

  /// Warmup-convergence trace: cumulative per-stage wait sums (warmup
  /// included) snapshotted on an even grid over the whole run.
  bool trace_on = false;
  std::vector<std::int64_t> conv_grid;
  std::vector<double> conv_sum;
  std::vector<std::uint64_t> conv_cnt;
  std::size_t next_cp = 0;

  /// Register metric handles in out.metrics and build the trace grid.
  void init(const NetworkConfig& cfg, unsigned n, std::int64_t total_cycles,
            NetworkResults& out);

  /// Record a convergence checkpoint if cycle `t` completes one.
  void checkpoint(std::int64_t t, NetworkResults& out);

  /// Flush tallies and run counters into out.metrics after the cycle loop.
  void flush(std::int64_t warmup_end, std::int64_t total_cycles,
             NetworkResults& out) const;
};

}  // namespace ksw::sim::detail
