#include "sim/network_detail.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <stdexcept>

namespace ksw::sim {

const char* to_string(FlowControl flow) noexcept {
  switch (flow) {
    case FlowControl::kCutThrough:
      return "vct";
    case FlowControl::kStoreAndForward:
      return "saf";
    case FlowControl::kCredit:
      return "credit";
  }
  return "?";
}

FlowControl parse_flow_control(const std::string& name) {
  if (name == "vct") return FlowControl::kCutThrough;
  if (name == "saf") return FlowControl::kStoreAndForward;
  if (name == "credit") return FlowControl::kCredit;
  throw std::invalid_argument("flow control: expected vct|saf|credit, got \"" +
                              name + "\"");
}

std::uint64_t port_count(unsigned k, unsigned stages) noexcept {
  if (k < 2) return stages == 0 ? 1 : k;
  std::uint64_t ports = 1;
  for (unsigned i = 0; i < stages && ports <= kMaxPorts; ++i) ports *= k;
  return ports;
}

void check(const NetworkConfig& cfg) {
  if (cfg.k < 2) throw ConfigError("k", "k must be >= 2");
  if (cfg.stages == 0) throw ConfigError("stages", "stages must be >= 1");
  const std::uint64_t ports = port_count(cfg.k, cfg.stages);
  if (ports > kMaxPorts)
    throw ConfigError("stages", "network too large (k^stages > 2^24 ports)");
  if (!(cfg.p >= 0.0 && cfg.p <= 1.0))
    throw ConfigError("p", "p outside [0,1]");
  if (!(cfg.q >= 0.0 && cfg.q <= 1.0))
    throw ConfigError("q", "q outside [0,1]");
  if (cfg.bulk == 0) throw ConfigError("bulk", "bulk == 0");
  detail::validate_cycles(cfg.warmup_cycles, cfg.measure_cycles);
  if (!(cfg.hotspot >= 0.0 && cfg.hotspot <= 1.0))
    throw ConfigError("hotspot", "hotspot outside [0,1]");
  if (cfg.hotspot_target >= ports)
    throw ConfigError("hotspot_target",
                      "hotspot_target " + std::to_string(cfg.hotspot_target) +
                          " outside [0, ports) with ports = " +
                          std::to_string(ports));
  if (cfg.track_correlations && cfg.stages > kMaxTrackedStages)
    throw ConfigError("track_correlations",
                      "correlation tracking limited to " +
                          std::to_string(kMaxTrackedStages) + " stages");
  const std::vector<unsigned>& cps = cfg.total_checkpoints;
  for (std::size_t i = 1; i < cps.size(); ++i)
    if (cps[i] <= cps[i - 1])
      throw ConfigError("total_checkpoints",
                        "total checkpoints must be strictly increasing (got " +
                            std::to_string(cps[i]) + " after " +
                            std::to_string(cps[i - 1]) + ")");
  if (!cps.empty() && (cps.front() == 0 || cps.back() > cfg.stages))
    throw ConfigError("total_checkpoints",
                      "total checkpoint outside [1, stages]");
  if (cfg.flow != FlowControl::kCutThrough && cfg.buffer_capacity == 0)
    throw ConfigError("buffer_capacity",
                      std::string("flow control \"") + to_string(cfg.flow) +
                          "\" requires a finite buffer_capacity");
  if (cfg.flow == FlowControl::kCredit &&
      (cfg.credit_latency == 0 || cfg.credit_latency > kMaxCreditLatency))
    throw ConfigError("credit_latency",
                      "credit_latency must lie in [1, " +
                          std::to_string(kMaxCreditLatency) + "]");
}

core::NetworkTrafficSpec traffic_spec(const NetworkConfig& cfg) {
  core::NetworkTrafficSpec spec;
  spec.k = cfg.k;
  spec.p = cfg.p;
  spec.bulk = cfg.bulk;
  spec.q = cfg.q;
  spec.service = cfg.service.to_model();
  return spec;
}

}  // namespace ksw::sim

namespace ksw::sim::detail {

void FlowState::init(const NetworkConfig& cfg, unsigned stages,
                     std::uint32_t ports) {
  scheme = cfg.flow;
  capacity = cfg.buffer_capacity;
  latency = cfg.credit_latency;
  if (capacity == 0 || scheme != FlowControl::kCredit) return;
  credits_.assign(static_cast<std::size_t>(stages) * ports, capacity);
  // Ring of latency + 1 buckets: a return scheduled at t for t + latency is
  // drained before cycle t + latency schedules anything new into its slot.
  pending_.assign(latency + 1, {});
}

void FlowState::begin_cycle(std::int64_t t) {
  if (pending_.empty()) return;
  auto& bucket = pending_[static_cast<std::size_t>(
      t % static_cast<std::int64_t>(pending_.size()))];
  for (const std::uint32_t q : bucket) ++credits_[q];
  bucket.clear();
}

void validate_cycles(std::int64_t warmup, std::int64_t measure) {
  if (warmup < 0)
    throw ConfigError("warmup_cycles", "warmup_cycles must be >= 0");
  if (measure <= 0)
    throw ConfigError("measure_cycles", "measure_cycles must be > 0");
  if (warmup > std::numeric_limits<std::int64_t>::max() - measure)
    throw ConfigError("warmup_cycles",
                      "warmup_cycles + measure_cycles overflows");
}

std::string stage_metric(unsigned stage, const char* what) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "sim.stage%02u.%s", stage, what);
  return buf;
}

namespace {

/// Fixed occupancy-histogram range: buckets 0,1,...,63 waiting packets;
/// deeper queues land in the overflow bucket.
constexpr std::size_t kOccupancyBuckets = 64;

}  // namespace

void ObsState::init(const NetworkConfig& cfg, unsigned n,
                    std::int64_t total_cycles, NetworkResults& out) {
  on = cfg.obs.enabled;
  tally.assign(on ? n : 0, StageTally{});
  if (on) {
    sobs.resize(n);
    for (unsigned s = 0; s < n; ++s) {
      const unsigned label = s + 1;
      sobs[s].occupancy =
          &out.metrics.histogram(stage_metric(label, "occupancy"), 0.0, 1.0,
                                 kOccupancyBuckets);
      sobs[s].peak = &out.metrics.gauge(stage_metric(label, "peak_depth"));
      sobs[s].starts =
          &out.metrics.counter(stage_metric(label, "service_starts"));
      sobs[s].idle =
          &out.metrics.counter(stage_metric(label, "idle_samples"));
      sobs[s].busy =
          &out.metrics.counter(stage_metric(label, "busy_samples"));
      sobs[s].blocked =
          &out.metrics.counter(stage_metric(label, "blocked_transfers"));
      // Credit stalls are a kCredit-only breakdown of blocked_transfers;
      // registering the counter conditionally keeps every other run's
      // report byte-identical to what it was before credits existed.
      if (cfg.flow == FlowControl::kCredit)
        sobs[s].credit_stalls =
            &out.metrics.counter(stage_metric(label, "credit_stalls"));
    }
    dropped0 = &out.metrics.counter(stage_metric(1, "dropped"));
  }

  if (on && cfg.obs.trace_points > 0 && total_cycles > 0)
    for (unsigned j = 1; j <= cfg.obs.trace_points; ++j) {
      const std::int64_t c =
          total_cycles * static_cast<std::int64_t>(j) /
          static_cast<std::int64_t>(cfg.obs.trace_points);
      if (c > 0 && (conv_grid.empty() || c > conv_grid.back()))
        conv_grid.push_back(c);
    }
  trace_on = !conv_grid.empty();
  conv_sum.assign(trace_on ? n : 0, 0.0);
  conv_cnt.assign(trace_on ? n : 0, 0);
}

void ObsState::checkpoint(std::int64_t t, NetworkResults& out) {
  if (trace_on && next_cp < conv_grid.size() && t + 1 == conv_grid[next_cp]) {
    out.convergence.cycles.push_back(t + 1);
    out.convergence.wait_sum.push_back(conv_sum);
    out.convergence.wait_count.push_back(conv_cnt);
    ++next_cp;
  }
}

void ObsState::flush(std::int64_t warmup_end, std::int64_t total_cycles,
                     NetworkResults& out) const {
  if (!on) return;
  for (std::size_t s = 0; s < tally.size(); ++s) {
    sobs[s].starts->inc(tally[s].starts);
    sobs[s].idle->inc(tally[s].idle);
    sobs[s].busy->inc(tally[s].busy);
    sobs[s].blocked->inc(tally[s].blocked);
    if (sobs[s].credit_stalls != nullptr)
      sobs[s].credit_stalls->inc(tally[s].credit_stalls);
    sobs[s].peak->record_max(static_cast<double>(tally[s].peak));
  }
  // Drops only ever happen at first-stage injection, so the per-stage
  // counter equals the run total.
  dropped0->inc(out.packets_dropped);
  out.metrics.counter("sim.cycles.warmup")
      .inc(static_cast<std::uint64_t>(warmup_end));
  out.metrics.counter("sim.cycles.measure")
      .inc(static_cast<std::uint64_t>(total_cycles - warmup_end));
  out.metrics.counter("sim.replicates").inc(1);
  out.metrics.counter("sim.packets.injected").inc(out.packets_injected);
  out.metrics.counter("sim.packets.delivered").inc(out.packets_delivered);
  out.metrics.counter("sim.packets.dropped").inc(out.packets_dropped);
}

}  // namespace ksw::sim::detail
