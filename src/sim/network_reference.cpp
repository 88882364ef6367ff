// Reference network engine: the original array-of-structs cycle loop with
// full port sweeps, kept as a correctness oracle for the optimized engine
// in network.cpp. Every output — statistics, histograms, covariances, and
// telemetry — must be bit-identical between the two for any config; the
// equivalence test suite (tests/sim/engine_equivalence_test.cpp) enforces
// this. Keep this implementation boring: clarity over speed.
#include <algorithm>
#include <array>
#include <vector>

#include "obs/metrics.hpp"
#include "rng/philox.hpp"
#include "sim/network.hpp"
#include "sim/network_detail.hpp"
#include "sim/ring_queue.hpp"
#include "sim/topology.hpp"
#include "simd/inject.hpp"

namespace ksw::sim {

namespace {

/// Full packet state, stage-waits array included, copied on every hop.
struct Packet {
  std::uint32_t dst = 0;
  std::uint32_t service = 1;
  std::int64_t arrival = 0;  // cycle available at the current queue
  std::int64_t born = 0;     // injection cycle (measurement gating)
  std::int32_t total_wait = 0;
  std::array<std::int32_t, kMaxTrackedStages> stage_waits{};
};

}  // namespace

NetworkResults run_network_reference(const NetworkConfig& cfg) {
  check(cfg);
  const Topology topo(cfg.topology, cfg.k, cfg.stages);
  const std::uint32_t ports = topo.ports();
  const unsigned n = cfg.stages;

  // Injections evaluate the scalar oracle port by port — the very
  // definition the optimized engine's batched kernel must match.
  const simd::InjectParams inj = detail::make_inject_params(cfg, ports);

  // queues[s][a]: the output queue at butterfly node (stage s, address a).
  std::vector<std::vector<RingQueue<Packet>>> queues(
      n, std::vector<RingQueue<Packet>>(ports));
  std::vector<std::vector<std::int64_t>> busy_until(
      n, std::vector<std::int64_t>(ports, 0));

  // Checkpoint lookup: after completing c stages, record into
  // total_wait[checkpoint_of[c]].
  std::vector<int> checkpoint_of(n + 1, -1);
  for (std::size_t i = 0; i < cfg.total_checkpoints.size(); ++i)
    checkpoint_of[cfg.total_checkpoints[i]] = static_cast<int>(i);

  NetworkResults out;
  out.stage_wait.resize(n);
  out.stage_depth.resize(n);
  if (cfg.track_stage_histograms) out.stage_hist.resize(n);
  out.total_wait.resize(cfg.total_checkpoints.size());
  if (cfg.track_correlations) out.stage_covariance.emplace(n);

  std::vector<double> corr_scratch(n, 0.0);
  const std::int64_t total_cycles = cfg.warmup_cycles + cfg.measure_cycles;
  constexpr std::int64_t kDepthSampleStride = 64;
  const bool finite = cfg.buffer_capacity > 0;
  detail::FlowState flow;
  flow.init(cfg, n, ports);
  const bool credit_mode = finite && cfg.flow == FlowControl::kCredit;
  const auto qid = [ports](unsigned s, std::uint32_t a) {
    return static_cast<std::size_t>(s) * ports + a;
  };

  detail::ObsState ob;
  ob.init(cfg, n, total_cycles, out);
  const bool obs_on = ob.on;

  // One simulated cycle; called with strictly increasing t.
  const auto step = [&](const std::int64_t t) {
    flow.begin_cycle(t);

    // --- Injection at the first stage ------------------------------------
    for (std::uint32_t src = 0; src < ports; ++src) {
      const std::uint32_t dst = simd::inject_one(inj, t, src);
      if (dst == simd::kNoArrival) continue;
      rng::LaneSeq svc(inj.key, t, src, rng::Site::kService);
      const std::uint32_t addr0 = topo.entry_queue(src, dst);
      for (unsigned b = 0; b < cfg.bulk; ++b) {
        if (finite && queues[0][addr0].size() >= cfg.buffer_capacity) {
          if (t >= cfg.warmup_cycles) ++out.packets_dropped;
          continue;
        }
        Packet pkt;
        pkt.dst = dst;
        pkt.service = cfg.service.sample(svc);
        pkt.arrival = t;
        pkt.born = t;
        queues[0][addr0].push(pkt);
        if (obs_on)
          ob.tally[0].peak =
              std::max(ob.tally[0].peak, queues[0][addr0].size());
        if (t >= cfg.warmup_cycles) ++out.packets_injected;
      }
    }

    // --- Service, stage by stage -----------------------------------------
    for (unsigned s = 0; s < n; ++s) {
      auto& stage_queues = queues[s];
      auto& stage_busy = busy_until[s];
      for (std::uint32_t a = 0; a < ports; ++a) {
        if (stage_busy[a] > t) continue;
        auto& queue = stage_queues[a];
        if (queue.empty()) continue;
        Packet& head = queue.front();
        if (head.arrival > t) continue;  // delivered later this cycle

        std::uint32_t next_addr = 0;
        if (s + 1 < n) {
          next_addr = topo.next_queue(s, a, head.dst);
          // Finite buffers: block upstream service when the flow-control
          // scheme denies the transfer (full downstream queue, or no
          // credit under kCredit).
          if (finite && !flow.admit(qid(s + 1, next_addr),
                                    queues[s + 1][next_addr].size())) {
            if (obs_on && t >= cfg.warmup_cycles) {
              ++ob.tally[s].blocked;
              if (credit_mode) ++ob.tally[s].credit_stalls;
            }
            continue;
          }
        }

        const std::int64_t w = t - head.arrival;
        if (ob.trace_on) {
          ob.conv_sum[s] += static_cast<double>(w);
          ++ob.conv_cnt[s];
        }
        if (obs_on && t >= cfg.warmup_cycles) ++ob.tally[s].starts;
        const bool measured = head.born >= cfg.warmup_cycles;
        if (measured) {
          out.stage_wait[s].add(w);
          if (cfg.track_stage_histograms) out.stage_hist[s].add(w);
          head.total_wait += static_cast<std::int32_t>(w);
          if (cfg.track_correlations)
            head.stage_waits[s] = static_cast<std::int32_t>(w);
          const int cp = checkpoint_of[s + 1];
          if (cp >= 0) out.total_wait[static_cast<std::size_t>(cp)].add(
              head.total_wait);
        }

        stage_busy[a] = t + head.service;
        if (finite) flow.on_service_start(s, qid(s, a), t);
        if (s + 1 < n) {
          Packet moved = head;
          moved.arrival = flow.arrival_stamp(t, head.service);
          queue.pop();
          if (finite) flow.on_forward(qid(s + 1, next_addr));
          queues[s + 1][next_addr].push(moved);
          if (obs_on)
            ob.tally[s + 1].peak = std::max(
                ob.tally[s + 1].peak, queues[s + 1][next_addr].size());
        } else {
          if (measured) {
            ++out.packets_delivered;
            if (cfg.track_correlations) {
              for (unsigned i = 0; i < n; ++i)
                corr_scratch[i] = static_cast<double>(head.stage_waits[i]);
              out.stage_covariance->add(corr_scratch);
            }
          }
          queue.pop();
        }
      }
    }

    // --- Occupancy sampling ----------------------------------------------
    if (t >= cfg.warmup_cycles && t % kDepthSampleStride == 0)
      for (unsigned s = 0; s < n; ++s)
        for (std::uint32_t a = 0; a < ports; ++a) {
          // Exclude packets still in flight on the inter-stage link
          // (cut-through arrivals stamped t + 1); they sit at the tail.
          const auto& queue = queues[s][a];
          std::size_t present = queue.size();
          while (present > 0 && queue.at(present - 1).arrival > t) --present;
          out.stage_depth[s].add(static_cast<std::int64_t>(present));
        }

    // --- Telemetry sampling (occupancy histograms, server utilization) ---
    if (obs_on && cfg.obs.stride != 0 && t >= cfg.warmup_cycles &&
        t % static_cast<std::int64_t>(cfg.obs.stride) == 0)
      for (unsigned s = 0; s < n; ++s) {
        detail::StageObs& so = ob.sobs[s];
        for (std::uint32_t a = 0; a < ports; ++a) {
          const auto& queue = queues[s][a];
          std::size_t present = queue.size();
          while (present > 0 && queue.at(present - 1).arrival > t) --present;
          so.occupancy->record(static_cast<double>(present));
          if (busy_until[s][a] > t)
            ++ob.tally[s].busy;
          else
            ++ob.tally[s].idle;
        }
      }

    // --- Convergence checkpoint ------------------------------------------
    ob.checkpoint(t, out);
  };

  // --- Phased main loop: warmup then measurement, each timed -------------
  const std::int64_t warmup_end =
      std::clamp<std::int64_t>(cfg.warmup_cycles, 0, total_cycles);
  {
    obs::ScopedTimer timer(
        obs_on ? &out.metrics.timer("sim.phase.warmup") : nullptr);
    for (std::int64_t t = 0; t < warmup_end; ++t) step(t);
  }
  {
    obs::ScopedTimer timer(
        obs_on ? &out.metrics.timer("sim.phase.measure") : nullptr);
    for (std::int64_t t = warmup_end; t < total_cycles; ++t) step(t);
  }

  ob.flush(warmup_end, total_cycles, out);
  return out;
}

}  // namespace ksw::sim
