// Production network engine: one cycle loop over a flat structure-of-arrays
// queue pool with active-set scheduling, instantiated per run from
// compile-time policies. Produces bit-identical results (statistics,
// histograms, covariances, telemetry) to the seed engine kept in
// network_reference.cpp; tests/sim/engine_equivalence_test.cpp enforces
// the equivalence.
//
// Policies, chosen once per run from the config (run_network below), so a
// disabled feature costs no branch in the hot loop:
//   * Service — unit (no service lane is drawn, no port is ever busy) or
//     sampled (per-packet service times, busy set + expiry wheel).
//   * Buffering — infinite, or finite with detail::FlowState admission
//     (vct / saf / credit).
//   * Instruments — none, or on: telemetry, stage histograms and the
//     correlation side table, each still gated by its own config flag.
//   * Packet — CompactPacket (16 bytes, 32-bit stamps) when there is no
//     service time or correlation row to carry and the run fits 32-bit
//     stamps; WidePacket otherwise.
//
// Layout decisions, in order of measured impact:
//   * Packets are 16 or 32 bytes: the 16-entry stage_waits array the seed
//     engine copied on every hop lives in a side table (CorrTable) that
//     exists only when cfg.track_correlations is set; packets carry an
//     index into it.
//   * All stages x ports queues live in one QueuePool — flat metadata
//     arrays indexed by stage * ports + port, element storage carved from
//     a shared arena (see queue_pool.hpp).
//   * Each stage keeps an ActiveSet (occupied/busy bitmaps; sampled runs
//     add a busy-expiry timing wheel, TimedActiveSet), so the per-cycle
//     service scan touches only occupied, non-busy ports instead of
//     sweeping the whole topology. Bits are walked in ascending port
//     order — the exact order of the seed engine's full sweep, which is
//     what makes bit-identity possible.
//   * Infinite-buffer runs walk the stages downstream-first (n-1 down to
//     0), so a packet forwarded into an empty queue is not visited again
//     in the cycle it was forwarded; finite buffers keep the reference's
//     upstream-first walk, which their admission reads. The one figure
//     the order moves, the downstream peak read at push time, is
//     corrected by a per-queue last-start cycle (see kDownstreamFirst).
//   * Each stage's walk is a chunked two-pass sweep over the materialized
//     candidate list. Pass A reads each head (ring slots prefetched
//     kLookahead queues ahead), computes its wait and route, and builds
//     the re-stamped outgoing packet. Pass B, while those lines are still
//     resident, makes every decision that reads state an earlier candidate
//     of the same stage-cycle may have written — downstream admission and
//     credits, the double-valued convergence and covariance sums,
//     correlation rows, busy marks — in ascending port order, then pops
//     and pushes. Pass A only reads stage-s heads, which no pass-B write
//     touches (pops are of already-visited ports, pushes go to stage s+1),
//     so the split is order-equivalent to the seed engine's interleaved
//     visit.
#include "sim/network.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "obs/metrics.hpp"
#include "rng/philox.hpp"
#include "sim/active_set.hpp"
#include "sim/network_detail.hpp"
#include "sim/queue_pool.hpp"
#include "sim/topology.hpp"
#include "simd/inject.hpp"

namespace ksw::sim {

namespace {

/// Unit-service packet without a correlation row: 16 bytes cover
/// everything a hop needs, so a fresh queue's whole ring (4 slots) is a
/// single cache line. Cycle stamps are 32-bit; run_network only selects it
/// when the run length fits.
struct CompactPacket {
  static constexpr bool kWide = false;
  std::uint32_t arrival = 0;  // cycle available at the current queue
  std::uint32_t born = 0;     // injection cycle (measurement gating)
  std::uint32_t dst = 0;
  std::int32_t total_wait = 0;
};
static_assert(sizeof(CompactPacket) == 16,
              "CompactPacket must stay a quarter cache line");

/// Every other run: 64-bit stamps, the sampled service time, and the
/// CorrTable row.
struct WidePacket {
  static constexpr bool kWide = true;
  std::int64_t arrival = 0;  // cycle available at the current queue
  std::int64_t born = 0;     // injection cycle (measurement gating)
  std::uint32_t dst = 0;
  std::uint32_t service = 1;
  std::int32_t total_wait = 0;
  std::uint32_t corr = 0;  // CorrTable row (track_correlations only)
};
static_assert(sizeof(WidePacket) <= 32, "WidePacket must stay hot-loop sized");

/// Side table of per-stage waits for in-flight packets, allocated only in
/// correlation-tracking runs. Rows are recycled through a free list; a row
/// is live from injection to delivery.
class CorrTable {
 public:
  explicit CorrTable(unsigned stages) : stages_(stages) {}

  std::uint32_t allocate() {
    if (free_.empty()) {
      const std::uint32_t r = rows_++;
      pool_.resize(static_cast<std::size_t>(rows_) * stages_, 0);
      return r;
    }
    const std::uint32_t r = free_.back();
    free_.pop_back();
    std::fill_n(row(r), stages_, 0);
    return r;
  }

  void release(std::uint32_t r) { free_.push_back(r); }

  /// Pointer valid until the next allocate().
  [[nodiscard]] std::int32_t* row(std::uint32_t r) noexcept {
    return pool_.data() + static_cast<std::size_t>(r) * stages_;
  }

 private:
  unsigned stages_;
  std::uint32_t rows_ = 0;
  std::vector<std::int32_t> pool_;
  std::vector<std::uint32_t> free_;
};

/// The cycle engine. kSampled / kFinite / kInstr are the service,
/// buffering and instrument policies of the file comment; Pkt is the
/// packet policy.
template <typename Pkt, bool kSampled, bool kFinite, bool kInstr>
NetworkResults run_engine(const NetworkConfig& cfg, const Topology& topo) {
  static_assert(Pkt::kWide || !kSampled,
                "CompactPacket carries no service time");
  using Stamp = decltype(Pkt::arrival);
  const std::uint32_t ports = topo.ports();
  const unsigned n = cfg.stages;
  // Per-cycle injections are decided for every port at once by the batched
  // Philox kernel — draws are addressed by (cycle, port, site), so the
  // batch is bit-identical to the reference engine's port-at-a-time
  // evaluation.
  const simd::InjectParams inj = detail::make_inject_params(cfg, ports);

  // Queue id for (stage s, address a) is s * ports + a: one flat index into
  // the pool and every per-queue side array. Finite-buffer runs freeze the
  // pool at the buffer depth: admission bounds occupancy, so the rings
  // never grow.
  QueuePool<Pkt> pool(static_cast<std::size_t>(n) * ports,
                      kFinite ? cfg.buffer_capacity : 4, kFinite);
  // Only sampled service can hold a port busy past the cycle it starts
  // in, so only sampled runs carry (and allocate) the expiry wheel.
  using Sched = std::conditional_t<kSampled, TimedActiveSet, ActiveSet>;
  std::vector<Sched> active(n, Sched(ports));

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

  const std::int64_t total_cycles = cfg.warmup_cycles + cfg.measure_cycles;
  const auto warmup = static_cast<Stamp>(cfg.warmup_cycles);
  constexpr std::int64_t kDepthSampleStride = 64;
  detail::FlowState flow;
  flow.init(cfg, n, ports);
  const bool credit_mode = kFinite && cfg.flow == FlowControl::kCredit;

  detail::ObsState ob;
  ob.init(cfg, n, total_cycles, out);
  const bool obs_on = kInstr && ob.on;
  const bool hist_on = kInstr && cfg.track_stage_histograms;
  const bool corr_on = kInstr && Pkt::kWide && cfg.track_correlations;
  CorrTable corr(corr_on ? n : 1);
  std::vector<double> corr_scratch(corr_on ? n : 0, 0.0);
  // Utilization sampling needs per-port service end times; the scheduler
  // itself only tracks multi-cycle services (on the expiry wheels), so keep
  // the flat busy_until array only when the samples are taken.
  const bool sample_busy = obs_on && cfg.obs.stride != 0;
  std::vector<std::int64_t> busy_until(
      sample_busy ? static_cast<std::size_t>(n) * ports : 0, 0);

  // Walk order. With infinite buffers nothing stage s+1 reads in cycle t is
  // written by stage s in cycle t (a forwarded packet is stamped after t
  // and joins the tail), so the stages are walked n-1 down to 0 and a
  // packet forwarded into an empty queue is not visited again this cycle.
  // Finite buffers walk 0 up to n-1: admission reads the downstream
  // occupancy before that stage serves, the order run_network_reference
  // defines.
  constexpr bool kDownstreamFirst = !kFinite;
  // The downstream peak read at push time is the upstream-first walk's:
  // it counts the head that stage s+1 already popped this cycle. last_start
  // is the cycle each queue last started a service, kept only when the
  // peak is.
  std::vector<std::int64_t> last_start(
      kDownstreamFirst && obs_on ? static_cast<std::size_t>(n) * ports : 0,
      -1);

  // Swept on the bench workload (k=4, 6 stages, rho=0.8): lookahead 4
  // beat 2/8/16, block 64 beat 16/32/128, and prefetching the downstream
  // tail slot was a net loss (the write misses overlap fine on their own).
  constexpr std::size_t kLookahead = 4;
  constexpr std::size_t kBlock = 64;
  struct Move {
    Pkt pkt;                      // re-stamped for stage s+1
    std::uint32_t addr = 0;       // port within stage s
    std::uint32_t next_addr = 0;  // port within stage s+1 (exit: unused)
  };
  // Stage-s wait of moves[i], for runs whose pass B needs it (finite
  // buffers or instruments); a side array keeps Move at 24 bytes.
  constexpr bool kPassBWaits = kFinite || kInstr;
  std::vector<std::int64_t> waits;
  std::vector<std::uint32_t> inject_dst(ports);
  std::vector<std::uint32_t> cand;
  cand.reserve(ports);
  std::vector<Move> moves;
  moves.reserve(kBlock);
  waits.reserve(kPassBWaits ? kBlock : 0);

  // --- Phased main loop: warmup then measurement, each timed. One
  // simulated cycle per iteration of the inner loop, t strictly increasing.
  const std::int64_t phase_end[] = {cfg.warmup_cycles, total_cycles};
  const char* const phase_timer[] = {"sim.phase.warmup", "sim.phase.measure"};
  std::int64_t t = 0;
  for (int phase = 0; phase < 2; ++phase) {
    obs::ScopedTimer timer(
        obs_on ? &out.metrics.timer(phase_timer[phase]) : nullptr);
    for (; t < phase_end[phase]; ++t) {
      const bool measuring = t >= cfg.warmup_cycles;
      const auto now = static_cast<Stamp>(t);
      if constexpr (kFinite) flow.begin_cycle(t);

      // --- Injection at the first stage ------------------------------------
      simd::inject_batch(inj, t, 0, ports, inject_dst.data());
      for (std::uint32_t src = 0; src < ports; ++src) {
        const std::uint32_t dst = inject_dst[src];
        if (dst == simd::kNoArrival) continue;
        const std::uint32_t addr0 = topo.entry_queue(src, dst);  // stage 0
        [[maybe_unused]] rng::LaneSeq svc(inj.key, t, src, rng::Site::kService);
        for (unsigned b = 0; b < cfg.bulk; ++b) {
          if constexpr (kFinite)
            if (pool.size(addr0) >= cfg.buffer_capacity) {
              if (measuring) ++out.packets_dropped;
              continue;
            }
          Pkt pkt;
          pkt.arrival = now;
          pkt.born = now;
          pkt.dst = dst;
          if constexpr (kSampled) pkt.service = cfg.service.sample(svc);
          if constexpr (Pkt::kWide)
            if (corr_on) pkt.corr = corr.allocate();
          pool.push(addr0, pkt);
          active[0].mark_occupied(addr0);
          if (obs_on)
            ob.tally[0].peak = std::max(ob.tally[0].peak, pool.size(addr0));
          if (measuring) ++out.packets_injected;
        }
      }

      // --- Service, stage by stage (order: kDownstreamFirst) ---------------
      for (unsigned step = 0; step < n; ++step) {
        const unsigned s = kDownstreamFirst ? n - 1 - step : step;
        Sched& sched = active[s];
        if constexpr (kSampled) sched.expire(t);
        cand.clear();
        sched.for_each_candidate([&](std::uint32_t a) { cand.push_back(a); });
        const std::size_t base = static_cast<std::size_t>(s) * ports;
        const int cp = checkpoint_of[s + 1];
        const bool exit_stage = s + 1 == n;
        const std::size_t count = cand.size();
        stats::MomentTally& wait = out.stage_wait[s];
        // Per-walk telemetry accumulators, kept in locals so the hot loop
        // carries no store-to-load chain through ObsState; conv keeps the
        // reference engine's addition order.
        std::uint64_t started = 0, blocked = 0;
        std::size_t peak_down = 0;
        double conv = kInstr && ob.trace_on ? ob.conv_sum[s] : 0.0;

        // The exact-integer statistics of a service that starts with wait
        // w (pkt.total_wait already includes it). Order-free, so with
        // infinite buffers — where nothing can refuse the move — pass A
        // takes them while the head is hot; finite buffers take them in
        // pass B, after admission.
        const auto record = [&](const Pkt& pkt, std::int64_t w) {
          if (pkt.born < warmup) return;  // injected during warmup
          wait.add(w);
          if (hist_on) out.stage_hist[s].add(w);
          if (cp >= 0)
            out.total_wait[static_cast<std::size_t>(cp)].add(pkt.total_wait);
          if (exit_stage) ++out.packets_delivered;
        };

        for (std::size_t blk = 0; blk < count; blk += kBlock) {
          const std::size_t end = std::min(blk + kBlock, count);

          // Pass A: read stage-s heads and routes only.
          moves.clear();
          waits.clear();
          for (std::size_t i = blk; i < end; ++i) {
            if (i + kLookahead < count)
              pool.prefetch_front(base + cand[i + kLookahead]);
            const std::uint32_t a = cand[i];
            const Pkt& head = pool.front(base + a);
            if (head.arrival > now) continue;  // delivered later this cycle
            const std::int64_t w = t - static_cast<std::int64_t>(head.arrival);
            Move mv;
            mv.addr = a;
            mv.pkt = head;
            if (head.born >= warmup)
              mv.pkt.total_wait += static_cast<std::int32_t>(w);
            if constexpr (kSampled)
              mv.pkt.arrival = flow.arrival_stamp(t, head.service);
            else
              mv.pkt.arrival = now + 1;
            if (!exit_stage) mv.next_addr = topo.next_queue(s, a, head.dst);
            if constexpr (!kFinite) record(mv.pkt, w);
            moves.push_back(mv);
            if constexpr (kPassBWaits) waits.push_back(w);
          }

          // Pass B: admission, statistics and queue updates in port order.
          for (std::size_t j = 0; j < moves.size(); ++j) {
            const Move& mv = moves[j];
            const std::size_t q = base + mv.addr;
            const std::size_t nq = base + ports + mv.next_addr;
            // Finite buffers: block upstream service when the flow-control
            // scheme denies the transfer (full downstream queue, or no credit
            // under kCredit).
            if constexpr (kFinite)
              if (!exit_stage && !flow.admit(nq, pool.size(nq))) {
                ++blocked;
                continue;
              }

            ++started;
            const bool measured = mv.pkt.born >= warmup;
            if constexpr (kPassBWaits) {
              const std::int64_t w = waits[j];
              if constexpr (kFinite) record(mv.pkt, w);
              if constexpr (kInstr)
                if (ob.trace_on) conv += static_cast<double>(w);
              if constexpr (Pkt::kWide)
                if (corr_on && measured)
                  corr.row(mv.pkt.corr)[s] = static_cast<std::int32_t>(w);
            }

            std::uint32_t service = 1;
            if constexpr (kSampled) service = mv.pkt.service;
            if (sample_busy) busy_until[q] = t + service;
            if constexpr (kInstr && kDownstreamFirst)
              if (obs_on) last_start[q] = t;
            if constexpr (kFinite) flow.on_service_start(s, q, t);
            pool.pop(q);
            if (pool.empty(q)) sched.clear_occupied(mv.addr);
            if (!exit_stage) {
              if constexpr (kFinite) flow.on_forward(nq);
              pool.push(nq, mv.pkt);
              active[s + 1].mark_occupied(mv.next_addr);
              if (obs_on) {
                std::size_t depth = pool.size(nq);
                if constexpr (kInstr && kDownstreamFirst)
                  depth += last_start[nq] == t;  // popped earlier this cycle
                peak_down = std::max(peak_down, depth);
              }
            } else {
              if constexpr (Pkt::kWide)
                if (corr_on) {
                  if (measured) {
                    const std::int32_t* row = corr.row(mv.pkt.corr);
                    for (unsigned i = 0; i < n; ++i)
                      corr_scratch[i] = static_cast<double>(row[i]);
                    out.stage_covariance->add(corr_scratch);
                  }
                  corr.release(mv.pkt.corr);
                }
            }
            // Unit services never block the next cycle; only m >= 2 enters
            // the busy set (and its expiry wheel).
            if constexpr (kSampled)
              if (service > 1) sched.mark_busy(mv.addr, t + service);
          }
        }

        if constexpr (kInstr) {
          if (ob.trace_on) {
            ob.conv_sum[s] = conv;
            ob.conv_cnt[s] += started;
          }
          if (obs_on) {
            if (measuring) {
              ob.tally[s].starts += started;
              ob.tally[s].blocked += blocked;
              if (credit_mode) ob.tally[s].credit_stalls += blocked;
            }
            if (!exit_stage)
              ob.tally[s + 1].peak = std::max(ob.tally[s + 1].peak, peak_down);
          }
        }
      }

      // --- Occupancy sampling, and telemetry sampling (occupancy
      // histograms, server utilization) on the obs stride; one scan serves
      // both when the strides coincide.
      const bool depth_now = measuring && t % kDepthSampleStride == 0;
      bool obs_now = false;
      if constexpr (kInstr)
        obs_now = sample_busy && measuring &&
                  t % static_cast<std::int64_t>(cfg.obs.stride) == 0;
      if (depth_now || obs_now)
        for (unsigned s = 0; s < n; ++s)
          for (std::uint32_t a = 0; a < ports; ++a) {
            const std::size_t q = static_cast<std::size_t>(s) * ports + a;
            // Waiting packets only: those still in flight on the inter-stage
            // link (arrival stamped after t) sit at the tail.
            std::size_t k = pool.size(q);
            while (k > 0 && pool.at(q, k - 1).arrival > now) --k;
            if (depth_now)
              out.stage_depth[s].add(static_cast<std::int64_t>(k));
            if constexpr (kInstr)
              if (obs_now) {
                ob.sobs[s].occupancy->record(static_cast<double>(k));
                if (busy_until[q] > t)
                  ++ob.tally[s].busy;
                else
                  ++ob.tally[s].idle;
              }
          }

      // --- Convergence checkpoint ------------------------------------------
      if constexpr (kInstr) ob.checkpoint(t, out);
    }
  }

  ob.flush(cfg.warmup_cycles, total_cycles, out);
  return out;
}

/// Call f with std::bool_constant<b>: turns a run-time flag into a
/// compile-time policy, once per run.
template <typename F>
decltype(auto) with_flag(bool b, F&& f) {
  return b ? f(std::true_type{}) : f(std::false_type{});
}

}  // namespace

void NetworkResults::merge(const NetworkResults& other) {
  if (stage_wait.size() != other.stage_wait.size() ||
      stage_depth.size() != other.stage_depth.size() ||
      total_wait.size() != other.total_wait.size())
    throw std::invalid_argument("NetworkResults::merge: shape mismatch");
  if (stage_hist.size() != other.stage_hist.size())
    throw std::invalid_argument(
        "NetworkResults::merge: stage_hist shape mismatch");
  for (std::size_t i = 0; i < stage_wait.size(); ++i) {
    stage_wait[i].merge(other.stage_wait[i]);
    stage_depth[i].merge(other.stage_depth[i]);
  }
  for (std::size_t i = 0; i < stage_hist.size(); ++i)
    stage_hist[i].merge(other.stage_hist[i]);
  for (std::size_t i = 0; i < total_wait.size(); ++i)
    total_wait[i].merge(other.total_wait[i]);
  if (stage_covariance && other.stage_covariance)
    stage_covariance->merge(*other.stage_covariance);
  packets_injected += other.packets_injected;
  packets_delivered += other.packets_delivered;
  packets_dropped += other.packets_dropped;
  metrics.merge(other.metrics);
  convergence.merge(other.convergence);
}

NetworkResults run_network(const NetworkConfig& cfg) {
  check(cfg);
  const Topology topo(cfg.topology, cfg.k, cfg.stages);

  const bool sampled = !cfg.service.is_unit();
  const bool finite = cfg.buffer_capacity > 0;
  const bool instr = cfg.obs.enabled || cfg.track_stage_histograms ||
                     cfg.track_correlations;
  const bool wide = sampled || cfg.track_correlations ||
                    cfg.warmup_cycles + cfg.measure_cycles >=
                        std::int64_t{std::numeric_limits<std::uint32_t>::max()};
  return with_flag(finite, [&](auto fin) {
    return with_flag(instr, [&](auto ins) {
      constexpr bool kFin = decltype(fin)::value;
      constexpr bool kIns = decltype(ins)::value;
      if (!wide) return run_engine<CompactPacket, false, kFin, kIns>(cfg, topo);
      return with_flag(sampled, [&](auto smp) {
        return run_engine<WidePacket, decltype(smp)::value, kFin, kIns>(cfg,
                                                                         topo);
      });
    });
  });
}

}  // namespace ksw::sim
