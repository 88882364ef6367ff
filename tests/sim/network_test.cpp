#include "sim/network.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "core/closed_forms.hpp"

namespace ksw::sim {
namespace {

NetworkConfig small_config() {
  NetworkConfig cfg;
  cfg.k = 2;
  cfg.stages = 6;
  cfg.p = 0.5;
  cfg.warmup_cycles = 2'000;
  cfg.measure_cycles = 30'000;
  cfg.seed = 11;
  return cfg;
}

TEST(NetworkSim, DeterministicForFixedSeed) {
  NetworkConfig cfg = small_config();
  cfg.measure_cycles = 5'000;
  const auto a = run_network(cfg);
  const auto b = run_network(cfg);
  EXPECT_EQ(a.packets_injected, b.packets_injected);
  for (unsigned s = 0; s < cfg.stages; ++s)
    EXPECT_DOUBLE_EQ(a.stage_wait[s].mean(), b.stage_wait[s].mean());
}

TEST(NetworkSim, ConservesPackets) {
  NetworkConfig cfg = small_config();
  const auto r = run_network(cfg);
  // Everything injected after warmup either leaves or is still in flight;
  // in-flight population is bounded by a few packets per queue.
  EXPECT_GT(r.packets_delivered, 0u);
  EXPECT_EQ(r.packets_dropped, 0u);
  const std::uint64_t ports = 1u << cfg.stages;
  const std::uint64_t in_flight_bound = 50ull * ports * cfg.stages;
  EXPECT_LE(r.packets_delivered, r.packets_injected);
  EXPECT_LT(r.packets_injected - r.packets_delivered, in_flight_bound);
}

TEST(NetworkSim, FirstStageMatchesTheoremOne) {
  NetworkConfig cfg = small_config();
  cfg.measure_cycles = 50'000;
  const auto r = run_network(cfg);
  EXPECT_NEAR(r.stage_wait[0].mean(), 0.25, 0.01);
  EXPECT_NEAR(r.stage_wait[0].variance(), 0.25, 0.02);
}

TEST(NetworkSim, LaterStagesConvergeToPaperLimit) {
  NetworkConfig cfg = small_config();
  cfg.stages = 8;
  cfg.measure_cycles = 60'000;
  const auto r = run_network(cfg);
  // Paper Table I/V: stage means rise from 0.25 toward ~0.30.
  EXPECT_GT(r.stage_wait[3].mean(), r.stage_wait[0].mean());
  EXPECT_NEAR(r.stage_wait[7].mean(), 0.30, 0.01);
  EXPECT_NEAR(r.stage_wait[7].variance(), 0.343, 0.02);
}

TEST(NetworkSim, RejectsInvalidCycleCounts) {
  // Both engines share the validation: a negative warmup, an empty
  // measurement window or an overflowing total never reaches a cycle loop.
  const auto rejected = [](std::int64_t warmup, std::int64_t measure) {
    NetworkConfig cfg = small_config();
    cfg.warmup_cycles = warmup;
    cfg.measure_cycles = measure;
    EXPECT_THROW((void)run_network(cfg), std::invalid_argument);
    EXPECT_THROW((void)run_network_reference(cfg), std::invalid_argument);
  };
  rejected(-1, 100);
  rejected(50, 0);
  rejected(50, -100);
  rejected(std::numeric_limits<std::int64_t>::max(), 1);
  rejected(1, std::numeric_limits<std::int64_t>::max());

  NetworkConfig ok = small_config();
  ok.warmup_cycles = 0;
  ok.measure_cycles = 1;
  EXPECT_NO_THROW((void)run_network(ok));
}

TEST(NetworkSim, ZeroLoadProducesNothing) {
  NetworkConfig cfg = small_config();
  cfg.p = 0.0;
  cfg.measure_cycles = 500;
  const auto r = run_network(cfg);
  EXPECT_EQ(r.packets_injected, 0u);
  EXPECT_EQ(r.stage_wait[0].count(), 0u);
}

TEST(NetworkSim, FullyFavoredTrafficNeverQueues) {
  // q = 1: every packet follows dst == src, so each queue serves exactly
  // one flow of rate p < 1 and waiting is zero at every stage.
  NetworkConfig cfg = small_config();
  cfg.q = 1.0;
  cfg.measure_cycles = 10'000;
  const auto r = run_network(cfg);
  for (unsigned s = 0; s < cfg.stages; ++s) {
    EXPECT_DOUBLE_EQ(r.stage_wait[s].mean(), 0.0) << "stage " << s;
    EXPECT_DOUBLE_EQ(r.stage_wait[s].max(), 0.0) << "stage " << s;
  }
}

TEST(NetworkSim, NonuniformFirstStageMatchesClosedForm) {
  NetworkConfig cfg = small_config();
  cfg.q = 0.5;
  cfg.measure_cycles = 60'000;
  const auto r = run_network(cfg);
  EXPECT_NEAR(r.stage_wait[0].mean(),
              core::closed::nonuniform_mean(2, 0.5, 0.5), 0.01);
}

TEST(NetworkSim, MessageSizeFirstStageMatchesEq8) {
  NetworkConfig cfg = small_config();
  cfg.p = 0.125;
  cfg.service = ServiceSpec::deterministic(4);
  cfg.measure_cycles = 80'000;
  const auto r = run_network(cfg);
  EXPECT_NEAR(r.stage_wait[0].mean(), 1.75, 0.05);
  // Interior stages smooth out (paper Table III: ~1.2 at rho = 0.5).
  EXPECT_NEAR(r.stage_wait[4].mean(), 1.2, 0.06);
}

TEST(NetworkSim, TotalCheckpointsAccumulateStageWaits) {
  NetworkConfig cfg = small_config();
  cfg.stages = 6;
  cfg.total_checkpoints = {3, 6};
  cfg.measure_cycles = 40'000;
  const auto r = run_network(cfg);
  ASSERT_EQ(r.total_wait.size(), 2u);
  const double w3 = r.total_wait[0].mean();
  const double w6 = r.total_wait[1].mean();
  double stage_sum3 = 0.0, stage_sum6 = 0.0;
  for (unsigned s = 0; s < 3; ++s) stage_sum3 += r.stage_wait[s].mean();
  for (unsigned s = 0; s < 6; ++s) stage_sum6 += r.stage_wait[s].mean();
  EXPECT_NEAR(w3, stage_sum3, 0.02);
  EXPECT_NEAR(w6, stage_sum6, 0.03);
  EXPECT_GT(w6, w3);
}

TEST(NetworkSim, CorrelationsDecayGeometrically) {
  NetworkConfig cfg = small_config();
  cfg.stages = 8;
  cfg.track_correlations = true;
  cfg.measure_cycles = 60'000;
  const auto r = run_network(cfg);
  ASSERT_TRUE(r.stage_covariance.has_value());
  const auto& cov = *r.stage_covariance;
  // Paper Table VI: neighbors ~0.12, next ~0.045, then ~0.019.
  EXPECT_NEAR(cov.correlation(3, 4), 0.12, 0.02);
  EXPECT_NEAR(cov.correlation(3, 5), 0.045, 0.015);
  EXPECT_LT(cov.correlation(3, 6), cov.correlation(3, 5));
}

TEST(NetworkSim, LittlesLawPerStage) {
  NetworkConfig cfg = small_config();
  cfg.measure_cycles = 50'000;
  const auto r = run_network(cfg);
  for (unsigned s = 0; s < cfg.stages; ++s)
    EXPECT_NEAR(r.stage_depth[s].mean(), 0.5 * r.stage_wait[s].mean(), 0.01)
        << "stage " << s;
}

TEST(NetworkSim, FiniteBuffersDropAtEntryUnderOverload) {
  NetworkConfig cfg = small_config();
  cfg.stages = 4;
  cfg.p = 0.9;
  cfg.buffer_capacity = 1;
  cfg.measure_cycles = 10'000;
  const auto r = run_network(cfg);
  EXPECT_GT(r.packets_dropped, 0u);
  // Waits are bounded by the tiny buffers plus blocking stalls.
  EXPECT_LT(r.stage_wait[0].mean(), 10.0);
}

TEST(NetworkSim, LargeBuffersBehaveLikeInfinite) {
  NetworkConfig inf_cfg = small_config();
  inf_cfg.measure_cycles = 30'000;
  NetworkConfig fin_cfg = inf_cfg;
  fin_cfg.buffer_capacity = 4096;
  const auto a = run_network(inf_cfg);
  const auto b = run_network(fin_cfg);
  EXPECT_EQ(b.packets_dropped, 0u);
  EXPECT_NEAR(a.stage_wait[3].mean(), b.stage_wait[3].mean(), 1e-9);
}

TEST(NetworkSim, StageHistogramsMatchAccumulators) {
  NetworkConfig cfg = small_config();
  cfg.track_stage_histograms = true;
  cfg.measure_cycles = 20'000;
  const auto r = run_network(cfg);
  ASSERT_EQ(r.stage_hist.size(), cfg.stages);
  for (unsigned s = 0; s < cfg.stages; ++s) {
    EXPECT_EQ(r.stage_hist[s].total(), r.stage_wait[s].count());
    EXPECT_NEAR(r.stage_hist[s].mean(), r.stage_wait[s].mean(), 1e-9);
    EXPECT_NEAR(r.stage_hist[s].variance(), r.stage_wait[s].variance(),
                1e-9);
  }
}

TEST(NetworkSim, PerStageDistributionsStabilize) {
  // Paper Section V: "The distribution of waiting times seems to be about
  // the same for all stages" — compare deep stages pairwise by TV.
  NetworkConfig cfg = small_config();
  cfg.stages = 8;
  cfg.track_stage_histograms = true;
  cfg.measure_cycles = 60'000;
  const auto r = run_network(cfg);
  const auto& a = r.stage_hist[6];
  const auto& b = r.stage_hist[7];
  double tv = 0.0;
  const std::int64_t top = std::max(a.max_value(), b.max_value());
  for (std::int64_t w = 0; w <= top; ++w) tv += std::abs(a.pmf(w) - b.pmf(w));
  EXPECT_LT(0.5 * tv, 0.01);
}

TEST(NetworkSim, HotspotSaturatesTheHotPath) {
  // 10% hot-spot traffic at p = 0.5 focuses 0.5 * (0.1 * 16 + 0.9) packets
  // per cycle on the final hot queue -- saturated, so its backlog grows
  // while cold queues stay calm (tree saturation).
  NetworkConfig cfg = small_config();
  cfg.stages = 4;
  cfg.p = 0.5;
  cfg.hotspot = 0.1;
  cfg.measure_cycles = 20'000;
  const auto r = run_network(cfg);
  // Mean wait at the last stage is dominated by the single hot queue and
  // far exceeds the uniform-traffic value (~0.3).
  EXPECT_GT(r.stage_wait[3].mean(), 2.0);
  // First stage barely notices (hot rate per first-stage queue is tiny).
  EXPECT_LT(r.stage_wait[0].mean(), 0.5);
}

TEST(NetworkSim, HotspotZeroMatchesUniform) {
  NetworkConfig base = small_config();
  base.measure_cycles = 5'000;
  NetworkConfig hot = base;
  hot.hotspot = 0.0;
  const auto a = run_network(base);
  const auto b = run_network(hot);
  EXPECT_DOUBLE_EQ(a.stage_wait[2].mean(), b.stage_wait[2].mean());
}

TEST(NetworkSim, HotspotValidated) {
  NetworkConfig cfg = small_config();
  cfg.hotspot = 1.5;
  EXPECT_THROW(run_network(cfg), std::invalid_argument);
}

TEST(NetworkSim, ValidatesConfig) {
  NetworkConfig cfg;
  cfg.k = 1;
  EXPECT_THROW(run_network(cfg), std::invalid_argument);
  cfg = NetworkConfig{};
  cfg.stages = 0;
  EXPECT_THROW(run_network(cfg), std::invalid_argument);
  cfg = NetworkConfig{};
  cfg.stages = 20;
  cfg.track_correlations = true;
  EXPECT_THROW(run_network(cfg), std::invalid_argument);
  cfg = NetworkConfig{};
  cfg.total_checkpoints = {9};
  cfg.stages = 8;
  EXPECT_THROW(run_network(cfg), std::invalid_argument);
  cfg = NetworkConfig{};
  cfg.k = 4;
  cfg.stages = 15;  // 4^15 ports: too large
  EXPECT_THROW(run_network(cfg), std::invalid_argument);
}

TEST(ConfigCheck, NamesTheFieldOfEveryOutOfRangeConfig) {
  // One row per domain rule; the CLI, manifest and serve tests reject the
  // rows their syntax can express.
  struct Row {
    const char* field;
    void (*mutate)(NetworkConfig&);
  };
  const Row rows[] = {
      {"k", [](NetworkConfig& c) { c.k = 1; }},
      {"stages", [](NetworkConfig& c) { c.stages = 0; }},
      {"stages", [](NetworkConfig& c) { c.k = 4; c.stages = 13; }},  // 2^26
      {"hotspot_target",
       [](NetworkConfig& c) { c.stages = 3; c.hotspot_target = 8; }},
      {"buffer_capacity",
       [](NetworkConfig& c) { c.flow = FlowControl::kStoreAndForward; }},
      {"buffer_capacity",
       [](NetworkConfig& c) { c.flow = FlowControl::kCredit; }},
      {"credit_latency",
       [](NetworkConfig& c) {
         c.buffer_capacity = 2; c.flow = FlowControl::kCredit;
         c.credit_latency = 0;
       }},
      {"credit_latency",
       [](NetworkConfig& c) {
         c.buffer_capacity = 2; c.flow = FlowControl::kCredit;
         c.credit_latency = kMaxCreditLatency + 1;
       }},
      {"total_checkpoints",
       [](NetworkConfig& c) { c.total_checkpoints = {0}; }},
      {"total_checkpoints",
       [](NetworkConfig& c) { c.total_checkpoints = {3, 3}; }},
      {"total_checkpoints",
       [](NetworkConfig& c) { c.total_checkpoints = {c.stages + 1}; }},
      {"track_correlations",
       [](NetworkConfig& c) {
         c.stages = kMaxTrackedStages + 1; c.track_correlations = true;
       }},
  };
  for (const Row& row : rows) {
    NetworkConfig cfg;
    row.mutate(cfg);
    try {
      check(cfg);
      ADD_FAILURE() << row.field << ": accepted";
    } catch (const ConfigError& e) {
      EXPECT_STREQ(e.field, row.field) << e.what();
    }
  }
  NetworkConfig edge;
  edge.buffer_capacity = 2;
  edge.flow = FlowControl::kCredit;
  edge.credit_latency = kMaxCreditLatency;
  edge.total_checkpoints = {1, edge.stages};
  edge.hotspot_target = 255;  // 2^8 - 1, the last port
  EXPECT_NO_THROW(check(edge));
}

TEST(ConfigCheck, EnginesRejectAWrappedCreditLatency) {
  // latency + 1 used to wrap the credit ring to 0 buckets and the first
  // service start divided by zero.
  NetworkConfig cfg = small_config();
  cfg.buffer_capacity = 2;
  cfg.flow = FlowControl::kCredit;
  cfg.credit_latency = 0xffffffffu;
  EXPECT_THROW((void)run_network(cfg), ConfigError);
  EXPECT_THROW((void)run_network_reference(cfg), ConfigError);
}

TEST(ConfigCheck, PortCountSaturatesInsteadOfOverflowing) {
  EXPECT_EQ(port_count(2, 8), 256u);
  EXPECT_EQ(port_count(4, 12), kMaxPorts);
  EXPECT_GT(port_count(4, 13), kMaxPorts);
  EXPECT_GT(port_count(0xffffffffu, 0xffffffffu), kMaxPorts);
  EXPECT_EQ(port_count(1, 0xffffffffu), 1u);
  EXPECT_EQ(port_count(7, 0), 1u);
}

TEST(NetworkSim, CorrelationLimitMessageTracksConstant) {
  // Regression: the error text used to hardcode "16 stages"; it must stay
  // in sync with kMaxTrackedStages.
  NetworkConfig cfg;
  cfg.stages = kMaxTrackedStages + 1;
  cfg.track_correlations = true;
  try {
    (void)run_network(cfg);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(std::to_string(kMaxTrackedStages)),
              std::string::npos)
        << e.what();
  }
}

TEST(NetworkSim, RejectsHotspotTargetOutsideNetwork) {
  // Regression: an out-of-range target used to be silently wrapped with
  // `% ports`, redirecting the hot spot to an unrelated output.
  NetworkConfig cfg = small_config();
  cfg.hotspot = 0.1;
  cfg.hotspot_target = 1u << cfg.stages;  // == ports: one past the end
  EXPECT_THROW(run_network(cfg), std::invalid_argument);
  cfg.hotspot_target = (1u << cfg.stages) - 1;  // last valid output
  cfg.measure_cycles = 500;
  const auto r = run_network(cfg);
  EXPECT_GT(r.packets_delivered, 0u);
  // The range check runs even at hotspot rate 0 — a latent bad target
  // fails at construction, not when someone later turns the rate up.
  cfg.hotspot = 0.0;
  cfg.hotspot_target = 1u << cfg.stages;
  EXPECT_THROW(run_network(cfg), std::invalid_argument);
}

TEST(NetworkSim, MergeRejectsStageHistShapeMismatch) {
  // Regression: merge used to skip mismatched stage_hist vectors silently,
  // losing one replicate's histograms without any signal.
  NetworkConfig cfg = small_config();
  cfg.warmup_cycles = 100;
  cfg.measure_cycles = 500;
  cfg.track_stage_histograms = true;
  NetworkResults with_hist = run_network(cfg);
  cfg.track_stage_histograms = false;
  const NetworkResults without_hist = run_network(cfg);
  EXPECT_THROW(with_hist.merge(without_hist), std::invalid_argument);

  NetworkConfig other = cfg;
  other.stages = cfg.stages - 1;
  NetworkResults shallower = run_network(other);
  EXPECT_THROW(shallower.merge(without_hist), std::invalid_argument);
}

}  // namespace
}  // namespace ksw::sim
