// Flow-control semantics for finite-buffer networks: scheme parsing and
// validation, the equivalences that pin each scheme to an oracle
// (store-and-forward == cut-through under unit service; a deep buffer at
// low load == the infinite-queue engine, bit for bit), and the credit
// scheme's exhaustion/replenish behavior.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "sim/network.hpp"

namespace ksw::sim {
namespace {

/// Moment-level bit-identity between two runs (the engine-equivalence
/// suite covers the full telemetry comparison; here we compare *different
/// configs* expected to simulate the same trajectory).
void expect_same_results(const NetworkResults& a, const NetworkResults& b) {
  EXPECT_EQ(a.packets_injected, b.packets_injected);
  EXPECT_EQ(a.packets_delivered, b.packets_delivered);
  EXPECT_EQ(a.packets_dropped, b.packets_dropped);
  ASSERT_EQ(a.stage_wait.size(), b.stage_wait.size());
  for (std::size_t s = 0; s < a.stage_wait.size(); ++s) {
    SCOPED_TRACE("stage " + std::to_string(s));
    EXPECT_EQ(a.stage_wait[s].count(), b.stage_wait[s].count());
    EXPECT_EQ(a.stage_wait[s].mean(), b.stage_wait[s].mean());
    EXPECT_EQ(a.stage_wait[s].variance(), b.stage_wait[s].variance());
    EXPECT_EQ(a.stage_depth[s].mean(), b.stage_depth[s].mean());
  }
}

NetworkConfig base_config() {
  NetworkConfig cfg;
  cfg.k = 2;
  cfg.stages = 4;
  cfg.p = 0.6;
  cfg.warmup_cycles = 300;
  cfg.measure_cycles = 2'000;
  cfg.seed = 4242;
  return cfg;
}

TEST(FlowControl, NamesRoundTrip) {
  EXPECT_STREQ(to_string(FlowControl::kCutThrough), "vct");
  EXPECT_STREQ(to_string(FlowControl::kStoreAndForward), "saf");
  EXPECT_STREQ(to_string(FlowControl::kCredit), "credit");
  EXPECT_EQ(parse_flow_control("vct"), FlowControl::kCutThrough);
  EXPECT_EQ(parse_flow_control("saf"), FlowControl::kStoreAndForward);
  EXPECT_EQ(parse_flow_control("credit"), FlowControl::kCredit);
  EXPECT_THROW(parse_flow_control("wormhole"), std::invalid_argument);
  EXPECT_THROW(parse_flow_control(""), std::invalid_argument);
}

TEST(FlowControl, NonDefaultSchemeRequiresFiniteBuffers) {
  NetworkConfig cfg = base_config();
  cfg.flow = FlowControl::kStoreAndForward;
  EXPECT_THROW(run_network(cfg), std::invalid_argument);
  cfg.flow = FlowControl::kCredit;
  EXPECT_THROW(run_network(cfg), std::invalid_argument);
  cfg.buffer_capacity = 4;
  cfg.credit_latency = 0;
  EXPECT_THROW(run_network(cfg), std::invalid_argument);
}

TEST(FlowControl, StoreAndForwardMatchesCutThroughUnderUnitService) {
  // With det:1 service the downstream arrival stamp t + m == t + 1, so
  // SAF and VCT must simulate the identical trajectory.
  NetworkConfig vct = base_config();
  vct.buffer_capacity = 2;
  vct.p = 0.9;  // high load: admission actually rejects transfers
  NetworkConfig saf = vct;
  saf.flow = FlowControl::kStoreAndForward;
  expect_same_results(run_network(vct), run_network(saf));
}

TEST(FlowControl, StoreAndForwardDelaysMultiCycleService) {
  // With det:2 service SAF stamps downstream arrivals one cycle later
  // than VCT, so downstream service starts strictly later and fewer
  // packets complete in a fixed horizon at saturation.
  NetworkConfig vct = base_config();
  vct.buffer_capacity = 4;
  vct.p = 0.45;
  vct.service = ServiceSpec::deterministic(2);
  NetworkConfig saf = vct;
  saf.flow = FlowControl::kStoreAndForward;
  const NetworkResults rv = run_network(vct);
  const NetworkResults rs = run_network(saf);
  // Same injections (same RNG draws), different downstream timing.
  EXPECT_EQ(rv.packets_injected + rv.packets_dropped,
            rs.packets_injected + rs.packets_dropped);
  EXPECT_NE(rv.stage_wait.back().mean(), rs.stage_wait.back().mean());
}

TEST(FlowControl, DeepBufferMatchesInfiniteQueues) {
  // Occupancy checks consume no RNG, so a finite run whose buffers are
  // never full is the infinite-queue run, bit for bit — the oracle
  // property the reproduction book's deepest-depth gate relies on.
  NetworkConfig inf = base_config();
  inf.p = 0.5;
  NetworkConfig finite = inf;
  finite.buffer_capacity = 512;
  const NetworkResults a = run_network(inf);
  const NetworkResults b = run_network(finite);
  expect_same_results(a, b);
  EXPECT_EQ(b.packets_dropped, 0u);
}

TEST(FlowControl, AmpleCreditsAreInert) {
  // Credits bound occupancy only when they run out; with deep buffers the
  // credit scheme must reproduce the cut-through trajectory exactly.
  NetworkConfig vct = base_config();
  vct.p = 0.5;
  vct.buffer_capacity = 512;
  NetworkConfig credit = vct;
  credit.flow = FlowControl::kCredit;
  credit.credit_latency = 2;
  expect_same_results(run_network(vct), run_network(credit));
}

TEST(FlowControl, CreditExhaustionBlocksEarlierThanCutThrough) {
  // At equal (small) depth, credit flow control is strictly more
  // conservative than VCT: a consumed credit stays invisible for
  // credit_latency cycles after the downstream service starts, while
  // VCT sees the freed slot at the next attempt. Fewer packets make it
  // through the interior in a fixed horizon.
  NetworkConfig vct = base_config();
  vct.p = 0.9;
  vct.buffer_capacity = 1;
  NetworkConfig credit = vct;
  credit.flow = FlowControl::kCredit;
  credit.credit_latency = 4;
  const NetworkResults rv = run_network(vct);
  const NetworkResults rc = run_network(credit);
  EXPECT_LT(rc.packets_delivered, rv.packets_delivered);
}

TEST(FlowControl, CreditsReplenish) {
  // Replenishment sanity: despite exhaustion under pressure, credits
  // return and traffic keeps flowing — throughput is a substantial
  // fraction of offered load, not a trickle ending in deadlock.
  NetworkConfig cfg = base_config();
  cfg.p = 0.9;
  cfg.buffer_capacity = 1;
  cfg.flow = FlowControl::kCredit;
  cfg.credit_latency = 4;
  cfg.measure_cycles = 4'000;
  const NetworkResults r = run_network(cfg);
  EXPECT_GT(r.packets_delivered, 0u);
  // Every injected (non-dropped) measured packet eventually delivers or
  // is still in flight inside a 4-stage pipeline at horizon end.
  EXPECT_GE(r.packets_injected, r.packets_delivered);
  EXPECT_LE(r.packets_injected - r.packets_delivered,
            static_cast<std::uint64_t>(cfg.stages) * 16u * 2u +
                r.packets_injected / 10);
}

TEST(FlowControl, BlockedCyclesAreCountedPerStage) {
  // Head-of-line blocking shows up in the per-stage obs counters; under
  // kCredit the dedicated credit_stalls counter mirrors the blocked
  // tally (every denial is a missing credit).
  NetworkConfig cfg = base_config();
  cfg.p = 0.9;
  cfg.buffer_capacity = 1;
  cfg.flow = FlowControl::kCredit;
  cfg.credit_latency = 4;
  cfg.obs.enabled = true;
  cfg.obs.stride = 16;
  const NetworkResults r = run_network(cfg);
  const auto& counters = r.metrics.counters();
  std::uint64_t blocked = 0;
  std::uint64_t stalls = 0;
  for (const auto& [name, counter] : counters) {
    if (name.find(".blocked") != std::string::npos)
      blocked += counter->value();
    if (name.find(".credit_stalls") != std::string::npos)
      stalls += counter->value();
  }
  EXPECT_GT(blocked, 0u);
  EXPECT_EQ(stalls, blocked);
}

TEST(FlowControl, CreditStallCounterAbsentOutsideCreditMode) {
  // The credit_stalls counter is only registered under kCredit, so every
  // pre-existing obs report stays byte-identical.
  NetworkConfig cfg = base_config();
  cfg.p = 0.9;
  cfg.buffer_capacity = 1;
  cfg.obs.enabled = true;
  cfg.obs.stride = 16;
  const NetworkResults r = run_network(cfg);
  for (const auto& [name, counter] : r.metrics.counters())
    EXPECT_EQ(name.find("credit_stalls"), std::string::npos) << name;
}

}  // namespace
}  // namespace ksw::sim
