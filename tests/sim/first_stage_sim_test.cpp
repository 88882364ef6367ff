#include "sim/first_stage_sim.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>

#include "core/closed_forms.hpp"
#include "core/first_stage.hpp"

namespace ksw::sim {
namespace {

FirstStageConfig base_config() {
  FirstStageConfig cfg;
  cfg.warmup_cycles = 5'000;
  cfg.measure_cycles = 300'000;
  cfg.seed = 7;
  return cfg;
}

TEST(FirstStageSim, DeterministicForFixedSeed) {
  FirstStageConfig cfg = base_config();
  cfg.measure_cycles = 20'000;
  const auto a = run_first_stage(cfg);
  const auto b = run_first_stage(cfg);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_DOUBLE_EQ(a.waiting.mean(), b.waiting.mean());
  EXPECT_DOUBLE_EQ(a.waiting.variance(), b.waiting.variance());
}

TEST(FirstStageSim, RejectsInvalidCycleCounts) {
  const auto rejected = [](std::int64_t warmup, std::int64_t measure) {
    FirstStageConfig cfg;
    cfg.warmup_cycles = warmup;
    cfg.measure_cycles = measure;
    EXPECT_THROW((void)run_first_stage(cfg), std::invalid_argument);
  };
  rejected(-1, 100);
  rejected(50, 0);
  rejected(50, -100);
  rejected(std::numeric_limits<std::int64_t>::max(), 1);
}

TEST(FirstStageSim, ZeroLoadMeansNoMessages) {
  FirstStageConfig cfg = base_config();
  cfg.p = 0.0;
  cfg.measure_cycles = 1'000;
  const auto r = run_first_stage(cfg);
  EXPECT_EQ(r.messages, 0u);
}

TEST(FirstStageSim, ThroughputMatchesOfferedLoad) {
  FirstStageConfig cfg = base_config();
  cfg.measure_cycles = 200'000;
  const auto r = run_first_stage(cfg);
  // k inputs at rate p spread over s queues; messages recorded =
  // lambda * s * cycles in steady state.
  const double rate = static_cast<double>(r.messages) /
                      (static_cast<double>(cfg.measure_cycles) * cfg.s);
  EXPECT_NEAR(rate, 0.5, 0.01);
}

TEST(FirstStageSim, MatchesTheoremOneUniformUnit) {
  FirstStageConfig cfg = base_config();
  const auto r = run_first_stage(cfg);
  EXPECT_NEAR(r.waiting.mean(), 0.25, 0.01);
  EXPECT_NEAR(r.waiting.variance(), 0.25, 0.015);
}

TEST(FirstStageSim, MatchesTheoremOneAsymmetricSwitch) {
  // k = 4 inputs, s = 2 outputs, p = 0.3: lambda = 0.6.
  FirstStageConfig cfg = base_config();
  cfg.k = 4;
  cfg.s = 2;
  cfg.p = 0.3;
  const auto r = run_first_stage(cfg);
  EXPECT_NEAR(r.waiting.mean(), core::closed::eq6_mean(4, 2, 0.3), 0.02);
  EXPECT_NEAR(r.waiting.variance(), core::closed::eq7_variance(4, 2, 0.3),
              0.05);
}

TEST(FirstStageSim, MatchesTheoremOneBulk) {
  FirstStageConfig cfg = base_config();
  cfg.p = 0.125;
  cfg.bulk = 4;  // lambda = 0.5
  const auto r = run_first_stage(cfg);
  EXPECT_NEAR(r.waiting.mean(), core::closed::bulk_mean(2, 2, 0.125, 4),
              0.05);
  EXPECT_NEAR(r.waiting.variance(),
              core::closed::bulk_variance(2, 2, 0.125, 4), 0.3);
}

TEST(FirstStageSim, MatchesTheoremOneNonuniform) {
  FirstStageConfig cfg = base_config();
  cfg.k = 4;
  cfg.s = 4;
  cfg.p = 0.6;
  cfg.q = 0.5;
  const auto r = run_first_stage(cfg);
  EXPECT_NEAR(r.waiting.mean(), core::closed::nonuniform_mean(4, 0.6, 0.5),
              0.02);
  EXPECT_NEAR(r.waiting.variance(),
              core::closed::nonuniform_variance(4, 0.6, 0.5), 0.05);
}

TEST(FirstStageSim, MatchesTheoremOneConstantService) {
  FirstStageConfig cfg = base_config();
  cfg.p = 0.125;
  cfg.service = ServiceSpec::deterministic(4);  // rho = 0.5
  const auto r = run_first_stage(cfg);
  EXPECT_NEAR(r.waiting.mean(), 1.75, 0.06);
  EXPECT_NEAR(r.waiting.variance(), 7.5, 0.6);
}

TEST(FirstStageSim, MatchesTheoremOneGeometricService) {
  FirstStageConfig cfg = base_config();
  cfg.p = 0.25;
  cfg.service = ServiceSpec::geometric(0.5);  // rho = 0.5
  const auto r = run_first_stage(cfg);
  EXPECT_NEAR(r.waiting.mean(), core::closed::geometric_mean(2, 2, 0.25, 0.5),
              0.05);
  EXPECT_NEAR(r.waiting.variance(),
              core::closed::geometric_variance(2, 2, 0.25, 0.5), 0.4);
}

TEST(FirstStageSim, MatchesTheoremOneMultiSize) {
  FirstStageConfig cfg = base_config();
  cfg.p = 0.5 / 6.0;  // rho = 0.5 with mean size 6
  cfg.service = ServiceSpec::multi_size({{4, 0.5}, {8, 0.5}});
  const auto r = run_first_stage(cfg);
  core::QueueSpec spec{
      std::shared_ptr<core::ArrivalModel>(
          core::make_uniform_arrivals(2, 2, cfg.p)),
      std::make_shared<core::MultiSizeService>(
          std::vector<core::MultiSizeService::Size>{{4, 0.5}, {8, 0.5}})};
  const auto exact = core::FirstStage(spec).moments();
  EXPECT_NEAR(r.waiting.mean(), exact.mean, 0.08);
  EXPECT_NEAR(r.waiting.variance(), exact.variance, 1.0);
}

TEST(FirstStageSim, HistogramMatchesInvertedTransform) {
  FirstStageConfig cfg = base_config();
  cfg.measure_cycles = 500'000;
  const auto r = run_first_stage(cfg);
  core::QueueSpec spec{
      std::shared_ptr<core::ArrivalModel>(
          core::make_uniform_arrivals(2, 2, 0.5)),
      std::make_shared<core::DeterministicService>(1)};
  const auto dist = core::FirstStage(spec).distribution(32);
  // Total-variation distance between empirical and exact pmf.
  double tv = 0.0;
  for (std::int64_t w = 0; w < 32; ++w)
    tv += std::abs(r.histogram.pmf(w) - dist[static_cast<std::size_t>(w)]);
  EXPECT_LT(0.5 * tv, 0.005);
}

TEST(FirstStageSim, LittlesLawHolds) {
  // E[queue length] = lambda_per_queue * E[w].
  FirstStageConfig cfg = base_config();
  cfg.measure_cycles = 200'000;
  const auto r = run_first_stage(cfg);
  const double lambda_per_queue = 0.5;  // k p / s
  EXPECT_NEAR(r.queue_depth.mean(), lambda_per_queue * r.waiting.mean(),
              0.01);
}

TEST(FirstStageSim, RejectsBadConfig) {
  FirstStageConfig cfg;
  cfg.p = 1.5;
  EXPECT_THROW(run_first_stage(cfg), std::invalid_argument);
  cfg = FirstStageConfig{};
  cfg.bulk = 0;
  EXPECT_THROW(run_first_stage(cfg), std::invalid_argument);
  cfg = FirstStageConfig{};
  cfg.k = 0;
  EXPECT_THROW(run_first_stage(cfg), std::invalid_argument);
}

TEST(FirstStageSim, HotspotTargetValidatedEvenWhenInactive) {
  // The regression this guards: an out-of-range target used to slip
  // through when hotspot == 0 and only exploded (or silently aliased)
  // once a caller turned the rate up. The check runs on every path.
  FirstStageConfig cfg = base_config();
  cfg.hotspot_target = cfg.s;  // first invalid output
  EXPECT_THROW(run_first_stage(cfg), std::invalid_argument);
  cfg = base_config();
  cfg.hotspot = 0.5;
  cfg.hotspot_target = 99;
  EXPECT_THROW(run_first_stage(cfg), std::invalid_argument);
  cfg = base_config();
  cfg.hotspot = -0.1;
  EXPECT_THROW(run_first_stage(cfg), std::invalid_argument);
  cfg = base_config();
  cfg.hotspot = 1.5;
  EXPECT_THROW(run_first_stage(cfg), std::invalid_argument);
}

TEST(FirstStageSim, InactiveHotspotPreservesRngStream) {
  // hotspot == 0 must draw nothing from the generator: results are
  // bit-identical to a config that never mentions the hot spot.
  FirstStageConfig plain = base_config();
  plain.measure_cycles = 20'000;
  FirstStageConfig with_target = plain;
  with_target.hotspot_target = 1;  // valid, but inert at rate 0
  const auto a = run_first_stage(plain);
  const auto b = run_first_stage(with_target);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.waiting.mean(), b.waiting.mean());
  EXPECT_EQ(a.waiting.variance(), b.waiting.variance());
}

TEST(FirstStageSim, SaturatedHotspotMatchesSingleQueueTheory) {
  // hotspot = 1 funnels every batch from k inputs into one queue, which
  // is exactly the k-input single-output switch of Theorem 1.
  FirstStageConfig cfg = base_config();
  cfg.k = 4;
  cfg.s = 4;
  cfg.p = 0.2;  // target queue sees lambda = 0.8
  cfg.hotspot = 1.0;
  cfg.hotspot_target = 2;
  const auto r = run_first_stage(cfg);
  const double want = core::closed::eq6_mean(4, 1, 0.2);
  EXPECT_NEAR(r.waiting.mean(), want, 0.05 * want);
}

}  // namespace
}  // namespace ksw::sim
