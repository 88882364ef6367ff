// The production engine (flat SoA queue pool + active-set scheduler,
// instantiated per run from service / buffering / instrument / packet
// policies) must be bit-identical to the seed engine kept as
// run_network_reference — not just statistically close. Both engines share
// the same counter-addressed draws and the same accumulator add order, so
// every derived quantity (moments, histograms, covariances, telemetry)
// matches exactly for a fixed seed. Any divergence here means the hot-path
// rewrite changed semantics.
//
// The Matrix suite crosses every policy axis against the oracle at both
// SIMD levels; the named cases below it add traffic and topology variety
// (omega wiring, k = 3, hotspots, bulk arrivals).
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "obs/report.hpp"
#include "sim/network.hpp"
#include "simd/simd.hpp"

namespace ksw::sim {
namespace {

std::string stable_report(const NetworkResults& r) {
  obs::ReportOptions opts;
  opts.include_wall = false;  // wall-clock timers are the only legit diff
  return obs::registry_to_json(r.metrics, opts).to_string(2) + "\n" +
         obs::trace_to_json(r.convergence).to_string(2) + "\n";
}

void expect_bit_identical(const NetworkConfig& cfg) {
  const NetworkResults fast = run_network(cfg);
  const NetworkResults ref = run_network_reference(cfg);

  EXPECT_EQ(fast.packets_injected, ref.packets_injected);
  EXPECT_EQ(fast.packets_delivered, ref.packets_delivered);
  EXPECT_EQ(fast.packets_dropped, ref.packets_dropped);

  ASSERT_EQ(fast.stage_wait.size(), ref.stage_wait.size());
  for (std::size_t s = 0; s < fast.stage_wait.size(); ++s) {
    SCOPED_TRACE("stage " + std::to_string(s));
    EXPECT_EQ(fast.stage_wait[s].count(), ref.stage_wait[s].count());
    // Bit-identity, not tolerance: Welford updates happened in the same
    // order, so the doubles agree exactly.
    EXPECT_EQ(fast.stage_wait[s].mean(), ref.stage_wait[s].mean());
    EXPECT_EQ(fast.stage_wait[s].variance(), ref.stage_wait[s].variance());
    EXPECT_EQ(fast.stage_wait[s].skewness(), ref.stage_wait[s].skewness());
    EXPECT_EQ(fast.stage_wait[s].min(), ref.stage_wait[s].min());
    EXPECT_EQ(fast.stage_wait[s].max(), ref.stage_wait[s].max());
    EXPECT_EQ(fast.stage_depth[s].count(), ref.stage_depth[s].count());
    EXPECT_EQ(fast.stage_depth[s].mean(), ref.stage_depth[s].mean());
    EXPECT_EQ(fast.stage_depth[s].variance(),
              ref.stage_depth[s].variance());
  }

  ASSERT_EQ(fast.stage_hist.size(), ref.stage_hist.size());
  for (std::size_t s = 0; s < fast.stage_hist.size(); ++s) {
    SCOPED_TRACE("stage_hist " + std::to_string(s));
    EXPECT_EQ(fast.stage_hist[s].total(), ref.stage_hist[s].total());
    EXPECT_EQ(fast.stage_hist[s].max_value(), ref.stage_hist[s].max_value());
    for (std::int64_t v = 0; v <= ref.stage_hist[s].max_value(); ++v)
      EXPECT_EQ(fast.stage_hist[s].count(v), ref.stage_hist[s].count(v));
  }

  ASSERT_EQ(fast.total_wait.size(), ref.total_wait.size());
  for (std::size_t c = 0; c < fast.total_wait.size(); ++c) {
    SCOPED_TRACE("checkpoint " + std::to_string(c));
    EXPECT_EQ(fast.total_wait[c].total(), ref.total_wait[c].total());
    EXPECT_EQ(fast.total_wait[c].max_value(), ref.total_wait[c].max_value());
    for (std::int64_t v = 0; v <= ref.total_wait[c].max_value(); ++v)
      EXPECT_EQ(fast.total_wait[c].count(v), ref.total_wait[c].count(v));
  }

  ASSERT_EQ(fast.stage_covariance.has_value(),
            ref.stage_covariance.has_value());
  if (ref.stage_covariance) {
    const auto& f = *fast.stage_covariance;
    const auto& r = *ref.stage_covariance;
    ASSERT_EQ(f.dims(), r.dims());
    EXPECT_EQ(f.count(), r.count());
    for (std::size_t i = 0; i < r.dims(); ++i) {
      EXPECT_EQ(f.mean(i), r.mean(i));
      for (std::size_t j = i; j < r.dims(); ++j)
        EXPECT_EQ(f.covariance(i, j), r.covariance(i, j));
    }
  }

  // Telemetry and convergence trace, serialized without wall-clock noise.
  EXPECT_EQ(stable_report(fast), stable_report(ref));
}

NetworkConfig base_config() {
  NetworkConfig cfg;
  cfg.k = 2;
  cfg.stages = 4;
  cfg.p = 0.6;
  cfg.warmup_cycles = 300;
  cfg.measure_cycles = 2'000;
  cfg.seed = 1234;
  cfg.track_stage_histograms = true;
  cfg.total_checkpoints = {2, 4};
  cfg.obs.enabled = true;
  cfg.obs.stride = 16;
  cfg.obs.trace_points = 6;
  return cfg;
}

TEST(EngineEquivalence, UniformTraffic) { expect_bit_identical(base_config()); }

TEST(EngineEquivalence, UniformOmega) {
  NetworkConfig cfg = base_config();
  cfg.topology = TopologyKind::kOmega;
  cfg.seed = 77;
  expect_bit_identical(cfg);
}

TEST(EngineEquivalence, NonPowerOfTwoSwitchDegree) {
  // k = 3 exercises the div/mod routing path instead of the shift/mask
  // fast path.
  NetworkConfig cfg = base_config();
  cfg.k = 3;
  cfg.stages = 3;
  cfg.total_checkpoints = {1, 3};
  cfg.seed = 5;
  expect_bit_identical(cfg);
}

TEST(EngineEquivalence, HotspotTraffic) {
  NetworkConfig cfg = base_config();
  cfg.hotspot = 0.08;
  cfg.hotspot_target = 13;  // valid: < 2^4 ports
  cfg.q = 0.1;
  cfg.seed = 42;
  expect_bit_identical(cfg);
}

TEST(EngineEquivalence, BulkArrivalsMultiCycleService) {
  // bulk > 1 plus a multi-size service distribution keeps queues deep and
  // services long, exercising the busy-expiry wheel and ring growth.
  NetworkConfig cfg = base_config();
  cfg.bulk = 3;
  cfg.p = 0.15;
  cfg.service = ServiceSpec::multi_size({{2, 0.7}, {5, 0.3}});
  cfg.measure_cycles = 1'500;
  cfg.seed = 9;
  cfg.track_correlations = true;
  expect_bit_identical(cfg);
}

TEST(EngineEquivalence, ServiceOutlastsTheExpiryWheel) {
  // 100-cycle services outlast the 64-slot expiry wheel, so busy ports
  // must survive a visit of their slot one round early; the Matrix
  // services never reach 64 cycles. Mean service 10.9 at p = 0.03 keeps
  // rho near 1/3. Infinite buffers, then credits.
  NetworkConfig cfg = base_config();
  cfg.p = 0.03;
  cfg.service = ServiceSpec::multi_size({{1, 0.9}, {100, 0.1}});
  cfg.measure_cycles = 3'000;
  cfg.seed = 31;
  {
    SCOPED_TRACE("infinite buffers");
    expect_bit_identical(cfg);
  }
  cfg.buffer_capacity = 2;
  cfg.flow = FlowControl::kCredit;
  cfg.credit_latency = 2;
  {
    SCOPED_TRACE("credit buffers");
    expect_bit_identical(cfg);
  }
}

TEST(EngineEquivalence, FiniteBuffersWithDrops) {
  // Small buffers at high load: injections get dropped and interior
  // transfers block, so the blocked/drop bookkeeping must match too.
  NetworkConfig cfg = base_config();
  cfg.buffer_capacity = 2;
  cfg.p = 0.9;
  cfg.service = ServiceSpec::deterministic(2);
  cfg.seed = 3;
  expect_bit_identical(cfg);
}

TEST(EngineEquivalence, StoreAndForwardFlowControl) {
  // SAF stamps downstream arrivals at t + m, a different eligibility path
  // than cut-through; multi-cycle service makes the difference live.
  NetworkConfig cfg = base_config();
  cfg.buffer_capacity = 3;
  cfg.p = 0.45;
  cfg.service = ServiceSpec::deterministic(2);
  cfg.flow = FlowControl::kStoreAndForward;
  cfg.seed = 11;
  expect_bit_identical(cfg);
}

TEST(EngineEquivalence, CreditFlowControl) {
  // Shallow buffers under pressure: credits exhaust, the latency ring
  // carries in-flight returns, and credit_stalls telemetry is live.
  NetworkConfig cfg = base_config();
  cfg.buffer_capacity = 1;
  cfg.p = 0.85;
  cfg.flow = FlowControl::kCredit;
  cfg.credit_latency = 3;
  cfg.seed = 17;
  expect_bit_identical(cfg);
}

TEST(EngineEquivalence, CorrelationTracking) {
  NetworkConfig cfg = base_config();
  cfg.track_correlations = true;
  cfg.p = 0.75;
  cfg.seed = 21;
  expect_bit_identical(cfg);
}

TEST(EngineEquivalence, GeometricServiceNoObs) {
  // Telemetry off: the sample_busy-gated path must not perturb results.
  NetworkConfig cfg;
  cfg.k = 4;
  cfg.stages = 3;
  cfg.p = 0.2;
  cfg.service = ServiceSpec::geometric(0.6);
  cfg.warmup_cycles = 200;
  cfg.measure_cycles = 1'500;
  cfg.seed = 64;
  cfg.total_checkpoints = {1, 3};
  expect_bit_identical(cfg);
}

// ---- Uninstrumented unit-service coverage ------------------------------
// Unit service + infinite queues + no instruments selects the compact
// 16-byte packet with every optional branch compiled out — the
// throughput-gate and book workload. base_config() turns obs on and so
// never reaches it; the configs below do.

/// Unit service, infinite queues, telemetry off.
NetworkConfig fast_config() {
  NetworkConfig cfg;
  cfg.k = 2;
  cfg.stages = 4;
  cfg.p = 0.6;
  cfg.warmup_cycles = 300;
  cfg.measure_cycles = 2'000;
  cfg.seed = 1234;
  cfg.total_checkpoints = {2, 4};
  return cfg;
}

TEST(EngineEquivalence, FastEngineUniformTraffic) {
  expect_bit_identical(fast_config());
}

TEST(EngineEquivalence, FastEngineMixedTrafficWideSwitch) {
  NetworkConfig cfg = fast_config();
  cfg.k = 4;
  cfg.stages = 3;
  cfg.p = 0.8;
  cfg.q = 0.1;
  cfg.hotspot = 0.05;
  cfg.hotspot_target = 60;  // valid: < 4^3 ports
  cfg.total_checkpoints = {1, 3};
  cfg.seed = 99;
  expect_bit_identical(cfg);
}

TEST(EngineEquivalence, FastEngineBulkArrivals) {
  NetworkConfig cfg = fast_config();
  cfg.bulk = 2;
  cfg.p = 0.35;
  cfg.seed = 31;
  expect_bit_identical(cfg);
}

// ---- Walk order ----------------------------------------------------------
// Infinite-buffer runs walk the stages downstream-first, the reference
// upstream-first. These configs are where a wrong order would show: a
// forward into an empty queue served again in the same cycle, several
// forwards into one queue, and the downstream peak depth read at push time.

TEST(EngineEquivalence, DownstreamFirstWalkAtVeryLightLoad) {
  // p = 0.02 over 10 stages: nearly every forward lands in an empty queue.
  NetworkConfig cfg = fast_config();
  cfg.stages = 10;
  cfg.p = 0.02;
  cfg.measure_cycles = 5'000;
  cfg.total_checkpoints = {1, 5, 10};
  cfg.seed = 2;
  expect_bit_identical(cfg);
}

TEST(EngineEquivalence, DownstreamFirstWalkBulkIntoOneQueue) {
  // Bulk 4 at k = 4: a port injects four packets for one destination, so
  // several forwards enter one downstream queue in the same cycle.
  NetworkConfig cfg = fast_config();
  cfg.k = 4;
  cfg.stages = 3;
  cfg.bulk = 4;
  cfg.p = 0.05;
  cfg.total_checkpoints = {1, 3};
  cfg.seed = 8;
  expect_bit_identical(cfg);
}

TEST(EngineEquivalence, DownstreamFirstWalkKeepsThePeakDepth) {
  // Every-cycle samples plus the convergence trace: the downstream peak
  // must count the head its stage popped earlier in the cycle.
  NetworkConfig cfg = base_config();
  cfg.k = 4;
  cfg.stages = 3;
  cfg.bulk = 2;
  cfg.p = 0.35;
  cfg.total_checkpoints = {1, 3};
  cfg.obs.stride = 1;
  cfg.obs.trace_points = 9;
  cfg.seed = 13;
  expect_bit_identical(cfg);
}

TEST(EngineEquivalence, FastEngineForcedScalarMatchesWidestSimd) {
  // The dispatch level must never change a single bit: run the identical
  // config once per level and compare through the reference oracle. This
  // is the in-process version of the CI forced-scalar (KSW_SIMD=off) job.
  const NetworkConfig cfg = fast_config();
  NetworkResults scalar, widest;
  {
    simd::ScopedForceLevel force(simd::Level::kScalar);
    scalar = run_network(cfg);
    expect_bit_identical(cfg);
  }
  {
    simd::ScopedForceLevel force(simd::Level::kAvx2);  // clamps if absent
    widest = run_network(cfg);
  }
  EXPECT_EQ(scalar.packets_delivered, widest.packets_delivered);
  ASSERT_EQ(scalar.stage_wait.size(), widest.stage_wait.size());
  for (std::size_t s = 0; s < scalar.stage_wait.size(); ++s) {
    EXPECT_EQ(scalar.stage_wait[s].count(), widest.stage_wait[s].count());
    EXPECT_EQ(scalar.stage_wait[s].mean(), widest.stage_wait[s].mean());
    EXPECT_EQ(scalar.stage_wait[s].variance(),
              widest.stage_wait[s].variance());
  }
}


// ---- Policy matrix -----------------------------------------------------
// service x buffering x instruments x SIMD level, each cell checked
// bit-for-bit against run_network_reference.

enum class Svc { kDet1, kDet4, kGeo, kMulti };
enum class Buf { kInfinite, kVct2, kSaf2, kCredit2Lat1, kCredit2Lat3 };
enum class Ins { kNone, kObsStride0, kObsStride1Trace, kStageHist, kCorr };

const char* name(Svc v) {
  static const char* const n[] = {"Det1", "Det4", "Geo", "Multi"};
  return n[static_cast<int>(v)];
}
const char* name(Buf v) {
  static const char* const n[] = {"Infinite", "Vct2", "Saf2", "Credit2Lat1",
                                  "Credit2Lat3"};
  return n[static_cast<int>(v)];
}
const char* name(Ins v) {
  static const char* const n[] = {"None", "ObsStride0", "ObsStride1Trace",
                                  "StageHist", "Corr"};
  return n[static_cast<int>(v)];
}

/// A small k=2, 4-stage network with the given service and buffering; load
/// is set per service so multi-cycle configs keep queues busy without
/// saturating, and finite buffers block and drop.
NetworkConfig policy_config(Svc svc, Buf buf) {
  NetworkConfig cfg;
  cfg.k = 2;
  cfg.stages = 4;
  cfg.warmup_cycles = 100;
  cfg.measure_cycles = 700;
  cfg.seed = 4242 + static_cast<std::uint64_t>(svc) * 10 +
             static_cast<std::uint64_t>(buf);
  cfg.total_checkpoints = {2, 4};
  switch (svc) {
    case Svc::kDet1:
      cfg.p = 0.7;
      break;
    case Svc::kDet4:
      cfg.service = ServiceSpec::deterministic(4);
      cfg.p = 0.2;
      break;
    case Svc::kGeo:
      cfg.service = ServiceSpec::geometric(0.5);
      cfg.p = 0.4;
      break;
    case Svc::kMulti:
      cfg.service = ServiceSpec::multi_size({{1, 0.5}, {3, 0.5}});
      cfg.p = 0.4;
      break;
  }
  switch (buf) {
    case Buf::kInfinite:
      break;
    case Buf::kVct2:
      cfg.buffer_capacity = 2;
      break;
    case Buf::kSaf2:
      cfg.buffer_capacity = 2;
      cfg.flow = FlowControl::kStoreAndForward;
      break;
    case Buf::kCredit2Lat1:
    case Buf::kCredit2Lat3:
      cfg.buffer_capacity = 2;
      cfg.flow = FlowControl::kCredit;
      cfg.credit_latency = buf == Buf::kCredit2Lat1 ? 1 : 3;
      break;
  }
  return cfg;
}

void add_instruments(NetworkConfig& cfg, Ins ins) {
  switch (ins) {
    case Ins::kNone:
      break;
    case Ins::kObsStride0:
      cfg.obs.enabled = true;
      cfg.obs.stride = 0;
      cfg.obs.trace_points = 0;
      break;
    case Ins::kObsStride1Trace:
      cfg.obs.enabled = true;
      cfg.obs.stride = 1;
      cfg.obs.trace_points = 7;
      break;
    case Ins::kStageHist:
      cfg.track_stage_histograms = true;
      break;
    case Ins::kCorr:
      cfg.track_correlations = true;
      break;
  }
}

using MatrixParam = std::tuple<Svc, Buf, Ins, simd::Level>;

class Matrix : public ::testing::TestWithParam<MatrixParam> {};

TEST_P(Matrix, BitIdenticalToReference) {
  const auto [svc, buf, ins, level] = GetParam();
  NetworkConfig cfg = policy_config(svc, buf);
  add_instruments(cfg, ins);
  simd::ScopedForceLevel force(level);  // clamps when AVX2 is absent
  expect_bit_identical(cfg);
}

INSTANTIATE_TEST_SUITE_P(
    EngineEquivalence, Matrix,
    ::testing::Combine(
        ::testing::Values(Svc::kDet1, Svc::kDet4, Svc::kGeo, Svc::kMulti),
        ::testing::Values(Buf::kInfinite, Buf::kVct2, Buf::kSaf2,
                          Buf::kCredit2Lat1, Buf::kCredit2Lat3),
        ::testing::Values(Ins::kNone, Ins::kObsStride0, Ins::kObsStride1Trace,
                          Ins::kStageHist, Ins::kCorr),
        ::testing::Values(simd::Level::kScalar, simd::Level::kAvx2)),
    [](const ::testing::TestParamInfo<MatrixParam>& p) {
      return std::string(name(std::get<0>(p.param))) +
             name(std::get<1>(p.param)) + name(std::get<2>(p.param)) +
             "_" + simd::to_string(std::get<3>(p.param));
    });

// ---- Instrument invariance -----------------------------------------------
// Turning instruments on changes which engine instantiation runs, never a
// paper statistic: waits, depths, totals and packet counts must match the
// uninstrumented run exactly.

using InvarianceParam = std::tuple<Svc, Buf>;

class ObsInvariance : public ::testing::TestWithParam<InvarianceParam> {};

TEST_P(ObsInvariance, InstrumentsNeverMoveStatistics) {
  const auto [svc, buf] = GetParam();
  const NetworkConfig plain = policy_config(svc, buf);
  const NetworkResults base = run_network(plain);
  for (const Ins ins : {Ins::kObsStride0, Ins::kObsStride1Trace,
                        Ins::kStageHist, Ins::kCorr}) {
    SCOPED_TRACE(name(ins));
    NetworkConfig cfg = plain;
    add_instruments(cfg, ins);
    const NetworkResults r = run_network(cfg);
    EXPECT_EQ(r.packets_injected, base.packets_injected);
    EXPECT_EQ(r.packets_delivered, base.packets_delivered);
    EXPECT_EQ(r.packets_dropped, base.packets_dropped);
    ASSERT_EQ(r.stage_wait.size(), base.stage_wait.size());
    for (std::size_t s = 0; s < base.stage_wait.size(); ++s) {
      SCOPED_TRACE("stage " + std::to_string(s));
      const auto w = r.stage_wait[s].raw(), bw = base.stage_wait[s].raw();
      EXPECT_EQ(w.n, bw.n);
      EXPECT_EQ(w.s1, bw.s1);
      EXPECT_TRUE(w.s2 == bw.s2);
      EXPECT_TRUE(w.s3 == bw.s3);
      EXPECT_EQ(w.min, bw.min);
      EXPECT_EQ(w.max, bw.max);
      const auto d = r.stage_depth[s].raw(), bd = base.stage_depth[s].raw();
      EXPECT_EQ(d.n, bd.n);
      EXPECT_EQ(d.s1, bd.s1);
      EXPECT_TRUE(d.s2 == bd.s2);
    }
    ASSERT_EQ(r.total_wait.size(), base.total_wait.size());
    for (std::size_t c = 0; c < base.total_wait.size(); ++c) {
      EXPECT_EQ(r.total_wait[c].total(), base.total_wait[c].total());
      EXPECT_EQ(r.total_wait[c].max_value(), base.total_wait[c].max_value());
      for (std::int64_t v = 0; v <= base.total_wait[c].max_value(); ++v)
        EXPECT_EQ(r.total_wait[c].count(v), base.total_wait[c].count(v));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    EngineEquivalence, ObsInvariance,
    ::testing::Combine(
        ::testing::Values(Svc::kDet1, Svc::kDet4, Svc::kGeo, Svc::kMulti),
        ::testing::Values(Buf::kInfinite, Buf::kVct2, Buf::kSaf2,
                          Buf::kCredit2Lat1, Buf::kCredit2Lat3)),
    [](const ::testing::TestParamInfo<InvarianceParam>& p) {
      return std::string(name(std::get<0>(p.param))) +
             name(std::get<1>(p.param));
    });

}  // namespace
}  // namespace ksw::sim
