#include "obs/registry.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "par/thread_pool.hpp"
#include "sim/replicate.hpp"

namespace ksw::obs {
namespace {

// ---------------------------------------------------------------------------
// Metric primitives
// ---------------------------------------------------------------------------

TEST(Counter, IncrementsAndMerges) {
  Counter a;
  a.inc();
  a.inc(41);
  EXPECT_EQ(a.value(), 42u);
  Counter b;
  b.inc(8);
  a.merge(b);
  EXPECT_EQ(a.value(), 50u);
}

TEST(Gauge, RecordMaxKeepsHighWaterMark) {
  Gauge g;
  g.record_max(3.0);
  g.record_max(1.0);
  EXPECT_DOUBLE_EQ(g.value(), 3.0);
  g.set(0.5);
  EXPECT_DOUBLE_EQ(g.value(), 0.5);
  Gauge other;
  other.record_max(2.5);
  g.merge(other);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
}

TEST(HistogramMetric, BucketEdges) {
  // Three buckets of width 2 starting at 1: [1,3), [3,5), [5,7).
  Histogram h(1.0, 2.0, 3);
  h.record(0.999);  // underflow
  h.record(1.0);    // exactly on the lower edge -> bucket 0
  h.record(2.999);  // just under the first boundary -> bucket 0
  h.record(3.0);    // exactly on a boundary -> upper bucket
  h.record(6.999);  // last bucket
  h.record(7.0);    // exactly past the end -> overflow
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.bucket(0), 2u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(2), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.total(), 6u);
  EXPECT_DOUBLE_EQ(h.lower_edge(0), 1.0);
  EXPECT_DOUBLE_EQ(h.lower_edge(3), 7.0);
}

TEST(HistogramMetric, WeightedRecordAndMean) {
  Histogram h(0.0, 1.0, 4);
  h.record(2.0, 3);
  EXPECT_EQ(h.bucket(2), 3u);
  EXPECT_EQ(h.total(), 3u);
  EXPECT_DOUBLE_EQ(h.mean(), 2.0);
}

TEST(HistogramMetric, QuantileInterpolatesWithinBuckets) {
  // Four buckets of width 10 on [0, 40); 10 samples spread uniformly
  // inside bucket 1 mean the rank fraction interpolates linearly.
  Histogram h(0.0, 10.0, 4);
  h.record(15.0, 10);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 10.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 15.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 20.0);
}

TEST(HistogramMetric, QuantileSpansBuckets) {
  Histogram h(0.0, 1.0, 4);
  h.record(0.5, 1);  // bucket 0
  h.record(1.5, 1);  // bucket 1
  h.record(2.5, 2);  // bucket 2
  // Half the mass lies at or below the end of bucket 1.
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 2.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.25), 1.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 3.0);
}

TEST(HistogramMetric, QuantileEdgeCases) {
  Histogram h(10.0, 5.0, 2);
  // Empty histogram: every quantile clamps to the lower bound. The old
  // behavior returned a literal 0.0, which lies outside [10, 20].
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 10.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 10.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 10.0);
  h.record(5.0);   // underflow
  h.record(99.0);  // overflow
  EXPECT_DOUBLE_EQ(h.quantile(0.25), 10.0);  // underflow reports the bound
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 20.0);   // overflow reports the top edge
  EXPECT_THROW(h.quantile(-0.1), std::invalid_argument);
  EXPECT_THROW(h.quantile(1.1), std::invalid_argument);
}

TEST(HistogramMetric, QuantileStaysWithinRange) {
  // With any sample mix, q = 0 and q = 1 never extrapolate past the
  // bucket edges and never produce NaN.
  Histogram h(10.0, 5.0, 2);
  h.record(12.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 10.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 15.0);
  h.record(17.0, 3);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 10.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 20.0);
  for (double q : {0.0, 0.1, 0.5, 0.9, 1.0}) {
    const double v = h.quantile(q);
    EXPECT_GE(v, 10.0);
    EXPECT_LE(v, 20.0);
  }
}

TEST(HistogramMetric, MergeRequiresSameLayout) {
  Histogram a(0.0, 1.0, 4);
  Histogram b(0.0, 1.0, 4);
  a.record(1.0);
  b.record(1.0);
  b.record(9.0);
  a.merge(b);
  EXPECT_EQ(a.bucket(1), 2u);
  EXPECT_EQ(a.overflow(), 1u);
  Histogram c(0.0, 2.0, 4);
  EXPECT_THROW(a.merge(c), std::invalid_argument);
}

TEST(TimerMetric, ScopedTimerNesting) {
  Timer outer;
  Timer inner;
  {
    ScopedTimer o(outer);
    {
      ScopedTimer i(inner);
      // Busy-wait long enough to be visible on any clock.
      const auto start = std::chrono::steady_clock::now();
      while (std::chrono::steady_clock::now() - start <
             std::chrono::microseconds(200)) {
      }
    }
  }
  EXPECT_EQ(outer.calls(), 1u);
  EXPECT_EQ(inner.calls(), 1u);
  EXPECT_GT(inner.nanos(), 0u);
  // The outer scope strictly contains the inner scope.
  EXPECT_GE(outer.nanos(), inner.nanos());
}

TEST(TimerMetric, NullScopedTimerIsNoop) {
  { ScopedTimer t(nullptr); }  // must not crash
  Timer timer;
  { ScopedTimer t(&timer); }
  EXPECT_EQ(timer.calls(), 1u);
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

TEST(Registry, FindOrCreateReturnsStableHandles) {
  Registry reg;
  Counter& c = reg.counter("a");
  c.inc();
  EXPECT_EQ(reg.counter("a").value(), 1u);
  EXPECT_EQ(&reg.counter("a"), &c);
}

TEST(Registry, HistogramLayoutConflictThrows) {
  Registry reg;
  reg.histogram("h", 0.0, 1.0, 8);
  EXPECT_NO_THROW(reg.histogram("h", 0.0, 1.0, 8));
  EXPECT_THROW(reg.histogram("h", 0.0, 2.0, 8), std::invalid_argument);
  EXPECT_THROW(reg.histogram("h", 0.0, 1.0, 4), std::invalid_argument);
}

TEST(Registry, MergeCombinesAndAdoptsMetrics) {
  Registry a;
  a.counter("events").inc(2);
  a.gauge("peak").record_max(1.0);
  a.histogram("occ", 0.0, 1.0, 4).record(1.0);

  Registry b;
  b.counter("events").inc(3);
  b.counter("only_b").inc(7);
  b.gauge("peak").record_max(5.0);
  b.histogram("occ", 0.0, 1.0, 4).record(1.0);
  b.timer("phase").add(std::chrono::nanoseconds(10));

  a.merge(b);
  EXPECT_EQ(a.counter("events").value(), 5u);
  EXPECT_EQ(a.counter("only_b").value(), 7u);
  EXPECT_DOUBLE_EQ(a.gauge("peak").value(), 5.0);
  EXPECT_EQ(a.histogram("occ", 0.0, 1.0, 4).bucket(1), 2u);
  EXPECT_EQ(a.timer("phase").calls(), 1u);
}

TEST(Registry, CopyIsDeep) {
  Registry a;
  a.counter("n").inc(4);
  Registry b = a;
  b.counter("n").inc();
  EXPECT_EQ(a.counter("n").value(), 4u);
  EXPECT_EQ(b.counter("n").value(), 5u);
}

// ---------------------------------------------------------------------------
// End-to-end determinism: same seed => bit-identical report, any threads
// ---------------------------------------------------------------------------

std::string stable_report(const sim::NetworkResults& r) {
  ReportOptions opts;
  opts.include_wall = false;
  return registry_to_json(r.metrics, opts).to_string(2) + "\n" +
         trace_to_json(r.convergence).to_string(2) + "\n";
}

TEST(ObsDeterminism, ReportBitIdenticalAcross1_2_8Threads) {
  sim::NetworkConfig cfg;
  cfg.k = 2;
  cfg.stages = 3;
  cfg.p = 0.5;
  cfg.warmup_cycles = 500;
  cfg.measure_cycles = 2000;
  cfg.seed = 99;
  cfg.obs.enabled = true;
  cfg.obs.stride = 16;
  cfg.obs.trace_points = 8;

  std::vector<std::string> reports;
  for (unsigned threads : {1u, 2u, 8u}) {
    par::ThreadPool pool(threads);
    const sim::NetworkResults r = sim::replicate_network(cfg, 4, pool);
    reports.push_back(stable_report(r));
  }
  EXPECT_EQ(reports[0], reports[1]);
  EXPECT_EQ(reports[0], reports[2]);
  EXPECT_NE(reports[0].find("sim.stage01.occupancy"), std::string::npos);
  EXPECT_NE(reports[0].find("sim.phase.warmup"), std::string::npos);
  EXPECT_NE(reports[0].find("sim.phase.merge"), std::string::npos);
}

TEST(ObsDeterminism, MergedTraceEqualsPointwiseSums) {
  sim::NetworkConfig cfg;
  cfg.k = 2;
  cfg.stages = 2;
  cfg.p = 0.4;
  cfg.warmup_cycles = 200;
  cfg.measure_cycles = 800;
  cfg.obs.enabled = true;
  cfg.obs.trace_points = 4;

  cfg.seed = sim::replicate_seed(5, 0);
  const sim::NetworkResults a = sim::run_network(cfg);
  cfg.seed = sim::replicate_seed(5, 1);
  const sim::NetworkResults b = sim::run_network(cfg);

  ConvergenceTrace sum = a.convergence;
  sum.merge(b.convergence);

  par::ThreadPool pool(2);
  cfg.seed = 5;
  const sim::NetworkResults merged = sim::replicate_network(cfg, 2, pool);
  ASSERT_EQ(merged.convergence.points(), sum.points());
  for (std::size_t p = 0; p < sum.points(); ++p)
    for (std::size_t s = 0; s < cfg.stages; ++s) {
      EXPECT_DOUBLE_EQ(merged.convergence.wait_sum[p][s], sum.wait_sum[p][s]);
      EXPECT_EQ(merged.convergence.wait_count[p][s], sum.wait_count[p][s]);
    }
}

TEST(ConvergenceTraceTest, MergeShapeMismatchThrows) {
  ConvergenceTrace a;
  a.cycles = {10, 20};
  a.wait_sum = {{1.0}, {2.0}};
  a.wait_count = {{1}, {2}};
  ConvergenceTrace b;
  b.cycles = {10};
  b.wait_sum = {{1.0}};
  b.wait_count = {{1}};
  EXPECT_THROW(a.merge(b), std::invalid_argument);
  ConvergenceTrace empty;
  EXPECT_NO_THROW(a.merge(empty));
  EXPECT_DOUBLE_EQ(a.mean(1, 0), 1.0);
}

}  // namespace
}  // namespace ksw::obs
