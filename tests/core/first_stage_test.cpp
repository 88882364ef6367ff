// Validation of Theorem 1: the generic transform machinery must agree with
// the paper's printed closed forms, with the series-inverted distribution,
// and with known limit cases — across wide parameter sweeps.
#include "core/first_stage.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>
#include <vector>

#include "core/closed_forms.hpp"
#include "core/mg1.hpp"
#include "support/error.hpp"

namespace ksw::core {
namespace {

QueueSpec uniform_unit_spec(unsigned k, unsigned s, double p) {
  return {std::shared_ptr<ArrivalModel>(make_uniform_arrivals(k, s, p)),
          std::make_shared<DeterministicService>(1)};
}

// ---------------------------------------------------------------------------
// Sweep: uniform traffic, unit service (eqs. 6 and 7)
// ---------------------------------------------------------------------------

class UniformUnitSweep
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned, double>> {
};

bool unstable(unsigned k, unsigned s, double p) {
  return static_cast<double>(k) * p / static_cast<double>(s) >= 1.0;
}

TEST_P(UniformUnitSweep, GenericMatchesClosedForm) {
  const auto [k, s, p] = GetParam();
  if (unstable(k, s, p)) GTEST_SKIP() << "rho >= 1";
  const FirstStage fs(uniform_unit_spec(k, s, p));
  const WaitingMoments m = fs.moments();
  EXPECT_NEAR(m.mean, closed::eq6_mean(k, s, p), 1e-10);
  EXPECT_NEAR(m.variance, closed::eq7_variance(k, s, p), 1e-10);
}

TEST_P(UniformUnitSweep, DistributionReproducesMoments) {
  const auto [k, s, p] = GetParam();
  if (unstable(k, s, p)) GTEST_SKIP() << "rho >= 1";
  const FirstStage fs(uniform_unit_spec(k, s, p));
  const auto dist = fs.distribution(2048);
  double sum = 0.0, mean = 0.0, second = 0.0;
  for (std::size_t j = 0; j < dist.size(); ++j) {
    EXPECT_GE(dist[j], -1e-12) << "negative probability at " << j;
    sum += dist[j];
    mean += static_cast<double>(j) * dist[j];
    second += static_cast<double>(j) * static_cast<double>(j) * dist[j];
  }
  EXPECT_NEAR(sum, 1.0, 1e-8);
  const WaitingMoments m = fs.moments();
  // The j- and j^2-weighted sums weight the tail most; compare
  // relatively.
  EXPECT_NEAR(mean, m.mean, 1e-5 * (1.0 + m.mean));
  EXPECT_NEAR(second - mean * mean, m.variance, 5e-3 * (1.0 + m.variance));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, UniformUnitSweep,
    ::testing::Combine(::testing::Values(2u, 4u, 8u),
                       ::testing::Values(2u, 4u, 8u),
                       ::testing::Values(0.1, 0.3, 0.5, 0.7, 0.9)));

// ---------------------------------------------------------------------------
// Sweep: bulk arrivals (Section III-A-2)
// ---------------------------------------------------------------------------

class BulkSweep
    : public ::testing::TestWithParam<std::tuple<unsigned, double, unsigned>> {
};

TEST_P(BulkSweep, GenericMatchesClosedForm) {
  const auto [k, p, b] = GetParam();
  if (p * static_cast<double>(b) >= 1.0) GTEST_SKIP() << "rho >= 1";
  QueueSpec spec{std::shared_ptr<ArrivalModel>(make_bulk_arrivals(k, k, p, b)),
                 std::make_shared<DeterministicService>(1)};
  const FirstStage fs(spec);
  const WaitingMoments m = fs.moments();
  EXPECT_NEAR(m.mean, closed::bulk_mean(k, k, p, b), 1e-10);
  EXPECT_NEAR(m.variance, closed::bulk_variance(k, k, p, b), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Grid, BulkSweep,
                         ::testing::Combine(::testing::Values(2u, 4u),
                                            ::testing::Values(0.05, 0.1, 0.2),
                                            ::testing::Values(1u, 2u, 4u,
                                                              8u)));

TEST(Bulk, BEqualsOneReducesToUniform) {
  for (double p : {0.2, 0.6}) {
    EXPECT_NEAR(closed::bulk_mean(2, 2, p, 1), closed::eq6_mean(2, 2, p),
                1e-12);
    EXPECT_NEAR(closed::bulk_variance(2, 2, p, 1),
                closed::eq7_variance(2, 2, p), 1e-12);
  }
}

// ---------------------------------------------------------------------------
// Sweep: nonuniform favorite-output traffic (Section III-A-3)
// ---------------------------------------------------------------------------

class NonuniformSweep
    : public ::testing::TestWithParam<std::tuple<unsigned, double, double>> {};

TEST_P(NonuniformSweep, GenericMatchesClosedForm) {
  const auto [k, p, q] = GetParam();
  QueueSpec spec{
      std::shared_ptr<ArrivalModel>(make_nonuniform_arrivals(k, p, q)),
      std::make_shared<DeterministicService>(1)};
  const FirstStage fs(spec);
  const WaitingMoments m = fs.moments();
  EXPECT_NEAR(m.mean, closed::nonuniform_mean(k, p, q), 1e-10);
  EXPECT_NEAR(m.variance, closed::nonuniform_variance(k, p, q), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, NonuniformSweep,
    ::testing::Combine(::testing::Values(2u, 4u, 8u),
                       ::testing::Values(0.3, 0.5, 0.8),
                       ::testing::Values(0.0, 0.25, 0.5, 0.75, 0.95)));

TEST(Nonuniform, FullyFavoredHasZeroWaiting) {
  // q = 1, b = 1: each queue sees one Bernoulli input -> no waiting.
  QueueSpec spec{
      std::shared_ptr<ArrivalModel>(make_nonuniform_arrivals(4, 0.7, 1.0)),
      std::make_shared<DeterministicService>(1)};
  const WaitingMoments m = FirstStage(spec).moments();
  EXPECT_NEAR(m.mean, 0.0, 1e-12);
  EXPECT_NEAR(m.variance, 0.0, 1e-12);
}

// ---------------------------------------------------------------------------
// Sweep: constant service time m (Section III-D-1, eqs. 8 and 9)
// ---------------------------------------------------------------------------

class ConstantServiceSweep
    : public ::testing::TestWithParam<std::tuple<unsigned, double, unsigned>> {
};

TEST_P(ConstantServiceSweep, GenericMatchesClosedForm) {
  const auto [k, rho, m] = GetParam();
  const double p = rho / static_cast<double>(m);
  QueueSpec spec{std::shared_ptr<ArrivalModel>(make_uniform_arrivals(k, k, p)),
                 std::make_shared<DeterministicService>(m)};
  const FirstStage fs(spec);
  const WaitingMoments wm = fs.moments();
  EXPECT_NEAR(wm.mean, closed::eq8_mean(k, k, p, m), 1e-9);
  EXPECT_NEAR(wm.variance, closed::eq9_variance(k, k, p, m), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ConstantServiceSweep,
    ::testing::Combine(::testing::Values(2u, 4u),
                       ::testing::Values(0.2, 0.5, 0.8),
                       ::testing::Values(1u, 2u, 4u, 8u, 16u)));

TEST(ConstantService, PaperTableIIIAnchors) {
  // ANALYSIS row values implied by eq. (8) at rho = 0.5, k = 2.
  EXPECT_NEAR(closed::eq8_mean(2, 2, 0.25, 2), 0.75, 1e-12);
  EXPECT_NEAR(closed::eq8_mean(2, 2, 0.125, 4), 1.75, 1e-12);
  EXPECT_NEAR(closed::eq8_mean(2, 2, 0.0625, 8), 3.75, 1e-12);
}

// ---------------------------------------------------------------------------
// Multiple service sizes (Section III-D-2)
// ---------------------------------------------------------------------------

TEST(MultiSize, DegenerateMixtureMatchesConstant) {
  QueueSpec mixed{
      std::shared_ptr<ArrivalModel>(make_uniform_arrivals(2, 2, 0.1)),
      std::make_shared<MultiSizeService>(
          std::vector<MultiSizeService::Size>{{4, 1.0}})};
  QueueSpec constant{
      std::shared_ptr<ArrivalModel>(make_uniform_arrivals(2, 2, 0.1)),
      std::make_shared<DeterministicService>(4)};
  const WaitingMoments a = FirstStage(mixed).moments();
  const WaitingMoments b = FirstStage(constant).moments();
  EXPECT_NEAR(a.mean, b.mean, 1e-12);
  EXPECT_NEAR(a.variance, b.variance, 1e-12);
}

TEST(MultiSize, GenericMatchesEq2WithMixtureMoments) {
  // Table IV traffic: sizes 4 and 8.
  for (double g4 : {0.25, 0.5, 0.75}) {
    const std::vector<MultiSizeService::Size> sizes = {{4, g4},
                                                       {8, 1.0 - g4}};
    const double mbar = 4.0 * g4 + 8.0 * (1.0 - g4);
    const double p = 0.5 / mbar;  // rho = 0.5
    QueueSpec spec{
        std::shared_ptr<ArrivalModel>(make_uniform_arrivals(2, 2, p)),
        std::make_shared<MultiSizeService>(sizes)};
    const FirstStage fs(spec);
    const double lambda = p;
    const double r2 = lambda * lambda * 0.5;
    const double u2 = g4 * 12.0 + (1.0 - g4) * 56.0;
    EXPECT_NEAR(fs.moments().mean, closed::eq2_mean(lambda, mbar, r2, u2),
                1e-10);
  }
}

// ---------------------------------------------------------------------------
// Geometric service and the M/M/1 limit (Sections III-B, III-C)
// ---------------------------------------------------------------------------

TEST(GeometricServiceQueue, MatchesClosedForm) {
  for (double mu : {0.3, 0.5, 0.9}) {
    const double p = 0.4 * mu;  // rho = 0.4
    QueueSpec spec{
        std::shared_ptr<ArrivalModel>(make_uniform_arrivals(2, 2, p)),
        std::make_shared<GeometricService>(mu)};
    const WaitingMoments m = FirstStage(spec).moments();
    EXPECT_NEAR(m.mean, closed::geometric_mean(2, 2, p, mu), 1e-10);
    EXPECT_NEAR(m.variance, closed::geometric_variance(2, 2, p, mu), 1e-9);
  }
}

TEST(GeometricServiceQueue, MuOneMatchesUnitService) {
  const double p = 0.5;
  QueueSpec geo{std::shared_ptr<ArrivalModel>(make_uniform_arrivals(2, 2, p)),
                std::make_shared<GeometricService>(1.0)};
  const WaitingMoments m = FirstStage(geo).moments();
  EXPECT_NEAR(m.mean, closed::eq6_mean(2, 2, p), 1e-10);
  EXPECT_NEAR(m.variance, closed::eq7_variance(2, 2, p), 1e-10);
}

TEST(Mm1Limit, DiscreteQueueConvergesToMm1) {
  // Section III-C: scale to n cycles per time unit (mu -> mu0/n, p -> p0/n);
  // the discrete waiting time (in scaled cycles, i.e. divided by n)
  // converges to the M/M/1 waiting time.
  const double mu0 = 1.0;   // continuous service rate
  const double rho = 0.6;   // traffic intensity
  const auto ref = mg1::mm1_waiting(rho * mu0, mu0);
  double prev_err = 1e9;
  for (double n : {8.0, 32.0, 128.0}) {
    const double mu = mu0 / n;
    const double p = rho * mu;  // per-cycle arrival probability, k = s
    QueueSpec spec{
        std::shared_ptr<ArrivalModel>(make_uniform_arrivals(1, 1, p)),
        std::make_shared<GeometricService>(mu)};
    const WaitingMoments m = FirstStage(spec).moments();
    const double scaled_mean = m.mean / n;
    const double err = std::abs(scaled_mean - ref.mean);
    EXPECT_LT(err, prev_err) << "n=" << n;
    prev_err = err;
    if (n >= 128.0) {
      EXPECT_NEAR(scaled_mean, ref.mean, 0.02 * ref.mean);
      EXPECT_NEAR(m.variance / (n * n), ref.variance, 0.03 * ref.variance);
    }
  }
}

// ---------------------------------------------------------------------------
// Transform and edge cases
// ---------------------------------------------------------------------------

TEST(Transform, MatchesSeriesAtInteriorPoint) {
  const FirstStage fs(uniform_unit_spec(2, 2, 0.5));
  const auto dist = fs.distribution(4096);
  for (double z : {0.0, 0.25, 0.5, 0.75}) {
    double series_val = 0.0;
    for (std::size_t j = dist.size(); j-- > 0;)
      series_val = series_val * z + dist[j];
    EXPECT_NEAR(fs.transform_at(z), series_val, 1e-9) << "z=" << z;
  }
}

TEST(Transform, ProbabilityOfZeroWait) {
  // P(w=0) = t(0) = (1-rho)/lambda * (1 - R(0))/R(0) ... spot value via
  // both paths.
  const FirstStage fs(uniform_unit_spec(2, 2, 0.5));
  const auto dist = fs.distribution(8);
  EXPECT_NEAR(dist[0], fs.transform_at(0.0), 1e-12);
}

TEST(FirstStage, MeanIncreasesWithLoad) {
  double prev = -1.0;
  for (double p : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    const double mean = FirstStage(uniform_unit_spec(2, 2, p)).moments().mean;
    EXPECT_GT(mean, prev);
    prev = mean;
  }
}

TEST(FirstStage, SkewnessIsPositive) {
  // Waiting-time distributions here are right-skewed.
  const WaitingMoments m =
      FirstStage(uniform_unit_spec(2, 2, 0.5)).moments();
  EXPECT_GT(m.skewness(), 0.0);
}

TEST(FirstStage, DelayAddsService) {
  QueueSpec spec{
      std::shared_ptr<ArrivalModel>(make_uniform_arrivals(2, 2, 0.1)),
      std::make_shared<MultiSizeService>(
          std::vector<MultiSizeService::Size>{{2, 0.5}, {6, 0.5}})};
  const FirstStage fs(spec);
  EXPECT_NEAR(fs.mean_delay(), fs.moments().mean + 4.0, 1e-12);
  // Var(service) = E[U^2]-16 with E[U^2] = 0.5*4+0.5*36 = 20 -> 4.
  EXPECT_NEAR(fs.variance_delay(), fs.moments().variance + 4.0, 1e-12);
}

TEST(FirstStage, RejectsUnstableAndDegenerate) {
  // Saturated / overloaded queues are numeric errors (typed, so the CLI
  // maps them to the numeric exit code and can suggest a rho cap).
  try {
    FirstStage fs(uniform_unit_spec(2, 2, 1.0));  // rho = 1
    FAIL() << "expected ksw::Error";
  } catch (const ksw::Error& e) {
    EXPECT_EQ(e.kind(), ksw::ErrorKind::kNumeric);
    EXPECT_NE(std::string(e.what()).find("rho"), std::string::npos);
  }
  QueueSpec overloaded{
      std::shared_ptr<ArrivalModel>(make_uniform_arrivals(2, 2, 0.6)),
      std::make_shared<DeterministicService>(2)};  // rho = 1.2
  EXPECT_THROW(FirstStage{overloaded}, ksw::Error);
  QueueSpec null_model{nullptr, std::make_shared<DeterministicService>(1)};
  EXPECT_THROW(FirstStage{null_model}, std::invalid_argument);
}

TEST(FirstStage, RejectsLoadsInsideTheSaturationMargin) {
  // rho within 1e-6 of 1 is rejected up front with the suggested cap
  // rather than surfacing later as an ill-conditioned series division.
  try {
    FirstStage fs(uniform_unit_spec(1, 1, 1.0 - 1e-9));
    FAIL() << "expected ksw::Error";
  } catch (const ksw::Error& e) {
    EXPECT_EQ(e.kind(), ksw::ErrorKind::kNumeric);
    EXPECT_NE(std::string(e.what()).find("saturation"), std::string::npos);
  }
  // Comfortably below the margin still constructs.
  EXPECT_NO_THROW(FirstStage(uniform_unit_spec(1, 1, 0.999)));
}

TEST(UnfinishedWork, DistributionIsNormalized) {
  const FirstStage fs(uniform_unit_spec(2, 2, 0.5));
  const auto pmf = fs.unfinished_work_distribution(512);
  double sum = 0.0;
  for (double x : pmf) {
    EXPECT_GE(x, -1e-12);
    sum += x;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(UnfinishedWork, ZeroProbabilityMatchesClosedForm) {
  // Psi(0) = (1 - rho) / C(0) with C(0) = R(U(0)) = P(no arrivals).
  const FirstStage fs(uniform_unit_spec(2, 2, 0.5));
  const auto pmf = fs.unfinished_work_distribution(8);
  EXPECT_NEAR(pmf[0], 0.5 / 0.5625, 1e-12);
}

TEST(UnfinishedWork, WaitDecomposition) {
  // w = s + w' with E[w'] = m R''(1) / (2 lambda) (same-cycle batch
  // predecessors), so E[s] = E[w] - m R''(1)/(2 lambda).
  for (double p : {0.3, 0.5, 0.8}) {
    const FirstStage fs(uniform_unit_spec(2, 2, p));
    const auto pmf = fs.unfinished_work_distribution(2048);
    double mean_s = 0.0;
    for (std::size_t j = 0; j < pmf.size(); ++j)
      mean_s += static_cast<double>(j) * pmf[j];
    const double lambda = p;
    const double r2 = lambda * lambda * 0.5;
    EXPECT_NEAR(mean_s, fs.moments().mean - r2 / (2.0 * lambda), 1e-6)
        << "p=" << p;
  }
}

TEST(UnfinishedWork, OverflowProbabilityDecreasesInCapacity) {
  const FirstStage fs(uniform_unit_spec(2, 2, 0.8));
  double prev = 1.0;
  for (std::size_t c : {0u, 2u, 4u, 8u, 16u}) {
    const double overflow = fs.overflow_probability(c);
    EXPECT_LT(overflow, prev);
    EXPECT_GE(overflow, 0.0);
    prev = overflow;
  }
  EXPECT_LT(fs.overflow_probability(64), 1e-3);
}

TEST(FirstStage, DistributionTailIsTheMissingMass) {
  EXPECT_EQ(distribution_tail(std::vector<double>{}), 1.0);
  EXPECT_EQ(distribution_tail(std::vector<double>{0.5, 0.25, 0.25}), 0.0);
  // Summed in long double: a term below half an ulp of 1 still counts.
  EXPECT_NEAR(distribution_tail(std::vector<double>{0.75, 1e-17}), 0.25 - 1e-17,
              1e-30);
  const auto dist = FirstStage(uniform_unit_spec(4, 4, 0.8)).distribution(64);
  const double tail = distribution_tail(dist);
  EXPECT_GT(tail, 0.0);
  EXPECT_LT(tail, 1e-6);
}

// Heavy traffic (Boon, van der Mei & Winands, arXiv:1408.0151): for uniform
// traffic with det:m service, eq. (2) gives
//   (1-rho) E[w] = rho (m - 1/k) / 2  ->  (m - 1/k)/2  as rho -> 1.
// Three independent routes must agree: the moment expansion, the first
// moment of a 2^16-term distribution, and the closed-form limit, which
// they approach from below by exactly the factor rho. The distribution
// must also account for all but 1e-12 of the mass: round-off in a
// non-decaying tail would show up here first.
TEST(HeavyTraffic, ScaledMeanWaitApproachesTheEq2Limit) {
  constexpr unsigned k = 4;
  for (const unsigned m : {1u, 4u})
    for (const double rho : {0.99, 0.999}) {
      const FirstStage fs(
          {std::shared_ptr<ArrivalModel>(make_uniform_arrivals(k, k, rho / m)),
           std::make_shared<DeterministicService>(m)});
      const double limit = (m - 1.0 / k) / 2.0;
      const double from_moments = (1.0 - fs.rho()) * fs.moments().mean;
      const auto dist = fs.distribution(1u << 16);
      long double mean = 0.0L;
      for (std::size_t j = 0; j < dist.size(); ++j)
        mean += static_cast<long double>(j) * dist[j];
      const double from_distribution =
          (1.0 - fs.rho()) * static_cast<double>(mean);
      const std::string where =
          "det:" + std::to_string(m) + " rho=" + std::to_string(rho);
      EXPECT_NEAR(from_distribution, from_moments, 1e-9 * limit) << where;
      EXPECT_NEAR(from_moments, fs.rho() * limit, 1e-9 * limit) << where;
      EXPECT_LT(limit - from_moments, 1.001 * (1.0 - rho) * limit) << where;
      EXPECT_LE(std::abs(distribution_tail(dist)), 1e-12) << where;
      for (double x : dist) ASSERT_GE(x, 0.0) << where;
    }
}

TEST(FirstStage, DistributionTailDecaysGeometrically) {
  const FirstStage fs(uniform_unit_spec(2, 2, 0.95));
  const auto dist = fs.distribution(128);
  // Far in the tail, successive ratios approach a constant < 1 (the
  // reciprocal of the dominant pole of t(z)).
  const double r1 = dist[60] / dist[59];
  const double r2 = dist[100] / dist[99];
  EXPECT_NEAR(r1, r2, 1e-6);
  EXPECT_LT(r1, 1.0);
  EXPECT_GT(r1, 0.0);
}

}  // namespace
}  // namespace ksw::core
