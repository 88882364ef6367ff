// Property tests: randomized traffic/service models (seeded, reproducible)
// must satisfy the structural invariants of the theory, and the two
// independent analysis paths (generic transform machinery vs. explicit
// closed forms) must agree everywhere.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <random>

#include "core/closed_forms.hpp"
#include "core/first_stage.hpp"

namespace ksw::core {
namespace {

// Uniform double in [0, 1).
double uniform(std::mt19937_64& gen) {
  return std::uniform_real_distribution<double>(0.0, 1.0)(gen);
}

// Uniform integer in [0, n).
std::uint64_t uniform_int(std::mt19937_64& gen, std::uint64_t n) {
  return std::uniform_int_distribution<std::uint64_t>(0, n - 1)(gen);
}

struct RandomQueue {
  QueueSpec spec;
  double lambda;
  double r2, r3;  // hand-computed arrival factorial moments
  double u2, u3;  // hand-computed service factorial moments
  double m;
};

// Build a random-but-stable queue: 1-6 inputs with random hit
// probabilities and batch sizes, and a random service distribution,
// rescaled so rho stays below 0.9.
RandomQueue make_random_queue(std::uint64_t seed) {
  std::mt19937_64 gen(seed);

  const auto k = static_cast<unsigned>(1 + uniform_int(gen, 6));
  std::vector<IndependentInputArrivals::Input> inputs;
  for (unsigned i = 0; i < k; ++i)
    inputs.push_back({0.02 + 0.3 * uniform(gen),
                      static_cast<std::uint32_t>(1 + uniform_int(gen, 3))});

  // Random multi-size service on 1-3 sizes.
  const auto n_sizes = static_cast<unsigned>(1 + uniform_int(gen, 3));
  std::vector<MultiSizeService::Size> sizes;
  double total = 0.0;
  for (unsigned i = 0; i < n_sizes; ++i) {
    const double wgt = 0.1 + uniform(gen);
    sizes.push_back({static_cast<std::uint32_t>(1 + uniform_int(gen, 4)),
                     wgt});
    total += wgt;
  }
  for (auto& sz : sizes) sz.probability /= total;
  // Exact re-normalization of the last entry.
  double acc = 0.0;
  for (std::size_t i = 0; i + 1 < sizes.size(); ++i)
    acc += sizes[i].probability;
  sizes.back().probability = 1.0 - acc;

  // Service moments by hand.
  double m = 0.0, u2 = 0.0, u3 = 0.0;
  for (const auto& sz : sizes) {
    const double md = sz.cycles;
    m += sz.probability * md;
    u2 += sz.probability * md * (md - 1.0);
    u3 += sz.probability * md * (md - 1.0) * (md - 2.0);
  }

  // Rescale input probabilities until rho = lambda*m < 0.9.
  auto lambda_of = [&] {
    double acc2 = 0.0;
    for (const auto& in : inputs)
      acc2 += in.probability * static_cast<double>(in.batch);
    return acc2;
  };
  while (lambda_of() * m >= 0.9)
    for (auto& in : inputs) in.probability *= 0.7;

  // Arrival moments by hand (Leibniz over independent factors).
  double f = 1.0, d1 = 0.0, d2 = 0.0, d3 = 0.0;
  (void)f;
  // Build up product moments iteratively: maintain (F', F'', F''') of the
  // running product, all evaluated at 1 where every factor equals 1.
  for (const auto& in : inputs) {
    const double b = in.batch;
    const double g1 = in.probability * b;
    const double g2 = in.probability * b * (b - 1.0);
    const double g3 = in.probability * b * (b - 1.0) * (b - 2.0);
    const double nd1 = d1 + g1;
    const double nd2 = d2 + 2.0 * d1 * g1 + g2;
    const double nd3 = d3 + 3.0 * d2 * g1 + 3.0 * d1 * g2 + g3;
    d1 = nd1;
    d2 = nd2;
    d3 = nd3;
  }

  RandomQueue out{
      {std::make_shared<IndependentInputArrivals>(inputs),
       std::make_shared<MultiSizeService>(sizes)},
      d1,
      d2,
      d3,
      u2,
      u3,
      m};
  return out;
}

class RandomModelSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomModelSweep, GenericMomentsMatchClosedForms) {
  const RandomQueue rq = make_random_queue(GetParam());
  const FirstStage fs(rq.spec);
  const WaitingMoments wm = fs.moments();
  EXPECT_NEAR(wm.mean,
              closed::eq2_mean(rq.lambda, rq.m, rq.r2, rq.u2), 1e-9);
  EXPECT_NEAR(wm.variance,
              closed::eq3_variance(rq.lambda, rq.m, rq.r2, rq.r3, rq.u2,
                                   rq.u3),
              1e-8);
}

TEST_P(RandomModelSweep, DistributionIsAProbabilityMass) {
  const RandomQueue rq = make_random_queue(GetParam());
  const FirstStage fs(rq.spec);
  const auto dist = fs.distribution(1024);
  double sum = 0.0, mean = 0.0;
  for (std::size_t j = 0; j < dist.size(); ++j) {
    EXPECT_GE(dist[j], -1e-10) << "seed=" << GetParam() << " j=" << j;
    sum += dist[j];
    mean += static_cast<double>(j) * dist[j];
  }
  EXPECT_NEAR(sum, 1.0, 1e-6);
  EXPECT_NEAR(mean, fs.moments().mean, 1e-4 * (1.0 + fs.moments().mean));
}

TEST_P(RandomModelSweep, TransformIsAValidPgfOnUnitInterval) {
  const RandomQueue rq = make_random_queue(GetParam());
  const FirstStage fs(rq.spec);
  double prev = 0.0;
  for (double z : {0.0, 0.2, 0.4, 0.6, 0.8, 0.95}) {
    const double t = fs.transform_at(z);
    EXPECT_GT(t, 0.0);
    EXPECT_LE(t, 1.0 + 1e-12);
    EXPECT_GE(t, prev);  // PGFs are increasing on [0, 1)
    prev = t;
  }
}

TEST_P(RandomModelSweep, MomentsMatchPgfMachinery) {
  // The hand-computed moments in make_random_queue must agree with the
  // MomentTuple product algebra.
  const RandomQueue rq = make_random_queue(GetParam());
  const auto t = rq.spec.arrivals->moments();
  EXPECT_NEAR(t.d1, rq.lambda, 1e-12);
  EXPECT_NEAR(t.d2, rq.r2, 1e-12);
  EXPECT_NEAR(t.d3, rq.r3, 1e-12);
  const auto u = rq.spec.service->moments();
  EXPECT_NEAR(u.d1, rq.m, 1e-12);
  EXPECT_NEAR(u.d2, rq.u2, 1e-12);
}

TEST_P(RandomModelSweep, WaitingIncreasesWithExtraLoad) {
  const RandomQueue rq = make_random_queue(GetParam());
  const FirstStage base(rq.spec);

  // Superpose one extra independent Bernoulli(0.02) input (by convolving
  // the arrival pmf); waiting must not decrease.
  if ((rq.lambda + 0.02) * rq.m >= 0.98) GTEST_SKIP() << "would saturate";
  const auto extra = pgf::DiscreteDistribution({0.98, 0.02});
  const auto combined = pgf::DiscreteDistribution::convolve(
      rq.spec.arrivals->distribution(), extra);
  const QueueSpec heavier{std::make_shared<CustomArrivals>(combined),
                          rq.spec.service};
  const FirstStage more(heavier);
  EXPECT_GE(more.moments().mean, base.moments().mean - 1e-12);
  EXPECT_GE(more.moments().variance, base.moments().variance - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomModelSweep,
                         ::testing::Range<std::uint64_t>(0, 24));

}  // namespace
}  // namespace ksw::core
