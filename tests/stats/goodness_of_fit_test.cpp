#include "stats/goodness_of_fit.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <random>

namespace ksw::stats {
namespace {

// Uniform double in [0, 1).
double uniform(std::mt19937_64& gen) {
  return std::uniform_real_distribution<double>(0.0, 1.0)(gen);
}

// Histogram sampled from a discretized gamma itself: all distances small.
IntHistogram sample_from_gamma(const GammaDistribution& g, int n,
                               std::uint64_t seed) {
  std::mt19937_64 gen(seed);
  IntHistogram h;
  for (int i = 0; i < n; ++i) {
    // Inverse-CDF sampling, rounded to nearest integer (the discretization
    // the goodness-of-fit statistics assume).
    double u = uniform(gen);
    if (u <= 0.0) u = 1e-12;
    if (u >= 1.0) u = 1.0 - 1e-12;
    h.add(static_cast<std::int64_t>(std::llround(g.quantile(u))));
  }
  return h;
}

TEST(DiscretizedPmf, SumsToApproximatelyOne) {
  const auto g = GammaDistribution::from_moments(5.0, 4.0);
  double sum = 0.0;
  for (std::int64_t w = 0; w < 100; ++w) sum += discretized_model_pmf(g, w);
  EXPECT_NEAR(sum, 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(discretized_model_pmf(g, -1), 0.0);
}

TEST(DiscretizedPmf, ZeroCellIsLeftTail) {
  const auto g = GammaDistribution::from_moments(2.0, 2.0);
  EXPECT_DOUBLE_EQ(discretized_model_pmf(g, 0), g.cdf(0.5));
}

TEST(TotalVariation, MatchingSampleIsSmall) {
  const auto g = GammaDistribution::from_moments(6.0, 9.0);
  const auto h = sample_from_gamma(g, 200000, 1);
  EXPECT_LT(total_variation_distance(h, g), 0.02);
}

TEST(TotalVariation, MismatchedModelIsLarge) {
  const auto g = GammaDistribution::from_moments(6.0, 9.0);
  const auto wrong = GammaDistribution::from_moments(20.0, 4.0);
  const auto h = sample_from_gamma(g, 50000, 2);
  EXPECT_GT(total_variation_distance(h, wrong), 0.5);
}

TEST(TotalVariation, BoundedByOne) {
  const auto far = GammaDistribution::from_moments(1000.0, 10.0);
  IntHistogram h;
  h.add(0, 100);
  const double tv = total_variation_distance(h, far);
  EXPECT_GT(tv, 0.99);
  EXPECT_LE(tv, 1.0 + 1e-12);
}

TEST(BinnedTotalVariation, WidthOneMatchesUnbinned) {
  const auto g = GammaDistribution::from_moments(6.0, 9.0);
  const auto h = sample_from_gamma(g, 20000, 11);
  EXPECT_NEAR(binned_total_variation(h, g, 1),
              total_variation_distance(h, g), 1e-12);
}

TEST(BinnedTotalVariation, BinningForgivesLatticeData) {
  // Data only on even integers: per-integer TV is ~0.5, width-2 TV small.
  const auto g = GammaDistribution::from_moments(20.0, 25.0);
  std::mt19937_64 gen(12);
  IntHistogram h;
  for (int i = 0; i < 50000; ++i) {
    double u = uniform(gen);
    if (u <= 0.0) u = 1e-12;
    const auto v = static_cast<std::int64_t>(std::llround(g.quantile(u)));
    h.add(2 * ((v + 1) / 2));  // round to even lattice
  }
  EXPECT_GT(total_variation_distance(h, g), 0.3);
  EXPECT_LT(binned_total_variation(h, g, 2), 0.1);
}

TEST(BinnedTotalVariation, RejectsBadWidth) {
  const auto g = GammaDistribution::from_moments(2.0, 2.0);
  IntHistogram h;
  h.add(1);
  EXPECT_THROW(binned_total_variation(h, g, 0), std::invalid_argument);
}

TEST(KsStatistic, MatchingSampleIsSmall) {
  const auto g = GammaDistribution::from_moments(6.0, 9.0);
  const auto h = sample_from_gamma(g, 200000, 3);
  EXPECT_LT(ks_statistic(h, g), 0.01);
}

TEST(KsStatistic, DetectsShift) {
  const auto g = GammaDistribution::from_moments(6.0, 9.0);
  const auto shifted = GammaDistribution::from_moments(9.0, 9.0);
  const auto h = sample_from_gamma(g, 50000, 4);
  EXPECT_GT(ks_statistic(h, shifted), 0.2);
}

TEST(ChiSquare, MatchingSampleIsModest) {
  const auto g = GammaDistribution::from_moments(8.0, 16.0);
  const auto h = sample_from_gamma(g, 100000, 5);
  // Discretization bias inflates chi^2 slightly; matching should still be
  // orders of magnitude below a gross mismatch.
  const double good = chi_square_statistic(h, g);
  const auto wrong = GammaDistribution::from_moments(16.0, 4.0);
  const double bad = chi_square_statistic(h, wrong);
  EXPECT_LT(good * 100.0, bad);
}

}  // namespace
}  // namespace ksw::stats
