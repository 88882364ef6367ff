#include "pgf/distribution.hpp"

#include <gtest/gtest.h>

namespace ksw::pgf {
namespace {

TEST(DiscreteDistribution, ValidatesNormalization) {
  EXPECT_THROW(DiscreteDistribution({0.5, 0.4}), std::invalid_argument);
  EXPECT_THROW(DiscreteDistribution({1.1, -0.1}), std::invalid_argument);
  EXPECT_THROW(DiscreteDistribution({}), std::invalid_argument);
  EXPECT_NO_THROW(DiscreteDistribution({0.25, 0.75}));
}

TEST(DiscreteDistribution, TrimsTrailingZeros) {
  const DiscreteDistribution d({0.5, 0.5, 0.0, 0.0});
  EXPECT_EQ(d.support_size(), 2u);
  EXPECT_DOUBLE_EQ(d.pmf(3), 0.0);
}

TEST(DiscreteDistribution, PointMass) {
  const auto d = DiscreteDistribution::point_mass(5);
  EXPECT_DOUBLE_EQ(d.pmf(5), 1.0);
  EXPECT_DOUBLE_EQ(d.mean(), 5.0);
  EXPECT_DOUBLE_EQ(d.variance(), 0.0);
}

TEST(DiscreteDistribution, MeanVariance) {
  // Uniform on {0,1,2,3}: mean 1.5, var 1.25.
  const DiscreteDistribution d({0.25, 0.25, 0.25, 0.25});
  EXPECT_DOUBLE_EQ(d.mean(), 1.5);
  EXPECT_DOUBLE_EQ(d.variance(), 1.25);
}

TEST(DiscreteDistribution, ConvolutionOfPointMasses) {
  const auto d = DiscreteDistribution::convolve(
      DiscreteDistribution::point_mass(2), DiscreteDistribution::point_mass(3));
  EXPECT_DOUBLE_EQ(d.pmf(5), 1.0);
}

TEST(DiscreteDistribution, ConvolutionBinomial) {
  // Bernoulli(1/2) convolved 4 times -> Binomial(4, 1/2).
  const DiscreteDistribution bern({0.5, 0.5});
  DiscreteDistribution acc = DiscreteDistribution::point_mass(0);
  for (int i = 0; i < 4; ++i) acc = DiscreteDistribution::convolve(acc, bern);
  EXPECT_NEAR(acc.pmf(0), 1.0 / 16, 1e-15);
  EXPECT_NEAR(acc.pmf(2), 6.0 / 16, 1e-15);
  EXPECT_NEAR(acc.pmf(4), 1.0 / 16, 1e-15);
  EXPECT_NEAR(acc.mean(), 2.0, 1e-15);
  EXPECT_NEAR(acc.variance(), 1.0, 1e-15);
}

TEST(DiscreteDistribution, MomentsMatchDirect) {
  const DiscreteDistribution d({0.1, 0.2, 0.3, 0.4});
  const MomentTuple t = d.moments();
  EXPECT_NEAR(t.mean(), d.mean(), 1e-14);
  EXPECT_NEAR(t.variance(), d.variance(), 1e-14);
}

}  // namespace
}  // namespace ksw::pgf
