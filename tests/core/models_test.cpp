#include "core/models.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace ksw::core {
namespace {

TEST(UniformArrivals, MomentsMatchPaperFormulas) {
  // Paper III-A-1: lambda = kp/s, R''(1) = lambda^2 (1-1/k),
  // R'''(1) = lambda^3 (1-1/k)(1-2/k).
  for (unsigned k : {2u, 4u, 8u}) {
    for (unsigned s : {2u, 4u, 8u}) {
      for (double p : {0.1, 0.5, 0.9}) {
        const auto model = make_uniform_arrivals(k, s, p);
        const auto t = model->moments();
        const double kd = k;
        const double lambda = kd * p / static_cast<double>(s);
        EXPECT_NEAR(t.d1, lambda, 1e-12);
        EXPECT_NEAR(t.d2, lambda * lambda * (1.0 - 1.0 / kd), 1e-12);
        EXPECT_NEAR(t.d3,
                    lambda * lambda * lambda * (1.0 - 1.0 / kd) *
                        (1.0 - 2.0 / kd),
                    1e-12);
      }
    }
  }
}

TEST(UniformArrivals, DistributionIsBinomial) {
  const auto model = make_uniform_arrivals(4, 2, 0.5);  // Binomial(4, 1/4)
  const auto d = model->distribution();
  EXPECT_EQ(d.support_size(), 5u);
  EXPECT_NEAR(d.pmf(0), std::pow(0.75, 4), 1e-12);
  EXPECT_NEAR(d.pmf(1), 4 * 0.25 * std::pow(0.75, 3), 1e-12);
  EXPECT_NEAR(d.pmf(4), std::pow(0.25, 4), 1e-12);
}

TEST(BulkArrivals, MomentsMatchPaperFormulas) {
  // Paper III-A-2: lambda = bkp/s, R''(1) = lambda(b-1 + (1-1/k) lambda).
  for (unsigned b : {1u, 2u, 4u, 8u}) {
    const unsigned k = 2, s = 2;
    const double p = 0.2;
    const auto model = make_bulk_arrivals(k, s, p, b);
    const auto t = model->moments();
    const double bd = b;
    const double lambda = bd * p;  // k = s
    EXPECT_NEAR(t.d1, lambda, 1e-12);
    EXPECT_NEAR(t.d2, lambda * (bd - 1.0 + 0.5 * lambda), 1e-12) << "b=" << b;
  }
}

TEST(BulkArrivals, SupportIsMultiplesOfB) {
  const auto model = make_bulk_arrivals(2, 2, 0.4, 3);
  const auto d = model->distribution();
  EXPECT_GT(d.pmf(0), 0.0);
  EXPECT_DOUBLE_EQ(d.pmf(1), 0.0);
  EXPECT_DOUBLE_EQ(d.pmf(2), 0.0);
  EXPECT_GT(d.pmf(3), 0.0);
  EXPECT_GT(d.pmf(6), 0.0);
}

TEST(NonuniformArrivals, ReducesToUniformAtQZero) {
  const auto nonuni = make_nonuniform_arrivals(4, 0.6, 0.0);
  const auto uni = make_uniform_arrivals(4, 4, 0.6);
  const auto a = nonuni->moments();
  const auto b = uni->moments();
  EXPECT_NEAR(a.d1, b.d1, 1e-12);
  EXPECT_NEAR(a.d2, b.d2, 1e-12);
  EXPECT_NEAR(a.d3, b.d3, 1e-12);
}

TEST(NonuniformArrivals, LambdaIndependentOfQ) {
  for (double q : {0.0, 0.3, 0.7, 1.0}) {
    const auto model = make_nonuniform_arrivals(4, 0.5, q);
    EXPECT_NEAR(model->lambda(), 0.5, 1e-12) << "q=" << q;
  }
}

TEST(NonuniformArrivals, FullyFavoredHasNoContention) {
  // q = 1: each queue fed by exactly one input -> Bernoulli arrivals,
  // R''(1) = 0.
  const auto model = make_nonuniform_arrivals(4, 0.5, 1.0);
  EXPECT_NEAR(model->moments().d2, 0.0, 1e-12);
}

TEST(ArrivalModelEval, MatchesDistribution) {
  const auto model = make_bulk_arrivals(3, 2, 0.3, 2);
  const auto d = model->distribution();
  for (double z : {0.0, 0.3, 0.9, 1.0}) {
    double direct = 0.0;
    for (std::size_t j = 0; j < d.support_size(); ++j)
      direct += d.pmf(j) * std::pow(z, static_cast<double>(j));
    EXPECT_NEAR(model->eval(z), direct, 1e-12);
  }
  EXPECT_NEAR(model->eval(1.0), 1.0, 1e-12);
}

TEST(DeterministicService, Basics) {
  const DeterministicService svc(3);
  EXPECT_DOUBLE_EQ(svc.mean_service(), 3.0);
  EXPECT_DOUBLE_EQ(svc.moments().d2, 6.0);
  const auto s = svc.pmf();
  ASSERT_TRUE(s.has_value());
  EXPECT_DOUBLE_EQ(s->pmf(3), 1.0);
  EXPECT_DOUBLE_EQ(s->pmf(0), 0.0);
  EXPECT_NEAR(svc.eval(0.5), 0.125, 1e-15);
  EXPECT_THROW(DeterministicService(0), std::invalid_argument);
}

TEST(ServiceModel, FiniteSupportModelsExposeTheirPmf) {
  const auto det = DeterministicService(3).pmf();
  ASSERT_TRUE(det.has_value());
  EXPECT_EQ(det->support_size(), 4u);
  EXPECT_DOUBLE_EQ(det->pmf(3), 1.0);
  const auto multi = MultiSizeService({{4, 0.25}, {2, 0.5}, {4, 0.25}}).pmf();
  ASSERT_TRUE(multi.has_value());
  EXPECT_EQ(multi->support_size(), 5u);
  EXPECT_DOUBLE_EQ(multi->pmf(2), 0.5);
  EXPECT_DOUBLE_EQ(multi->pmf(4), 0.5);
  const auto custom =
      CustomService(pgf::DiscreteDistribution({0.0, 0.5, 0.5})).pmf();
  ASSERT_TRUE(custom.has_value());
  EXPECT_DOUBLE_EQ(custom->pmf(2), 0.5);
  EXPECT_FALSE(GeometricService(0.5).pmf().has_value());
  // rational() is the pmf over 1.
  const auto r = MultiSizeService({{1, 0.5}, {3, 0.5}}).rational();
  EXPECT_EQ(r.num.size(), 4u);
  EXPECT_DOUBLE_EQ(r.num[1], 0.5);
  EXPECT_DOUBLE_EQ(r.num[2], 0.0);
  EXPECT_EQ(r.den, std::vector<double>{1.0});
}

TEST(ServiceModel, ServiceTimesAreBounded) {
  EXPECT_NO_THROW(DeterministicService{kMaxServiceCycles});
  EXPECT_THROW(DeterministicService{kMaxServiceCycles + 1},
               std::invalid_argument);
  EXPECT_THROW(MultiSizeService({{1, 0.5}, {kMaxServiceCycles + 1, 0.5}}),
               std::invalid_argument);
}

TEST(MultiSizeService, MeanAndMoments) {
  const MultiSizeService svc({{4, 0.5}, {8, 0.5}});
  EXPECT_DOUBLE_EQ(svc.mean_service(), 6.0);
  // U''(1) = 0.5*4*3 + 0.5*8*7 = 6 + 28 = 34.
  EXPECT_DOUBLE_EQ(svc.moments().d2, 34.0);
  const auto s = svc.pmf();
  ASSERT_TRUE(s.has_value());
  EXPECT_DOUBLE_EQ(s->pmf(4), 0.5);
  EXPECT_DOUBLE_EQ(s->pmf(8), 0.5);
}

TEST(MultiSizeService, ValidatesInput) {
  EXPECT_THROW(MultiSizeService({{4, 0.5}, {8, 0.6}}), std::invalid_argument);
  EXPECT_THROW(MultiSizeService({{0, 1.0}}), std::invalid_argument);
  EXPECT_THROW(MultiSizeService({}), std::invalid_argument);
}

TEST(GeometricService, MomentsMatchClosedForm) {
  for (double mu : {0.25, 0.5, 1.0}) {
    const GeometricService svc(mu);
    EXPECT_NEAR(svc.mean_service(), 1.0 / mu, 1e-12);
    EXPECT_NEAR(svc.moments().d2, 2.0 * (1.0 - mu) / (mu * mu), 1e-12);
    EXPECT_NEAR(svc.moments().d3,
                6.0 * (1.0 - mu) * (1.0 - mu) / (mu * mu * mu), 1e-12);
  }
  EXPECT_THROW(GeometricService(0.0), std::invalid_argument);
  EXPECT_THROW(GeometricService(1.5), std::invalid_argument);
}

TEST(GeometricService, SeriesMatchesPmf) {
  // The power series of rational() = num / den, term by term.
  const auto r = GeometricService(0.4).rational();
  std::vector<double> s(10);
  for (std::size_t j = 0; j < s.size(); ++j) {
    double acc = j < r.num.size() ? r.num[j] : 0.0;
    for (std::size_t i = 1; i <= j && i < r.den.size(); ++i)
      acc -= r.den[i] * s[j - i];
    s[j] = acc / r.den[0];
  }
  EXPECT_DOUBLE_EQ(s[0], 0.0);
  double mass = 0.4;
  for (std::size_t j = 1; j < 10; ++j) {
    EXPECT_NEAR(s[j], mass, 1e-14);
    mass *= 0.6;
  }
}

TEST(GeometricService, EvalMatchesClosedForm) {
  const GeometricService svc(0.3);
  for (double z : {0.0, 0.5, 0.99})
    EXPECT_NEAR(svc.eval(z), 0.3 * z / (1.0 - 0.7 * z), 1e-14);
}

TEST(GeometricService, MuOneIsUnitService) {
  const GeometricService svc(1.0);
  const DeterministicService unit(1);
  EXPECT_NEAR(svc.moments().d1, unit.moments().d1, 1e-12);
  EXPECT_NEAR(svc.moments().d2, unit.moments().d2, 1e-12);
}

TEST(CustomService, RejectsZeroServiceTime) {
  EXPECT_THROW(CustomService(pgf::DiscreteDistribution({0.5, 0.5})),
               std::invalid_argument);
  EXPECT_NO_THROW(CustomService(pgf::DiscreteDistribution({0.0, 0.5, 0.5})));
}

TEST(QueueSpec, RhoIsLambdaTimesM) {
  QueueSpec spec{
      std::shared_ptr<ArrivalModel>(make_uniform_arrivals(2, 2, 0.4)),
      std::make_shared<DeterministicService>(2)};
  EXPECT_NEAR(spec.lambda(), 0.4, 1e-12);
  EXPECT_NEAR(spec.mean_service(), 2.0, 1e-12);
  EXPECT_NEAR(spec.rho(), 0.8, 1e-12);
}

}  // namespace
}  // namespace ksw::core
