// Quad-precision oracle for Theorem 1's distributions.
//
// The oracle evaluates the same transform as FirstStage, fed the same
// double inputs (the arrival pmf and the service PGF U = A/B: the pmf over
// 1, or mu z / (1 - (1-mu) z) for geometric service), in __float128. It
// builds the deflated denominator the other way round from FirstStage:
// C = R(A/B) = M / B^K in full (K = deg R), then D' = (M - z B^K)/(z - 1)
// by suffix sums, and U'(1) by the quotient rule. So it also checks the
// identity D' = H N - B^K that FirstStage uses. P and D' are polynomials,
// so the oracle runs the quotient recurrence, which is stable when
// rho < 1.
//
// With 113-bit arithmetic the oracle's own round-off sits some 17 digits
// below a double's, so every disagreement it reports is FirstStage's.
// The served bytes are %.12g renderings, so the tests also count how many
// printed values differ.
#include "core/first_stage.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "sim/service_spec.hpp"

namespace ksw::core {
namespace {

using Quad = __float128;
using QPoly = std::vector<Quad>;

Quad qabs(Quad x) { return x < 0 ? -x : x; }

QPoly mul(const QPoly& a, const QPoly& b) {
  QPoly out(a.size() + b.size() - 1, Quad(0));
  for (std::size_t i = 0; i < a.size(); ++i)
    for (std::size_t j = 0; j < b.size(); ++j) out[i + j] += a[i] * b[j];
  return out;
}

// acc += s * x
void axpy(QPoly& acc, Quad s, const QPoly& x) {
  acc.resize(std::max(acc.size(), x.size()), Quad(0));
  for (std::size_t j = 0; j < x.size(); ++j) acc[j] += s * x[j];
}

Quad at_one(const QPoly& x) {
  Quad s = 0;
  for (Quad c : x) s += c;
  return s;
}

Quad slope_at_one(const QPoly& x) {
  Quad s = 0;
  for (std::size_t j = 1; j < x.size(); ++j) s += Quad(j) * x[j];
  return s;
}

// First n coefficients of num/den by t_n = (p_n - sum d_j t_{n-j}) / d_0.
QPoly quotient(const QPoly& num, const QPoly& den, std::size_t n) {
  QPoly t(n, Quad(0));
  for (std::size_t i = 0; i < n; ++i) {
    Quad acc = i < num.size() ? num[i] : Quad(0);
    for (std::size_t j = 1; j <= std::min(i, den.size() - 1); ++j)
      acc -= den[j] * t[i - j];
    t[i] = acc / den[0];
  }
  return t;
}

struct Case {
  std::string name;
  QueueSpec spec;
  double mu = 0.0;  ///< geometric service rate; 0 for finite support
  std::size_t length = 2048;
};

struct Oracle {
  QPoly wait;        ///< P(w = j)
  QPoly unfinished;  ///< P(s = j)
};

Oracle oracle(const Case& c) {
  const pgf::DiscreteDistribution arrivals = c.spec.arrivals->distribution();
  QPoly r(arrivals.pmf().begin(), arrivals.pmf().end());
  // A double pmf sums to 1 only to rounding. FirstStage reads R through
  // its survival sums, which take r_0 = 1 - sum_{i>0} r_i; so does this.
  r[0] = 1;
  for (std::size_t i = 1; i < r.size(); ++i) r[0] -= r[i];
  QPoly a, b{1};
  if (c.mu > 0.0) {
    a = {0, c.mu};
    b = {1, -(1.0 - c.mu)};
  } else {
    const auto pmf = c.spec.service->pmf();
    a.assign(pmf->pmf().begin(), pmf->pmf().end());
    while (a.back() == 0) a.pop_back();
  }
  const std::size_t k = r.size() - 1;
  std::vector<QPoly> bpow{{1}};
  for (std::size_t i = 1; i <= k; ++i) bpow.push_back(mul(bpow.back(), b));

  // M = B^K R(A/B), N = B^(K-1) R^(A/B) with r^_i = sum_{j>i} r_j.
  QPoly m_poly, n_poly, apow{1};
  Quad above = 0;
  for (std::size_t i = 0; i <= k; ++i) above += r[i];
  for (std::size_t i = 0; i <= k; ++i) {
    axpy(m_poly, r[i], mul(apow, bpow[k - i]));
    above -= r[i];
    if (i < k) axpy(n_poly, above, mul(apow, bpow[k - 1 - i]));
    apow = mul(apow, a);
  }
  // e = M - z B^K; D'_j = sum_{i>j} e_i, summed from the top.
  QPoly e = m_poly;
  e.resize(std::max(e.size(), bpow[k].size() + 1), Quad(0));
  for (std::size_t j = 0; j < bpow[k].size(); ++j) e[j + 1] -= bpow[k][j];
  QPoly d(e.size() - 1, Quad(0));
  Quad tail = 0;
  for (std::size_t j = e.size() - 1; j-- > 0;) d[j] = (tail += e[j + 1]);

  const Quad lambda = slope_at_one(r);
  const Quad b1 = at_one(b);
  const Quad m =
      (slope_at_one(a) * b1 - at_one(a) * slope_at_one(b)) / (b1 * b1);
  const Quad rho = lambda * m;
  QPoly wait_num = mul(n_poly, b);
  for (Quad& x : wait_num) x *= -(1 - rho) / lambda;
  QPoly work_num = bpow[k];
  for (Quad& x : work_num) x *= -(1 - rho);
  return {quotient(wait_num, d, c.length), quotient(work_num, d, c.length)};
}

std::string printed(double x) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.12g", x);
  return buf;
}

struct Agreement {
  std::size_t negative = 0;     ///< terms below zero
  std::size_t mismatched = 0;   ///< %.12g renderings that differ
  double worst_relative = 0.0;  ///< over terms above kFloor
  std::size_t worst_term = 0;
  double worst_absolute = 0.0;
};

// Terms below this are beyond any printed digit a client reads, and near
// the double range's end.
constexpr double kFloor = 1e-280;

Agreement compare(const std::vector<double>& got, const QPoly& want) {
  Agreement a;
  for (std::size_t j = 0; j < got.size(); ++j) {
    const double w = static_cast<double>(want[j]);
    if (got[j] < 0.0) ++a.negative;
    if (printed(got[j]) != printed(w)) ++a.mismatched;
    const Quad err = qabs(Quad(got[j]) - want[j]);
    a.worst_absolute = std::max(a.worst_absolute, static_cast<double>(err));
    if (qabs(want[j]) > Quad(kFloor)) {
      const double rel = static_cast<double>(err / qabs(want[j]));
      if (rel > a.worst_relative) {
        a.worst_relative = rel;
        a.worst_term = j;
      }
    }
  }
  return a;
}

void accumulate(Agreement* total, const Agreement& a) {
  total->negative += a.negative;
  total->mismatched += a.mismatched;
  total->worst_relative = std::max(total->worst_relative, a.worst_relative);
  total->worst_absolute = std::max(total->worst_absolute, a.worst_absolute);
}

QueueSpec uniform(unsigned k, double p,
                  std::shared_ptr<const ServiceModel> service) {
  return {std::shared_ptr<ArrivalModel>(make_uniform_arrivals(k, k, p)),
          std::move(service)};
}

// The 189 first_stage queries of ServeGolden, built as the serve kernel
// builds them (p rendered with %.6f and parsed back).
std::vector<Case> serve_golden_cases() {
  struct Service {
    const char* spec;
    double mean;
  };
  const Service services[] = {{"det:1", 1.0}, {"det:2", 2.0},
                              {"det:3", 3.0}, {"det:4", 4.0},
                              {"det:8", 8.0}, {"geo:0.5", 2.0},
                              {"multi:1@0.5,3@0.5", 2.0}};
  std::vector<Case> cases;
  for (const unsigned length : {16u, 256u, 2048u})
    for (const Service& service : services)
      for (const unsigned k : {2u, 4u, 8u})
        for (const double rho : {0.3, 0.6, 0.85}) {
          char p[32];
          std::snprintf(p, sizeof p, "%.6f", rho / service.mean);
          Case c;
          c.name = std::string(service.spec) + " k=" + std::to_string(k) +
                   " p=" + p + " N=" + std::to_string(length);
          c.spec = uniform(k, std::strtod(p, nullptr),
                           sim::ServiceSpec::parse(service.spec).to_model());
          if (std::string(service.spec) == "geo:0.5") c.mu = 0.5;
          c.length = length;
          cases.push_back(std::move(c));
        }
  return cases;
}

// Uniform traffic, k in {2,4,8}, det:m with m in {1,2,4,8}, rho in
// {0.5,0.8,0.9,0.95}, N = 2048: the loads where the old dense divide
// printed the most wrong digits.
std::vector<Case> deterministic_grid() {
  std::vector<Case> cases;
  for (const unsigned k : {2u, 4u, 8u})
    for (const unsigned m : {1u, 2u, 4u, 8u})
      for (const double rho : {0.5, 0.8, 0.9, 0.95}) {
        Case c;
        c.name = "det:" + std::to_string(m) + " k=" + std::to_string(k) +
                 " rho=" + printed(rho);
        c.spec = uniform(k, rho / m, std::make_shared<DeterministicService>(m));
        cases.push_back(std::move(c));
      }
  return cases;
}

// The acceptance bar: no negative term, every term above kFloor within
// 1e-13 relative, at most 8 printed values off.
void expect_accurate(const Case& c, const std::vector<double>& got,
                     const QPoly& want, Agreement* total) {
  const Agreement a = compare(got, want);
  EXPECT_EQ(a.negative, 0u) << c.name;
  EXPECT_LE(a.worst_relative, 1e-13) << c.name << " at term " << a.worst_term;
  EXPECT_LE(a.mismatched, 8u) << c.name;
  accumulate(total, a);
}

void report(const char* what, std::size_t cases, std::size_t terms,
            const Agreement& a) {
  std::printf(
      "[oracle] %s: %zu cases, %zu terms, %zu negative, %zu %%.12g "
      "mismatches, worst relative error %.3g, worst absolute error %.3g\n",
      what, cases, terms, a.negative, a.mismatched, a.worst_relative,
      a.worst_absolute);
}

TEST(FirstStageOracle, ServeGoldenQueriesMatchEveryPrintedDigit) {
  Agreement total;
  std::size_t cases = 0, terms = 0;
  for (const Case& c : serve_golden_cases()) {
    if (c.mu > 0.0) continue;  // below
    const auto got = FirstStage(c.spec).distribution(c.length);
    expect_accurate(c, got, oracle(c).wait, &total);
    ++cases;
    terms += c.length;
  }
  EXPECT_EQ(cases, 162u);
  report("ServeGolden, finite service", cases, terms, total);
}

// Geometric service goes through the same recurrence after multiplying by
// B^K = (1 - (1-mu) z)^K. That denominator is worse conditioned: at k = 8
// and light load the recurrence loses relative accuracy slowly down a
// tail that falls below 1e-15 within the first few hundred terms. Every
// term stays within 1e-9 relative (1.9e-10 measured) and positive; at
// k <= 4 the finite-service bar holds.
TEST(FirstStageOracle, ServeGoldenGeometricQueriesKeepRelativeAccuracy) {
  Agreement total;
  std::size_t cases = 0, terms = 0;
  for (const Case& c : serve_golden_cases()) {
    if (c.mu == 0.0) continue;
    const auto got = FirstStage(c.spec).distribution(c.length);
    const QPoly want = oracle(c).wait;
    if (c.name.find("k=8") == std::string::npos) {
      expect_accurate(c, got, want, &total);
    } else {
      const Agreement a = compare(got, want);
      EXPECT_EQ(a.negative, 0u) << c.name;
      EXPECT_LE(a.worst_relative, 1e-9) << c.name;
      accumulate(&total, a);
    }
    ++cases;
    terms += c.length;
  }
  EXPECT_EQ(cases, 27u);
  report("ServeGolden, geo:0.5", cases, terms, total);
}

TEST(FirstStageOracle, DeterministicGridMatchesEveryPrintedDigit) {
  Agreement total;
  std::size_t cases = 0;
  for (const Case& c : deterministic_grid()) {
    const auto got = FirstStage(c.spec).distribution(c.length);
    expect_accurate(c, got, oracle(c).wait, &total);
    ++cases;
  }
  EXPECT_EQ(cases, 48u);
  report("det:m grid", cases, cases * 2048, total);
}

TEST(FirstStageOracle, UnfinishedWorkMatchesEveryPrintedDigit) {
  Agreement total;
  std::size_t cases = 0;
  for (const Case& c : deterministic_grid()) {
    if (c.name.find("k=4") == std::string::npos) continue;
    const auto got = FirstStage(c.spec).unfinished_work_distribution(c.length);
    expect_accurate(c, got, oracle(c).unfinished, &total);
    ++cases;
  }
  EXPECT_EQ(cases, 16u);
  report("unfinished work, k=4", cases, cases * 2048, total);
}

}  // namespace
}  // namespace ksw::core
