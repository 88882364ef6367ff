#include "core/first_stage.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "support/error.hpp"

namespace ksw::core {

namespace {

// Length of the Taylor expansions around z = 1 (epsilon-series). Four terms
// (eps^0..eps^3) give t'(1), t''(1), t'''(1).
constexpr std::size_t kEpsTerms = 4;

// Below this distance from saturation the epsilon-series denominators
// (leading coefficient rho - 1) are numerically meaningless: Theorem 1's
// moments blow up as 1/(1-rho)^k and the power-series division amplifies
// round-off by the same factor. Well above pgf::kDivideEpsilon so the
// failure is reported as "too close to saturation" with a suggested cap
// instead of surfacing later as an opaque ill-conditioned division.
constexpr double kSaturationMargin = 1e-6;

pgf::Series eps_series(std::array<double, kEpsTerms> coeffs) {
  pgf::Series s(kEpsTerms);
  for (std::size_t i = 0; i < kEpsTerms; ++i) s[i] = coeffs[i];
  return s;
}

using Poly = std::vector<long double>;

// a * b truncated to n terms. Skips b's zero coefficients: a det:m
// service has a single nonzero, and so do its powers.
Poly mul(const Poly& a, const Poly& b, std::size_t n) {
  Poly out(std::min(a.size() + b.size() - 1, n), 0.0L);
  for (std::size_t j = 0; j < std::min(b.size(), out.size()); ++j) {
    if (b[j] == 0.0L) continue;
    const std::size_t last = std::min(a.size(), out.size() - j);
    for (std::size_t i = 0; i < last; ++i) out[i + j] += a[i] * b[j];
  }
  return out;
}

// a + s * b, as long as the longer of the two.
Poly add(Poly a, long double s, const Poly& b) {
  a.resize(std::max(a.size(), b.size()), 0.0L);
  for (std::size_t j = 0; j < b.size(); ++j) a[j] += s * b[j];
  return a;
}

Poly head(std::span<const double> x, std::size_t n) {
  return Poly(x.begin(), x.begin() + static_cast<std::ptrdiff_t>(
                                          std::min(x.size(), n)));
}

// Theorem 1's transform with its z = 1 root cancelled exactly, to n terms.
// With the survival-sum series R^(x) = (1-R(x))/(1-x), U^ = (1-U)/(1-z):
// 1 - C = 1 - R(U) = (1-U) R^(U) = (1-z) U^ R^(U), so C - z = (z-1) D with
// D = U^ R^(U) - 1, and
//
//   t(z) = -(1-rho)/lambda * R^(U) / D,   Psi(z) = -(1-rho) / D.
//
// Every service model gives U = A/B with polynomials A and B (the pmf over
// 1 for finite support, mu z / (1 - (1-mu) z) for geometric service), so
// multiplying through by B^K, K = deg R, leaves polynomials:
//
//   N = B^(K-1) R^(A/B) = sum_{i<K} r^_i A^i B^(K-1-i),
//   H = B U^ = (B - A)/(1 - z),
//   t = -(1-rho)/lambda * N B / (H N - B^K),
//   Psi = -(1-rho) B^K / (H N - B^K).
//
// H N - B^K has D's roots, which lie outside the unit disk when rho < 1,
// so the quotient recurrence damps its own round-off. R^ and H are summed
// from the top, so every degree is exact (no round-off tail). lambda and
// rho come from the same coefficients: t(1) = Psi(1) = 1 to long double
// precision, and the probabilities sum to 1 less the true tail.
struct Deflated {
  Poly num;  ///< N B
  Poly bk;   ///< B^K
  Poly den;  ///< H N - B^K
  long double lambda = 0.0L;
  long double rho = 0.0L;
};

Deflated deflate(const QueueSpec& spec, std::size_t n) {
  const pgf::DiscreteDistribution r = spec.arrivals->distribution();
  const auto pr = r.pmf();
  Poly rhat(pr.size() - 1);
  long double above = 0.0L;
  long double lambda = 0.0L;  // R'(1) = R^(1)
  for (std::size_t j = rhat.size(); j-- > 0;)
    lambda += (rhat[j] = (above += pr[j + 1]));

  // h_j = sum_{i>j} (a_i - b_i), summed from the top; U'(1) = H(1)/B(1).
  const ServiceModel::Rational u = spec.service->rational();
  const Poly a = head(u.num, n);
  const Poly b = head(u.den, n);
  const auto coeff = [](const std::vector<double>& x, std::size_t j) {
    return j < x.size() ? x[j] : 0.0;
  };
  const std::size_t deg = std::max(u.num.size(), u.den.size()) - 1;
  Poly h(std::min(deg, n), 0.0L);
  long double m = 0.0L;
  long double acc = 0.0L;
  for (std::size_t j = deg; j-- > 0;) {
    acc += static_cast<long double>(coeff(u.num, j + 1)) - coeff(u.den, j + 1);
    m += acc;
    if (j < h.size()) h[j] = acc;
  }
  long double b1 = 0.0L;
  for (double x : u.den) b1 += x;
  m /= b1;

  // N by Horner's rule in A, carrying the powers of B.
  Poly num{rhat.back()};
  Poly bk{1.0L};
  for (std::size_t i = rhat.size() - 1; i-- > 0;) {
    bk = mul(bk, b, n);
    num = add(mul(num, a, n), rhat[i], bk);
  }
  bk = mul(bk, b, n);
  Poly den = add(mul(h, num, n), -1.0L, bk);
  return {mul(num, b, n), std::move(bk), std::move(den), lambda, lambda * m};
}

}  // namespace

double distribution_tail(std::span<const double> pmf) noexcept {
  long double mass = 0.0L;
  for (double x : pmf) mass += x;
  return static_cast<double>(1.0L - mass);
}

double WaitingMoments::skewness() const noexcept {
  const double second = factorial2 + mean;
  const double third = factorial3 + 3.0 * factorial2 + mean;
  const double mu3 =
      third - 3.0 * mean * second + 2.0 * mean * mean * mean;
  const double sigma = std::sqrt(variance);
  return sigma > 0.0 ? mu3 / (sigma * sigma * sigma) : 0.0;
}

FirstStage::FirstStage(QueueSpec spec) : spec_(std::move(spec)) {
  if (!spec_.arrivals || !spec_.service)
    throw std::invalid_argument("FirstStage: null model");
  lambda_ = spec_.arrivals->lambda();
  m_ = spec_.service->mean_service();
  if (!(lambda_ > 0.0))
    throw std::invalid_argument("FirstStage: arrival rate must be positive");
  const double rho = lambda_ * m_;
  if (!(rho < 1.0 - kSaturationMargin)) {
    const double cap = 1.0 - kSaturationMargin;
    std::ostringstream msg;
    msg << "FirstStage: traffic intensity rho = lambda*m = " << rho
        << (rho < 1.0 ? " is too close to saturation (heavy-traffic limit)"
                      : " is at or beyond saturation; the queue is unstable")
        << "; reduce the offered load so rho <= " << cap;
    throw numeric_error(msg.str());
  }
}

WaitingMoments FirstStage::moments() const {
  const pgf::MomentTuple R = spec_.arrivals->moments();
  const pgf::MomentTuple U = spec_.service->moments();
  // C(z) = R(U(z)); factorial derivatives at 1 via Faa di Bruno.
  const pgf::MomentTuple C = pgf::MomentTuple::compose(R, U);

  // Taylor coefficients at z = 1 + eps:
  //   C(1+eps) = 1 + c1 eps + c2 eps^2 + c3 eps^3 + c4 eps^4, c_i = C^(i)(1)/i!
  const double c1 = C.d1, c2 = C.d2 / 2.0, c3 = C.d3 / 6.0, c4 = C.d4 / 24.0;
  const double u1 = U.d1, u2 = U.d2 / 2.0, u3 = U.d3 / 6.0, u4 = U.d4 / 24.0;

  // t(z) = (1-rho)/lambda * A(z) * B(z), with (after cancelling one factor
  // of eps from numerator and denominator of each ratio):
  //   A = (1-z)/(C(z)-z)      ->  -1 / (c1-1 + c2 eps + c3 eps^2 + c4 eps^3)
  //   B = (1-C(z))/(1-U(z))   ->  (c1 + c2 eps + ...)/(u1 + u2 eps + ...)
  const pgf::Series a =
      pgf::Series::divide(eps_series({-1.0, 0.0, 0.0, 0.0}),
                          eps_series({c1 - 1.0, c2, c3, c4}));
  const pgf::Series b = pgf::Series::divide(eps_series({c1, c2, c3, c4}),
                                            eps_series({u1, u2, u3, u4}));
  pgf::Series t = pgf::Series::mul(a, b);
  t *= (1.0 - lambda_ * m_) / lambda_;

  // t(1+eps) = 1 + t'(1) eps + t''(1)/2 eps^2 + t'''(1)/6 eps^3.
  WaitingMoments out;
  out.mean = t[1];
  out.factorial2 = 2.0 * t[2];
  out.factorial3 = 6.0 * t[3];
  out.variance = out.factorial2 + out.mean - out.mean * out.mean;
  return out;
}

std::vector<double> FirstStage::distribution(std::size_t length) const {
  if (length == 0)
    throw std::invalid_argument("FirstStage::distribution: length == 0");
  Deflated t = deflate(spec_, length);
  const long double scale = -(1.0L - t.rho) / t.lambda;
  for (long double& x : t.num) x *= scale;
  return pgf::Series::ratio(t.num, t.den, length).coefficients();
}

std::vector<double> FirstStage::unfinished_work_distribution(
    std::size_t length) const {
  if (length == 0)
    throw std::invalid_argument(
        "FirstStage::unfinished_work_distribution: length == 0");
  // Psi(z) = (1-rho)(1-z)/(C(z)-z) = -(1-rho)/D.
  Deflated t = deflate(spec_, length);
  for (long double& x : t.bk) x *= -(1.0L - t.rho);
  return pgf::Series::ratio(t.bk, t.den, length).coefficients();
}

double FirstStage::overflow_probability(std::size_t c,
                                        std::size_t length) const {
  if (length <= c) length = c + 1;
  const auto pmf = unfinished_work_distribution(length);
  return std::max(0.0, distribution_tail(std::span(pmf).first(c + 1)));
}

double FirstStage::transform_at(double z) const {
  if (!(z >= 0.0) || !(z < 1.0))
    throw std::invalid_argument("FirstStage::transform_at: z outside [0,1)");
  const double uz = spec_.service->eval(z);
  const double cz = spec_.arrivals->eval(uz);
  const double rho = lambda_ * m_;
  return (1.0 - rho) / lambda_ * (1.0 - z) / (cz - z) * (1.0 - cz) /
         (1.0 - uz);
}

double FirstStage::mean_delay() const { return moments().mean + m_; }

double FirstStage::variance_delay() const {
  const pgf::MomentTuple U = spec_.service->moments();
  return moments().variance + U.variance();
}

}  // namespace ksw::core
