#include "core/models.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace ksw::core {

namespace {

// Moment tuple of a single Bernoulli-batch factor (1 - p + p z^b).
pgf::MomentTuple bernoulli_batch_moments(double p, std::uint32_t b) {
  const pgf::MomentTuple zb = pgf::MomentTuple::monomial(b);
  pgf::MomentTuple t;
  t.value = 1.0;
  t.d1 = p * zb.d1;
  t.d2 = p * zb.d2;
  t.d3 = p * zb.d3;
  t.d4 = p * zb.d4;
  return t;
}

void check_probability(double p, const char* what) {
  if (!(p >= 0.0 && p <= 1.0))
    throw std::invalid_argument(std::string(what) +
                                ": probability outside [0,1]");
}

}  // namespace

// ---------------------------------------------------------------------------
// IndependentInputArrivals
// ---------------------------------------------------------------------------

IndependentInputArrivals::IndependentInputArrivals(std::vector<Input> inputs)
    : inputs_(std::move(inputs)) {
  if (inputs_.empty())
    throw std::invalid_argument("IndependentInputArrivals: no inputs");
  for (const auto& in : inputs_) {
    check_probability(in.probability, "IndependentInputArrivals");
    if (in.batch == 0)
      throw std::invalid_argument("IndependentInputArrivals: batch == 0");
  }
}

pgf::MomentTuple IndependentInputArrivals::moments() const {
  pgf::MomentTuple acc = pgf::MomentTuple::one();
  for (const auto& in : inputs_)
    acc = pgf::MomentTuple::product(
        acc, bernoulli_batch_moments(in.probability, in.batch));
  return acc;
}

pgf::DiscreteDistribution IndependentInputArrivals::distribution() const {
  pgf::DiscreteDistribution acc = pgf::DiscreteDistribution::point_mass(0);
  for (const auto& in : inputs_) {
    std::vector<double> factor(in.batch + 1, 0.0);
    factor[0] = 1.0 - in.probability;
    factor[in.batch] += in.probability;
    acc = pgf::DiscreteDistribution::convolve(
        acc, pgf::DiscreteDistribution(std::move(factor)));
  }
  return acc;
}

double ArrivalModel::eval(double z) const {
  // Keep the distribution alive for the duration of the span over its pmf.
  const pgf::DiscreteDistribution dist = distribution();
  const auto pmf = dist.pmf();
  double acc = 0.0;
  for (std::size_t i = pmf.size(); i-- > 0;) acc = acc * z + pmf[i];
  return acc;
}

std::string IndependentInputArrivals::describe() const {
  std::ostringstream os;
  os << "independent-inputs(" << inputs_.size() << " inputs)";
  return os.str();
}

// ---------------------------------------------------------------------------
// Factory helpers
// ---------------------------------------------------------------------------

std::unique_ptr<ArrivalModel> make_uniform_arrivals(unsigned k, unsigned s,
                                                    double p) {
  return make_bulk_arrivals(k, s, p, 1);
}

std::unique_ptr<ArrivalModel> make_bulk_arrivals(unsigned k, unsigned s,
                                                 double p, unsigned b) {
  if (k == 0 || s == 0)
    throw std::invalid_argument("make_bulk_arrivals: k and s must be >= 1");
  check_probability(p, "make_bulk_arrivals");
  std::vector<IndependentInputArrivals::Input> inputs(
      k, {p / static_cast<double>(s), b});
  return std::make_unique<IndependentInputArrivals>(std::move(inputs));
}

std::unique_ptr<ArrivalModel> make_nonuniform_arrivals(unsigned k, double p,
                                                       double q, unsigned b) {
  if (k == 0)
    throw std::invalid_argument("make_nonuniform_arrivals: k must be >= 1");
  check_probability(p, "make_nonuniform_arrivals");
  check_probability(q, "make_nonuniform_arrivals(q)");
  const double kd = static_cast<double>(k);
  // The favored input reaches this queue with probability q + (1-q)/k;
  // each other input with probability (1-q)/k (Section III-A-3).
  const double favored = p * (q + (1.0 - q) / kd);
  const double normal = p * (1.0 - q) / kd;
  std::vector<IndependentInputArrivals::Input> inputs;
  inputs.reserve(k);
  inputs.push_back({favored, b});
  for (unsigned i = 1; i < k; ++i) inputs.push_back({normal, b});
  return std::make_unique<IndependentInputArrivals>(std::move(inputs));
}

// ---------------------------------------------------------------------------
// CustomArrivals
// ---------------------------------------------------------------------------

CustomArrivals::CustomArrivals(pgf::DiscreteDistribution counts)
    : counts_(std::move(counts)) {}

pgf::MomentTuple CustomArrivals::moments() const { return counts_.moments(); }

pgf::DiscreteDistribution CustomArrivals::distribution() const {
  return counts_;
}

std::string CustomArrivals::describe() const { return "custom-arrivals"; }

// ---------------------------------------------------------------------------
// ServiceModel
// ---------------------------------------------------------------------------

ServiceModel::Rational ServiceModel::rational() const {
  const auto dist = pmf();
  if (!dist)
    throw std::logic_error(describe() +
                           ": infinite support needs a rational() override");
  const auto p = dist->pmf();
  return Rational{{p.begin(), p.end()}, {1.0}};
}

// ---------------------------------------------------------------------------
// DeterministicService
// ---------------------------------------------------------------------------

DeterministicService::DeterministicService(std::uint32_t m) : m_(m) {
  if (m == 0)
    throw std::invalid_argument("DeterministicService: m must be >= 1");
  if (m > kMaxServiceCycles)
    throw std::invalid_argument("DeterministicService: m above " +
                                std::to_string(kMaxServiceCycles) + " cycles");
}

pgf::MomentTuple DeterministicService::moments() const {
  return pgf::MomentTuple::monomial(m_);
}

std::optional<pgf::DiscreteDistribution> DeterministicService::pmf() const {
  return pgf::DiscreteDistribution::point_mass(m_);
}

double DeterministicService::eval(double z) const {
  return std::pow(z, static_cast<double>(m_));
}

std::string DeterministicService::describe() const {
  return "deterministic(m=" + std::to_string(m_) + ")";
}

// ---------------------------------------------------------------------------
// MultiSizeService
// ---------------------------------------------------------------------------

MultiSizeService::MultiSizeService(std::vector<Size> sizes)
    : sizes_(std::move(sizes)) {
  if (sizes_.empty())
    throw std::invalid_argument("MultiSizeService: no sizes");
  double total = 0.0;
  for (const auto& sz : sizes_) {
    if (sz.cycles == 0)
      throw std::invalid_argument("MultiSizeService: zero service time");
    if (sz.cycles > kMaxServiceCycles)
      throw std::invalid_argument("MultiSizeService: service time above " +
                                  std::to_string(kMaxServiceCycles) +
                                  " cycles");
    check_probability(sz.probability, "MultiSizeService");
    total += sz.probability;
  }
  if (std::abs(total - 1.0) > 1e-9)
    throw std::invalid_argument(
        "MultiSizeService: probabilities do not sum to 1");
}

pgf::MomentTuple MultiSizeService::moments() const {
  pgf::MomentTuple t{0, 0, 0, 0, 0};
  for (const auto& sz : sizes_) {
    const pgf::MomentTuple mono = pgf::MomentTuple::monomial(sz.cycles);
    t.value += sz.probability;
    t.d1 += sz.probability * mono.d1;
    t.d2 += sz.probability * mono.d2;
    t.d3 += sz.probability * mono.d3;
    t.d4 += sz.probability * mono.d4;
  }
  return t;
}

std::optional<pgf::DiscreteDistribution> MultiSizeService::pmf() const {
  std::uint32_t longest = 0;
  for (const auto& sz : sizes_) longest = std::max(longest, sz.cycles);
  std::vector<double> p(std::size_t{longest} + 1, 0.0);
  for (const auto& sz : sizes_) p[sz.cycles] += sz.probability;
  return pgf::DiscreteDistribution(std::move(p));
}

double MultiSizeService::eval(double z) const {
  double acc = 0.0;
  for (const auto& sz : sizes_)
    acc += sz.probability * std::pow(z, static_cast<double>(sz.cycles));
  return acc;
}

std::string MultiSizeService::describe() const {
  std::ostringstream os;
  os << "multi-size(";
  for (std::size_t i = 0; i < sizes_.size(); ++i) {
    if (i) os << ", ";
    os << "m=" << sizes_[i].cycles << "@" << sizes_[i].probability;
  }
  os << ")";
  return os.str();
}

// ---------------------------------------------------------------------------
// GeometricService
// ---------------------------------------------------------------------------

GeometricService::GeometricService(double mu) : mu_(mu) {
  if (!(mu > 0.0) || mu > 1.0)
    throw std::invalid_argument("GeometricService: mu must be in (0,1]");
}

pgf::MomentTuple GeometricService::moments() const {
  // U(z) = mu z / (1 - (1-mu) z):
  //   U^(n)(1) = n! (1-mu)^{n-1} / mu^n for n >= 1.
  const double r = 1.0 - mu_;
  pgf::MomentTuple t;
  t.value = 1.0;
  t.d1 = 1.0 / mu_;
  t.d2 = 2.0 * r / (mu_ * mu_);
  t.d3 = 6.0 * r * r / (mu_ * mu_ * mu_);
  t.d4 = 24.0 * r * r * r / (mu_ * mu_ * mu_ * mu_);
  return t;
}

ServiceModel::Rational GeometricService::rational() const {
  return Rational{{0.0, mu_}, {1.0, -(1.0 - mu_)}};
}

double GeometricService::eval(double z) const {
  return mu_ * z / (1.0 - (1.0 - mu_) * z);
}

std::string GeometricService::describe() const {
  return "geometric(mu=" + std::to_string(mu_) + ")";
}

// ---------------------------------------------------------------------------
// CustomService
// ---------------------------------------------------------------------------

CustomService::CustomService(pgf::DiscreteDistribution times)
    : times_(std::move(times)) {
  if (times_.pmf(0) != 0.0)
    throw std::invalid_argument(
        "CustomService: service time 0 has positive probability");
}

pgf::MomentTuple CustomService::moments() const { return times_.moments(); }

std::optional<pgf::DiscreteDistribution> CustomService::pmf() const {
  return times_;
}

double CustomService::eval(double z) const {
  const auto pmf = times_.pmf();
  double acc = 0.0;
  for (std::size_t i = pmf.size(); i-- > 0;) acc = acc * z + pmf[i];
  return acc;
}

std::string CustomService::describe() const { return "custom-service"; }

}  // namespace ksw::core
