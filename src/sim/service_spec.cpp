#include "sim/service_spec.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

namespace ksw::sim {

ServiceSpec ServiceSpec::deterministic(std::uint32_t m) {
  if (m == 0)
    throw std::invalid_argument("ServiceSpec::deterministic: m == 0");
  if (m > core::kMaxServiceCycles)
    throw std::invalid_argument("ServiceSpec::deterministic: m above " +
                                std::to_string(core::kMaxServiceCycles) +
                                " cycles");
  ServiceSpec s(Kind::kDeterministic);
  s.m_ = m;
  return s;
}

ServiceSpec ServiceSpec::multi_size(
    std::vector<core::MultiSizeService::Size> sizes) {
  // Validation (probabilities sum to 1, nonzero sizes) is delegated to the
  // analytic model, which has the same requirements.
  const core::MultiSizeService validate(sizes);
  (void)validate;
  ServiceSpec s(Kind::kMultiSize);
  s.sizes_ = std::move(sizes);
  double acc = 0.0;
  s.cumulative_.reserve(s.sizes_.size());
  for (const auto& sz : s.sizes_) {
    acc += sz.probability;
    s.cumulative_.push_back(acc);
  }
  s.cumulative_.back() = 1.0;  // guard against rounding
  return s;
}

ServiceSpec ServiceSpec::geometric(double mu) {
  if (!(mu > 0.0) || mu > 1.0)
    throw std::invalid_argument("ServiceSpec::geometric: mu outside (0,1]");
  ServiceSpec s(Kind::kGeometric);
  s.mu_ = mu;
  return s;
}

std::uint32_t ServiceSpec::sample(rng::LaneSeq& seq) const {
  switch (kind_) {
    case Kind::kDeterministic:
      return m_;
    case Kind::kMultiSize: {
      const double u = seq.next_unit();
      for (std::size_t i = 0; i < cumulative_.size(); ++i)
        if (u < cumulative_[i]) return sizes_[i].cycles;
      return sizes_.back().cycles;
    }
    case Kind::kGeometric: {
      if (mu_ >= 1.0) return 1;
      // Inversion: 1 + floor(log(U) / log(1-mu)) over U in (0,1); the
      // half-open unit draw is never 0 or 1, so no rejection loop.
      const double v = std::log(seq.next_unit()) / std::log1p(-mu_);
      const auto clamped = std::min<double>(
          v, static_cast<double>(std::numeric_limits<std::uint32_t>::max() -
                                 1u));
      return 1 + static_cast<std::uint32_t>(clamped);
    }
  }
  return 1;
}

double ServiceSpec::mean() const {
  switch (kind_) {
    case Kind::kDeterministic:
      return static_cast<double>(m_);
    case Kind::kMultiSize: {
      double acc = 0.0;
      for (const auto& sz : sizes_)
        acc += sz.probability * static_cast<double>(sz.cycles);
      return acc;
    }
    case Kind::kGeometric:
      return 1.0 / mu_;
  }
  return 1.0;
}

std::shared_ptr<const core::ServiceModel> ServiceSpec::to_model() const {
  switch (kind_) {
    case Kind::kDeterministic:
      return std::make_shared<core::DeterministicService>(m_);
    case Kind::kMultiSize:
      return std::make_shared<core::MultiSizeService>(sizes_);
    case Kind::kGeometric:
      return std::make_shared<core::GeometricService>(mu_);
  }
  return std::make_shared<core::DeterministicService>(1);
}

bool ServiceSpec::is_unit() const noexcept {
  return kind_ == Kind::kDeterministic && m_ == 1;
}

namespace {

unsigned parse_size(const std::string& text, const char* what) {
  std::size_t pos = 0;
  const long v = std::stol(text, &pos);
  if (pos != text.size() || v <= 0)
    throw std::invalid_argument(std::string(what) +
                                ": bad service size: " + text);
  return static_cast<unsigned>(v);
}

}  // namespace

ServiceSpec ServiceSpec::parse(const std::string& text) {
  const auto colon = text.find(':');
  if (colon == std::string::npos)
    throw std::invalid_argument(
        "service spec must be det:M, geo:MU, or multi:M1@P1,... ; got " +
        text);
  const std::string kind = text.substr(0, colon);
  const std::string body = text.substr(colon + 1);

  if (kind == "det") return deterministic(parse_size(body, "det"));

  if (kind == "geo") {
    std::size_t pos = 0;
    const double mu = std::stod(body, &pos);
    if (pos != body.size())
      throw std::invalid_argument("geo: bad mu: " + body);
    return geometric(mu);
  }

  if (kind == "multi") {
    std::vector<core::MultiSizeService::Size> sizes;
    std::size_t start = 0;
    while (start <= body.size()) {
      const auto comma = body.find(',', start);
      const std::string item =
          body.substr(start, comma == std::string::npos ? std::string::npos
                                                        : comma - start);
      const auto at = item.find('@');
      if (at == std::string::npos)
        throw std::invalid_argument("multi: expected M@P, got " + item);
      std::size_t pos = 0;
      const double prob = std::stod(item.substr(at + 1), &pos);
      if (pos != item.size() - at - 1)
        throw std::invalid_argument("multi: bad probability in " + item);
      sizes.push_back({parse_size(item.substr(0, at), "multi"), prob});
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
    return multi_size(std::move(sizes));
  }

  throw std::invalid_argument("unknown service kind: " + kind);
}

}  // namespace ksw::sim
