// Traffic and service models for a first-stage output queue (paper
// Sections II-III).
//
// An ArrivalModel describes R(z), the PGF of the number of messages joining
// one output queue per cycle. A ServiceModel describes U(z), the PGF of one
// message's service time in cycles. Every model exposes both its exact
// factorial moments (for the closed-form results) and its expansion as a
// power series / pmf (for full-distribution inversion).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "pgf/distribution.hpp"
#include "pgf/moments.hpp"

namespace ksw::core {

/// PGF of per-cycle message arrivals at one output queue.
class ArrivalModel {
 public:
  virtual ~ArrivalModel() = default;

  /// Exact factorial moments R'(1)..R''''(1).
  [[nodiscard]] virtual pgf::MomentTuple moments() const = 0;

  /// Exact pmf of the per-cycle arrival count (finite support).
  [[nodiscard]] virtual pgf::DiscreteDistribution distribution() const = 0;

  /// Average arrivals per cycle, lambda = R'(1).
  [[nodiscard]] double lambda() const { return moments().d1; }

  /// R(z) at a real point (default: polynomial evaluation of the pmf).
  [[nodiscard]] virtual double eval(double z) const;

  [[nodiscard]] virtual std::string describe() const = 0;
};

/// Largest service time, in cycles, of a deterministic or multi-size
/// model. Their pmf is held densely (one double per cycle of support), so
/// the bound keeps it under 8 MiB; the paper's messages take at most 8.
inline constexpr std::uint32_t kMaxServiceCycles = 1u << 20;

/// PGF of one message's service time (in cycles, values >= 1).
class ServiceModel {
 public:
  virtual ~ServiceModel() = default;

  /// Exact factorial moments U'(1)..U''''(1).
  [[nodiscard]] virtual pgf::MomentTuple moments() const = 0;

  /// Exact pmf of the service time when its support is finite; nullopt
  /// otherwise (geometric service).
  [[nodiscard]] virtual std::optional<pgf::DiscreteDistribution> pmf() const {
    return std::nullopt;
  }

  /// U(z) = num(z) / den(z) with polynomial num and den.
  struct Rational {
    std::vector<double> num;
    std::vector<double> den;
  };

  /// U as a ratio of polynomials: the pmf over 1 for finite support (the
  /// default), mu z / (1 - (1-mu) z) for geometric service. It makes
  /// Theorem 1's transform a ratio of two polynomials, inverted in
  /// O(N * deg). A model with infinite support overrides it.
  [[nodiscard]] virtual Rational rational() const;

  /// Average service time m = U'(1).
  [[nodiscard]] double mean_service() const { return moments().d1; }

  /// U(z) at a real point in [-1, 1].
  [[nodiscard]] virtual double eval(double z) const = 0;

  [[nodiscard]] virtual std::string describe() const = 0;
};

// ---------------------------------------------------------------------------
// Arrival models
// ---------------------------------------------------------------------------

/// Fully general independent-input model: input i delivers, with probability
/// p_i, a batch of b_i messages to this queue in any cycle, independently of
/// the other inputs. R(z) = prod_i (1 - p_i + p_i z^{b_i}).
///
/// Every first-stage traffic pattern in the paper is an instance:
/// uniform, bulk, and favorite-output nonuniform traffic.
class IndependentInputArrivals final : public ArrivalModel {
 public:
  struct Input {
    double probability = 0.0;  ///< chance this input feeds the queue
    std::uint32_t batch = 1;   ///< messages delivered when it does
  };

  explicit IndependentInputArrivals(std::vector<Input> inputs);

  [[nodiscard]] pgf::MomentTuple moments() const override;
  [[nodiscard]] pgf::DiscreteDistribution distribution() const override;
  [[nodiscard]] std::string describe() const override;

 private:
  std::vector<Input> inputs_;
};

/// Uniform traffic, single arrivals (Section III-A-1): k inputs each carry a
/// message with probability p per cycle, destined uniformly over s outputs.
/// R(z) = (1 - p/s + p z / s)^k.
[[nodiscard]] std::unique_ptr<ArrivalModel> make_uniform_arrivals(
    unsigned k, unsigned s, double p);

/// Bulk arrivals (Section III-A-2): as uniform, but each arrival is a batch
/// of b unit messages. R(z) = (1 - p/s + p z^b / s)^k.
[[nodiscard]] std::unique_ptr<ArrivalModel> make_bulk_arrivals(unsigned k,
                                                               unsigned s,
                                                               double p,
                                                               unsigned b);

/// Nonuniform "favorite output" traffic (Section III-A-3); requires k == s.
/// The queue's favored input sends here with probability q + (1-q)/k; each
/// of the other k-1 inputs with probability (1-q)/k; arrivals in batches of
/// b.
[[nodiscard]] std::unique_ptr<ArrivalModel> make_nonuniform_arrivals(
    unsigned k, double p, double q, unsigned b = 1);

/// Arbitrary per-cycle arrival-count distribution.
class CustomArrivals final : public ArrivalModel {
 public:
  explicit CustomArrivals(pgf::DiscreteDistribution counts);

  [[nodiscard]] pgf::MomentTuple moments() const override;
  [[nodiscard]] pgf::DiscreteDistribution distribution() const override;
  [[nodiscard]] std::string describe() const override;

 private:
  pgf::DiscreteDistribution counts_;
};

// ---------------------------------------------------------------------------
// Service models
// ---------------------------------------------------------------------------

/// Constant service time m (Sections III-A-1 when m=1, III-D-1 generally).
class DeterministicService final : public ServiceModel {
 public:
  explicit DeterministicService(std::uint32_t m);

  [[nodiscard]] pgf::MomentTuple moments() const override;
  [[nodiscard]] std::optional<pgf::DiscreteDistribution> pmf() const override;
  [[nodiscard]] double eval(double z) const override;
  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] std::uint32_t service_time() const noexcept { return m_; }

 private:
  std::uint32_t m_;
};

/// Mixture of constant service times (Section III-D-2):
/// U(z) = sum_i g_i z^{m_i}.
class MultiSizeService final : public ServiceModel {
 public:
  struct Size {
    std::uint32_t cycles = 1;
    double probability = 0.0;
  };

  explicit MultiSizeService(std::vector<Size> sizes);

  [[nodiscard]] pgf::MomentTuple moments() const override;
  [[nodiscard]] std::optional<pgf::DiscreteDistribution> pmf() const override;
  [[nodiscard]] double eval(double z) const override;
  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] const std::vector<Size>& sizes() const noexcept {
    return sizes_;
  }

 private:
  std::vector<Size> sizes_;
};

/// Geometric service times (Section III-B): g_j = mu (1-mu)^{j-1}, j >= 1.
/// U(z) = mu z / (1 - (1-mu) z), mean service 1/mu.
class GeometricService final : public ServiceModel {
 public:
  explicit GeometricService(double mu);

  [[nodiscard]] pgf::MomentTuple moments() const override;
  [[nodiscard]] Rational rational() const override;
  [[nodiscard]] double eval(double z) const override;
  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] double mu() const noexcept { return mu_; }

 private:
  double mu_;
};

/// Arbitrary discrete service-time distribution with finite support.
/// P(service = 0) must be zero.
class CustomService final : public ServiceModel {
 public:
  explicit CustomService(pgf::DiscreteDistribution times);

  [[nodiscard]] pgf::MomentTuple moments() const override;
  [[nodiscard]] std::optional<pgf::DiscreteDistribution> pmf() const override;
  [[nodiscard]] double eval(double z) const override;
  [[nodiscard]] std::string describe() const override;

 private:
  pgf::DiscreteDistribution times_;
};

// ---------------------------------------------------------------------------
// Queue specification
// ---------------------------------------------------------------------------

/// A first-stage output queue: arrivals plus service. The traffic intensity
/// rho = lambda * m must be < 1 for a steady state to exist.
struct QueueSpec {
  std::shared_ptr<const ArrivalModel> arrivals;
  std::shared_ptr<const ServiceModel> service;

  [[nodiscard]] double lambda() const { return arrivals->lambda(); }
  [[nodiscard]] double mean_service() const {
    return service->mean_service();
  }
  [[nodiscard]] double rho() const { return lambda() * mean_service(); }
};

}  // namespace ksw::core
