#include "sim/topology.hpp"

namespace ksw::sim {

Topology::Topology(TopologyKind kind, unsigned k, unsigned stages)
    : kind_(kind), k_(k), n_(stages) {
  if (k < 2) throw std::invalid_argument("Topology: k must be >= 2");
  if (stages == 0) throw std::invalid_argument("Topology: stages == 0");
  pow_.resize(n_ + 1);
  pow_[0] = 1;
  for (unsigned i = 1; i <= n_; ++i) {
    if (pow_[i - 1] > kMaxPorts / k_)
      throw std::invalid_argument(
          "Topology: network too large (k^stages > 2^24 ports)");
    pow_[i] = pow_[i - 1] * k_;
  }
  if ((k_ & (k_ - 1)) == 0) {
    log2k_ = 0;
    for (unsigned v = k_; v > 1; v >>= 1) ++log2k_;
  }
}

std::string Topology::describe() const {
  const char* name =
      kind_ == TopologyKind::kButterfly ? "butterfly" : "omega";
  return std::string(name) + "(k=" + std::to_string(k_) +
         ", stages=" + std::to_string(n_) + ")";
}

}  // namespace ksw::sim
