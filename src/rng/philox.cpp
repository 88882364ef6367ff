#include "rng/philox.hpp"

#include <cmath>

namespace ksw::rng {

Philox4x32::Key philox_key(std::uint64_t seed) noexcept {
  // One SplitMix64 step decorrelates nearby seeds (replicate seeds are
  // themselves SplitMix64 outputs, but CLI users pass 1, 2, 3...).
  SplitMix64 sm(seed);
  const std::uint64_t k = sm.next();
  return {static_cast<std::uint32_t>(k),
          static_cast<std::uint32_t>(k >> 32)};
}

std::uint64_t bernoulli_threshold(double p) noexcept {
  if (!(p > 0.0)) return 0;
  if (p >= 1.0) return std::uint64_t{1} << 32;
  return static_cast<std::uint64_t>(std::llround(p * 0x1.0p32));
}

}  // namespace ksw::rng
