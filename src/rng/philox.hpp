// Counter-based random-number generation for the simulator hot path.
//
// Philox4x32-10 (Salmon, Moraes, Dror, Shaw — "Parallel Random Numbers:
// As Easy as 1, 2, 3", SC'11): a bijective keyed permutation of a 128-bit
// counter producing four 32-bit words per block. Unlike a stateful
// sequential generator, a draw is a pure function
//
//   (key, counter) -> 4 x uint32
//
// so the simulator can address randomness *by coordinate* instead of by
// position in a sequence: seed + (replicate, cycle, port, site) names a
// draw no matter when — or on how many SIMD lanes at once — it is
// evaluated. That coordinate addressing is what makes the vectorized
// injection kernel (src/simd/inject.hpp) bit-identical to the scalar
// oracle, and what lets a killed replicate restart at any cycle with no
// carried generator state (see DESIGN.md §8b).
//
// Counter packing (one convention, shared by every consumer):
//   word 0  seq   — block sequence number within the site (multi-draw
//                   sites advance it; single-block sites leave it 0)
//   word 1  port  — port / input index
//   word 2  cycle — low 32 bits of the simulation cycle
//   word 3  cycle-hi | site — bits 0..23 carry cycle bits 32..55, bits
//                   24..31 carry the draw-domain Site tag
//
// The key is 64 bits derived from the per-replicate seed via SplitMix64,
// so the (base seed, replicate index) -> stream derivation of
// sim::replicate_seed carries over unchanged.
#pragma once

#include <array>
#include <cstdint>

namespace ksw::rng {

/// SplitMix64 (Steele, Lea, Flood) — the seed scrambler behind philox_key
/// and sim::replicate_seed: one step turns nearby seeds (1, 2, 3...) into
/// unrelated 64-bit values.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  constexpr std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// The Philox4x32-10 block cipher. Stateless; everything is static.
struct Philox4x32 {
  using Counter = std::array<std::uint32_t, 4>;
  using Key = std::array<std::uint32_t, 2>;

  static constexpr std::uint32_t kMul0 = 0xD2511F53u;
  static constexpr std::uint32_t kMul1 = 0xCD9E8D57u;
  static constexpr std::uint32_t kWeyl0 = 0x9E3779B9u;  // golden ratio
  static constexpr std::uint32_t kWeyl1 = 0xBB67AE85u;  // sqrt(3) - 1

  /// One 10-round block: the reference scalar implementation, and the
  /// bit-identity oracle for the SIMD kernels.
  [[nodiscard]] static Counter block(Counter ctr, Key key) noexcept {
    for (int round = 0; round < 10; ++round) {
      const std::uint64_t p0 =
          static_cast<std::uint64_t>(kMul0) * ctr[0];
      const std::uint64_t p1 =
          static_cast<std::uint64_t>(kMul1) * ctr[2];
      ctr = {static_cast<std::uint32_t>(p1 >> 32) ^ ctr[1] ^ key[0],
             static_cast<std::uint32_t>(p1),
             static_cast<std::uint32_t>(p0 >> 32) ^ ctr[3] ^ key[1],
             static_cast<std::uint32_t>(p0)};
      key[0] += kWeyl0;
      key[1] += kWeyl1;
    }
    return ctr;
  }
};

/// Draw-domain tags: every logically distinct consumer of randomness gets
/// its own counter subspace, so adding a draw site (or reordering visits)
/// can never shift another site's stream.
enum class Site : std::uint32_t {
  kInject = 0,     ///< network-engine injection block (see lanes below)
  kService = 1,    ///< network-engine service-time draws
  kFsInject = 2,   ///< first-stage simulator injection block
  kFsService = 3,  ///< first-stage simulator service-time draws
};

/// Lane roles within a `kInject`/`kFsInject` block. One block decides one
/// (cycle, port) injection completely; unused lanes cost nothing because
/// nothing is "consumed" from a counter-based stream.
inline constexpr int kLaneArrival = 0;   ///< bernoulli(p) arrival draw
inline constexpr int kLaneHotspot = 1;   ///< bernoulli(hotspot) draw
inline constexpr int kLaneFavorite = 2;  ///< bernoulli(q) favorite draw
inline constexpr int kLaneDest = 3;      ///< uniform destination draw

/// Derive the 64-bit Philox key for a replicate seed.
[[nodiscard]] Philox4x32::Key philox_key(std::uint64_t seed) noexcept;

/// Pack the shared counter convention.
[[nodiscard]] inline Philox4x32::Counter philox_counter(
    std::int64_t cycle, std::uint32_t port, Site site,
    std::uint32_t seq = 0) noexcept {
  const auto c = static_cast<std::uint64_t>(cycle);
  return {seq, port, static_cast<std::uint32_t>(c),
          (static_cast<std::uint32_t>(c >> 32) & 0x00ffffffu) |
              (static_cast<std::uint32_t>(site) << 24)};
}

/// Threshold for `draw32 < threshold` bernoulli trials: round(p * 2^32),
/// as a 64-bit value so p = 1 maps to 2^32 (always true). Shared by the
/// scalar and SIMD paths — both compare the unsigned 32-bit draw, widened
/// to 64 bits, against this.
[[nodiscard]] std::uint64_t bernoulli_threshold(double p) noexcept;

/// Map a 32-bit draw to [0, n) by fixed-point multiply: (draw * n) >> 32.
/// Bias is bounded by n / 2^32 (< 1e-6 for any realistic port count) and
/// the mapping is branch-free, which is what the SIMD lane blend needs.
[[nodiscard]] inline std::uint32_t uniform_below(std::uint32_t draw,
                                                 std::uint32_t n) noexcept {
  return static_cast<std::uint32_t>(
      (static_cast<std::uint64_t>(draw) * n) >> 32);
}

/// Map a 32-bit draw to the open interval (0, 1): (draw + 1/2) * 2^-32.
/// Never 0 or 1, so log(u) and CDF scans need no rejection loop.
[[nodiscard]] inline double unit_open(std::uint32_t draw) noexcept {
  return (static_cast<double>(draw) + 0.5) * 0x1.0p-32;
}

/// Sequential lane reader over one (cycle, port, site) subspace — the
/// counter-mode analogue of "the next draw" for sites that take a
/// data-dependent number of draws (service sampling under bulk arrivals,
/// multi-size mixtures). Draws are (key, cycle, port, site, k) for
/// k = 0, 1, ... regardless of what any other site or port consumed.
class LaneSeq {
 public:
  LaneSeq(Philox4x32::Key key, std::int64_t cycle, std::uint32_t port,
          Site site) noexcept
      : key_(key), cycle_(cycle), port_(port), site_(site) {}

  /// Next 32-bit lane (lazy: the first call computes block seq 0).
  std::uint32_t next_u32() noexcept {
    if (lane_ == 4) {
      block_ = Philox4x32::block(philox_counter(cycle_, port_, site_, seq_),
                                 key_);
      ++seq_;
      lane_ = 0;
    }
    return block_[static_cast<std::size_t>(lane_++)];
  }

  /// Next uniform double in (0, 1) with 32-bit resolution.
  double next_unit() noexcept { return unit_open(next_u32()); }

 private:
  Philox4x32::Key key_;
  std::int64_t cycle_;
  std::uint32_t port_;
  Site site_;
  std::uint32_t seq_ = 0;
  int lane_ = 4;
  Philox4x32::Counter block_{};
};

}  // namespace ksw::rng
