// Multistage network topologies.
//
// Both are delta networks on N = k^n ports built from k x k switches; a
// packet's route is fully determined by (source, destination). They are
// isomorphic (same per-stage contention statistics under any
// source-symmetric traffic), which the test suite verifies empirically —
// but the queue *addresses* differ, and the Omega form mirrors how the
// NYU Ultracomputer / RP3 hardware was actually drawn.
//
//   * Butterfly: the queue reached after s+1 routing steps is the address
//     dst[0..s] ++ src[s+1..n-1] (digit substitution; no wiring tables).
//   * Omega: a perfect shuffle (left digit rotation) precedes every
//     switch column; a switch's output queue is switch*k + routing digit.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace ksw::sim {

enum class TopologyKind { kButterfly, kOmega };

/// Largest network a Topology (and sim::check) accepts: k^stages <= 2^24
/// ports.
inline constexpr std::uint64_t kMaxPorts = std::uint64_t{1} << 24;

/// Address arithmetic for an n-stage delta network of k x k switches.
/// Queues are numbered 0..k^n-1 within each stage.
class Topology {
 public:
  Topology(TopologyKind kind, unsigned k, unsigned stages);

  [[nodiscard]] TopologyKind kind() const noexcept { return kind_; }
  [[nodiscard]] unsigned k() const noexcept { return k_; }
  [[nodiscard]] unsigned stages() const noexcept { return n_; }
  [[nodiscard]] std::uint32_t ports() const noexcept { return pow_[n_]; }

  /// MSB-first base-k digit j of an n-digit address. Routing calls this
  /// for every hop of every packet, so powers of two take the shift/mask
  /// path instead of div/mod.
  [[nodiscard]] std::uint32_t digit(std::uint32_t x, unsigned j) const {
    if (log2k_ >= 0)
      return (x >> (static_cast<unsigned>(log2k_) * (n_ - 1 - j))) &
             (k_ - 1);
    return (x / pow_[n_ - 1 - j]) % k_;
  }

  /// Queue a packet from input port `src` joins at stage 0. Inline (with
  /// next_queue): the simulator calls these once per packet hop.
  [[nodiscard]] std::uint32_t entry_queue(std::uint32_t src,
                                          std::uint32_t dst) const {
    switch (kind_) {
      case TopologyKind::kButterfly:
        return replace_digit(src, 0, digit(dst, 0));
      case TopologyKind::kOmega: {
        // Shuffle the input, then the switch routes on the first digit:
        // queue = switch * k + dst[0], i.e. replace the LAST digit of the
        // shuffled position.
        const std::uint32_t pos = shuffle(src);
        return (pos / k_) * k_ + digit(dst, 0);
      }
    }
    return 0;
  }

  /// Queue the packet moves to at stage s+1, given its stage-s queue.
  /// Requires s+1 < stages().
  [[nodiscard]] std::uint32_t next_queue(unsigned s, std::uint32_t current,
                                         std::uint32_t dst) const {
    switch (kind_) {
      case TopologyKind::kButterfly:
        return replace_digit(current, s + 1, digit(dst, s + 1));
      case TopologyKind::kOmega: {
        const std::uint32_t pos = shuffle(current);
        return (pos / k_) * k_ + digit(dst, s + 1);
      }
    }
    return 0;
  }

  /// Output port a packet in stage-(n-1) queue `current` exits on.
  [[nodiscard]] std::uint32_t exit_port(std::uint32_t current) const {
    return current;
  }

  /// Perfect shuffle: left-rotate the base-k digits (Omega wiring).
  [[nodiscard]] std::uint32_t shuffle(std::uint32_t x) const {
    return (x % pow_[n_ - 1]) * k_ + x / pow_[n_ - 1];
  }

  [[nodiscard]] std::string describe() const;

 private:
  /// Address with digit j replaced by d.
  [[nodiscard]] std::uint32_t replace_digit(std::uint32_t x, unsigned j,
                                            std::uint32_t d) const {
    return x + (d - digit(x, j)) * pow_[n_ - 1 - j];
  }

  TopologyKind kind_;
  unsigned k_;
  unsigned n_;
  int log2k_ = -1;  ///< log2(k) when k is a power of two, else -1
  std::vector<std::uint32_t> pow_;
};

}  // namespace ksw::sim
