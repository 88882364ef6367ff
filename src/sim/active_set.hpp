// Active-set port scheduler for one switch stage.
//
// The seed cycle loop scanned every port of every stage each cycle; at low
// load almost all of that work is skip checks. This set tracks, per stage,
// which ports could start a service this cycle: a 64-bit bitmap of
// occupied (non-empty) ports and a bitmap of busy ports (mid multi-cycle
// service). The scan visits only set bits of `occupied & ~busy`, in
// ascending port order — the same order as a full sweep, so statistics
// accumulate bit-identically to the seed engine.
//
// Maintenance is incremental: push into an empty queue sets the occupied
// bit, the pop that empties a queue clears it. Unit services never block
// the next cycle, so a unit-service run uses ActiveSet alone and its busy
// bitmap stays zero. Sampled-service runs use TimedActiveSet, which adds
// the busy periods' expiry on a timing wheel: starting an m >= 2 cycle
// service sets the busy bit and files the port under its end cycle.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace ksw::sim {

/// Worklist of serviceable ports within one stage.
class ActiveSet {
 public:
  explicit ActiveSet(std::uint32_t ports)
      : occupied_((ports + 63) / 64, 0), busy_((ports + 63) / 64, 0) {}

  /// Port `a` has at least one queued packet.
  void mark_occupied(std::uint32_t a) noexcept {
    occupied_[a >> 6] |= std::uint64_t{1} << (a & 63);
  }

  /// Port `a`'s queue just became empty.
  void clear_occupied(std::uint32_t a) noexcept {
    occupied_[a >> 6] &= ~(std::uint64_t{1} << (a & 63));
  }

  /// Visit every occupied, non-busy port in ascending order. `fn` may
  /// clear_occupied / mark_busy the port it is visiting (each word is
  /// snapshotted before its bits are walked).
  template <typename Fn>
  void for_each_candidate(Fn&& fn) const {
    for (std::size_t wi = 0; wi < occupied_.size(); ++wi) {
      std::uint64_t w = occupied_[wi] & ~busy_[wi];
      while (w != 0) {
        const auto a = static_cast<std::uint32_t>(
            (wi << 6) + static_cast<std::size_t>(std::countr_zero(w)));
        w &= w - 1;
        fn(a);
      }
    }
  }

 protected:
  std::vector<std::uint64_t> occupied_;
  std::vector<std::uint64_t> busy_;
};

/// ActiveSet whose busy ports expire on a hashed timing wheel: 64 slots of
/// port bitmaps (the word layout of `busy_`) plus each busy port's end
/// cycle. A port busy until cycle c sits in slot c mod 64; visiting a slot
/// releases the ports whose end cycle has come and leaves those due in a
/// later round (services of 64 cycles or more) set.
///
/// Contract: expire() is called once per cycle, with consecutive `t`, and
/// a busy period marked in cycle t ends after t. Then every visit of a
/// port's slot before its end cycle finds it not yet due, and the visit at
/// its end cycle releases it: each port leaves the busy set exactly at
/// its end cycle.
class TimedActiveSet : public ActiveSet {
 public:
  explicit TimedActiveSet(std::uint32_t ports)
      : ActiveSet(ports),
        words_(busy_.size()),
        slots_(kSlots * words_, 0),
        end_(ports, 0) {}

  /// Port `a` may not start another service before cycle `clear_at`.
  void mark_busy(std::uint32_t a, std::int64_t clear_at) noexcept {
    const std::uint64_t bit = std::uint64_t{1} << (a & 63);
    busy_[a >> 6] |= bit;
    slot(clear_at)[a >> 6] |= bit;
    end_[a] = clear_at;
  }

  /// Release every port whose busy period has ended by cycle `t`. Call
  /// before scanning candidates for cycle `t`.
  void expire(std::int64_t t) noexcept {
    std::uint64_t* row = slot(t);
    for (std::size_t wi = 0; wi < words_; ++wi) {
      std::uint64_t w = row[wi];
      if (w == 0) continue;
      std::uint64_t due = 0;
      while (w != 0) {
        const int b = std::countr_zero(w);
        w &= w - 1;
        if (end_[(wi << 6) + static_cast<std::size_t>(b)] <= t)
          due |= std::uint64_t{1} << b;
      }
      row[wi] &= ~due;
      busy_[wi] &= ~due;
    }
  }

 private:
  static constexpr std::size_t kSlots = 64;

  [[nodiscard]] std::uint64_t* slot(std::int64_t cycle) noexcept {
    return slots_.data() +
           (static_cast<std::size_t>(cycle) & (kSlots - 1)) * words_;
  }

  std::size_t words_;
  std::vector<std::uint64_t> slots_;  // kSlots rows of words_ words
  std::vector<std::int64_t> end_;     // end cycle of each busy port
};

}  // namespace ksw::sim
