// Flat structure-of-arrays FIFO queue pool.
//
// The network simulator owns stages x ports queues; the seed layout
// (vector<vector<RingQueue<T>>>) put each queue's metadata and storage in
// its own heap blocks, so a cycle sweep chased two indirections per port.
// This pool keeps all queue metadata (head/size/mask) in parallel flat
// arrays indexed by one queue id, and carves element storage for every
// queue out of a shared bump arena, so metadata for a whole stage is
// cache-dense and steady-state push/pop is allocation-free.
//
// Growth policy matches RingQueue: per-queue power-of-two capacity doubling
// that never shrinks. A grown queue's old arena block is abandoned inside
// the arena (freed only with the pool); geometric doubling bounds the
// abandoned space by the total live capacity, which is the usual arena
// trade of memory for zero free-list work.
//
// Fixed-capacity mode (finite-buffer simulations): when the caller
// guarantees an occupancy bound — the flow-control admission check runs
// before every push — the pool can be frozen at construction. Rings never
// move, the arena never grows, and an overflowing push throws instead of
// silently doubling, turning a flow-control bug into a loud invariant
// failure.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

namespace ksw::sim {

/// Pool of FIFO queues over power-of-two ring buffers in a shared arena.
/// Queue ids are dense [0, queue_count()); the caller maps (stage, port)
/// onto them (the network uses stage * ports + port).
template <typename T>
class QueuePool {
 public:
  explicit QueuePool(std::size_t queues, std::size_t initial_capacity = 4,
                     bool fixed = false)
      : fixed_(fixed), head_(queues, 0), size_(queues, 0), mask_(queues, 0),
        data_(queues) {
    std::size_t cap = 2;
    while (cap < initial_capacity) cap *= 2;
    if (queues == 0) return;
    // One contiguous block for the initial capacity of every queue keeps
    // neighbouring queue ids on neighbouring cache lines.
    T* base = allocate(queues * cap);
    for (std::size_t q = 0; q < queues; ++q) {
      data_[q] = base + q * cap;
      mask_[q] = static_cast<std::uint32_t>(cap - 1);
    }
  }

  [[nodiscard]] std::size_t queue_count() const noexcept {
    return data_.size();
  }
  [[nodiscard]] bool empty(std::size_t q) const noexcept {
    return size_[q] == 0;
  }
  [[nodiscard]] std::size_t size(std::size_t q) const noexcept {
    return size_[q];
  }
  [[nodiscard]] std::size_t capacity(std::size_t q) const noexcept {
    return static_cast<std::size_t>(mask_[q]) + 1;
  }

  void push(std::size_t q, const T& value) {
    if (size_[q] > mask_[q]) [[unlikely]] grow(q);
    data_[q][(head_[q] + size_[q]) & mask_[q]] = value;
    ++size_[q];
  }

  [[nodiscard]] T& front(std::size_t q) noexcept {
    return data_[q][head_[q]];
  }
  [[nodiscard]] const T& front(std::size_t q) const noexcept {
    return data_[q][head_[q]];
  }

  /// Element i positions behind the front (0 == front). No bounds check.
  [[nodiscard]] const T& at(std::size_t q, std::size_t i) const noexcept {
    return data_[q][(head_[q] + static_cast<std::uint32_t>(i)) & mask_[q]];
  }

  void pop(std::size_t q) noexcept {
    head_[q] = (head_[q] + 1) & mask_[q];
    --size_[q];
  }

  /// Hint the cache that front(q) is about to be read and popped. The
  /// network engine calls this a few queues ahead of its service walk
  /// so the ring-slot miss overlaps useful work.
  void prefetch_front(std::size_t q) const noexcept {
    __builtin_prefetch(data_[q] + head_[q], 1);
  }

 private:
  // Out of line so push() stays a few instructions: the network engine
  // pushes on every hop, and an inlined grow made the compiler stop
  // inlining push (and the routing it sits beside) into the cycle loop.
  [[gnu::noinline]] void grow(std::size_t q) {
    if (fixed_)
      throw std::logic_error(
          "QueuePool: push beyond fixed capacity (flow-control admission "
          "failed to bound queue occupancy)");
    const std::size_t old_cap = capacity(q);
    const std::size_t new_cap = old_cap * 2;
    T* fresh = allocate(new_cap);
    for (std::uint32_t i = 0; i < size_[q]; ++i)
      fresh[i] = data_[q][(head_[q] + i) & mask_[q]];
    data_[q] = fresh;
    head_[q] = 0;
    mask_[q] = static_cast<std::uint32_t>(new_cap - 1);
  }

  T* allocate(std::size_t n) {
    if (bump_left_ < n) {
      const std::size_t chunk = n > kChunkElems ? n : kChunkElems;
      chunks_.push_back(std::make_unique<T[]>(chunk));
      bump_ = chunks_.back().get();
      bump_left_ = chunk;
    }
    T* out = bump_;
    bump_ += n;
    bump_left_ -= n;
    return out;
  }

  static constexpr std::size_t kChunkElems = std::size_t{1} << 16;

  bool fixed_ = false;
  std::vector<std::uint32_t> head_;
  std::vector<std::uint32_t> size_;
  std::vector<std::uint32_t> mask_;
  std::vector<T*> data_;

  std::vector<std::unique_ptr<T[]>> chunks_;
  T* bump_ = nullptr;
  std::size_t bump_left_ = 0;
};

}  // namespace ksw::sim
