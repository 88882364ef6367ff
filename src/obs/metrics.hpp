// Metric primitives for the observability layer: counters, gauges,
// fixed-bucket histograms, and wall-clock timers.
//
// Design contract (mirrors par::parallel_for's determinism contract):
//   * each simulation replicate owns a private Registry, so hot-path
//     updates never contend — increments are relaxed atomics (counters,
//     gauges, timers) or plain stores (histograms, single-writer);
//   * registries are merged in replicate-index order, so every value that
//     derives from simulated events is bit-identical for a fixed seed
//     regardless of thread count. Only wall-clock timer durations are
//     nondeterministic, and the report emitter can omit them.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <vector>

namespace ksw::obs {

/// Monotonic event count. Thread-safe (relaxed); merges by summation.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter& other) : n_(other.value()) {}

  void inc(std::uint64_t delta = 1) noexcept {
    n_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return n_.load(std::memory_order_relaxed);
  }
  void merge(const Counter& other) noexcept { inc(other.value()); }

 private:
  std::atomic<std::uint64_t> n_{0};
};

/// Point-in-time value, used almost exclusively as a high-water mark
/// (peak queue depth, worker count) — so merge keeps the maximum.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge& other) : v_(other.value()) {}

  void set(double v) noexcept { v_.store(v, std::memory_order_relaxed); }
  /// Raise the gauge to `v` if larger (relaxed CAS loop).
  void record_max(double v) noexcept;
  [[nodiscard]] double value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  void merge(const Gauge& other) noexcept { record_max(other.value()); }

 private:
  std::atomic<double> v_{0.0};
};

/// Fixed-bucket histogram: `buckets` consecutive bins of `width` starting
/// at `lower`, bucket i covering [lower + i*width, lower + (i+1)*width),
/// plus underflow/overflow tallies and a running sum for the mean.
///
/// Single-writer on the hot path (each replicate owns its registry);
/// merging requires identical bucket layouts.
class Histogram {
 public:
  Histogram(double lower, double width, std::size_t buckets);

  void record(double v) noexcept { record(v, 1); }
  void record(double v, std::uint64_t count) noexcept;
  /// Throws std::invalid_argument if bucket layouts differ.
  void merge(const Histogram& other);

  [[nodiscard]] double lower() const noexcept { return lower_; }
  [[nodiscard]] double width() const noexcept { return width_; }
  [[nodiscard]] std::size_t bucket_count() const noexcept {
    return counts_.size();
  }
  /// Inclusive lower edge of bucket i.
  [[nodiscard]] double lower_edge(std::size_t i) const noexcept {
    return lower_ + width_ * static_cast<double>(i);
  }
  [[nodiscard]] std::uint64_t bucket(std::size_t i) const {
    return counts_.at(i);
  }
  [[nodiscard]] std::uint64_t underflow() const noexcept { return underflow_; }
  [[nodiscard]] std::uint64_t overflow() const noexcept { return overflow_; }
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  /// Mean of the raw recorded values (not bucket midpoints); 0 when empty.
  [[nodiscard]] double mean() const noexcept;

  /// Approximate quantile (q in [0, 1]; anything else throws) by linear
  /// interpolation inside the bucket holding the rank. The result is
  /// always clamped to the histogram's range [lower, lower + width *
  /// buckets]: underflow mass reports the lower bound, overflow mass the
  /// upper bound, and an empty histogram returns the lower bound — never
  /// NaN, never a value outside the bucket edges. q = 0 lands on the
  /// lowest occupied edge, q = 1 on the highest. Used for p50/p99
  /// service-time summaries in run reports.
  [[nodiscard]] double quantile(double q) const;

 private:
  double lower_;
  double width_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t underflow_ = 0;
  std::uint64_t overflow_ = 0;
  std::uint64_t total_ = 0;
  double sum_ = 0.0;
};

/// Accumulated wall-clock duration + call count. Thread-safe (relaxed);
/// merges by summation. Durations are the only nondeterministic metric —
/// report emitters can exclude them (ReportOptions::include_wall).
class Timer {
 public:
  Timer() = default;
  Timer(const Timer& other)
      : ns_(other.nanos()), calls_(other.calls()) {}

  void add(std::chrono::nanoseconds d) noexcept {
    ns_.fetch_add(static_cast<std::uint64_t>(d.count()),
                  std::memory_order_relaxed);
    calls_.fetch_add(1, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t nanos() const noexcept {
    return ns_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t calls() const noexcept {
    return calls_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double seconds() const noexcept {
    return static_cast<double>(nanos()) * 1e-9;
  }
  void merge(const Timer& other) noexcept {
    ns_.fetch_add(other.nanos(), std::memory_order_relaxed);
    calls_.fetch_add(other.calls(), std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> ns_{0};
  std::atomic<std::uint64_t> calls_{0};
};

/// RAII phase timer: adds the scope's elapsed wall time to a Timer on
/// destruction. Nests freely (each scope feeds its own Timer). The
/// pointer form with nullptr is a no-op, so call sites can keep one code
/// path for instrumented and uninstrumented runs.
class ScopedTimer {
 public:
  explicit ScopedTimer(Timer& timer) : ScopedTimer(&timer) {}
  explicit ScopedTimer(Timer* timer)
      : timer_(timer),
        start_(timer ? std::chrono::steady_clock::now()
                     : std::chrono::steady_clock::time_point{}) {}
  ~ScopedTimer() {
    if (timer_ != nullptr)
      timer_->add(std::chrono::steady_clock::now() - start_);
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Timer* timer_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace ksw::obs
