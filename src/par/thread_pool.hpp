// Minimal fixed-size thread pool and deterministic parallel helpers.
//
// The simulator uses `parallel_for` to run independent Monte-Carlo
// replicates across cores. Determinism contract: the work function receives
// the task index, each task derives its randomness from that index (via
// sim::replicate_seed), and results are merged in index order — so the
// outcome is bit-identical for a fixed seed regardless of thread count.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "obs/registry.hpp"
#include "par/cancel.hpp"

namespace ksw::par {

/// Fixed pool of worker threads executing submitted tasks FIFO.
class ThreadPool {
 public:
  /// Spawn `threads` workers (0 = hardware concurrency, at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t thread_count() const noexcept {
    return workers_.size();
  }

  /// Enqueue a task; it will run on some worker.
  void submit(std::function<void()> task);

  /// Block until every submitted task has finished.
  void wait_idle();

  /// Attach a metrics registry; subsequent tasks record queue wait time
  /// ("pool.task_wait"), execution time ("pool.task_run"), a task counter
  /// ("pool.tasks"), and a "pool.workers" gauge. Pass nullptr to detach.
  /// Call only while the pool is idle; the registry must outlive the last
  /// task submitted while attached.
  void attach_metrics(obs::Registry* registry);

 private:
  void worker_loop();

  obs::Timer* wait_timer_ = nullptr;
  obs::Timer* run_timer_ = nullptr;
  obs::Counter* task_counter_ = nullptr;

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  std::size_t in_flight_ = 0;
  bool stop_ = false;
};

/// Run body(i) for i in [0, count) across the pool; blocks until all done.
/// Indices are drained dynamically from a shared counter (good load
/// balancing for uneven task costs).
///
/// Failure semantics: the first exception thrown by any body is recorded
/// and rethrown after the call drains; once an error is recorded (or
/// `cancel` is requested) still-pending indices are *skipped* rather than
/// executed, so a failing or cancelled run aborts promptly instead of
/// burning the remaining grid. When `cancel` fires and no body threw,
/// ksw::Error(kInterrupted) is thrown.
void parallel_for(ThreadPool& pool, std::size_t count,
                  const std::function<void(std::size_t)>& body,
                  const CancelToken* cancel = nullptr);

/// Run body(i) for i in [0, count), statically partitioned into one
/// contiguous chunk per worker; each chunk is walked in ascending index
/// order. For equal-cost tasks (Monte-Carlo replicates) this trades
/// parallel_for's dynamic balancing for fewer queue round-trips, a
/// deterministic worker->index assignment, and per-worker locality of
/// consecutive indices. Per-index outputs are identical to parallel_for.
/// Failure/cancellation semantics as in parallel_for.
void parallel_for_chunks(ThreadPool& pool, std::size_t count,
                         const std::function<void(std::size_t)>& body,
                         const CancelToken* cancel = nullptr);

/// Convenience: run `count` independent jobs producing results of type T,
/// collected in index order into a vector (deterministic merge).
template <typename T, typename Fn>
std::vector<T> parallel_map(ThreadPool& pool, std::size_t count, Fn&& fn) {
  std::vector<T> out(count);
  parallel_for(pool, count, [&](std::size_t i) { out[i] = fn(i); });
  return out;
}

}  // namespace ksw::par
