#include "par/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <utility>

#include "obs/metrics.hpp"
#include "support/error.hpp"

namespace ksw::par {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    threads = hw == 0 ? 1 : hw;
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::attach_metrics(obs::Registry* registry) {
  if (registry == nullptr) {
    wait_timer_ = nullptr;
    run_timer_ = nullptr;
    task_counter_ = nullptr;
    return;
  }
  registry->gauge("pool.workers")
      .record_max(static_cast<double>(workers_.size()));
  wait_timer_ = &registry->timer("pool.task_wait");
  run_timer_ = &registry->timer("pool.task_run");
  task_counter_ = &registry->counter("pool.tasks");
}

void ThreadPool::submit(std::function<void()> task) {
  if (task_counter_ != nullptr) {
    task_counter_->inc();
    task = [this, enqueued = std::chrono::steady_clock::now(),
            inner = std::move(task)] {
      wait_timer_->add(std::chrono::steady_clock::now() - enqueued);
      obs::ScopedTimer run(*run_timer_);
      inner();
    };
  }
  {
    std::lock_guard lock(mu_);
    tasks_.push(std::move(task));
  }
  cv_task_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mu_);
  cv_idle_.wait(lock, [this] { return tasks_.empty() && in_flight_ == 0; });
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mu_);
      cv_task_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
      ++in_flight_;
    }
    task();
    {
      std::lock_guard lock(mu_);
      --in_flight_;
      if (tasks_.empty() && in_flight_ == 0) cv_idle_.notify_all();
    }
  }
}

namespace {

/// Shared abort state for one parallel_for* call: the first error wins,
/// and its presence (or an external cancellation request) makes every
/// still-pending index a no-op.
struct AbortState {
  std::exception_ptr first_error = nullptr;
  std::mutex error_mu;
  std::atomic<bool> aborted{false};
  const CancelToken* cancel = nullptr;

  [[nodiscard]] bool should_skip() const noexcept {
    return aborted.load(std::memory_order_relaxed) ||
           (cancel != nullptr && cancel->requested());
  }

  void record(std::exception_ptr error) {
    std::lock_guard lock(error_mu);
    if (!first_error) first_error = std::move(error);
    aborted.store(true, std::memory_order_relaxed);
  }

  /// After the call drains: rethrow the first error, or surface a clean
  /// cancellation as a typed interruption.
  void finish() const {
    if (first_error) std::rethrow_exception(first_error);
    if (cancel != nullptr && cancel->requested())
      throw interrupted_error("parallel work cancelled");
  }
};

}  // namespace

void parallel_for(ThreadPool& pool, std::size_t count,
                  const std::function<void(std::size_t)>& body,
                  const CancelToken* cancel) {
  if (count == 0) return;
  AbortState abort;
  abort.cancel = cancel;
  std::atomic<std::size_t> next{0};
  // One pool task per worker, each draining indices from a shared counter —
  // cheap dynamic load balancing without per-index task overhead.
  const std::size_t lanes = std::min(count, pool.thread_count());
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    pool.submit([&] {
      for (;;) {
        if (abort.should_skip()) return;
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= count) return;
        try {
          body(i);
        } catch (...) {
          abort.record(std::current_exception());
        }
      }
    });
  }
  pool.wait_idle();
  abort.finish();
}

void parallel_for_chunks(ThreadPool& pool, std::size_t count,
                         const std::function<void(std::size_t)>& body,
                         const CancelToken* cancel) {
  if (count == 0) return;
  AbortState abort;
  abort.cancel = cancel;
  const std::size_t chunks = std::min(count, pool.thread_count());
  for (std::size_t c = 0; c < chunks; ++c) {
    // Balanced split: chunk c covers [count*c/chunks, count*(c+1)/chunks),
    // so sizes differ by at most one.
    const std::size_t begin = count * c / chunks;
    const std::size_t end = count * (c + 1) / chunks;
    pool.submit([&, begin, end] {
      for (std::size_t i = begin; i < end; ++i) {
        if (abort.should_skip()) return;
        try {
          body(i);
        } catch (...) {
          abort.record(std::current_exception());
        }
      }
    });
  }
  pool.wait_idle();
  abort.finish();
}

}  // namespace ksw::par
