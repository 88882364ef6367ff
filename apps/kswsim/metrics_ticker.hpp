// Periodic metrics snapshotter for `kswsim serve`: rewrites `path`
// atomically every `interval_ms` until stopped, so an operator can
// follow counters and latency quantiles live instead of waiting for
// shutdown. Write failures disable the ticker with one stderr note —
// monitoring must never take the service down.
#pragma once

#include <atomic>
#include <chrono>
#include <functional>
#include <ostream>
#include <string>
#include <thread>
#include <utility>

#include "io/atomic.hpp"

namespace ksw::cli {

class MetricsTicker {
 public:
  /// `render` produces the full snapshot body (called on the ticker
  /// thread, so it must be safe against the serving loop — both
  /// Service::report and Supervisor::report are).
  MetricsTicker(std::function<std::string()> render, std::string path,
                std::int64_t interval_ms, std::ostream& err,
                std::string who)
      : render_(std::move(render)), path_(std::move(path)) {
    thread_ = std::thread([this, interval_ms, &err, who = std::move(who)] {
      const auto interval = std::chrono::milliseconds(interval_ms);
      auto next = std::chrono::steady_clock::now() + interval;
      while (!done_.load(std::memory_order_relaxed)) {
        // Short sleeps so shutdown is observed promptly even with a
        // long interval.
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        if (std::chrono::steady_clock::now() < next) continue;
        next += interval;
        try {
          io::atomic_write_file(path_, render_());
        } catch (const std::exception& e) {
          err << who << ": metrics snapshot failed, disabling ticker: "
              << e.what() << "\n";
          return;
        }
      }
    });
  }

  MetricsTicker(const MetricsTicker&) = delete;
  MetricsTicker& operator=(const MetricsTicker&) = delete;

  ~MetricsTicker() {
    done_.store(true, std::memory_order_relaxed);
    if (thread_.joinable()) thread_.join();
  }

 private:
  std::function<std::string()> render_;
  std::string path_;
  std::atomic<bool> done_{false};
  std::thread thread_;
};

/// Final snapshot on shutdown: atomically to `path`, or to `out` for "-".
inline void write_snapshot(const std::string& path, const std::string& body,
                           std::ostream& out) {
  if (path == "-")
    out << body;
  else
    io::atomic_write_file(path, body);
}

}  // namespace ksw::cli
