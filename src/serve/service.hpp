// The long-lived analytic query service behind `kswsim serve`.
//
// The service reads ksw.query/v1 JSONL requests (stdin, any readable
// descriptor, or a Unix socket), batches them, dispatches each batch across
// the par thread pool, and streams one JSONL response per request *in
// request order* — so correlation works with or without ids. Every
// kernel evaluation goes through the content-addressed EvalCache, so a
// repeated tuple returns bit-identical bytes without recomputation.
//
// Failure model (docs/ROBUSTNESS.md): a bad or rejected request never
// terminates the process — it answers in-band with error.kind. Only
// transport failures (kIo) and startup usage errors escape as
// ksw::Error. Cooperative cancellation (SIGINT/SIGTERM via the global
// CancelToken) stops reading, answers every already-read request
// (unstarted ones with error.kind "interrupted"), flushes, and returns
// with interrupted = true so the CLI can exit 130 after writing the
// metrics snapshot.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include <memory>

#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "par/cancel.hpp"
#include "par/thread_pool.hpp"
#include "serve/access_log.hpp"
#include "serve/cache.hpp"
#include "serve/query.hpp"

namespace ksw::serve {

struct ServeOptions {
  std::size_t threads = 0;       ///< worker threads (0 = hardware)
  std::size_t batch = 64;        ///< max requests dispatched per batch
  std::uint64_t cache_mb = 64;   ///< evaluation-cache capacity (0 = off)
  std::int64_t deadline_ms = 0;  ///< default per-request deadline (0 = none)
  /// Request-level observability (docs/SERVING.md "Request telemetry"):
  /// a JSONL access-log path ("" = off) and an optional span sink (not
  /// owned). Either one turns on trace_id generation for requests that
  /// do not carry their own.
  std::string access_log;
  obs::Tracer* tracer = nullptr;
};

/// What a serve loop did; the CLI turns `interrupted` into exit 130
/// after flushing the metrics snapshot.
struct ServeSummary {
  std::uint64_t requests = 0;
  std::uint64_t responses = 0;
  bool interrupted = false;
};

class Service {
 public:
  explicit Service(ServeOptions opts);

  /// Serve one batch: parse errors, deadline misses, cache hits, and
  /// fresh evaluations all become response lines appended to `out`
  /// (newline-terminated, in input order). Repeats of a tuple within the
  /// batch evaluate once, at its first occurrence; the rest are hits, so
  /// the bytes and counters do not depend on thread scheduling.
  void serve_batch(std::vector<Request> batch, std::string* out,
                   const par::CancelToken* cancel);

  /// File-descriptor loop with a poll-based line reader, so a blocked
  /// read observes cancellation within ~200 ms (stdin under a pipe, a
  /// regular file, or one accepted socket connection). Each batch takes
  /// the lines readable without blocking, up to `batch`: a regular file
  /// fills every batch, a slow pipe sends smaller ones. Responses are
  /// written to out_fd; EPIPE on a socket peer aborts just that
  /// connection. A line over
  /// kMaxLineBytes, or a read/write failure, throws ksw::Error(kIo)
  /// after the requests read before it are answered.
  ServeSummary run_fd(int in_fd, int out_fd, const par::CancelToken* cancel);

  /// Unix-socket accept loop at `socket_path` (stale paths are
  /// unlinked, the socket is unlinked again on exit). Connections are
  /// served sequentially, each as a JSONL stream; a connection whose
  /// stream fails (see run_fd) is closed and the next one accepted. The
  /// loop ends only on cancellation.
  ServeSummary run_listen(const std::string& socket_path,
                          const par::CancelToken* cancel);

  /// Structured snapshot: serve counters/timers, cache stats,
  /// p50/p99/p999 service time. Schema "ksw.obs.report/v1", command
  /// "serve". Thread-safe against a concurrent serving loop, so a
  /// metrics thread (--metrics-interval-ms) can snapshot a live
  /// service.
  [[nodiscard]] io::Json report(bool include_wall = true) const;

  [[nodiscard]] const EvalCache& cache() const noexcept { return cache_; }
  [[nodiscard]] const obs::Registry& registry() const noexcept {
    return registry_;
  }
  [[nodiscard]] const ServeOptions& options() const noexcept { return opts_; }

 private:
  /// run_fd's loop, accumulating into `summary` so run_listen keeps the
  /// counts of a connection that ends in an error.
  void serve_fd(int in_fd, int out_fd, const par::CancelToken* cancel,
                ServeSummary& summary);

  ServeOptions opts_;
  obs::Registry registry_;
  EvalCache cache_;
  par::ThreadPool pool_;
  std::unique_ptr<AccessLog> access_log_;
  obs::TraceIdGenerator trace_ids_;  ///< for requests arriving without one

  obs::Counter* requests_ = nullptr;
  obs::Counter* batches_ = nullptr;
  obs::Counter* ok_ = nullptr;
  obs::Counter* errors_ = nullptr;
  obs::Counter* hits_ = nullptr;
  obs::Counter* misses_ = nullptr;
  obs::Gauge* queue_depth_ = nullptr;
  obs::Histogram* service_us_ = nullptr;
  obs::Histogram* queue_us_ = nullptr;
  obs::Timer* batch_wall_ = nullptr;
  /// Histograms are single-writer by design; this lock serializes the
  /// post-batch record loop against report() so a metrics thread can
  /// snapshot a live service without a data race.
  mutable std::mutex hist_mu_;
};

}  // namespace ksw::serve
