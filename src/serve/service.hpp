// The long-lived analytic query service behind `kswsim serve`.
//
// The service reads ksw.query/v1 JSONL requests (stdin, an arbitrary
// stream, or a Unix socket), batches them, dispatches each batch across
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
#include <iosfwd>
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

  /// Stream loop: getline/batch/respond until EOF. Blocking reads are
  /// not cancellation points (used by tests and regular-file input);
  /// cancellation is observed between lines.
  ServeSummary run(std::istream& in, std::ostream& out,
                   const par::CancelToken* cancel = nullptr);

  /// File-descriptor loop with a poll-based line reader, so a blocked
  /// read observes cancellation within ~200 ms (stdin under a pipe, or
  /// one accepted socket connection). Responses are written to out_fd;
  /// EPIPE on a socket peer aborts just that connection.
  ServeSummary run_fd(int in_fd, int out_fd, const par::CancelToken* cancel);

  /// Unix-socket accept loop at `socket_path` (stale paths are
  /// unlinked, the socket is unlinked again on exit). Connections are
  /// served sequentially, each as a JSONL stream; the loop ends only on
  /// cancellation.
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
  /// Fresh trace id for a request that arrived without one (only called
  /// when request observability is on). Nondeterministic by design.
  [[nodiscard]] std::string generate_trace_id();

  ServeOptions opts_;
  obs::Registry registry_;
  EvalCache cache_;
  par::ThreadPool pool_;
  std::unique_ptr<AccessLog> access_log_;
  std::uint64_t trace_base_ = 0;           ///< per-process id entropy
  std::atomic<std::uint64_t> trace_seq_{0};

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
