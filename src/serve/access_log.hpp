// Request-level access log for `kswsim serve` (--access-log=FILE): one
// JSONL row per request, written after its batch completes, in response
// order. Fields (docs/SERVING.md "Access log"):
//
//   {"trace_id":"<hex16>","id":...,"kernel":"first_stage"|null,
//    "ok":true,"cached":true,"shard":3,
//    "queue_us":12.500,"eval_us":340.250}
//
// plus "error_kind" on failed requests and "deadline_ms" when the
// request carried a deadline. queue_us is the wait between the request
// being read off the wire and its evaluation starting (dispatch/queue
// time); eval_us is the evaluation wall time — the same split the paper
// makes between waiting and service.
//
// The log is inherently wall-clock (opt-in, nondeterministic); response
// bytes are unaffected by whether it is enabled.
#pragma once

#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <string_view>

#include "io/json.hpp"

namespace ksw::serve {

/// One request's access-log row.
struct AccessEntry {
  std::string trace_id;    ///< hex16 (generated) or client-supplied
  io::Json id;             ///< client request id, null when absent
  std::string kernel;      ///< empty = request never parsed to a kernel
  bool ok = false;
  std::string error_kind;  ///< one of wire::*, empty on success
  bool cached = false;     ///< served from the evaluation cache
  int shard = -1;          ///< cache shard consulted, -1 = none
  double queue_us = 0.0;   ///< read-to-dispatch wait
  double eval_us = 0.0;    ///< evaluation wall time
  std::int64_t deadline_ms = 0;  ///< effective deadline, 0 = none
};

/// Render one row (no trailing newline). Pure, so tests can pin the
/// format without a filesystem.
[[nodiscard]] std::string render_access_entry(const AccessEntry& entry);

/// Append-only JSONL sink. write() is serialized internally so the
/// socket loop and a metrics thread can share a Service.
class AccessLog {
 public:
  /// Opens (truncates) `path`; throws ksw::Error(kIo) on failure.
  explicit AccessLog(const std::string& path);

  AccessLog(const AccessLog&) = delete;
  AccessLog& operator=(const AccessLog&) = delete;

  /// Append rows rendered by render_access_entry, each ending in '\n',
  /// and flush. Callers render off the lock (the service on its workers).
  void write(std::string_view rows);

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
  std::ofstream out_;
  std::mutex mu_;
};

}  // namespace ksw::serve
