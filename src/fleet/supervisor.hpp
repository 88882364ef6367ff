// The serve-fleet supervisor behind `kswsim fleet`.
//
// One supervisor process owns a TCP listener (the fleet's front door)
// and N `kswsim serve` worker processes, each speaking ksw.query/v1 on
// its stdin/stdout, which is one end of a socketpair whose other end the
// supervisor holds (fleet/worker.hpp). Every request line read from a
// TCP client is parsed once, routed to a worker by the FNV-1a hash of
// its canonical cache key (fleet/routing.hpp), and relayed verbatim; the
// worker's response line is relayed back verbatim, so fleet responses
// are bit-identical to single-process `kswsim serve` responses by
// construction. Responses to one client are flushed strictly in that
// client's request order (a per-client reorder buffer re-sequences
// across workers), matching the single-process ordering contract.
//
// Admission control (docs/OPERATIONS.md "Overload and brownout"):
// each worker has a bounded queue of forwarded-but-unanswered requests
// (--queue-depth). When the target worker's queue is full the request
// is *shed* with the in-band error kind "overload" instead of being
// queued without bound — under sustained overload the fleet degrades to
// a bounded-latency subset of the offered load (brownout) rather than
// collapsing into unbounded queueing, which is exactly what the
// heavy-tail multi-server results in PAPERS.md warn about.
//
// Worker supervision: a worker that exits (crash, OOM kill) has its
// in-flight requests answered in-band (kind "internal") and is restarted
// synchronously, so while the loop runs every shard always has a live
// worker. A worker that crash-loops (repeated exits within a second of
// spawn) escalates to ksw::Error(kFleet), exit 8.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "io/json.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "par/cancel.hpp"
#include "serve/access_log.hpp"
#include "serve/query.hpp"

namespace ksw::fleet {

struct FleetOptions {
  std::size_t workers = 4;        ///< worker processes (>= 1)
  std::string host = "127.0.0.1";  ///< TCP bind address
  int port = 0;                   ///< TCP port; 0 = ephemeral (printed)
  std::size_t queue_depth = 128;  ///< per-worker forwarded-unanswered cap
  std::int64_t deadline_ms = 0;   ///< default request deadline (0 = none)
  std::string worker_binary;      ///< kswsim path; "" = /proc/self/exe
  /// Extra argv appended to `serve` for every worker
  /// (--threads/--batch/--cache-mb/--deadline-ms pass-through).
  std::vector<std::string> worker_args;
  std::string access_log;         ///< supervisor-hop JSONL log ("" = off)
  obs::Tracer* tracer = nullptr;  ///< fleet.request spans (not owned)
};

/// What a supervisor run did; `interrupted` maps to exit 130.
struct FleetSummary {
  std::uint64_t connections = 0;
  std::uint64_t requests = 0;
  std::uint64_t responses = 0;
  bool interrupted = false;
};

class Supervisor {
 public:
  explicit Supervisor(FleetOptions opts);
  ~Supervisor();

  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  /// Bind the TCP listener, then spawn every worker.
  /// Logs "fleet: listening on HOST:PORT" and one "fleet: worker I pid P"
  /// line per worker to `err` (machine-parsed by tests and the bench).
  /// Throws ksw::Error(kFleet) when a worker cannot be started.
  void start(std::ostream& err);

  /// Bound TCP port (valid after start(); resolves port 0 requests).
  [[nodiscard]] int port() const noexcept { return port_; }

  /// Accept/route/relay until cancelled. On cancellation: drain worker
  /// responses (bounded), answer undrained requests in-band with
  /// "interrupted", SIGTERM the workers, reap them, and return with
  /// `interrupted = true`.
  FleetSummary run(const par::CancelToken* cancel, std::ostream& err);

  /// Structured snapshot (schema ksw.obs.report/v1, command "fleet"):
  /// fleet.* counters and request-latency quantiles.
  /// Thread-safe against a concurrent run() so a metrics ticker can
  /// snapshot a live supervisor.
  [[nodiscard]] io::Json report(bool include_wall = true) const;

 private:
  struct Pending;
  struct WorkerState;
  struct ClientState;

  void start_worker(std::size_t index, std::ostream& err);
  void on_worker_dead(std::size_t index, std::ostream& err);
  void reap_children(std::ostream& err);
  void accept_clients();
  void read_client(std::size_t slot);
  void handle_request(std::size_t slot, std::string line);
  void forward(std::size_t worker, std::string line, Pending pending);
  void read_worker(std::size_t index, std::ostream& err);
  void complete(Pending& pending, std::string response_line, int worker);
  void flush_client(ClientState& client);
  void write_client(std::size_t slot);
  void close_client(std::size_t slot);
  void shutdown_workers(std::ostream& err);

  FleetOptions opts_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::vector<std::unique_ptr<WorkerState>> workers_;
  std::vector<std::unique_ptr<ClientState>> clients_;
  FleetSummary summary_;
  bool draining_ = false;
  std::ostream* err_sink_ = nullptr;  ///< run()'s err, for deep callees

  obs::Registry registry_;
  std::unique_ptr<serve::AccessLog> access_log_;
  obs::TraceIdGenerator trace_ids_;  ///< for requests arriving without one

  obs::Counter* requests_ = nullptr;
  obs::Counter* ok_ = nullptr;
  obs::Counter* errors_ = nullptr;
  obs::Counter* forwarded_ = nullptr;
  obs::Counter* shed_overload_ = nullptr;
  obs::Counter* invalid_ = nullptr;
  obs::Counter* worker_exits_ = nullptr;
  obs::Counter* restarts_ = nullptr;
  obs::Counter* accepted_ = nullptr;
  obs::Gauge* inflight_ = nullptr;
  obs::Histogram* request_us_ = nullptr;
  /// Serializes histogram recording (loop thread) against report()
  /// (metrics-ticker thread) — same convention as serve::Service.
  mutable std::mutex hist_mu_;
};

}  // namespace ksw::fleet
