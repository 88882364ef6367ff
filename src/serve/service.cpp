#include "serve/service.hpp"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <istream>
#include <ostream>
#include <string_view>
#include <unordered_map>
#include <utility>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "obs/report.hpp"
#include "serve/kernels.hpp"
#include "support/error.hpp"

namespace ksw::serve {

namespace {

using Clock = std::chrono::steady_clock;

/// How long a blocked poll() sleeps between cancellation checks.
constexpr int kPollMs = 200;

double micros_since(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

bool deadline_expired(const Request& req) {
  if (req.deadline_ms <= 0) return false;
  return Clock::now() >
         req.arrival + std::chrono::milliseconds(req.deadline_ms);
}

/// Classify an evaluation failure into the in-band wire vocabulary.
const char* wire_kind(const std::exception& e) {
  if (const auto* typed = dynamic_cast<const ksw::Error*>(&e)) {
    switch (typed->kind()) {
      case ksw::ErrorKind::kUsage:
        return wire::kUsage;
      case ksw::ErrorKind::kNumeric:
        return wire::kNumeric;
      case ksw::ErrorKind::kInterrupted:
        return wire::kInterrupted;
      default:
        return wire::kInternal;
    }
  }
  // Request syntax was fully validated at parse time, so an
  // invalid_argument reaching evaluation is a model-domain guard (the
  // closed forms throw it for rho outside (0,1)) — a numeric error, not
  // a malformed request.
  if (dynamic_cast<const std::invalid_argument*>(&e) != nullptr)
    return wire::kNumeric;
  return wire::kInternal;
}

/// write() the whole buffer. Returns false on EPIPE/ECONNRESET (peer
/// went away); throws kIo on any other failure.
bool write_all(int fd, const std::string& data) {
  std::size_t done = 0;
  while (done < data.size()) {
    const ssize_t n = ::write(fd, data.data() + done, data.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EPIPE || errno == ECONNRESET) return false;
      throw ksw::io_error(std::string("serve: write failed: ") +
                          std::strerror(errno));
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

/// Incremental line reader over a file descriptor. poll()s with a short
/// timeout so a blocked read observes cancellation promptly — the
/// process-wide signal handlers use SA_RESTART semantics, so a plain
/// blocking read would sleep through SIGTERM on an open pipe.
class FdLineReader {
 public:
  explicit FdLineReader(int fd) : fd_(fd) {}

  enum class Status { kLine, kEof, kCancelled };

  /// Next complete line. With wait=false, never blocks: returns kEof
  /// when no complete line is buffered and no data is instantly
  /// readable (the caller dispatches the batch it has).
  Status next_line(std::string* line, const par::CancelToken* cancel,
                   bool wait) {
    while (true) {
      if (take_buffered_line(line)) return Status::kLine;
      if (eof_) {
        if (!buf_.empty()) {  // final line without trailing newline
          line->assign(std::move(buf_));
          buf_.clear();
          return Status::kLine;
        }
        return Status::kEof;
      }
      if (cancel != nullptr && cancel->requested()) return Status::kCancelled;
      struct pollfd pfd {};
      pfd.fd = fd_;
      pfd.events = POLLIN;
      const int ready = ::poll(&pfd, 1, wait ? kPollMs : 0);
      if (ready < 0) {
        if (errno == EINTR) continue;
        throw ksw::io_error(std::string("serve: poll failed: ") +
                            std::strerror(errno));
      }
      if (ready == 0) {
        if (!wait) return Status::kEof;
        continue;  // timeout: loop re-checks the cancel token
      }
      char chunk[65536];
      const ssize_t n = ::read(fd_, chunk, sizeof chunk);
      if (n < 0) {
        if (errno == EINTR) continue;
        throw ksw::io_error(std::string("serve: read failed: ") +
                            std::strerror(errno));
      }
      if (n == 0) {
        eof_ = true;
        continue;
      }
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  [[nodiscard]] bool eof() const noexcept { return eof_ && buf_.empty(); }

 private:
  bool take_buffered_line(std::string* line) {
    const auto nl = buf_.find('\n');
    if (nl == std::string::npos) return false;
    line->assign(buf_, 0, nl);
    buf_.erase(0, nl + 1);
    return true;
  }

  int fd_;
  std::string buf_;
  bool eof_ = false;
};

}  // namespace

Service::Service(ServeOptions opts)
    : opts_(std::move(opts)),
      cache_(opts_.cache_mb * 1024 * 1024),
      pool_(opts_.threads) {
  if (!opts_.access_log.empty())
    access_log_ = std::make_unique<AccessLog>(opts_.access_log);
  // Generated trace ids must differ across processes started in the same
  // instant-ish; they carry no meaning beyond uniqueness.
  trace_base_ = obs::fnv1a64(
      std::to_string(std::chrono::system_clock::now()
                         .time_since_epoch()
                         .count()) +
      "/" + std::to_string(reinterpret_cast<std::uintptr_t>(this)));
  requests_ = &registry_.counter("serve.requests");
  batches_ = &registry_.counter("serve.batches");
  ok_ = &registry_.counter("serve.responses.ok");
  errors_ = &registry_.counter("serve.responses.error");
  hits_ = &registry_.counter("serve.cache.hits");
  misses_ = &registry_.counter("serve.cache.misses");
  queue_depth_ = &registry_.gauge("serve.queue_depth");
  // 25 us resolution out to 10 ms; slower evaluations land in the
  // overflow tally and the quantiles report the upper edge.
  service_us_ = &registry_.histogram("serve.service_us", 0.0, 25.0, 400);
  queue_us_ = &registry_.histogram("serve.queue_us", 0.0, 25.0, 400);
  batch_wall_ = &registry_.timer("serve.batch_wall");
}

std::string Service::generate_trace_id() {
  // splitmix64 over a per-process base: unique, cheap, and clearly not a
  // simulation-derived (deterministic) quantity.
  std::uint64_t x =
      trace_base_ +
      0x9e3779b97f4a7c15ull *
          (trace_seq_.fetch_add(1, std::memory_order_relaxed) + 1);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  if (x == 0) x = 1;  // hex16 "0" doubles as "no id" elsewhere
  return obs::hex_id(x);
}

void Service::serve_batch(std::vector<Request> batch, std::string* out,
                          const par::CancelToken* cancel) {
  if (batch.empty()) return;
  const obs::ScopedTimer batch_timer(batch_wall_);
  batches_->inc();
  requests_->inc(batch.size());
  queue_depth_->record_max(static_cast<double>(batch.size()));

  // Request observability: access-log rows and per-request spans, plus
  // trace_id generation for requests that did not bring one. All of it
  // is off (and the response bytes historic) unless opted into.
  const bool observing = access_log_ != nullptr || opts_.tracer != nullptr;
  obs::Span batch_span;
  if (opts_.tracer != nullptr) {
    batch_span = opts_.tracer->span("serve.batch");
    batch_span.label("requests", std::to_string(batch.size()));
  }

  const std::size_t n = batch.size();
  std::vector<std::string> responses(n);
  // char, not bool: workers write neighbouring elements concurrently, and
  // vector<bool> packs them into shared words.
  std::vector<char> succeeded(n, 0);
  std::vector<AccessEntry> entries(observing ? n : 0);
  std::vector<double> service_us(n, 0.0);
  std::vector<double> queue_us(n, 0.0);
  std::vector<Clock::time_point> started(n);
  std::vector<std::string> keys(n);
  std::vector<std::uint64_t> hashes(n, 0);
  std::vector<char> deferred(n, 0);

  // The serve.request span covers the step that answers the request, on
  // the thread that answers it.
  const auto open_span = [&](const Request& req) {
    obs::Span span;
    if (opts_.tracer != nullptr) {
      // Worker threads have no open parent; link the batch explicitly so
      // the request nests under it in trace viewers.
      span = obs::Span(opts_.tracer, "serve.request",
                       obs::parse_hex_id(req.trace_id) != 0
                           ? obs::parse_hex_id(req.trace_id)
                           : obs::fnv1a64(req.trace_id));
      span.label("kernel",
                 req.valid() ? kernel_name(req.query.kernel) : "invalid");
    }
    return span;
  };
  const auto shard_of = [&](std::size_t i) {
    return static_cast<int>(hashes[i] % cache_.shard_count());
  };
  const auto finish = [&](std::size_t i, obs::Span& span, bool cached,
                          const char* error_kind, int shard) {
    const Request& req = batch[i];
    service_us[i] = micros_since(started[i]);
    if (span.active()) {
      span.label("cached", cached ? "true" : "false");
      if (!succeeded[i]) span.label("error", error_kind ? error_kind : "?");
    }
    if (observing) {
      AccessEntry& entry = entries[i];
      entry.trace_id = req.trace_id;
      entry.id = req.id;
      if (req.valid()) entry.kernel = kernel_name(req.query.kernel);
      entry.ok = succeeded[i] != 0;
      if (!succeeded[i])
        entry.error_kind = req.valid() ? error_kind : req.error_kind;
      entry.cached = cached;
      entry.shard = shard;
      entry.queue_us = queue_us[i];
      entry.eval_us = service_us[i];
      entry.deadline_ms = req.deadline_ms;
    }
  };

  // Shutdown and expired deadlines refuse a request before it starts
  // work, in whichever phase it would start: answers it and returns true.
  const auto refused = [&](std::size_t i) {
    const Request& req = batch[i];
    const char* error_kind = nullptr;
    if (cancel != nullptr && cancel->requested()) {
      error_kind = wire::kInterrupted;
      responses[i] = render_error(req.id, wire::kInterrupted,
                                  "service is shutting down", req.trace_id);
    } else if (deadline_expired(req)) {
      error_kind = wire::kDeadline;
      responses[i] = render_error(
          req.id, wire::kDeadline,
          "deadline of " + std::to_string(req.deadline_ms) +
              " ms expired before evaluation",
          req.trace_id);
    }
    if (error_kind == nullptr) return false;
    obs::Span span = open_span(req);
    finish(i, span, false, error_kind, -1);
    return true;
  };

  // Phase 1, every request in parallel: parse errors, shutdown, expired
  // deadlines and cache hits are answered here. A miss is deferred, so an
  // in-batch duplicate never races its first occurrence to evaluation.
  par::parallel_for(pool_, n, [&](std::size_t i) {
    Request& req = batch[i];
    if (observing && req.trace_id.empty())
      req.trace_id = generate_trace_id();
    started[i] = Clock::now();
    queue_us[i] =
        std::chrono::duration<double, std::micro>(started[i] - req.arrival)
            .count();
    if (!req.valid()) {
      obs::Span span = open_span(req);
      responses[i] = render_error(req.id, req.error_kind, req.error_message,
                                  req.trace_id);
      // parse-time failure; finish() logs the request's own kind
      finish(i, span, false, wire::kUsage, -1);
    } else if (refused(i)) {
      return;
    } else {
      keys[i] = req.query.canonical();
      hashes[i] = fnv1a64(keys[i]);
      std::optional<std::string> hit = cache_.find(hashes[i], keys[i]);
      if (!hit) {
        deferred[i] = 1;
        return;
      }
      obs::Span span = open_span(req);
      hits_->inc();
      responses[i] =
          render_ok(req.id, req.query.kernel, true, *hit, req.trace_id);
      succeeded[i] = 1;
      finish(i, span, true, nullptr, shard_of(i));
    }
  });

  // Group the misses by canonical key, in batch order (docs/SERVING.md
  // "Cache semantics"). With the cache off nothing is shared: each miss
  // is a group of its own.
  std::vector<std::vector<std::size_t>> groups;
  {
    std::unordered_map<std::string_view, std::size_t> group_of;
    for (std::size_t i = 0; i < n; ++i) {
      if (!deferred[i]) continue;
      if (cache_.enabled()) {
        const auto [it, fresh] = group_of.emplace(keys[i], groups.size());
        if (!fresh) {
          groups[it->second].push_back(i);
          continue;
        }
      }
      groups.push_back({i});
    }
  }

  // Phase 2, one task per key: members are served in batch order. The
  // first evaluates; once one succeeds, every later member is answered
  // from its bytes as a hit. A member after a failure evaluates on its
  // own, as it would have alone.
  par::parallel_for(pool_, groups.size(), [&](std::size_t g) {
    const std::vector<std::size_t>& members = groups[g];
    std::optional<std::string> shared;
    for (std::size_t m = 0; m < members.size(); ++m) {
      const std::size_t i = members[m];
      const Request& req = batch[i];
      if (refused(i)) continue;
      obs::Span span = open_span(req);
      if (shared) {
        cache_.record_hit(hashes[i], keys[i]);
        hits_->inc();
        responses[i] =
            render_ok(req.id, req.query.kernel, true, *shared, req.trace_id);
        succeeded[i] = 1;
        finish(i, span, true, nullptr, shard_of(i));
        continue;
      }
      // Counts the miss find() left open (and would serve a value a
      // concurrent batch inserted meanwhile).
      if (auto hit = cache_.lookup(hashes[i], keys[i])) {
        hits_->inc();
        responses[i] =
            render_ok(req.id, req.query.kernel, true, *hit, req.trace_id);
        succeeded[i] = 1;
        shared = std::move(hit);
        finish(i, span, true, nullptr, shard_of(i));
        continue;
      }
      misses_->inc();
      const char* error_kind = nullptr;
      try {
        std::string bytes = evaluate_bytes(req.query);
        responses[i] =
            render_ok(req.id, req.query.kernel, false, bytes, req.trace_id);
        succeeded[i] = 1;
        if (m + 1 < members.size()) shared = bytes;
        cache_.insert(hashes[i], keys[i], std::move(bytes));
      } catch (const std::exception& e) {
        error_kind = wire_kind(e);
        responses[i] =
            render_error(req.id, error_kind, e.what(), req.trace_id);
      }
      finish(i, span, false, error_kind, shard_of(i));
    }
  });

  {
    // Histogram updates are single-writer: recorded here, after the
    // parallel section, under the lock report() shares.
    const std::lock_guard<std::mutex> lock(hist_mu_);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      service_us_->record(service_us[i]);
      queue_us_->record(queue_us[i]);
    }
  }
  for (std::size_t i = 0; i < batch.size(); ++i) {
    (succeeded[i] ? ok_ : errors_)->inc();
    out->append(responses[i]);
    out->push_back('\n');
  }
  if (access_log_ != nullptr) access_log_->write(entries);
}

ServeSummary Service::run(std::istream& in, std::ostream& out,
                          const par::CancelToken* cancel) {
  ServeSummary summary;
  std::string line;
  bool eof = false;
  while (!eof) {
    if (cancel != nullptr && cancel->requested()) {
      summary.interrupted = true;
      break;
    }
    std::vector<Request> batch;
    while (batch.size() < opts_.batch) {
      if (!std::getline(in, line)) {
        eof = true;
        break;
      }
      if (line.empty()) continue;
      batch.push_back(Request::parse(line, opts_.deadline_ms));
    }
    if (batch.empty()) continue;
    summary.requests += batch.size();
    summary.responses += batch.size();
    std::string rendered;
    serve_batch(std::move(batch), &rendered, cancel);
    out << rendered << std::flush;
  }
  if (cancel != nullptr && cancel->requested()) summary.interrupted = true;
  return summary;
}

ServeSummary Service::run_fd(int in_fd, int out_fd,
                             const par::CancelToken* cancel) {
  ServeSummary summary;
  FdLineReader reader(in_fd);
  std::string line;
  while (true) {
    // Block (cancellably) for the first request of a batch, then drain
    // whatever further lines are instantly available up to the batch
    // cap — natural batching under load, low latency when idle.
    std::vector<Request> batch;
    auto status = reader.next_line(&line, cancel, /*wait=*/true);
    if (status == FdLineReader::Status::kCancelled) {
      summary.interrupted = true;
      break;
    }
    if (status == FdLineReader::Status::kEof && reader.eof() &&
        batch.empty()) {
      break;
    }
    while (status == FdLineReader::Status::kLine) {
      if (!line.empty())
        batch.push_back(Request::parse(line, opts_.deadline_ms));
      if (batch.size() >= opts_.batch) break;
      status = reader.next_line(&line, cancel, /*wait=*/false);
    }
    if (status == FdLineReader::Status::kCancelled) summary.interrupted = true;
    if (!batch.empty()) {
      summary.requests += batch.size();
      summary.responses += batch.size();
      std::string rendered;
      serve_batch(std::move(batch), &rendered, cancel);
      if (!write_all(out_fd, rendered)) break;  // peer disconnected
    }
    if (summary.interrupted || (reader.eof())) break;
  }
  if (cancel != nullptr && cancel->requested()) summary.interrupted = true;
  return summary;
}

ServeSummary Service::run_listen(const std::string& socket_path,
                                 const par::CancelToken* cancel) {
  if (socket_path.size() >= sizeof(sockaddr_un::sun_path))
    throw ksw::usage_error("--listen: socket path too long: " + socket_path);
  // A peer that disconnects mid-response must not kill the server.
  std::signal(SIGPIPE, SIG_IGN);
  const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd < 0)
    throw ksw::io_error(std::string("--listen: socket failed: ") +
                        std::strerror(errno));
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  ::unlink(socket_path.c_str());  // stale socket from a previous run
  if (::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) < 0 ||
      ::listen(listen_fd, 8) < 0) {
    const std::string reason = std::strerror(errno);
    ::close(listen_fd);
    throw ksw::io_error("--listen: cannot bind " + socket_path + ": " +
                        reason);
  }

  ServeSummary summary;
  while (true) {
    if (cancel != nullptr && cancel->requested()) {
      summary.interrupted = true;
      break;
    }
    struct pollfd pfd {};
    pfd.fd = listen_fd;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, kPollMs);
    if (ready < 0) {
      if (errno == EINTR) continue;
      const std::string reason = std::strerror(errno);
      ::close(listen_fd);
      ::unlink(socket_path.c_str());
      throw ksw::io_error("--listen: poll failed: " + reason);
    }
    if (ready == 0) continue;
    const int conn = ::accept(listen_fd, nullptr, nullptr);
    if (conn < 0) {
      if (errno == EINTR) continue;
      continue;  // transient accept failure; keep serving
    }
    const ServeSummary one = run_fd(conn, conn, cancel);
    ::close(conn);
    summary.requests += one.requests;
    summary.responses += one.responses;
    if (one.interrupted) {
      summary.interrupted = true;
      break;
    }
  }
  ::close(listen_fd);
  ::unlink(socket_path.c_str());
  return summary;
}

io::Json Service::report(bool include_wall) const {
  io::Json doc = io::Json::object();
  doc.set("schema", "ksw.obs.report/v1");
  doc.set("command", "serve");

  io::Json config = io::Json::object();
  config.set("threads", static_cast<std::int64_t>(pool_.thread_count()));
  config.set("batch", static_cast<std::int64_t>(opts_.batch));
  config.set("cache_mb", static_cast<std::int64_t>(opts_.cache_mb));
  config.set("deadline_ms", opts_.deadline_ms);
  config.set("access_log", !opts_.access_log.empty());
  doc.set("config", std::move(config));

  {
    const std::lock_guard<std::mutex> lock(hist_mu_);
    doc.set("metrics",
            obs::registry_to_json(registry_, {.include_wall = include_wall}));
  }

  const EvalCache::Stats stats = cache_.stats();
  io::Json cache = io::Json::object();
  cache.set("hits", stats.hits);
  cache.set("misses", stats.misses);
  cache.set("insertions", stats.insertions);
  cache.set("evictions", stats.evictions);
  cache.set("entries", stats.entries);
  cache.set("bytes", stats.bytes);
  cache.set("capacity_bytes", stats.capacity_bytes);
  const std::uint64_t consulted = stats.hits + stats.misses;
  cache.set("hit_rate", consulted == 0
                            ? 0.0
                            : static_cast<double>(stats.hits) /
                                  static_cast<double>(consulted));
  doc.set("cache", std::move(cache));

  {
    const std::lock_guard<std::mutex> lock(hist_mu_);
    io::Json latency = io::Json::object();
    latency.set("p50_us", service_us_->quantile(0.5));
    latency.set("p99_us", service_us_->quantile(0.99));
    latency.set("p999_us", service_us_->quantile(0.999));
    latency.set("mean_us", service_us_->mean());
    latency.set("queue_p50_us", queue_us_->quantile(0.5));
    latency.set("queue_p99_us", queue_us_->quantile(0.99));
    doc.set("latency", std::move(latency));
  }
  return doc;
}

}  // namespace ksw::serve
