#include "fleet/supervisor.hpp"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <deque>
#include <iostream>
#include <map>
#include <utility>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "fleet/routing.hpp"
#include "fleet/worker.hpp"
#include "obs/report.hpp"
#include "support/error.hpp"

namespace ksw::fleet {

namespace {

using Clock = std::chrono::steady_clock;

/// Poll granularity: cancellation and reaping are observed within this
/// many milliseconds even when idle.
constexpr int kPollMs = 50;
/// How long a worker must survive after spawn for its next exit to be
/// treated as fresh rather than part of a crash loop.
constexpr auto kEarlyDeathWindow = std::chrono::milliseconds(1000);
/// Consecutive early deaths of one worker tolerated before the fleet gives
/// up with exit 8.
constexpr int kRestartLimit = 5;
/// Budget for draining in-flight worker responses after SIGTERM.
constexpr auto kDrainBudget = std::chrono::milliseconds(2000);
/// Budget for workers to exit after SIGTERM before SIGKILL.
constexpr auto kReapBudget = std::chrono::milliseconds(2000);

double micros_since(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

/// Extract `"key":"value"` from a rendered response line (cheap substring
/// scan — the supervisor never re-parses worker responses, it relays
/// them verbatim; this is only for the access log).
std::string extract_string_field(const std::string& line,
                                 const std::string& key) {
  const std::string needle = "\"" + key + "\":\"";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return {};
  const auto start = pos + needle.size();
  const auto end = line.find('"', start);
  if (end == std::string::npos) return {};
  return line.substr(start, end - start);
}

enum class IoResult { kOk, kClosed };

/// Drain as much of `buf` into fd as the socket accepts right now.
/// kClosed on EPIPE/ECONNRESET; throws kIo on unexpected failures.
IoResult write_some(int fd, std::string* buf) {
  std::size_t done = 0;
  while (done < buf->size()) {
    const ssize_t n = ::write(fd, buf->data() + done, buf->size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EPIPE || errno == ECONNRESET) return IoResult::kClosed;
      throw ksw::io_error(std::string("fleet: write failed: ") +
                          std::strerror(errno));
    }
    done += static_cast<std::size_t>(n);
  }
  buf->erase(0, done);
  return IoResult::kOk;
}

}  // namespace

struct Supervisor::Pending {
  std::size_t client_slot = 0;
  std::uint64_t client_gen = 0;
  std::uint64_t seq = 0;
  Clock::time_point arrival{};
  std::string trace_id;
  std::string kernel;  ///< empty = request never parsed to a kernel
  io::Json id;
  std::int64_t deadline_ms = 0;
  double queue_us = 0.0;  ///< arrival -> forward (set when forwarded)
  Clock::time_point forwarded_at{};
  obs::Span span;
};

struct Supervisor::WorkerState {
  pid_t pid = -1;
  int fd = -1;  ///< supervisor's socketpair end; -1 = dead (draining only)
  std::string rbuf;
  std::string wbuf;
  std::deque<Pending> pending;  ///< forwarded, awaiting response (FIFO)
  Clock::time_point spawned_at{};
  int early_deaths = 0;
};

struct Supervisor::ClientState {
  int fd = -1;
  std::uint64_t gen = 0;  ///< bumped on close; stale completions no-op
  std::string rbuf;
  std::string wbuf;
  std::uint64_t next_seq = 0;
  std::uint64_t flush_seq = 0;
  std::uint64_t outstanding = 0;
  /// Responses completed out of request order, keyed by seq. Flushing
  /// advances flush_seq over a contiguous prefix — per-client responses
  /// leave in request order no matter which workers answered first.
  std::map<std::uint64_t, std::string> done;
  bool read_open = false;  ///< reading half still open (half-close aware)
  bool in_use = false;
};

Supervisor::Supervisor(FleetOptions opts) : opts_(std::move(opts)) {
  if (opts_.workers == 0)
    throw ksw::usage_error("fleet: --workers must be at least 1");
  if (opts_.queue_depth == 0)
    throw ksw::usage_error("fleet: --queue-depth must be at least 1");
  if (!opts_.access_log.empty())
    access_log_ = std::make_unique<serve::AccessLog>(opts_.access_log);
  requests_ = &registry_.counter("fleet.requests");
  ok_ = &registry_.counter("fleet.responses.ok");
  errors_ = &registry_.counter("fleet.responses.error");
  forwarded_ = &registry_.counter("fleet.forwarded");
  shed_overload_ = &registry_.counter("fleet.shed.overload");
  invalid_ = &registry_.counter("fleet.invalid");
  worker_exits_ = &registry_.counter("fleet.worker.exits");
  restarts_ = &registry_.counter("fleet.worker.restarts");
  accepted_ = &registry_.counter("fleet.connections");
  inflight_ = &registry_.gauge("fleet.inflight_peak");
  // 100 us resolution out to 40 ms; slower round trips land in the
  // overflow tally and quantiles clamp to the upper edge.
  request_us_ = &registry_.histogram("fleet.request_us", 0.0, 100.0, 400);
  workers_.reserve(opts_.workers);
  for (std::size_t i = 0; i < opts_.workers; ++i)
    workers_.push_back(std::make_unique<WorkerState>());
}

Supervisor::~Supervisor() {
  for (auto& w : workers_) {
    if (w->fd >= 0) ::close(w->fd);
    if (w->pid > 0) {
      ::kill(w->pid, SIGKILL);
      ::waitpid(w->pid, nullptr, 0);
    }
  }
  for (auto& c : clients_)
    if (c->fd >= 0) ::close(c->fd);
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

void Supervisor::start_worker(std::size_t index, std::ostream& err) {
  WorkerState& w = *workers_[index];
  int ends[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, ends) < 0)
    throw ksw::io_error(std::string("fleet: socketpair failed: ") +
                        std::strerror(errno));
  ::fcntl(ends[0], F_SETFL, O_NONBLOCK);
  std::vector<std::string> args{"serve"};
  args.insert(args.end(), opts_.worker_args.begin(), opts_.worker_args.end());
  const std::string binary =
      opts_.worker_binary.empty() ? self_exe_path() : opts_.worker_binary;
  w.pid = spawn_process(binary, args, ends[1]);
  ::close(ends[1]);
  w.fd = ends[0];
  w.spawned_at = Clock::now();
  err << "fleet: worker " << index << " pid " << w.pid << "\n";
}

void Supervisor::start(std::ostream& err) {
  // A worker or client that disappears mid-write must never kill the
  // supervisor.
  std::signal(SIGPIPE, SIG_IGN);

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK,
                        0);
  if (listen_fd_ < 0)
    throw ksw::io_error(std::string("fleet: socket failed: ") +
                        std::strerror(errno));
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(opts_.port));
  if (::inet_pton(AF_INET, opts_.host.c_str(), &addr.sin_addr) != 1)
    throw ksw::usage_error("fleet: --tcp: bad host address: " + opts_.host);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) < 0 ||
      ::listen(listen_fd_, 64) < 0)
    throw ksw::io_error("fleet: cannot bind " + opts_.host + ":" +
                        std::to_string(opts_.port) + ": " +
                        std::strerror(errno));
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);

  for (std::size_t i = 0; i < opts_.workers; ++i) start_worker(i, err);
  err << "fleet: listening on " << opts_.host << ":" << port_ << "\n";
}

void Supervisor::reap_children(std::ostream& err) {
  while (true) {
    int status = 0;
    const pid_t pid = ::waitpid(-1, &status, WNOHANG);
    if (pid <= 0) return;
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      if (workers_[i]->pid == pid) {
        workers_[i]->pid = -1;  // already reaped
        on_worker_dead(i, err);
        break;
      }
    }
  }
}

void Supervisor::on_worker_dead(std::size_t index, std::ostream& err) {
  WorkerState& w = *workers_[index];
  if (w.fd < 0) return;  // already handled (EOF and reap can both fire)
  ::close(w.fd);
  w.fd = -1;
  worker_exits_->inc();

  // Requests the worker took with it answer in-band: nothing was flushed
  // for them, and every kernel is a pure function, so the client can
  // simply retry against the restarted worker.
  for (auto& p : w.pending) {
    complete(p,
             serve::render_error(p.id, serve::wire::kInternal,
                                 "fleet worker " + std::to_string(index) +
                                     " exited during evaluation; retry",
                                 p.trace_id),
             static_cast<int>(index));
  }
  w.pending.clear();
  w.wbuf.clear();
  w.rbuf.clear();

  if (draining_) return;  // shutting down anyway; no restart

  const bool early = Clock::now() - w.spawned_at < kEarlyDeathWindow;
  w.early_deaths = early ? w.early_deaths + 1 : 0;
  if (w.early_deaths > kRestartLimit)
    throw ksw::fleet_error("worker " + std::to_string(index) +
                           " is crash-looping (" +
                           std::to_string(w.early_deaths) +
                           " consecutive early exits); giving up");
  if (w.pid > 0) {
    // Death detected via the socket before SIGCHLD: reap synchronously so
    // the pid table stays truthful.
    ::kill(w.pid, SIGKILL);
    ::waitpid(w.pid, nullptr, 0);
    w.pid = -1;
  }
  // The restart is synchronous: the new worker is connected the moment it
  // is forked, so the shard never goes without a live worker.
  err << "fleet: worker " << index << " exited; restarting\n";
  restarts_->inc();
  start_worker(index, err);
}

void Supervisor::accept_clients() {
  while (true) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN or transient failure; poll again
    accepted_->inc();
    summary_.connections++;
    std::size_t slot = clients_.size();
    for (std::size_t i = 0; i < clients_.size(); ++i) {
      if (!clients_[i]->in_use) {
        slot = i;
        break;
      }
    }
    if (slot == clients_.size())
      clients_.push_back(std::make_unique<ClientState>());
    ClientState& c = *clients_[slot];
    c.fd = fd;
    c.in_use = true;
    c.read_open = true;
    c.rbuf.clear();
    c.wbuf.clear();
    c.done.clear();
    c.next_seq = 0;
    c.flush_seq = 0;
    c.outstanding = 0;
  }
}

void Supervisor::close_client(std::size_t slot) {
  ClientState& c = *clients_[slot];
  if (c.fd >= 0) ::close(c.fd);
  c.fd = -1;
  c.gen++;  // completions still in flight for this client are dropped
  c.in_use = false;
  c.read_open = false;
  c.rbuf.clear();
  c.wbuf.clear();
  c.done.clear();
  c.outstanding = 0;
}

void Supervisor::read_client(std::size_t slot) {
  ClientState& c = *clients_[slot];
  char chunk[65536];
  while (c.read_open) {
    const ssize_t n = ::read(c.fd, chunk, sizeof chunk);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      close_client(slot);  // reset mid-stream: drop the connection
      return;
    }
    if (n == 0) {
      // Half-close: the client is done sending but still owed responses.
      c.read_open = false;
      break;
    }
    c.rbuf.append(chunk, static_cast<std::size_t>(n));
    std::size_t nl;
    while ((nl = c.rbuf.find('\n')) != std::string::npos) {
      std::string line = c.rbuf.substr(0, nl);
      c.rbuf.erase(0, nl + 1);
      if (!line.empty()) handle_request(slot, std::move(line));
      if (!clients_[slot]->in_use || clients_[slot]->gen != c.gen) return;
    }
    if (c.rbuf.size() > serve::kMaxLineBytes) {
      close_client(slot);  // overlong line, no newline yet: ends the stream
      return;
    }
  }
  if (!c.read_open && c.outstanding == 0 && c.wbuf.empty()) close_client(slot);
}

void Supervisor::handle_request(std::size_t slot, std::string line) {
  const Clock::time_point arrival = Clock::now();
  serve::Request req = serve::Request::parse(line, opts_.deadline_ms);
  const bool observing = access_log_ != nullptr || opts_.tracer != nullptr;
  if (observing && req.trace_id.empty()) {
    req.trace_id = trace_ids_.next();
    if (req.valid()) {
      // Inject the generated id into the forwarded line so the worker
      // echoes it — exactly the envelope single-process serve emits with
      // telemetry on. The object is non-empty (it has "kernel"), so a
      // trailing comma is always correct.
      const auto brace = line.find('{');
      line.insert(brace + 1, "\"trace_id\":\"" + req.trace_id + "\",");
    }
  }
  // The cap applies to the line a worker would read, so a worker never
  // ends its stream on a forwarded line.
  if (line.size() > serve::kMaxLineBytes) {
    close_client(slot);
    return;
  }

  ClientState& c = *clients_[slot];
  requests_->inc();
  summary_.requests++;
  Pending p;
  p.client_slot = slot;
  p.client_gen = c.gen;
  p.seq = c.next_seq++;
  c.outstanding++;
  p.arrival = arrival;
  p.deadline_ms = req.deadline_ms;
  // A copy, move-assigned: GCC 12 flags a variant copy-assignment here
  // as maybe-uninitialized once complete() is inlined below.
  p.id = io::Json(req.id);
  p.trace_id = req.trace_id;

  if (!req.valid()) {
    invalid_->inc();
    complete(p,
             serve::render_error(req.id, req.error_kind, req.error_message,
                                 req.trace_id),
             -1);
    return;
  }
  p.kernel = serve::kernel_name(req.query.kernel);

  const std::size_t target = route(shard_hash(req.query), workers_.size());
  WorkerState& w = *workers_[target];
  if (w.fd < 0) {
    // Only reachable while draining: workers are not restarted then.
    complete(p,
             serve::render_error(p.id, serve::wire::kInterrupted,
                                 "fleet is shutting down", p.trace_id),
             static_cast<int>(target));
    return;
  }
  if (w.pending.size() >= opts_.queue_depth) {
    shed_overload_->inc();
    complete(p,
             serve::render_error(
                 p.id, serve::wire::kOverload,
                 "worker queue full (depth " +
                     std::to_string(opts_.queue_depth) +
                     "); request shed, retry with backoff",
                 p.trace_id),
             static_cast<int>(target));
    return;
  }
  forward(target, std::move(line), std::move(p));
}

void Supervisor::forward(std::size_t worker, std::string line,
                         Pending pending) {
  WorkerState& w = *workers_[worker];
  pending.queue_us = micros_since(pending.arrival);
  pending.forwarded_at = Clock::now();
  if (opts_.tracer != nullptr) {
    const std::uint64_t tid = obs::parse_hex_id(pending.trace_id) != 0
                                  ? obs::parse_hex_id(pending.trace_id)
                                  : obs::fnv1a64(pending.trace_id);
    pending.span = obs::Span(opts_.tracer, "fleet.request", tid);
    pending.span.label("kernel", pending.kernel);
    pending.span.label("worker", std::to_string(worker));
  }
  w.wbuf += line;
  w.wbuf += '\n';
  forwarded_->inc();
  w.pending.push_back(std::move(pending));
  std::size_t inflight = 0;
  for (const auto& ws : workers_) inflight += ws->pending.size();
  inflight_->record_max(static_cast<double>(inflight));
  // Opportunistic write; the poll loop finishes whatever does not fit.
  if (write_some(w.fd, &w.wbuf) == IoResult::kClosed) {
    std::ostream* err = err_sink_;
    on_worker_dead(worker, err != nullptr ? *err : std::cerr);
  }
}

void Supervisor::read_worker(std::size_t index, std::ostream& err) {
  WorkerState& w = *workers_[index];
  char chunk[65536];
  while (true) {
    const ssize_t n = ::read(w.fd, chunk, sizeof chunk);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      on_worker_dead(index, err);
      return;
    }
    if (n == 0) {
      on_worker_dead(index, err);
      return;
    }
    w.rbuf.append(chunk, static_cast<std::size_t>(n));
    std::size_t nl;
    while ((nl = w.rbuf.find('\n')) != std::string::npos) {
      std::string line = w.rbuf.substr(0, nl);
      w.rbuf.erase(0, nl + 1);
      if (line.empty()) continue;
      if (w.pending.empty()) {
        // A response with no matching request would desequence every
        // client; treat as a worker protocol fault.
        err << "fleet: worker " << index
            << " sent an unsolicited response; restarting\n";
        on_worker_dead(index, err);
        return;
      }
      Pending p = std::move(w.pending.front());
      w.pending.pop_front();
      complete(p, std::move(line), static_cast<int>(index));
    }
  }
}

void Supervisor::complete(Pending& pending, std::string response_line,
                          int worker) {
  const double total_us = micros_since(pending.arrival);
  {
    const std::lock_guard<std::mutex> lock(hist_mu_);
    request_us_->record(total_us);
  }
  const bool ok = response_line.find("\"ok\":true") != std::string::npos;
  (ok ? ok_ : errors_)->inc();
  summary_.responses++;

  if (pending.span.active()) {
    pending.span.label("ok", ok ? "true" : "false");
    pending.span.end();
  }
  if (access_log_ != nullptr) {
    serve::AccessEntry entry;
    entry.trace_id = pending.trace_id;
    entry.id = pending.id;
    entry.kernel = pending.kernel;
    entry.ok = ok;
    if (!ok) entry.error_kind = extract_string_field(response_line, "kind");
    entry.cached =
        response_line.find("\"cached\":true") != std::string::npos;
    entry.shard = worker;  ///< worker index on the supervisor hop
    entry.queue_us = pending.queue_us;
    entry.eval_us = worker >= 0 && pending.forwarded_at != Clock::time_point{}
                        ? micros_since(pending.forwarded_at)
                        : 0.0;
    entry.deadline_ms = pending.deadline_ms;
    access_log_->write(serve::render_access_entry(entry) + '\n');
  }

  if (pending.client_slot >= clients_.size()) return;
  ClientState& c = *clients_[pending.client_slot];
  if (!c.in_use || c.gen != pending.client_gen) return;  // client went away
  c.done.emplace(pending.seq, std::move(response_line));
  flush_client(c);
  write_client(pending.client_slot);
}

void Supervisor::flush_client(ClientState& client) {
  auto it = client.done.begin();
  while (it != client.done.end() && it->first == client.flush_seq) {
    client.wbuf += it->second;
    client.wbuf += '\n';
    it = client.done.erase(it);
    client.flush_seq++;
    client.outstanding--;
  }
}

void Supervisor::write_client(std::size_t slot) {
  ClientState& c = *clients_[slot];
  if (c.fd < 0 || c.wbuf.empty()) {
    if (c.in_use && !c.read_open && c.outstanding == 0 && c.wbuf.empty())
      close_client(slot);
    return;
  }
  if (write_some(c.fd, &c.wbuf) == IoResult::kClosed) {
    close_client(slot);
    return;
  }
  if (!c.read_open && c.outstanding == 0 && c.wbuf.empty())
    close_client(slot);
}

FleetSummary Supervisor::run(const par::CancelToken* cancel,
                             std::ostream& err) {
  err_sink_ = &err;
  Clock::time_point drain_deadline{};
  while (true) {
    if (!draining_ && cancel != nullptr && cancel->requested()) {
      draining_ = true;
      summary_.interrupted = true;
      drain_deadline = Clock::now() + kDrainBudget;
      err << "fleet: shutdown requested; draining workers\n";
    }
    if (draining_) {
      bool busy = false;
      for (const auto& w : workers_)
        if (!w->pending.empty()) busy = true;
      for (const auto& c : clients_)
        if (c->in_use && !c->wbuf.empty()) busy = true;
      if (!busy || Clock::now() >= drain_deadline) break;
    }

    reap_children(err);

    // Assemble the poll set: listener, clients, workers.
    std::vector<struct pollfd> pfds;
    std::vector<std::pair<char, std::size_t>> tags;
    if (!draining_) {
      pfds.push_back({listen_fd_, POLLIN, 0});
      tags.emplace_back('L', 0);
    }
    for (std::size_t i = 0; i < clients_.size(); ++i) {
      ClientState& c = *clients_[i];
      if (!c.in_use || c.fd < 0) continue;
      short events = 0;
      if (c.read_open && !draining_) events |= POLLIN;
      if (!c.wbuf.empty()) events |= POLLOUT;
      if (events == 0) continue;
      pfds.push_back({c.fd, events, 0});
      tags.emplace_back('C', i);
    }
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      WorkerState& w = *workers_[i];
      if (w.fd < 0) continue;
      short events = POLLIN;
      if (!w.wbuf.empty()) events |= POLLOUT;
      pfds.push_back({w.fd, events, 0});
      tags.emplace_back('W', i);
    }

    const int ready =
        ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), kPollMs);
    if (ready < 0) {
      if (errno == EINTR) continue;
      throw ksw::io_error(std::string("fleet: poll failed: ") +
                          std::strerror(errno));
    }
    if (ready == 0) continue;

    for (std::size_t i = 0; i < pfds.size(); ++i) {
      const short re = pfds[i].revents;
      if (re == 0) continue;
      const auto [kind, index] = tags[i];
      if (kind == 'L') {
        accept_clients();
      } else if (kind == 'C') {
        ClientState& c = *clients_[index];
        const std::uint64_t gen = c.gen;
        if ((re & POLLOUT) != 0) write_client(index);
        if (!c.in_use || c.gen != gen) continue;
        if ((re & (POLLIN | POLLHUP | POLLERR)) != 0 && c.read_open)
          read_client(index);
      } else {
        WorkerState& w = *workers_[index];
        if ((re & POLLOUT) != 0 && w.fd >= 0 && !w.wbuf.empty()) {
          if (write_some(w.fd, &w.wbuf) == IoResult::kClosed) {
            on_worker_dead(index, err);
            continue;
          }
        }
        if ((re & (POLLIN | POLLHUP | POLLERR)) != 0 && w.fd >= 0)
          read_worker(index, err);
      }
    }
  }

  // Drain epilogue: whatever the workers did not answer inside the
  // budget is answered here, in-band, before the connections close.
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    WorkerState& w = *workers_[i];
    for (auto& p : w.pending)
      complete(p,
               serve::render_error(p.id, serve::wire::kInterrupted,
                                   "fleet is shutting down", p.trace_id),
               static_cast<int>(i));
    w.pending.clear();
  }
  // Give clients a short, bounded chance to take their final bytes.
  const auto flush_deadline = Clock::now() + std::chrono::milliseconds(500);
  while (Clock::now() < flush_deadline) {
    bool dirty = false;
    for (std::size_t i = 0; i < clients_.size(); ++i) {
      if (clients_[i]->in_use && !clients_[i]->wbuf.empty()) {
        write_client(i);
        if (clients_[i]->in_use && !clients_[i]->wbuf.empty()) dirty = true;
      }
    }
    if (!dirty) break;
    struct pollfd dummy {};
    ::poll(&dummy, 0, 10);
  }
  for (std::size_t i = 0; i < clients_.size(); ++i)
    if (clients_[i]->in_use) close_client(i);

  shutdown_workers(err);
  err_sink_ = nullptr;
  return summary_;
}

void Supervisor::shutdown_workers(std::ostream& err) {
  for (auto& w : workers_) {
    if (w->fd >= 0) {
      ::close(w->fd);
      w->fd = -1;
    }
    if (w->pid > 0) ::kill(w->pid, SIGTERM);
  }
  const auto deadline = Clock::now() + kReapBudget;
  while (Clock::now() < deadline) {
    bool left = false;
    for (auto& w : workers_) {
      if (w->pid <= 0) continue;
      const pid_t r = ::waitpid(w->pid, nullptr, WNOHANG);
      if (r == w->pid || (r < 0 && errno == ECHILD))
        w->pid = -1;
      else
        left = true;
    }
    if (!left) break;
    struct pollfd dummy {};
    ::poll(&dummy, 0, 20);
  }
  for (auto& w : workers_) {
    if (w->pid > 0) {
      err << "fleet: worker pid " << w->pid
          << " ignored SIGTERM; killing\n";
      ::kill(w->pid, SIGKILL);
      ::waitpid(w->pid, nullptr, 0);
      w->pid = -1;
    }
  }
  err << "fleet: all workers stopped\n";
}

io::Json Supervisor::report(bool include_wall) const {
  io::Json doc = io::Json::object();
  doc.set("schema", "ksw.obs.report/v1");
  doc.set("command", "fleet");

  io::Json config = io::Json::object();
  config.set("workers", static_cast<std::int64_t>(opts_.workers));
  config.set("host", opts_.host);
  config.set("port", static_cast<std::int64_t>(port_));
  config.set("queue_depth", static_cast<std::int64_t>(opts_.queue_depth));
  config.set("deadline_ms", opts_.deadline_ms);
  config.set("access_log", !opts_.access_log.empty());
  doc.set("config", std::move(config));

  {
    const std::lock_guard<std::mutex> lock(hist_mu_);
    doc.set("metrics",
            obs::registry_to_json(registry_, {.include_wall = include_wall}));
    io::Json latency = io::Json::object();
    latency.set("p50_us", request_us_->quantile(0.5));
    latency.set("p99_us", request_us_->quantile(0.99));
    latency.set("p999_us", request_us_->quantile(0.999));
    latency.set("mean_us", request_us_->mean());
    doc.set("latency", std::move(latency));
  }
  return doc;
}

}  // namespace ksw::fleet
