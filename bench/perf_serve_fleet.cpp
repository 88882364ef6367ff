// Fleet throughput and brownout probe: drives a real `kswsim fleet`
// subprocess over TCP and prices it against in-process single serve.
//
//   perf_serve_fleet [--workers=N] [--requests=N] [--tuples=T]
//                    [--queue-depth=D] [--brownout-seconds=S] [--quick]
//                    [--out=FILE] [--no-gate] [--kswsim=PATH]
//
// Four phases:
//   1. baseline  — the perf_serve cached workload through an in-process
//                  serve::Service (same tuples), for a comparable
//                  single-process queries/sec figure.
//   2. capacity  — the same workload over TCP through the fleet, with a
//                  windowed closed loop (window < queue depth, so
//                  admission control never sheds); the warm pass is also
//                  checked byte-for-byte against single-process serve.
//   3. brownout  — an open-loop Poisson arrival process at 2x the
//                  measured fleet capacity. The gate is shed-not-
//                  collapse: every request answered, some answered with
//                  error.kind "overload", and the p99 latency of the
//                  *served* requests stays bounded.
//   4. verdict   — the capacity closed loop against single-process
//                  `kswsim serve --listen` over one Unix-socket
//                  connection: the simpler deployment the fleet must
//                  beat to earn its keep (recorded, not gated).
//
// Gates are locally scaled (ISSUE: CI machines range from 1 to many
// cores): scale = min(workers, hardware threads). With scale >= 2 the
// fleet must reach 0.5 * scale * baseline (=> >= 4x at 8 workers on
// 8+ cores); on a single core it must stay above an IPC-tax floor of
// 0.15 * baseline, since every request adds two socket hops but zero
// parallelism. Emits one "BENCH_serve_fleet.json" line (and --out).
#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "io/atomic.hpp"
#include "io/json.hpp"
#include "serve/service.hpp"

namespace {

using Clock = std::chrono::steady_clock;

struct Options {
  std::size_t workers = 4;
  std::size_t requests = 10'000;
  std::size_t tuples = 8;
  std::size_t queue_depth = 256;
  double brownout_seconds = 2.0;
  std::string out_path;
  std::string kswsim = KSW_KSWSIM_BIN;
  bool gate = true;
};

std::string build_workload(std::size_t requests, std::size_t tuples) {
  std::ostringstream os;
  for (std::size_t i = 0; i < requests; ++i) {
    os << R"({"kernel":"first_stage","id":)" << i
       << R"(,"params":{"p":0.)" << (i % tuples + 1)
       << R"(,"k":4,"service":"det:2","distribution":2048}})" << "\n";
  }
  return os.str();
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < text.size()) {
    const auto nl = text.find('\n', start);
    if (nl == std::string::npos) break;
    lines.push_back(text.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

/// A `kswsim fleet` child with its stderr on a pipe.
class FleetProc {
 public:
  bool start(const Options& opt) {
    int errpipe[2];
    if (::pipe(errpipe) != 0) return false;
    pid_ = ::fork();
    if (pid_ < 0) return false;
    if (pid_ == 0) {
      ::close(errpipe[0]);
      ::dup2(errpipe[1], STDERR_FILENO);
      ::close(errpipe[1]);
      const std::string workers = "--workers=" + std::to_string(opt.workers);
      const std::string depth =
          "--queue-depth=" + std::to_string(opt.queue_depth);
      ::execl(opt.kswsim.c_str(), opt.kswsim.c_str(), "fleet",
              "--tcp=127.0.0.1:0", workers.c_str(), depth.c_str(),
              static_cast<char*>(nullptr));
      ::_exit(127);
    }
    ::close(errpipe[1]);
    err_fd_ = errpipe[0];
    const int flags = ::fcntl(err_fd_, F_GETFL, 0);
    ::fcntl(err_fd_, F_SETFL, flags | O_NONBLOCK);
    // Wait for the listening banner (workers spawn first).
    const auto deadline = Clock::now() + std::chrono::seconds(30);
    const std::string needle = "fleet: listening on 127.0.0.1:";
    while (Clock::now() < deadline) {
      char chunk[4096];
      const ssize_t n = ::read(err_fd_, chunk, sizeof chunk);
      if (n > 0) err_buf_.append(chunk, static_cast<std::size_t>(n));
      const auto pos = err_buf_.find(needle);
      if (pos != std::string::npos &&
          err_buf_.find('\n', pos) != std::string::npos) {
        port_ = std::stoi(err_buf_.substr(pos + needle.size()));
        return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    std::fprintf(stderr, "perf_serve_fleet: fleet did not start:\n%s",
                 err_buf_.c_str());
    return false;
  }

  ~FleetProc() {
    if (pid_ > 0) {
      ::kill(pid_, SIGTERM);
      ::waitpid(pid_, nullptr, 0);
    }
    if (err_fd_ >= 0) ::close(err_fd_);
  }

  [[nodiscard]] int connect_client() const {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port_));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) != 0) {
      ::close(fd);
      return -1;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    return fd;
  }

 private:
  pid_t pid_ = -1;
  int err_fd_ = -1;
  int port_ = 0;
  std::string err_buf_;
};

/// A `kswsim serve --listen=SOCKET` child in a private directory under
/// TMPDIR, with its stderr discarded.
class ServeProc {
 public:
  /// Spawn and connect one client; returns the connected fd or -1.
  int start(const std::string& kswsim) {
    const char* tmp = std::getenv("TMPDIR");
    dir_ = std::string(tmp != nullptr ? tmp : "/tmp") +
           "/perf-serve-fleet-XXXXXX";
    if (::mkdtemp(dir_.data()) == nullptr) {
      dir_.clear();
      return -1;
    }
    const std::string listen = "--listen=" + dir_ + "/serve.sock";
    pid_ = ::fork();
    if (pid_ < 0) return -1;
    if (pid_ == 0) {
      const int devnull = ::open("/dev/null", O_WRONLY);
      if (devnull >= 0) ::dup2(devnull, STDERR_FILENO);
      ::execl(kswsim.c_str(), kswsim.c_str(), "serve", listen.c_str(),
              static_cast<char*>(nullptr));
      ::_exit(127);
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof addr.sun_path, "%s/serve.sock",
                  dir_.c_str());
    const auto deadline = Clock::now() + std::chrono::seconds(30);
    while (Clock::now() < deadline) {
      const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (fd < 0) return -1;
      if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof addr) == 0)
        return fd;
      ::close(fd);
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return -1;
  }

  ~ServeProc() {
    if (pid_ > 0) {
      ::kill(pid_, SIGTERM);
      ::waitpid(pid_, nullptr, 0);
    }
    if (!dir_.empty()) {
      ::unlink((dir_ + "/serve.sock").c_str());
      ::rmdir(dir_.c_str());
    }
  }

 private:
  pid_t pid_ = -1;
  std::string dir_;
};

bool write_all(int fd, const char* data, std::size_t size) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::write(fd, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

/// Windowed closed loop: keep at most `window` requests in flight so the
/// fleet's admission control never sheds; returns the wall seconds and
/// every response line in order.
double closed_loop(int fd, const std::vector<std::string>& requests,
                   std::size_t window, std::vector<std::string>* responses) {
  responses->clear();
  responses->reserve(requests.size());
  std::string rbuf;
  std::size_t sent = 0;
  std::size_t received = 0;
  const auto start = Clock::now();
  while (received < requests.size()) {
    while (sent < requests.size() && sent - received < window) {
      const std::string line = requests[sent] + "\n";
      if (!write_all(fd, line.data(), line.size())) return -1.0;
      sent++;
    }
    char chunk[65536];
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return -1.0;
    }
    rbuf.append(chunk, static_cast<std::size_t>(n));
    std::size_t nl;
    while ((nl = rbuf.find('\n')) != std::string::npos) {
      responses->push_back(rbuf.substr(0, nl));
      rbuf.erase(0, nl + 1);
      received++;
    }
  }
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct BrownoutResult {
  std::size_t offered = 0;
  std::size_t answered = 0;
  std::size_t served_ok = 0;
  std::size_t shed_overload = 0;
  /// In-band kernel errors. The perf_serve workload deliberately keeps
  /// one saturated tuple (p=0.5, k=4, det:2 -> rho = 1) that answers
  /// kind "numeric"; those are served, not shed, and single-process
  /// serve answers them byte-identically.
  std::size_t other_errors = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
};

/// Open-loop Poisson load at `qps` for `seconds`: a writer thread sends
/// on schedule no matter how slow responses come back (the defining
/// property of open-loop load), a reader thread timestamps completions.
bool brownout(int fd, double qps, double seconds, std::size_t tuples,
              BrownoutResult* result) {
  const auto t0 = Clock::now();
  const std::size_t planned = static_cast<std::size_t>(qps * seconds);
  std::vector<Clock::time_point> sends(planned);
  std::vector<double> latency_ms;
  std::atomic<std::size_t> sent{0};
  std::atomic<bool> writer_ok{true};

  std::thread writer([&] {
    std::mt19937_64 rng(20250809);
    std::exponential_distribution<double> gap(qps);
    double next_s = 0.0;
    for (std::size_t i = 0; i < planned; ++i) {
      next_s += gap(rng);
      const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(next_s));
      std::this_thread::sleep_until(due);
      const std::string line =
          R"({"kernel":"first_stage","id":)" + std::to_string(i) +
          R"(,"params":{"p":0.)" + std::to_string(i % tuples + 1) +
          R"(,"k":4,"service":"det:2","distribution":2048}})" + "\n";
      sends[i] = Clock::now();
      if (!write_all(fd, line.data(), line.size())) {
        writer_ok.store(false);
        return;
      }
      sent.store(i + 1, std::memory_order_release);
    }
    // Half-close: tell the fleet no more requests are coming, but keep
    // reading until everything in flight is answered.
    ::shutdown(fd, SHUT_WR);
  });

  std::string rbuf;
  std::size_t answered = 0;
  // Hard stop well past the load window, in case the fleet never closes.
  const auto reader_deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds + 30.0));
  while (Clock::now() < reader_deadline) {
    struct pollfd pfd {
      fd, POLLIN, 0
    };
    const int ready = ::poll(&pfd, 1, 200);
    if (ready < 0 && errno != EINTR) break;
    if (ready <= 0) {
      if (!writer_ok.load()) break;
      continue;
    }
    char chunk[65536];
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n <= 0) break;  // EOF: fleet closed after our half-close drain
    rbuf.append(chunk, static_cast<std::size_t>(n));
    std::size_t nl;
    while ((nl = rbuf.find('\n')) != std::string::npos) {
      const std::string line = rbuf.substr(0, nl);
      rbuf.erase(0, nl + 1);
      const auto now = Clock::now();
      const bool is_ok = line.find(R"("ok":true)") != std::string::npos;
      // Responses come back in request order on this connection, so the
      // k-th response matches the k-th send. Quantiles cover *served*
      // requests only: shed responses return in microseconds by design
      // and would flatter the tail.
      if (is_ok && answered < sends.size()) {
        latency_ms.push_back(
            std::chrono::duration<double, std::milli>(now - sends[answered])
                .count());
      }
      answered++;
      if (is_ok) {
        result->served_ok++;
      } else if (line.find(R"("kind":"overload")") != std::string::npos) {
        result->shed_overload++;
      } else {
        result->other_errors++;
      }
    }
  }
  writer.join();
  result->offered = sent.load();
  result->answered = answered;

  if (!latency_ms.empty()) {
    std::sort(latency_ms.begin(), latency_ms.end());
    const auto q = [&](double p) {
      const auto idx = static_cast<std::size_t>(
          p * static_cast<double>(latency_ms.size() - 1));
      return latency_ms[idx];
    };
    result->p50_ms = q(0.5);
    result->p99_ms = q(0.99);
    result->p999_ms = q(0.999);
  }
  return writer_ok.load();
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      opt.requests = 2000;
      opt.brownout_seconds = 1.0;
    } else if (arg == "--no-gate") {
      opt.gate = false;
    } else if (arg.rfind("--workers=", 0) == 0) {
      opt.workers = static_cast<std::size_t>(std::stoul(arg.substr(10)));
    } else if (arg.rfind("--requests=", 0) == 0) {
      opt.requests = static_cast<std::size_t>(std::stoul(arg.substr(11)));
    } else if (arg.rfind("--tuples=", 0) == 0) {
      opt.tuples = static_cast<std::size_t>(std::stoul(arg.substr(9)));
    } else if (arg.rfind("--queue-depth=", 0) == 0) {
      opt.queue_depth = static_cast<std::size_t>(std::stoul(arg.substr(14)));
    } else if (arg.rfind("--brownout-seconds=", 0) == 0) {
      opt.brownout_seconds = std::stod(arg.substr(19));
    } else if (arg.rfind("--out=", 0) == 0) {
      opt.out_path = arg.substr(6);
    } else if (arg.rfind("--kswsim=", 0) == 0) {
      opt.kswsim = arg.substr(9);
    } else {
      std::fprintf(stderr,
                   "perf_serve_fleet: unknown option %s\n"
                   "usage: perf_serve_fleet [--workers=N] [--requests=N] "
                   "[--tuples=T] [--queue-depth=D] [--brownout-seconds=S] "
                   "[--quick] [--out=FILE] [--no-gate] [--kswsim=PATH]\n",
                   arg.c_str());
      return 2;
    }
  }
  if (opt.workers == 0 || opt.tuples == 0 || opt.requests < opt.tuples) {
    std::fprintf(stderr,
                 "perf_serve_fleet: need workers >= 1, requests >= tuples "
                 ">= 1\n");
    return 2;
  }
  ::signal(SIGPIPE, SIG_IGN);

  const std::string workload = build_workload(opt.requests, opt.tuples);
  const std::vector<std::string> request_lines = split_lines(workload);

  // Phase 1: single-process cached baseline (two passes; measure warm).
  double baseline_qps = 0.0;
  std::vector<std::string> single_warm;
  {
    ksw::serve::Service service(ksw::serve::ServeOptions{});
    {
      std::istringstream in(workload);
      std::ostringstream sink;
      service.run(in, sink, nullptr);  // warm the cache
    }
    std::istringstream in(workload);
    std::ostringstream out;
    const auto start = Clock::now();
    service.run(in, out, nullptr);
    const double wall =
        std::chrono::duration<double>(Clock::now() - start).count();
    baseline_qps = static_cast<double>(opt.requests) / wall;
    single_warm = split_lines(out.str());
  }

  // Phase 2: fleet capacity over TCP (warm pass measured), plus the
  // bit-identity check on the warm responses.
  FleetProc fleet;
  if (!fleet.start(opt)) return 5;
  const int fd = fleet.connect_client();
  if (fd < 0) {
    std::fprintf(stderr, "perf_serve_fleet: cannot connect\n");
    return 5;
  }
  const std::size_t window = std::min<std::size_t>(128, opt.queue_depth / 2);
  std::vector<std::string> fleet_cold;
  std::vector<std::string> fleet_warm;
  if (closed_loop(fd, request_lines, window, &fleet_cold) < 0) {
    std::fprintf(stderr, "perf_serve_fleet: fleet connection died (cold)\n");
    return 5;
  }
  const double fleet_wall =
      closed_loop(fd, request_lines, window, &fleet_warm);
  ::close(fd);
  if (fleet_wall < 0) {
    std::fprintf(stderr, "perf_serve_fleet: fleet connection died (warm)\n");
    return 5;
  }
  const double fleet_qps = static_cast<double>(opt.requests) / fleet_wall;

  std::size_t mismatches = 0;
  if (fleet_warm.size() != single_warm.size()) {
    mismatches = opt.requests;
  } else {
    for (std::size_t i = 0; i < fleet_warm.size(); ++i)
      if (fleet_warm[i] != single_warm[i]) mismatches++;
  }

  // Phase 3: brownout at 2x the measured fleet capacity.
  const double brownout_qps = 2.0 * fleet_qps;
  const int bfd = fleet.connect_client();
  if (bfd < 0) {
    std::fprintf(stderr, "perf_serve_fleet: cannot connect (brownout)\n");
    return 5;
  }
  BrownoutResult br;
  const bool brownout_ok =
      brownout(bfd, brownout_qps, opt.brownout_seconds, opt.tuples, &br);
  ::close(bfd);

  // Phase 4: the same closed loop against single-process serve on one
  // Unix-socket connection (cold pass, then the measured warm pass).
  double serve_socket_qps = 0.0;
  {
    ServeProc serve;
    const int sfd = serve.start(opt.kswsim);
    std::vector<std::string> serve_responses;
    const double cold =
        sfd < 0 ? -1.0
                : closed_loop(sfd, request_lines, window, &serve_responses);
    const double serve_wall =
        cold < 0 ? -1.0
                 : closed_loop(sfd, request_lines, window, &serve_responses);
    if (sfd >= 0) ::close(sfd);
    if (serve_wall < 0) {
      std::fprintf(stderr, "perf_serve_fleet: serve --listen run failed\n");
      return 5;
    }
    serve_socket_qps = static_cast<double>(opt.requests) / serve_wall;
  }

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const std::size_t scale =
      std::min<std::size_t>(opt.workers, static_cast<std::size_t>(hw));
  const double multi_core_floor =
      0.5 * static_cast<double>(scale) * baseline_qps;
  const double single_core_floor = 0.15 * baseline_qps;
  const double floor_qps = scale >= 2 ? multi_core_floor : single_core_floor;

  std::printf("fleet throughput (%zu workers, %zu requests over %zu tuples, "
              "%u hw threads):\n",
              opt.workers, opt.requests, opt.tuples, hw);
  std::printf("  single-process cached  %.3e queries/sec\n", baseline_qps);
  std::printf("  fleet cached (TCP)     %.3e queries/sec  (%.2fx, floor "
              "%.3e)\n",
              fleet_qps, fleet_qps / baseline_qps, floor_qps);
  std::printf("  bit-identity           %zu mismatched of %zu responses\n",
              mismatches, opt.requests);
  std::printf("  serve on a Unix socket %.3e queries/sec  (fleet %.2fx)\n",
              serve_socket_qps, fleet_qps / serve_socket_qps);
  std::printf("brownout at 2x capacity (%.3e qps offered for %.1f s):\n",
              brownout_qps, opt.brownout_seconds);
  std::printf("  offered %zu  answered %zu  ok %zu  overload %zu  other "
              "%zu\n",
              br.offered, br.answered, br.served_ok, br.shed_overload,
              br.other_errors);
  std::printf("  latency p50/p99/p999  %.2f / %.2f / %.2f ms\n", br.p50_ms,
              br.p99_ms, br.p999_ms);

  ksw::io::Json j = ksw::io::Json::object();
  j.set("workers", static_cast<std::uint64_t>(opt.workers));
  j.set("requests", static_cast<std::uint64_t>(opt.requests));
  j.set("tuples", static_cast<std::uint64_t>(opt.tuples));
  j.set("queue_depth", static_cast<std::uint64_t>(opt.queue_depth));
  j.set("hw_threads", static_cast<std::uint64_t>(hw));
  j.set("scale", static_cast<std::uint64_t>(scale));
  j.set("qps_single_cached", baseline_qps);
  j.set("qps_fleet_cached", fleet_qps);
  j.set("fleet_vs_single", fleet_qps / baseline_qps);
  j.set("qps_serve_socket_cached", serve_socket_qps);
  j.set("fleet_vs_serve_socket", fleet_qps / serve_socket_qps);
  j.set("gate_floor_qps", floor_qps);
  j.set("bit_identical", mismatches == 0);
  j.set("mismatches", static_cast<std::uint64_t>(mismatches));
  j.set("brownout_offered_qps", brownout_qps);
  j.set("brownout_offered", static_cast<std::uint64_t>(br.offered));
  j.set("brownout_answered", static_cast<std::uint64_t>(br.answered));
  j.set("brownout_ok", static_cast<std::uint64_t>(br.served_ok));
  j.set("brownout_shed_overload",
        static_cast<std::uint64_t>(br.shed_overload));
  j.set("brownout_other_errors",
        static_cast<std::uint64_t>(br.other_errors));
  j.set("brownout_p50_ms", br.p50_ms);
  j.set("brownout_p99_ms", br.p99_ms);
  j.set("brownout_p999_ms", br.p999_ms);
  std::printf("BENCH_serve_fleet.json %s\n", j.to_string(0).c_str());
  if (!opt.out_path.empty())
    ksw::io::atomic_write_file(opt.out_path, j.to_string(2) + "\n");

  if (!opt.gate) return 0;
  bool failed = false;
  if (mismatches != 0) {
    std::fprintf(stderr,
                 "perf_serve_fleet: GATE FAILED: %zu fleet responses "
                 "differ from single-process serve\n",
                 mismatches);
    failed = true;
  }
  if (!(fleet_qps >= floor_qps)) {
    std::fprintf(stderr,
                 "perf_serve_fleet: GATE FAILED: fleet %.3e qps < floor "
                 "%.3e qps (scale %zu)\n",
                 fleet_qps, floor_qps, scale);
    failed = true;
  }
  if (!brownout_ok || br.answered < br.offered) {
    std::fprintf(stderr,
                 "perf_serve_fleet: GATE FAILED: brownout lost requests "
                 "(%zu answered of %zu offered)\n",
                 br.answered, br.offered);
    failed = true;
  }
  if (br.shed_overload == 0) {
    std::fprintf(stderr,
                 "perf_serve_fleet: GATE FAILED: 2x overload never shed — "
                 "admission control inert\n");
    failed = true;
  }
  if (!(br.p99_ms <= 500.0)) {
    std::fprintf(stderr,
                 "perf_serve_fleet: GATE FAILED: brownout p99 %.1f ms "
                 "exceeds the 500 ms bound (queueing collapse)\n",
                 br.p99_ms);
    failed = true;
  }
  return failed ? 3 : 0;
}
