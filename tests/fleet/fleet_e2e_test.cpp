// End-to-end fleet tests: spawn the real `kswsim fleet` binary (path
// baked in via KSW_KSWSIM_BIN), speak ksw.query/v1 over TCP, and pin the
// contracts docs/OPERATIONS.md promises operators:
//   - fleet responses are byte-identical to single-process serve,
//   - a killed worker is restarted and the fleet keeps answering,
//   - a full queue sheds in-band with error.kind "overload",
//   - responses come back in per-connection request order,
//   - workers never outlive the supervisor, and a failed start leaves
//     nothing behind,
//   - a half-closed, vanished, or abusive client affects only itself.
#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "par/cancel.hpp"
#include "serve/service.hpp"

namespace {

using Clock = std::chrono::steady_clock;

/// Drives one `kswsim fleet` child process: spawns it with stderr on a
/// pipe, parses the startup banner for the bound port and worker pids,
/// and SIGTERMs it on teardown.
class FleetProc {
 public:
  void start(const std::vector<std::string>& extra_args) {
    spawn(extra_args);
    ASSERT_TRUE(wait_for_banner("fleet: listening on 127.0.0.1:"))
        << "fleet did not come up; stderr so far:\n"
        << err_buf_;
    const auto pos = err_buf_.rfind("fleet: listening on 127.0.0.1:");
    port_ = std::stoi(err_buf_.substr(pos + 30));
    parse_worker_pids();
  }

  /// Fork+exec the fleet without waiting for its banner; a non-empty
  /// `tmpdir` becomes the child's TMPDIR.
  void spawn(const std::vector<std::string>& extra_args,
             const std::string& tmpdir = "") {
    int errpipe[2];
    ASSERT_EQ(::pipe(errpipe), 0);
    pid_ = ::fork();
    ASSERT_GE(pid_, 0);
    if (pid_ == 0) {
      ::close(errpipe[0]);
      ::dup2(errpipe[1], STDERR_FILENO);
      ::close(errpipe[1]);
      if (!tmpdir.empty()) ::setenv("TMPDIR", tmpdir.c_str(), 1);
      std::vector<std::string> args{KSW_KSWSIM_BIN, "fleet",
                                    "--tcp=127.0.0.1:0"};
      args.insert(args.end(), extra_args.begin(), extra_args.end());
      std::vector<char*> argv;
      argv.reserve(args.size() + 1);
      for (auto& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      ::execv(KSW_KSWSIM_BIN, argv.data());
      ::_exit(127);
    }
    ::close(errpipe[1]);
    err_fd_ = errpipe[0];
    const int flags = ::fcntl(err_fd_, F_GETFL, 0);
    ::fcntl(err_fd_, F_SETFL, flags | O_NONBLOCK);
  }

  ~FleetProc() { stop(); }

  /// Send `sig` (0 = none, just wait for exit) and reap the fleet;
  /// returns the exit code (or -signal).
  int stop(int sig = SIGTERM) {
    if (pid_ <= 0) return last_status_;
    if (sig != 0) ::kill(pid_, sig);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    if (err_fd_ >= 0) {
      drain_stderr();
      ::close(err_fd_);
      err_fd_ = -1;
    }
    last_status_ = WIFEXITED(status)   ? WEXITSTATUS(status)
                   : WIFSIGNALED(status) ? -WTERMSIG(status)
                                         : -1;
    return last_status_;
  }

  /// Blocking TCP connect to the fleet's front door.
  int connect_client() {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port_));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(
        ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr),
        0)
        << std::strerror(errno);
    return fd;
  }

  /// Wait (bounded) until `needle` appears in the accumulated stderr.
  bool wait_for_banner(const std::string& needle,
                       std::chrono::milliseconds budget =
                           std::chrono::milliseconds(20000)) {
    const auto deadline = Clock::now() + budget;
    while (Clock::now() < deadline) {
      drain_stderr();
      if (err_buf_.find(needle) != std::string::npos) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return false;
  }

  void drain_stderr() {
    char chunk[4096];
    while (true) {
      const ssize_t n = ::read(err_fd_, chunk, sizeof chunk);
      if (n <= 0) return;
      err_buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  void parse_worker_pids() {
    worker_pids_.clear();
    std::istringstream in(err_buf_);
    std::string line;
    while (std::getline(in, line)) {
      // "fleet: worker I pid P" — keep the *latest* pid per
      // index so restarts update the table.
      int index = 0;
      pid_t pid = 0;
      if (std::sscanf(line.c_str(), "fleet: worker %d pid %d", &index,
                      &pid) == 2) {
        if (static_cast<std::size_t>(index) >= worker_pids_.size())
          worker_pids_.resize(static_cast<std::size_t>(index) + 1, 0);
        worker_pids_[static_cast<std::size_t>(index)] = pid;
      }
    }
  }

  [[nodiscard]] int port() const { return port_; }
  [[nodiscard]] const std::vector<pid_t>& worker_pids() const {
    return worker_pids_;
  }
  [[nodiscard]] const std::string& stderr_text() const { return err_buf_; }

 private:
  pid_t pid_ = -1;
  int err_fd_ = -1;
  int port_ = 0;
  int last_status_ = -1;
  std::string err_buf_;
  std::vector<pid_t> worker_pids_;
};

void send_all(int fd, const std::string& bytes) {
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    ASSERT_GT(n, 0) << std::strerror(errno);
    done += static_cast<std::size_t>(n);
  }
}

/// Read exactly `count` newline-terminated lines (bounded wait).
std::vector<std::string> read_lines(int fd, std::size_t count,
                                    std::chrono::milliseconds budget =
                                        std::chrono::milliseconds(30000)) {
  std::vector<std::string> lines;
  std::string buf;
  const auto deadline = Clock::now() + budget;
  while (lines.size() < count && Clock::now() < deadline) {
    struct pollfd pfd {
      fd, POLLIN, 0
    };
    if (::poll(&pfd, 1, 100) <= 0) continue;
    char chunk[65536];
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n <= 0) break;
    buf.append(chunk, static_cast<std::size_t>(n));
    std::size_t nl;
    while ((nl = buf.find('\n')) != std::string::npos) {
      lines.push_back(buf.substr(0, nl));
      buf.erase(0, nl + 1);
    }
  }
  return lines;
}

std::vector<std::string> request_corpus() {
  return {
      R"({"id":0,"kernel":"first_stage","params":{"k":2,"s":2,"p":0.5}})",
      R"({"id":1,"kernel":"first_stage","params":{"k":4,"s":1,"p":0.9}})",
      R"({"id":2,"kernel":"closed_form","params":{"k":2,"p":0.5,"family":"uniform"}})",
      R"({"id":3,"kernel":"later_stages","params":{"k":2,"p":0.5,"stage":6}})",
      R"({"id":4,"kernel":"total_delay","params":{"k":2,"p":0.5,"stages":4}})",
      R"({"id":5,"kernel":"first_stage","params":{"k":2,"s":2,"p":0.5}})",
      R"({"id":6,"kernel":"nope"})",
      R"(this is not json)",
      R"({"id":8,"kernel":"first_stage","params":{"k":2,"s":2,"p":1.5}})",
      R"({"id":9,"kernel":"closed_form","params":{"k":2,"p":0.5,"family":"uniform"}})",
  };
}

TEST(FleetE2E, ByteIdenticalToSingleProcessServe) {
  const auto corpus = request_corpus();

  // Reference: the exact same lines through an in-process single serve.
  std::string joined;
  for (const auto& line : corpus) joined += line + "\n";
  std::istringstream in(joined);
  std::ostringstream ref_out;
  ksw::serve::Service service(ksw::serve::ServeOptions{});
  service.run(in, ref_out, nullptr);
  std::vector<std::string> expected;
  {
    std::istringstream ref(ref_out.str());
    std::string line;
    while (std::getline(ref, line)) expected.push_back(line);
  }
  ASSERT_EQ(expected.size(), corpus.size());

  FleetProc fleet;
  fleet.start({"--workers=3"});
  const int fd = fleet.connect_client();
  send_all(fd, joined);
  const auto got = read_lines(fd, corpus.size());
  ::close(fd);
  ASSERT_EQ(got.size(), corpus.size()) << fleet.stderr_text();
  for (std::size_t i = 0; i < corpus.size(); ++i)
    EXPECT_EQ(got[i], expected[i]) << "request " << i << ": " << corpus[i];
  EXPECT_EQ(fleet.stop(), 130);  // SIGTERM drains and exits interrupted
}

TEST(FleetE2E, ConcurrentClientsEachGetOrderedResponses) {
  FleetProc fleet;
  fleet.start({"--workers=2"});

  constexpr int kClients = 4;
  constexpr int kPerClient = 25;
  std::vector<std::thread> threads;
  std::vector<std::string> failures(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([c, &fleet, &failures] {
      const int fd = fleet.connect_client();
      std::string batch;
      for (int i = 0; i < kPerClient; ++i) {
        const int id = c * 1000 + i;
        batch += R"({"id":)" + std::to_string(id) +
                 R"(,"kernel":"first_stage","params":{"k":2,"s":2,"p":0.)" +
                 std::to_string(10 + (id % 80)) + "}}\n";
      }
      send_all(fd, batch);
      const auto lines = read_lines(fd, static_cast<std::size_t>(kPerClient));
      ::close(fd);
      if (lines.size() != static_cast<std::size_t>(kPerClient)) {
        failures[c] = "client got " + std::to_string(lines.size()) +
                      " of " + std::to_string(kPerClient) + " responses";
        return;
      }
      for (int i = 0; i < kPerClient; ++i) {
        const std::string want = R"("id":)" + std::to_string(c * 1000 + i);
        if (lines[static_cast<std::size_t>(i)].find(want) ==
            std::string::npos) {
          failures[c] = "response " + std::to_string(i) +
                        " out of order: " + lines[static_cast<std::size_t>(i)];
          return;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int c = 0; c < kClients; ++c)
    EXPECT_TRUE(failures[c].empty()) << "client " << c << ": " << failures[c];
}

TEST(FleetE2E, KilledWorkerRestartsAndFleetKeepsAnswering) {
  FleetProc fleet;
  fleet.start({"--workers=2"});
  ASSERT_EQ(fleet.worker_pids().size(), 2u);

  const int fd = fleet.connect_client();
  // Warm both shards so we know the fleet answers before the kill.
  std::string batch;
  for (int i = 0; i < 8; ++i)
    batch += R"({"id":)" + std::to_string(i) +
             R"(,"kernel":"first_stage","params":{"k":2,"s":2,"p":0.)" +
             std::to_string(11 + i) + "}}\n";
  send_all(fd, batch);
  ASSERT_EQ(read_lines(fd, 8).size(), 8u);

  const pid_t victim = fleet.worker_pids()[0];
  ASSERT_EQ(::kill(victim, SIGKILL), 0);
  ASSERT_TRUE(fleet.wait_for_banner("fleet: worker 0 exited; restarting"))
      << fleet.stderr_text();

  // The fleet must keep answering the same corpus correctly. A request
  // can race the restart and answer kind "internal" (retryable); retry
  // once and require clean answers.
  for (int attempt = 0; attempt < 2; ++attempt) {
    send_all(fd, batch);
    const auto lines = read_lines(fd, 8);
    ASSERT_EQ(lines.size(), 8u) << fleet.stderr_text();
    bool all_ok = true;
    for (const auto& line : lines) {
      EXPECT_TRUE(line.find(R"("ok":true)") != std::string::npos ||
                  line.find(R"("kind":"internal")") != std::string::npos)
          << line;
      if (line.find(R"("ok":true)") == std::string::npos) all_ok = false;
    }
    if (all_ok) break;
    ASSERT_LT(attempt, 1) << "fleet still failing after restart";
  }
  ::close(fd);

  fleet.drain_stderr();
  fleet.parse_worker_pids();
  EXPECT_NE(fleet.worker_pids()[0], victim);  // a fresh pid took shard 0
  EXPECT_EQ(fleet.stop(), 130);
}

TEST(FleetE2E, FullQueueShedsWithOverloadKind) {
  FleetProc fleet;
  fleet.start({"--workers=1", "--queue-depth=1"});

  const int fd = fleet.connect_client();
  // One TCP burst of many distinct requests: the supervisor ingests the
  // whole burst before it can drain worker responses, so with depth 1
  // nearly all of them must shed. Every request still gets exactly one
  // in-order response — shed-not-collapse, the brownout contract.
  constexpr int kBurst = 200;
  std::string batch;
  for (int i = 0; i < kBurst; ++i)
    batch += R"({"id":)" + std::to_string(i) +
             R"(,"kernel":"later_stages","params":{"k":2,"p":0.)" +
             std::to_string(100 + i) + R"(,"stage":8}})" + "\n";
  send_all(fd, batch);
  const auto lines = read_lines(fd, static_cast<std::size_t>(kBurst));
  ::close(fd);
  ASSERT_EQ(lines.size(), static_cast<std::size_t>(kBurst))
      << fleet.stderr_text();

  int overload = 0;
  for (int i = 0; i < kBurst; ++i) {
    const auto& line = lines[static_cast<std::size_t>(i)];
    // In-order delivery even under shedding.
    EXPECT_NE(line.find(R"("id":)" + std::to_string(i)), std::string::npos)
        << line;
    if (line.find(R"("kind":"overload")") != std::string::npos) overload++;
  }
  EXPECT_GT(overload, 0) << "queue depth 1 never shed a 200-request burst";
  EXPECT_LT(overload, kBurst) << "every request shed; none served";
  EXPECT_EQ(fleet.stop(), 130);
}

/// `count` distinct first_stage requests with ids 0..count-1; a
/// `distribution` > 0 asks for that many terms of the waiting-time law.
std::string first_stage_batch(int count, int distribution = 0) {
  std::string batch;
  for (int i = 0; i < count; ++i)
    batch += R"({"id":)" + std::to_string(i) +
             R"(,"kernel":"first_stage","params":{"p":0.)" +
             std::to_string(10 + i) +
             (distribution > 0
                  ? R"(,"distribution":)" + std::to_string(distribution)
                  : std::string()) +
             "}}\n";
  return batch;
}

/// True once `pid` no longer runs: reaped, or a zombie awaiting reaping
/// by whichever process adopted it.
bool process_gone(pid_t pid) {
  if (::kill(pid, 0) != 0) return errno == ESRCH;
  std::ifstream stat("/proc/" + std::to_string(pid) + "/stat");
  std::string text;
  std::getline(stat, text);
  const auto paren = text.rfind(')');
  return paren == std::string::npos || paren + 2 >= text.size() ||
         text[paren + 2] == 'Z';
}

TEST(FleetE2E, WorkersExitWhenTheSupervisorIsKilled) {
  FleetProc fleet;
  fleet.start({"--workers=3"});
  std::vector<pid_t> left = fleet.worker_pids();
  ASSERT_EQ(left.size(), 3u);

  // Prove the workers serve before their supervisor disappears.
  const int fd = fleet.connect_client();
  const auto corpus = request_corpus();
  std::string joined;
  for (const auto& line : corpus) joined += line + "\n";
  send_all(fd, joined);
  ASSERT_EQ(read_lines(fd, corpus.size()).size(), corpus.size());
  ::close(fd);

  EXPECT_EQ(fleet.stop(SIGKILL), -SIGKILL);
  const auto deadline = Clock::now() + std::chrono::seconds(5);
  while (!left.empty() && Clock::now() < deadline) {
    left.erase(std::remove_if(left.begin(), left.end(), process_gone),
               left.end());
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  for (const pid_t pid : left) ::kill(pid, SIGKILL);  // leak no orphans
  EXPECT_TRUE(left.empty()) << left.size()
                            << " of 3 workers outlived the supervisor by 5 s";
}

TEST(FleetE2E, FailedStartExitsFiveAndLeavesTmpdirEmpty) {
  namespace fs = std::filesystem;
  // Hold a listening port so the fleet's bind fails.
  const int holder = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(holder, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::bind(holder, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof addr),
            0);
  ASSERT_EQ(::listen(holder, 1), 0);
  socklen_t len = sizeof addr;
  ::getsockname(holder, reinterpret_cast<sockaddr*>(&addr), &len);
  const int port = ntohs(addr.sin_port);

  std::string pattern =
      (fs::temp_directory_path() / "fleet-e2e-tmpdir-XXXXXX").string();
  ASSERT_NE(::mkdtemp(pattern.data()), nullptr);
  const fs::path tmpdir = pattern;

  FleetProc fleet;
  fleet.spawn({"--workers=2", "--tcp=127.0.0.1:" + std::to_string(port)},
              tmpdir.string());
  EXPECT_EQ(fleet.stop(0), 5) << fleet.stderr_text();
  std::vector<std::string> leftovers;
  for (const auto& entry : fs::directory_iterator(tmpdir))
    leftovers.push_back(entry.path().filename().string());
  fs::remove_all(tmpdir);
  ::close(holder);
  EXPECT_TRUE(leftovers.empty())
      << "failed start left " << leftovers.size() << " entries in TMPDIR, "
      << "first: " << leftovers.front();
}

TEST(FleetE2E, CrashLoopingWorkerExitsEight) {
  // A worker that dies straight after spawn is restarted synchronously
  // until the crash-loop guard gives up: supervision failure, exit 8.
  FleetProc fleet;
  fleet.spawn({"--workers=2", "--worker-binary=/bin/false"});
  EXPECT_EQ(fleet.stop(0), 8) << fleet.stderr_text();
  EXPECT_NE(fleet.stderr_text().find("crash-looping"), std::string::npos)
      << fleet.stderr_text();
}

/// Read until the peer closes (or `budget` runs out); returns the lines
/// received and sets `*eof` when the connection ended cleanly or by reset.
std::vector<std::string> read_until_eof(int fd, bool* eof,
                                        std::chrono::milliseconds budget =
                                            std::chrono::milliseconds(30000)) {
  std::vector<std::string> lines;
  std::string buf;
  *eof = false;
  const auto deadline = Clock::now() + budget;
  while (!*eof && Clock::now() < deadline) {
    struct pollfd pfd {
      fd, POLLIN, 0
    };
    if (::poll(&pfd, 1, 100) <= 0) continue;
    char chunk[65536];
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n <= 0) {
      *eof = n == 0 || errno == ECONNRESET;
      break;
    }
    buf.append(chunk, static_cast<std::size_t>(n));
    std::size_t nl;
    while ((nl = buf.find('\n')) != std::string::npos) {
      lines.push_back(buf.substr(0, nl));
      buf.erase(0, nl + 1);
    }
  }
  return lines;
}

/// Write without SIGPIPE; returns false once the peer has gone away.
bool send_nosignal(int fd, const std::string& bytes) {
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + done, bytes.size() - done,
                             MSG_NOSIGNAL);
    if (n <= 0) return false;
    done += static_cast<std::size_t>(n);
  }
  return true;
}

TEST(FleetE2E, HalfClosedClientGetsEveryResponseThenEof) {
  FleetProc fleet;
  fleet.start({"--workers=2"});
  constexpr int kRequests = 30;
  const int fd = fleet.connect_client();
  send_all(fd, first_stage_batch(kRequests));
  ASSERT_EQ(::shutdown(fd, SHUT_WR), 0);  // done sending, still listening
  bool eof = false;
  const auto lines = read_until_eof(fd, &eof);
  ::close(fd);
  ASSERT_EQ(lines.size(), std::size_t{kRequests}) << fleet.stderr_text();
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_NE(lines[i].find(R"("id":)" + std::to_string(i) + ","),
              std::string::npos)
        << lines[i];
    EXPECT_NE(lines[i].find(R"("ok":true)"), std::string::npos) << lines[i];
  }
  EXPECT_TRUE(eof) << "fleet kept a half-closed client open after its "
                      "last response";
  EXPECT_EQ(fleet.stop(), 130);
}

TEST(FleetE2E, ClientVanishingMidResponseLeavesOthersServed) {
  FleetProc fleet;
  fleet.start({"--workers=2"});

  // Client A asks for many large (2048-term) distributions and closes
  // without reading: the supervisor is mid-way through relaying them
  // when the connection resets.
  const int a = fleet.connect_client();
  const std::string big = first_stage_batch(64, 2048);
  send_all(a, big);

  // Client B runs concurrently and must see every response, in order.
  const int b = fleet.connect_client();
  send_all(b, first_stage_batch(40));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ::close(a);
  const auto lines = read_lines(b, 40);
  ASSERT_EQ(lines.size(), 40u) << fleet.stderr_text();
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_NE(lines[i].find(R"("id":)" + std::to_string(i) + ","),
              std::string::npos)
        << lines[i];
    EXPECT_NE(lines[i].find(R"("ok":true)"), std::string::npos) << lines[i];
  }
  ::close(b);

  // And the fleet keeps serving new connections, large answers included.
  const int c = fleet.connect_client();
  send_all(c, big);
  const auto again = read_lines(c, 64);
  ::close(c);
  ASSERT_EQ(again.size(), 64u) << fleet.stderr_text();
  for (const auto& line : again)
    EXPECT_NE(line.find(R"("ok":true)"), std::string::npos);
  EXPECT_EQ(fleet.stop(), 130);
}

/// A valid first_stage request padded with blanks to `bytes` bytes.
std::string padded_request(int id, std::size_t bytes) {
  const std::string request = R"({"id":)" + std::to_string(id) +
                              R"(,"kernel":"first_stage","params":{"p":0.5}})";
  std::string padded = request;
  padded.insert(padded.size() - 1, bytes - request.size(), ' ');
  return padded;
}

TEST(FleetE2E, OverlongLineClosesOnlyThatConnection) {
  constexpr std::size_t kMaxLine = ksw::serve::kMaxLineBytes;
  FleetProc fleet;
  fleet.start({"--workers=2"});
  const int good = fleet.connect_client();

  // A line past the cap (no newline in sight) is protocol abuse: the
  // supervisor drops the connection without answering.
  const int abuser = fleet.connect_client();
  send_nosignal(abuser, std::string(kMaxLine + 4096, 'x'));
  bool eof = false;
  const auto answered = read_until_eof(abuser, &eof);
  ::close(abuser);
  EXPECT_TRUE(eof) << "overlong line did not close the connection";
  EXPECT_TRUE(answered.empty()) << answered.front();

  // A valid request padded to just under the cap is answered normally
  // on the connection that was open all along.
  const std::string padded = padded_request(7, kMaxLine - 64);
  ASSERT_LT(padded.size(), kMaxLine);
  send_all(good, padded + "\n");
  const auto lines = read_lines(good, 1);
  ::close(good);
  ASSERT_EQ(lines.size(), 1u) << fleet.stderr_text();
  EXPECT_NE(lines[0].find(R"("id":7)"), std::string::npos) << lines[0];
  EXPECT_NE(lines[0].find(R"("ok":true)"), std::string::npos) << lines[0];
  EXPECT_EQ(fleet.stop(), 130);
}

TEST(FleetE2E, TracedLinesAreCappedAfterTraceIdInjection) {
  constexpr std::size_t kMaxLine = ksw::serve::kMaxLineBytes;
  const std::string trace_out =
      (std::filesystem::temp_directory_path() /
       ("ksw_fleet_cap_trace_" + std::to_string(::getpid()) + ".jsonl"))
          .string();
  FleetProc fleet;
  fleet.start({"--workers=1", "--trace-out=" + trace_out});

  // Just under the cap, the injected trace_id still fits: answered.
  const int fits = fleet.connect_client();
  send_all(fits, padded_request(1, kMaxLine - 64) + "\n");
  auto lines = read_lines(fits, 1);
  ::close(fits);
  ASSERT_EQ(lines.size(), 1u) << fleet.stderr_text();
  EXPECT_NE(lines[0].find(R"("ok":true)"), std::string::npos) << lines[0];
  EXPECT_NE(lines[0].find(R"("trace_id":")"), std::string::npos) << lines[0];

  // At the cap, injection would push the forwarded line past it: the
  // supervisor ends that stream instead of handing the worker a line it
  // would reject, and the worker is not restarted.
  const int over = fleet.connect_client();
  send_nosignal(over, padded_request(2, kMaxLine) + "\n");
  bool eof = false;
  const auto answered = read_until_eof(over, &eof);
  ::close(over);
  EXPECT_TRUE(eof) << "over-cap forwarded line did not close the connection";
  EXPECT_TRUE(answered.empty()) << answered.front().substr(0, 200);

  const int after = fleet.connect_client();
  send_all(after, padded_request(3, 64) + "\n");
  lines = read_lines(after, 1);
  ::close(after);
  ASSERT_EQ(lines.size(), 1u) << fleet.stderr_text();
  EXPECT_NE(lines[0].find(R"("ok":true)"), std::string::npos) << lines[0];
  EXPECT_EQ(fleet.stop(), 130);
  EXPECT_EQ(fleet.stderr_text().find("restarting"), std::string::npos)
      << fleet.stderr_text();
  std::filesystem::remove(trace_out);
}

}  // namespace
