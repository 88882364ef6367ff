// End-to-end serve loops: batching, response ordering, cache behavior,
// deadlines, cancellation, and the fd/socket transports.
#include "serve/service.hpp"

#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "io/json.hpp"
#include "par/cancel.hpp"
#include "serve_pipe.hpp"
#include "support/error.hpp"

namespace ksw::serve {
namespace {

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::stringstream ss(text);
  std::string line;
  while (std::getline(ss, line)) out.push_back(line);
  return out;
}

/// Connect to a Unix socket, retrying while the listener comes up;
/// returns -1 when it never does.
int connect_unix(const std::string& path) {
  for (int attempt = 0; attempt < 100; ++attempt) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) == 0)
      return fd;
    ::close(fd);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return -1;
}

/// Read until EOF (or ECONNRESET); false when `timeout` passes first.
bool read_until_eof(int fd, std::string* out,
                    std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  char buf[4096];
  while (std::chrono::steady_clock::now() < deadline) {
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, 50) <= 0) continue;
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n <= 0) return true;
    out->append(buf, static_cast<std::size_t>(n));
  }
  return false;
}

/// The raw bytes of a response's `result` field (which render_ok splices
/// in verbatim — so equality here is byte-for-byte, not just semantic).
std::string result_bytes(const std::string& response_line) {
  const auto pos = response_line.find("\"result\":");
  if (pos == std::string::npos) return {};
  // The result object runs to the envelope's closing brace.
  return response_line.substr(pos + 9,
                              response_line.size() - pos - 9 - 1);
}

TEST(Service, FiftyRequestBatchAnswersInOrder) {
  ServeOptions opts;
  opts.threads = 4;
  opts.batch = 8;  // forces several batches
  Service service(opts);

  std::ostringstream in_text;
  for (int i = 0; i < 50; ++i) {
    if (i % 10 == 7) {
      in_text << "this is not json\n";
    } else if (i % 10 == 3) {
      in_text << R"({"kernel":"nope","id":)" << i << "}\n";
    } else {
      // Five distinct tuples, so most requests repeat an earlier one.
      in_text << R"({"kernel":"first_stage","id":)" << i
              << R"(,"params":{"p":0.)" << (i % 5 + 1) << "}}\n";
    }
  }
  const auto [summary, output] =
      serve_through_pipes(service, in_text.str());
  EXPECT_EQ(summary.requests, 50u);
  EXPECT_EQ(summary.responses, 50u);
  EXPECT_FALSE(summary.interrupted);

  const auto lines = lines_of(output);
  ASSERT_EQ(lines.size(), 50u);
  for (int i = 0; i < 50; ++i) {
    const io::Json doc = io::Json::parse(lines[static_cast<std::size_t>(i)]);
    if (i % 10 == 7) {
      // Malformed lines carry no id but still answer in position.
      EXPECT_FALSE(doc.at("ok").as_bool());
      EXPECT_EQ(doc.at("error").at("kind").as_string(), "usage");
    } else {
      EXPECT_EQ(doc.at("id").as_int(), i) << "response out of order";
      EXPECT_EQ(doc.at("ok").as_bool(), i % 10 != 3);
    }
  }

  // Five distinct tuples served 40 ok responses: the cache absorbed the
  // repeats, and hits returned bit-identical result bytes.
  EXPECT_GE(service.cache().stats().hits, 30u);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    for (std::size_t j = i + 1; j < lines.size(); ++j) {
      if (i % 10 == 3 || i % 10 == 7 || j % 10 == 3 || j % 10 == 7) continue;
      if (i % 5 == j % 5) {
        EXPECT_EQ(result_bytes(lines[i]), result_bytes(lines[j]));
      }
    }
  }
}

TEST(Service, RepeatedTupleIsServedFromCache) {
  Service service(ServeOptions{});
  const auto lines = lines_of(
      serve_through_pipes(service,
                          "{\"kernel\":\"total_delay\",\"id\":\"a\"}\n"
                          "{\"kernel\":\"total_delay\",\"id\":\"b\"}\n")
          .output);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_FALSE(io::Json::parse(lines[0]).at("cached").as_bool());
  EXPECT_TRUE(io::Json::parse(lines[1]).at("cached").as_bool());
  EXPECT_EQ(result_bytes(lines[0]), result_bytes(lines[1]));
  EXPECT_EQ(service.cache().stats().hits, 1u);
  EXPECT_EQ(service.cache().stats().misses, 1u);
}

TEST(Service, FiniteBufferKernelIsDeterministicAndCached) {
  // The simulation kernels are pure functions of the (seeded) tuple:
  // a repeated request must hit the cache, and the convergence story
  // must hold — a deep buffer's accept ratio is exactly 1.
  Service service(ServeOptions{});
  const std::string tuple =
      R"("params":{"stages":3,"depth":64,"p":0.5,)"
      R"("cycles":4000,"warmup":400}})";
  const std::string input =
      "{\"kernel\":\"finite_buffer\",\"id\":1," + tuple +
      "\n{\"kernel\":\"finite_buffer\",\"id\":2," + tuple + "\n";
  const auto lines = lines_of(serve_through_pipes(service, input).output);
  ASSERT_EQ(lines.size(), 2u);
  const io::Json first = io::Json::parse(lines[0]);
  ASSERT_TRUE(first.at("ok").as_bool()) << lines[0];
  EXPECT_EQ(result_bytes(lines[0]), result_bytes(lines[1]));
  EXPECT_TRUE(io::Json::parse(lines[1]).at("cached").as_bool());
  const io::Json& result = first.at("result");
  EXPECT_EQ(result.at("depth").as_int(), 64);
  EXPECT_DOUBLE_EQ(result.at("accept_ratio").as_double(), 1.0);
  EXPECT_EQ(result.at("packets_dropped").as_int(), 0);
}

TEST(Service, BufferSweepReportsGridAndInfiniteBaseline) {
  Service service(ServeOptions{});
  const std::string input =
      R"({"kernel":"buffer_sweep","params":{"stages":3,"depths":[1,32],)"
      R"("p":0.7,"cycles":4000,"warmup":400}})"
      "\n";
  const auto lines = lines_of(serve_through_pipes(service, input).output);
  ASSERT_EQ(lines.size(), 1u);
  const io::Json doc = io::Json::parse(lines[0]);
  ASSERT_TRUE(doc.at("ok").as_bool()) << lines[0];
  const io::Json& result = doc.at("result");
  ASSERT_EQ(result.at("grid").size(), 2u);
  // Shallow buffers drop traffic; depth 32 at this load accepts all of it
  // and recovers the infinite-queue waiting time exactly.
  const io::Json& shallow = result.at("grid").at(0);
  const io::Json& deep = result.at("grid").at(1);
  EXPECT_LT(shallow.at("accept_ratio").as_double(), 1.0);
  EXPECT_DOUBLE_EQ(deep.at("accept_ratio").as_double(), 1.0);
  EXPECT_DOUBLE_EQ(deep.at("mean_wait_last").as_double(),
                   result.at("infinite").at("mean_wait_last").as_double());
}

TEST(Service, DisabledCacheStillAnswersDeterministically) {
  ServeOptions opts;
  opts.cache_mb = 0;
  Service service(opts);
  const auto lines = lines_of(
      serve_through_pipes(service,
                          "{\"kernel\":\"later_stages\"}\n"
                          "{\"kernel\":\"later_stages\"}\n")
          .output);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_FALSE(io::Json::parse(lines[1]).at("cached").as_bool());
  EXPECT_EQ(result_bytes(lines[0]), result_bytes(lines[1]));
  EXPECT_EQ(service.cache().stats().hits, 0u);
}

TEST(Service, ExpiredDeadlineAnswersWithoutEvaluating) {
  Service service(ServeOptions{});
  Request req = Request::parse(R"({"kernel":"first_stage","id":9})");
  ASSERT_TRUE(req.valid());
  req.deadline_ms = 1;
  req.arrival = std::chrono::steady_clock::now() -
                std::chrono::milliseconds(50);  // long past its deadline
  std::string out;
  service.serve_batch({req}, &out, nullptr);
  const io::Json doc = io::Json::parse(lines_of(out).at(0));
  EXPECT_FALSE(doc.at("ok").as_bool());
  EXPECT_EQ(doc.at("error").at("kind").as_string(), "deadline");
  EXPECT_EQ(doc.at("id").as_int(), 9);
  // The evaluation never ran, so nothing was cached or even looked up.
  EXPECT_EQ(service.cache().stats().hits + service.cache().stats().misses,
            0u);
}

TEST(Service, DefaultDeadlineFlowsIntoParsedRequests) {
  ServeOptions opts;
  opts.deadline_ms = 1234;
  Service service(opts);
  (void)service;  // the serve loop applies it via Request::parse
  const Request req = Request::parse(R"({"kernel":"first_stage"})", 1234);
  EXPECT_EQ(req.deadline_ms, 1234);
}

TEST(Service, CancelledTokenAnswersUnstartedRequestsAsInterrupted) {
  Service service(ServeOptions{});
  par::CancelToken cancel;
  cancel.request();
  std::vector<Request> batch;
  batch.push_back(Request::parse(R"({"kernel":"first_stage","id":1})"));
  std::string out;
  service.serve_batch(std::move(batch), &out, &cancel);
  const io::Json doc = io::Json::parse(lines_of(out).at(0));
  EXPECT_FALSE(doc.at("ok").as_bool());
  EXPECT_EQ(doc.at("error").at("kind").as_string(), "interrupted");
}

TEST(Service, RunReportsInterruptionWithoutConsumingInput) {
  Service service(ServeOptions{});
  par::CancelToken cancel;
  cancel.request();
  const ServeSummary summary =
      serve_through_pipes(service, "{\"kernel\":\"first_stage\"}\n", &cancel)
          .summary;
  EXPECT_TRUE(summary.interrupted);
  EXPECT_EQ(summary.requests, 0u);
}

TEST(Service, EvaluationDomainFailureIsNumeric) {
  // rho = 1 at p=1 with det:2 service: the model rejects the operating
  // point — a numeric error, not a usage error (the request was valid).
  Service service(ServeOptions{});
  const std::string input =
      R"({"kernel":"later_stages","params":{"p":1.0,"service":"det:2"}})"
      "\n";
  const io::Json doc = io::Json::parse(
      lines_of(serve_through_pipes(service, input).output).at(0));
  EXPECT_FALSE(doc.at("ok").as_bool());
  EXPECT_EQ(doc.at("error").at("kind").as_string(), "numeric");
}

TEST(Service, ReportCarriesServeCountersAndCacheStats) {
  Service service(ServeOptions{});
  serve_through_pipes(service,
                      "{\"kernel\":\"first_stage\"}\n"
                      "{\"kernel\":\"first_stage\"}\n");
  const io::Json report = service.report(/*include_wall=*/false);
  EXPECT_EQ(report.at("schema").as_string(), "ksw.obs.report/v1");
  EXPECT_EQ(report.at("command").as_string(), "serve");
  const io::Json& counters = report.at("metrics").at("counters");
  EXPECT_EQ(counters.at("serve.requests").as_int(), 2);
  EXPECT_EQ(counters.at("serve.responses.ok").as_int(), 2);
  EXPECT_EQ(counters.at("serve.cache.hits").as_int(), 1);
  EXPECT_EQ(report.at("cache").at("hits").as_int(), 1);
  EXPECT_GT(report.at("cache").at("bytes").as_int(), 0);
  EXPECT_DOUBLE_EQ(report.at("cache").at("hit_rate").as_double(), 0.5);
  EXPECT_GE(report.at("latency").at("p99_us").as_double(),
            report.at("latency").at("p50_us").as_double());
}

TEST(Service, ReportCarriesPoolLayers) {
  // The evaluation pool reports into the service's registry, so a lane
  // that starts late shows as pool.task_wait beside the serve.* layers.
  ServeOptions opts;
  opts.threads = 2;
  Service service(opts);
  serve_through_pipes(service,
                      "{\"kernel\":\"first_stage\"}\n"
                      "{\"kernel\":\"later_stages\"}\n");
  const io::Json report = service.report(/*include_wall=*/true);
  const io::Json& timers = report.at("metrics").at("timers");
  EXPECT_GT(timers.at("pool.task_wait").at("calls").as_int(), 0);
  EXPECT_GT(timers.at("pool.task_run").at("calls").as_int(), 0);
  EXPECT_GT(timers.at("serve.batch_wall").at("calls").as_int(), 0);
  EXPECT_EQ(report.at("metrics").at("gauges").at("pool.workers").as_double(),
            2.0);
  const double utilization =
      report.at("pool").at("worker_utilization").as_double();
  EXPECT_GT(utilization, 0.0);
  EXPECT_LE(utilization, 1.0);
  // Wall-derived, so absent from the deterministic report.
  EXPECT_FALSE(service.report(false).contains("pool"));
}

TEST(Service, RunFdServesAPipe) {
  int in_pipe[2];
  int out_pipe[2];
  ASSERT_EQ(::pipe(in_pipe), 0);
  ASSERT_EQ(::pipe(out_pipe), 0);
  const std::string input =
      "{\"kernel\":\"first_stage\",\"id\":1}\n"
      "{\"kernel\":\"first_stage\",\"id\":2}\n";
  ASSERT_EQ(::write(in_pipe[1], input.data(), input.size()),
            static_cast<ssize_t>(input.size()));
  ::close(in_pipe[1]);

  Service service(ServeOptions{});
  const ServeSummary summary =
      service.run_fd(in_pipe[0], out_pipe[1], nullptr);
  ::close(in_pipe[0]);
  ::close(out_pipe[1]);
  EXPECT_EQ(summary.responses, 2u);
  EXPECT_FALSE(summary.interrupted);

  std::string output;
  char buf[4096];
  ssize_t n = 0;
  while ((n = ::read(out_pipe[0], buf, sizeof buf)) > 0)
    output.append(buf, static_cast<std::size_t>(n));
  ::close(out_pipe[0]);
  const auto lines = lines_of(output);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(io::Json::parse(lines[0]).at("id").as_int(), 1);
  EXPECT_EQ(io::Json::parse(lines[1]).at("id").as_int(), 2);
  EXPECT_TRUE(io::Json::parse(lines[1]).at("cached").as_bool());
}

TEST(Service, RunFdObservesCancellationWhileBlocked) {
  int in_pipe[2];
  int out_pipe[2];
  ASSERT_EQ(::pipe(in_pipe), 0);
  ASSERT_EQ(::pipe(out_pipe), 0);
  Service service(ServeOptions{});
  par::CancelToken cancel;
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    cancel.request();
  });
  // No input ever arrives: the reader must wake up via its poll tick and
  // notice the token instead of sleeping forever.
  const ServeSummary summary =
      service.run_fd(in_pipe[0], out_pipe[1], &cancel);
  canceller.join();
  EXPECT_TRUE(summary.interrupted);
  for (const int fd : {in_pipe[0], in_pipe[1], out_pipe[0], out_pipe[1]})
    ::close(fd);
}

TEST(Service, RunListenServesASocketConnection) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("ksw_serve_test_" + std::to_string(::getpid()) + ".sock"))
          .string();
  Service service(ServeOptions{});
  par::CancelToken cancel;
  ServeSummary summary;
  std::thread server(
      [&] { summary = service.run_listen(path, &cancel); });

  // Connect (retrying until the listener is up), send two requests, read
  // both responses, then ask the server to shut down.
  const int fd = connect_unix(path);
  ASSERT_GE(fd, 0) << "could not connect to " << path;
  const std::string input =
      "{\"kernel\":\"closed_form\",\"id\":1,"
      "\"params\":{\"family\":\"uniform\"}}\n"
      "{\"kernel\":\"closed_form\",\"id\":2,"
      "\"params\":{\"family\":\"uniform\"}}\n";
  ASSERT_EQ(::write(fd, input.data(), input.size()),
            static_cast<ssize_t>(input.size()));
  ::shutdown(fd, SHUT_WR);
  std::string output;
  char buf[4096];
  ssize_t n = 0;
  while ((n = ::read(fd, buf, sizeof buf)) > 0)
    output.append(buf, static_cast<std::size_t>(n));
  ::close(fd);

  cancel.request();
  server.join();
  EXPECT_EQ(summary.responses, 2u);
  EXPECT_TRUE(summary.interrupted);  // ended by the token, as designed
  const auto lines = lines_of(output);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_TRUE(io::Json::parse(lines[1]).at("cached").as_bool());
  EXPECT_EQ(result_bytes(lines[0]), result_bytes(lines[1]));
  // The socket path is unlinked on exit.
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(Service, OverlongLineEndsTheStream) {
  // Requests before the overlong line are answered; the line and all
  // after it are not.
  const std::string before = R"({"kernel":"first_stage","id":1})" "\n";
  const std::string input = before + std::string(kMaxLineBytes + 4096, 'x') +
                            "\n" + R"({"kernel":"first_stage","id":2})" "\n";
  const auto expect_cap_error = [](const ksw::Error& e) {
    EXPECT_EQ(e.kind(), ksw::ErrorKind::kIo);
    EXPECT_NE(std::string(e.what()).find(std::to_string(kMaxLineBytes)),
              std::string::npos)
        << e.what();
  };

  int in_pipe[2];
  int out_pipe[2];
  ASSERT_EQ(::pipe(in_pipe), 0);
  ASSERT_EQ(::pipe(out_pipe), 0);
  std::thread writer([&] {
    std::size_t done = 0;
    while (done < input.size()) {
      const ssize_t n =
          ::write(in_pipe[1], input.data() + done, input.size() - done);
      if (n <= 0) break;  // reader closed early: the rest is unread
      done += static_cast<std::size_t>(n);
    }
    ::close(in_pipe[1]);
  });
  Service fd_service(ServeOptions{});
  bool threw = false;
  try {
    fd_service.run_fd(in_pipe[0], out_pipe[1], nullptr);
  } catch (const ksw::Error& e) {
    threw = true;
    expect_cap_error(e);
  }
  ::close(in_pipe[0]);  // unblocks the writer
  writer.join();
  ::close(out_pipe[1]);
  EXPECT_TRUE(threw) << "run_fd answered past the overlong line";
  std::string output;
  ASSERT_TRUE(read_until_eof(out_pipe[0], &output, std::chrono::seconds(5)));
  ::close(out_pipe[0]);
  const auto lines = lines_of(output);
  ASSERT_EQ(lines.size(), 1u) << output.substr(0, 200);
  EXPECT_EQ(io::Json::parse(lines[0]).at("id").as_int(), 1);

}

TEST(Service, RunListenClosesAnOverlongConnectionAndKeepsAccepting) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("ksw_serve_cap_test_" + std::to_string(::getpid()) + ".sock"))
          .string();
  Service service(ServeOptions{});
  par::CancelToken cancel;
  ServeSummary summary;
  std::thread server(
      [&] { summary = service.run_listen(path, &cancel); });

  // No newline ever arrives: the server closes once the cap is passed.
  const int abuser = connect_unix(path);
  ASSERT_GE(abuser, 0) << "could not connect to " << path;
  const std::string flood(kMaxLineBytes + 4096, 'x');
  std::size_t sent = 0;
  while (sent < flood.size()) {
    const ssize_t n = ::send(abuser, flood.data() + sent, flood.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  std::string answered;
  const bool closed =
      read_until_eof(abuser, &answered, std::chrono::seconds(5));
  ::close(abuser);
  EXPECT_TRUE(closed) << "overlong line did not close the connection";
  EXPECT_TRUE(answered.empty()) << answered.substr(0, 200);

  const int next = connect_unix(path);
  ASSERT_GE(next, 0);
  const std::string request = R"({"kernel":"first_stage","id":9})" "\n";
  ASSERT_EQ(::write(next, request.data(), request.size()),
            static_cast<ssize_t>(request.size()));
  ::shutdown(next, SHUT_WR);
  std::string output;
  EXPECT_TRUE(read_until_eof(next, &output, std::chrono::seconds(5)));
  ::close(next);
  cancel.request();
  server.join();
  const auto lines = lines_of(output);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(io::Json::parse(lines[0]).at("id").as_int(), 9);
  EXPECT_TRUE(io::Json::parse(lines[0]).at("ok").as_bool());
}

TEST(Service, MultiThreadedRepeatedTuplesStayBitIdentical) {
  // Stress the cache through the full service path: many threads' worth
  // of parallel evaluations of a handful of tuples must all serialize to
  // the same bytes per tuple.
  ServeOptions opts;
  opts.threads = 8;
  opts.batch = 128;
  Service service(opts);
  std::ostringstream in_text;
  for (int i = 0; i < 256; ++i)
    in_text << R"({"kernel":"total_delay","id":)" << i
            << R"(,"params":{"stages":)" << (i % 4 + 2) << "}}\n";
  const auto lines =
      lines_of(serve_through_pipes(service, in_text.str()).output);
  ASSERT_EQ(lines.size(), 256u);
  std::vector<std::string> canonical(4);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::size_t bucket = i % 4;
    const std::string bytes = result_bytes(lines[i]);
    ASSERT_FALSE(bytes.empty()) << lines[i];
    if (canonical[bucket].empty())
      canonical[bucket] = bytes;
    else
      EXPECT_EQ(bytes, canonical[bucket]) << "tuple " << bucket;
  }
  // In-batch dedup: each tuple's first occurrence is the only miss; every
  // other request, in either batch, is a hit.
  EXPECT_EQ(service.cache().stats().misses, 4u);
  EXPECT_EQ(service.cache().stats().hits, 252u);
  EXPECT_EQ(service.cache().stats().entries, 4u);
}

/// Eight first_stage tuples with non-trivial distributions, each repeated
/// eight times in a scrambled order and a second spelling of p, so every
/// batch races its duplicates across the workers.
std::string duplicated_batch_input() {
  std::ostringstream in;
  for (int i = 0; i < 64; ++i) {
    const int tuple = (i * 5 + i / 8) % 8;
    const double p = 0.02 * (tuple + 2);
    in << R"({"kernel":"first_stage","id":)" << i << R"(,"params":{"p":)";
    if (i % 2)
      in << p;
    else
      in << p * 10 << "e-1";
    in << R"(,"service":"det:)" << (tuple % 4 + 1)
       << R"(","distribution":512}})" << "\n";
  }
  return in.str();
}

TEST(Service, InBatchDuplicatesAreDeterministic) {
  const std::string input = duplicated_batch_input();
  std::string reference;
  for (int run = 0; run < 30; ++run) {
    ServeOptions opts;
    opts.threads = 8;
    opts.batch = 64;
    Service service(opts);
    const std::string output = serve_through_pipes(service, input).output;
    if (run == 0) reference = output;
    ASSERT_EQ(output, reference) << "run " << run;
    EXPECT_EQ(service.cache().stats().misses, 8u) << "run " << run;
    EXPECT_EQ(service.cache().stats().hits, 56u) << "run " << run;
    const io::Json counters =
        service.report(false).at("metrics").at("counters");
    EXPECT_EQ(counters.at("serve.cache.misses").as_int(), 8);
    EXPECT_EQ(counters.at("serve.cache.hits").as_int(), 56);
  }
  // The first occurrence of each tuple in batch order evaluated; every
  // later one says cached.
  const auto lines = lines_of(reference);
  ASSERT_EQ(lines.size(), 64u);
  std::vector<bool> seen(8, false);
  for (int i = 0; i < 64; ++i) {
    const int tuple = (i * 5 + i / 8) % 8;
    const io::Json doc = io::Json::parse(lines[static_cast<std::size_t>(i)]);
    ASSERT_TRUE(doc.at("ok").as_bool()) << lines[static_cast<std::size_t>(i)];
    EXPECT_EQ(doc.at("cached").as_bool(), seen[tuple]) << "request " << i;
    seen[tuple] = true;
  }
}

TEST(Service, InBatchDuplicatesAllEvaluateWithTheCacheOff) {
  const std::string input = duplicated_batch_input();
  ServeOptions opts;
  opts.threads = 8;
  opts.cache_mb = 0;
  Service service(opts);
  const auto lines = lines_of(serve_through_pipes(service, input).output);
  ASSERT_EQ(lines.size(), 64u);
  for (const std::string& line : lines)
    EXPECT_FALSE(io::Json::parse(line).at("cached").as_bool()) << line;
  EXPECT_EQ(service.cache().stats().misses, 64u);
  EXPECT_EQ(service.cache().stats().hits, 0u);
}

TEST(Service, RepeatOfAFailedLeaderFailsTheSameWay) {
  // rho >= 1: the leader's evaluation fails, nothing is cached, and each
  // repeat evaluates (and fails) on its own, as it would alone.
  ServeOptions opts;
  opts.threads = 4;
  Service service(opts);
  const std::string input =
      R"({"kernel":"first_stage","id":1,"params":{"p":1.0,"service":"det:2"}})"
      "\n"
      R"({"kernel":"first_stage","id":2,"params":{"p":1.0,"service":"det:2"}})"
      "\n";
  const auto lines = lines_of(serve_through_pipes(service, input).output);
  ASSERT_EQ(lines.size(), 2u);
  for (const std::string& line : lines) {
    const io::Json doc = io::Json::parse(line);
    EXPECT_FALSE(doc.at("ok").as_bool());
    EXPECT_EQ(doc.at("error").at("kind").as_string(), "numeric");
  }
  EXPECT_EQ(service.cache().stats().misses, 2u);
  EXPECT_EQ(service.cache().stats().hits, 0u);
}

TEST(Service, SubnormalParameterIsAnInBandUsageError) {
  // A subnormal p used to escape Request::parse as std::out_of_range and
  // end the serve loop; it must answer in-band while the rest of the
  // batch is served.
  Service service(ServeOptions{});
  const std::string input =
      R"({"kernel":"first_stage","id":1})"
      "\n"
      R"({"kernel":"first_stage","id":2,"params":{"p":1e-320}})"
      "\n"
      R"({"kernel":"later_stages","id":3})"
      "\n";
  const auto [summary, output] = serve_through_pipes(service, input);
  EXPECT_EQ(summary.responses, 3u);
  const auto lines = lines_of(output);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_TRUE(io::Json::parse(lines[0]).at("ok").as_bool());
  const io::Json bad = io::Json::parse(lines[1]);
  EXPECT_FALSE(bad.at("ok").as_bool());
  EXPECT_EQ(bad.at("id").as_int(), 2);
  EXPECT_EQ(bad.at("error").at("kind").as_string(), "usage");
  EXPECT_NE(bad.at("error").at("message").as_string().find("subnormal"),
            std::string::npos);
  EXPECT_TRUE(io::Json::parse(lines[2]).at("ok").as_bool());
}

}  // namespace
}  // namespace ksw::serve
