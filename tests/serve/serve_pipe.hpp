// Test helper: drive Service::run_fd over a pair of pipes, the way
// `kswsim serve` reads stdin. A writer thread feeds the input and a
// reader thread drains the responses, so neither side can fill a pipe
// and deadlock the serve loop, however large the input or output.
#pragma once

#include <pthread.h>
#include <unistd.h>

#include <csignal>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <thread>

#include "par/cancel.hpp"
#include "serve/service.hpp"

namespace ksw::serve {

struct PipeRun {
  ServeSummary summary;
  std::string output;
};

/// Serve `input` through `service.run_fd` and collect every byte it
/// writes. An exception from run_fd is rethrown once both helper
/// threads have finished.
inline PipeRun serve_through_pipes(Service& service, const std::string& input,
                                   const par::CancelToken* cancel = nullptr) {
  int in_pipe[2];
  int out_pipe[2];
  if (::pipe(in_pipe) != 0 || ::pipe(out_pipe) != 0)
    throw std::runtime_error("serve_through_pipes: pipe failed");
  std::thread writer([&] {
    // A serve loop that stops reading early closes its end; with SIGPIPE
    // blocked here the write fails with EPIPE instead of killing the test.
    sigset_t pipe_signal;
    sigemptyset(&pipe_signal);
    sigaddset(&pipe_signal, SIGPIPE);
    pthread_sigmask(SIG_BLOCK, &pipe_signal, nullptr);
    std::size_t done = 0;
    while (done < input.size()) {
      const ssize_t n =
          ::write(in_pipe[1], input.data() + done, input.size() - done);
      if (n <= 0) break;
      done += static_cast<std::size_t>(n);
    }
    ::close(in_pipe[1]);
  });
  PipeRun run;
  std::thread reader([&] {
    char buf[65536];
    ssize_t n = 0;
    while ((n = ::read(out_pipe[0], buf, sizeof buf)) > 0)
      run.output.append(buf, static_cast<std::size_t>(n));
    ::close(out_pipe[0]);
  });
  const auto finish = [&] {
    ::close(in_pipe[0]);  // unblocks a writer the loop stopped reading
    ::close(out_pipe[1]);
    writer.join();
    reader.join();
  };
  try {
    run.summary = service.run_fd(in_pipe[0], out_pipe[1], cancel);
  } catch (...) {
    finish();
    throw;
  }
  finish();
  return run;
}

}  // namespace ksw::serve
